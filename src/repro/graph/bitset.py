"""Big-integer bitset helpers.

The compression algorithms manipulate ancestor/descendant sets of every node
simultaneously (Section 3 of the paper computes the reachability equivalence
relation from exactly these sets).  Python's arbitrary-precision integers make
a convenient and fast bitset: union is ``|``, intersection ``&``, membership
``(mask >> i) & 1``.  This module collects the few non-operator helpers the
rest of the library needs, so call sites stay readable.

Converting between a mask and the positions of its set bits is the one
operation big integers do not offer, and peeling bits off one at a time
(``mask & -mask``) costs several big-integer operations per element.  The
helpers here go through the mask's binary digit string instead, so the
per-bit work happens inside ``bin`` / ``bytes.translate`` /
``itertools.compress`` / ``int(..., 2)`` — all linear-time C loops.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable, Iterator, TypeVar

T = TypeVar("T")

#: Bit masks for single positions are built with ``1 << i``; this alias makes
#: intent explicit at call sites that construct singletons.
EMPTY: int = 0

_DIGITS_TO_FLAGS = bytes.maketrans(b"01", b"\x00\x01")
_FLAGS_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def bit_flags(mask: int) -> bytes:
    """One ``0``/``1`` byte per bit position of *mask*, lowest bit first.

    The length is ``mask.bit_length()``; *mask* must be non-negative.

    >>> list(bit_flags(37))
    [1, 0, 1, 0, 0, 1]
    """
    return bin(mask)[:1:-1].encode().translate(_DIGITS_TO_FLAGS) if mask else b""


def select(mask: int, items: Iterable[T]) -> Iterator[T]:
    """The elements of *items* whose position is a set bit of *mask*.

    The mask → members conversion every bitset consumer shares:
    ``select(mask, nodes)`` names the nodes of a candidate set,
    ``select(mask, rows)`` picks their table rows, in ascending position.

    >>> list(select(37, "abcdefgh"))
    ['a', 'c', 'f']
    """
    return compress(items, bit_flags(mask))


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the indices of set bits in ascending order.

    >>> list(iter_bits(37))
    [0, 2, 5]
    """
    return compress(range(mask.bit_length()), bit_flags(mask))


def mask_of_flags(flags: Iterable[object]) -> int:
    """The bitset whose bit ``i`` is set iff the ``i``-th flag is truthy.

    Inverse of :func:`bit_flags` (up to trailing zeros).

    >>> mask_of_flags([1, 0, 5, 0, 0, True, 0])
    37
    """
    return _from_flag_bytes(bytes(map(bool, flags)))


def _from_flag_bytes(flags: "bytes | bytearray") -> int:
    return int(flags[::-1].translate(_FLAGS_TO_DIGITS), 2) if flags else 0


def bitset_of(indices: Iterable[int]) -> int:
    """Return the bitset containing exactly *indices*.

    >>> bitset_of([0, 2, 5])
    37
    """
    ids = indices if isinstance(indices, (list, tuple)) else list(indices)
    if not ids:
        return 0
    flags = bytearray(max(ids) + 1)
    for i in ids:
        flags[i] = 1
    return _from_flag_bytes(flags)


def popcount(mask: int) -> int:
    """Return the number of set bits (Python 3.10+ has int.bit_count)."""
    return mask.bit_count()


def contains(mask: int, index: int) -> bool:
    """Return True if bit *index* is set in *mask*."""
    return (mask >> index) & 1 == 1


def without(mask: int, index: int) -> int:
    """Return *mask* with bit *index* cleared."""
    return mask & ~(1 << index)
