"""The match kernel's per-context scan memo (``MatchContext.kept``).

Each ``(bound, target)`` entry is ``(checked, hit)``: for ``i`` in
``checked``, ``i`` is in ``hit`` iff ``reach(bound)[i] & target`` is
non-empty.  These tests pin what the memo buys (a repeated target scans no
row), what it costs (never more bits than one reach table), and that
concurrent readers sharing one sealed context keep every entry exact.
"""

import random
import sys
import threading

from repro.datasets.patterns import random_pattern
from repro.graph.generators import (
    attach_equivalent_leaves,
    gnm_random_graph,
    preferential_attachment_graph,
)
from repro.obs.metrics import installed
from repro.queries.matching import MatchContext, match, match_naive
from repro.queries.pattern import GraphPattern


def _rows_scanned(registry):
    return registry.get("match_rows_scanned_total").value()


def _assert_entries_exact(ctx):
    n = len(ctx.indexer)
    for (bound, target), (checked, hit) in ctx._pre.items():
        rows = ctx.reach(bound)
        assert hit & ~checked == 0
        for i in range(n):
            if checked >> i & 1:
                assert bool(hit >> i & 1) == bool(rows[i] & target), (bound, i)


def test_a_pattern_whose_targets_repeat_scans_no_row():
    """One label, a social core plus fans: the second pattern asks only
    questions the first already answered, so it tests zero rows.  A kernel
    that rescans its candidates per question would test hundreds."""
    g = preferential_attachment_graph(300, out_degree=2, reciprocity=0.3, seed=4)
    attach_equivalent_leaves(g, [6] * 20, parents_per_group=2, seed=5)
    label = g.label(next(iter(g.nodes())))
    assert {g.label(v) for v in g.nodes()} == {label}
    first = GraphPattern.from_parts({0: label, 1: label, 2: label}, [(0, 1, 1), (1, 2, 2)])
    second = GraphPattern.from_parts(
        {0: label, 1: label, 2: label, 3: label}, [(0, 1, 1), (1, 2, 2), (3, 2, 2)],
    )
    ctx = MatchContext(g).seal()
    with installed() as registry:
        assert match(first, g, ctx) == match_naive(first, g)
        after_first = _rows_scanned(registry)
        assert match(second, g, ctx) == match_naive(second, g)
        assert after_first > g.order()  # round 0 alone tests every row once
        assert _rows_scanned(registry) == after_first
    _assert_entries_exact(ctx)


def test_memo_never_holds_more_bits_than_one_reach_table():
    g = gnm_random_graph(60, 240, num_labels=5, seed=3)
    n = g.order()
    ctx = MatchContext(g)
    rng = random.Random(8)
    for seed in range(120):
        q = random_pattern(g, rng.randrange(2, 6), rng.randrange(2, 8),
                           max_bound=3, star_prob=0.3, seed=seed)
        assert match(q, g, ctx) == match_naive(q, g), seed
        held = sum(target.bit_length() + checked.bit_length() + hit.bit_length()
                   for (_b, target), (checked, hit) in ctx._pre.items())
        assert held <= n * n
    assert len(ctx._pre) == n // 3  # the cap was reached, and answers held past it
    _assert_entries_exact(ctx)


def test_concurrent_readers_share_one_exact_memo():
    g = gnm_random_graph(300, 1200, num_labels=3, seed=21)
    patterns = [
        random_pattern(g, 3 + seed % 3, 5, max_bound=3, star_prob=0.3, seed=seed)
        for seed in range(24)
    ]
    expected = [match(p, g, MatchContext(g)) for p in patterns]
    ctx = MatchContext(g).seal()
    errors = []

    def reader(k):
        order = list(range(len(patterns)))
        random.Random(k).shuffle(order)
        for j in order:
            if match(patterns[j], g, ctx) != expected[j]:
                errors.append((k, j))

    threads = [threading.Thread(target=reader, args=(k,)) for k in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch inside the scans and the merges
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert ctx._pre
    _assert_entries_exact(ctx)
