"""``repro.store`` — persistence layer for frozen graphs.

Compress once, query forever: this subsystem keeps the frozen
:class:`~repro.graph.csr.CSRGraph` snapshots and their compressed variants
(``Gr`` from ``compressR``, ``Gb`` from ``compressB``) on disk so a query
session never rebuilds them.

* :mod:`repro.store.format` — versioned, checksummed binary snapshot codec
  (varint + delta-gap adjacency for graphs, packed fixed-width sections
  for variant and sidecar files); see ``FORMAT.md`` for the layout;
* :mod:`repro.store.mmapgraph` — row-lazy ``mmap`` reader over a snapshot
  file plus its offsets sidecar: adjacency decodes per row on demand, so
  resident memory tracks the query working set instead of ``|G|``;
* :mod:`repro.store.catalog` — content-addressed directory of base graphs
  plus compressed variants with zero-recompute warm hits;
* :mod:`repro.store.delta` — merge an edge delta into a snapshot without a
  full rebuild (the incremental maintainers' periodic re-freeze).
"""

from repro.store.catalog import CatalogError, CatalogLockError, SnapshotCatalog
from repro.store.delta import merge_deltas
from repro.store.format import (
    FORMAT_VERSION,
    LegacyLayoutError,
    SnapshotError,
    SnapshotFormatError,
    SnapshotSidecar,
    SnapshotVersionError,
    UnsupportedNodeError,
    build_sidecar,
    decode_sidecar,
    dump_bytes,
    encode_sidecar,
    graph_digest,
    load_bytes,
    load_snapshot,
    save_snapshot,
    save_snapshot_v2,
    sidecar_path,
)
from repro.store.mmapgraph import MmapGraph

__all__ = [
    "CatalogError",
    "CatalogLockError",
    "FORMAT_VERSION",
    "LegacyLayoutError",
    "MmapGraph",
    "SnapshotCatalog",
    "SnapshotError",
    "SnapshotFormatError",
    "SnapshotSidecar",
    "SnapshotVersionError",
    "UnsupportedNodeError",
    "build_sidecar",
    "decode_sidecar",
    "dump_bytes",
    "encode_sidecar",
    "graph_digest",
    "load_bytes",
    "load_snapshot",
    "merge_deltas",
    "save_snapshot",
    "save_snapshot_v2",
    "sidecar_path",
]
