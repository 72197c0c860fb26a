"""ONTRAC: online dependence tracing (§2.1) and its offline baseline."""

from .buffer import BufferStats, TraceBuffer
from .control_dep import ControlDependenceTracker, Region
from .ddg import DDGNode, DynamicDependenceGraph, build_ddg
from .offline import OfflineConfig, OfflineStats, OfflineTracer
from .packed import (
    ROW_PAYLOAD_BYTES,
    PackedDDG,
    PackedRecord,
    PackedTraceBuffer,
    SliceQueryStats,
)
from .records import (
    RECORD_BYTES,
    TRACE_FORMATION_BYTES,
    DepKind,
    DepRecord,
)
from .tracer import SUMMARY_FANIN_CAP, OnlineTracer, OntracConfig, OntracStats

__all__ = [
    "BufferStats",
    "TraceBuffer",
    "ControlDependenceTracker",
    "Region",
    "DDGNode",
    "DynamicDependenceGraph",
    "build_ddg",
    "OfflineConfig",
    "OfflineStats",
    "OfflineTracer",
    "ROW_PAYLOAD_BYTES",
    "PackedDDG",
    "PackedRecord",
    "PackedTraceBuffer",
    "SliceQueryStats",
    "RECORD_BYTES",
    "TRACE_FORMATION_BYTES",
    "DepKind",
    "DepRecord",
    "SUMMARY_FANIN_CAP",
    "OnlineTracer",
    "OntracConfig",
    "OntracStats",
]

from .wet import (  # noqa: E402  (appended export)
    CompactWET,
    Interval,
    StaticEdge,
    compact,
    compact_backward_slice,
)

__all__ += [
    "CompactWET",
    "Interval",
    "StaticEdge",
    "compact",
    "compact_backward_slice",
]
