"""Dynamic information flow tracking: policies, shadow state, engine.

The framework the paper's §3 applications instantiate:
:class:`BoolTaintPolicy` (attack detection), :class:`PCTaintPolicy`
(root-cause location), and the lineage policy in
:mod:`repro.apps.lineage` (data validation).

Propagation runs through a pluggable batch kernel
(:mod:`repro.dift.kernel`): :class:`ReferenceKernel` is the pure-python
per-record logic, :class:`ArrayKernel` the vectorized numpy backend
(default when numpy is importable; ``REPRO_FASTPATH_KERNEL`` selects).
"""

from .engine import DIFTEngine, DIFTStats, SinkRule, TaintAlert
from .kernel import (
    ArrayKernel,
    BatchEffects,
    PropagationKernel,
    RecordStreamCapture,
    ReferenceKernel,
    build_kernel,
    select_kernel,
)
from .policy import BoolTaintPolicy, PCTaintPolicy, TaintPolicy
from .shadow import ArrayLabelStore, ShadowState

__all__ = [
    "DIFTEngine",
    "DIFTStats",
    "SinkRule",
    "TaintAlert",
    "BoolTaintPolicy",
    "PCTaintPolicy",
    "TaintPolicy",
    "ArrayLabelStore",
    "ShadowState",
    "ArrayKernel",
    "BatchEffects",
    "PropagationKernel",
    "RecordStreamCapture",
    "ReferenceKernel",
    "build_kernel",
    "select_kernel",
]
