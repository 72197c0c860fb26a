"""Fast-path execution flags.

The paper's whole argument is that tracing can be cheap *without
changing what is traced*: ONTRAC's compression and inference shrink the
stored stream but the dependences it answers queries about are the same
ones the naive tracer would have stored.  This module holds the few
switches that still choose between implementations of the same
semantics.  Each execution layer has exactly one production
implementation — the precompiled VM dispatch closures
(:mod:`repro.vm.dispatch`), the packed columnar dependence store
(:class:`~repro.ontrac.packed.PackedTraceBuffer`) and the DIFT shadow —
and the tests check each against an independent oracle: a hooked run
against a plain run, ONTRAC graphs and slices against the offline
tracer (:mod:`repro.ontrac.offline`) and the packed buffer against
:class:`~repro.ontrac.buffer.TraceBuffer` + :func:`~repro.ontrac.ddg.build_ddg`,
and the array kernel against :class:`~repro.dift.kernel.ReferenceKernel`
(see ``tests/test_fastpath_differential.py``).

Flags:

``array_kernel`` (default on)
    Run DIFT propagation through the vectorized batch kernel
    (:class:`repro.dift.kernel.ArrayKernel`): packed 24-byte records
    are decoded with numpy, a conservative location-key fixpoint
    selects the records that can touch taint, and only those replay
    through the per-record reference logic, with the untouched bulk
    accounted in O(1).  Shadow memory then lives in
    :class:`~repro.dift.shadow.ArrayLabelStore`; otherwise it is a
    plain dict.  Falls back to the pure-python
    :class:`~repro.dift.kernel.ReferenceKernel` when numpy is missing
    or the policy is not array-encodable (see
    :func:`propagation_kernel`).
``parallel_batch`` (default off)
    Batch the out-of-process DIFT helper's shared-memory channel
    (:class:`repro.multicore.parallel.ParallelHelperDIFT`): flush
    :func:`parallel_batch_size` messages per ring publish instead of
    one, amortizing the IPC cost.  Off by default so nothing about the
    modeled-cycle timelines or the per-message ordering depends on a
    host-side batching knob.
``summaries`` (default off)
    Function-summary DIFT (:mod:`repro.dift.summaries`): the first
    execution of a CALL-delimited region is distilled into a taint
    transfer summary; later calls with a matching footprint apply it
    in O(footprint) and skip instruction-level propagation, with
    automatic invalidation + bounded re-learning on divergence.

Resolution order: explicit argument > process-wide override
(:func:`configure` / :func:`overridden`) > environment
(``REPRO_FASTPATH_KERNEL=reference|array`` picks the propagation
kernel — ``reference`` is the one way to force the oracle kernel —
and ``REPRO_FASTPATH_KERNEL_BATCH`` the records-per-batch;
``REPRO_FASTPATH_PARALLEL`` opts in to channel batching and
``REPRO_FASTPATH_PARALLEL_BATCH`` sets the messages-per-flush;
``REPRO_FASTPATH_SUMMARIES`` opts in to function-summary DIFT) >
defaults.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class FastPathConfig:
    """Which fast-path implementations to use; see the module docstring."""

    #: vectorized batch propagation kernel (numpy; auto-falls back).
    array_kernel: bool = True
    #: batch the parallel helper's shared-memory channel (default off).
    parallel_batch: bool = False
    #: function-summary DIFT: learn per-call taint transfer functions
    #: and replay them in O(footprint) (default off).
    summaries: bool = False


def _env_bool(name: str, default: bool) -> bool:
    raw = os.environ.get(name)
    if raw is None:
        return default
    return raw.strip().lower() not in ("0", "false", "no", "off", "")


def _env_kernel() -> bool:
    """``REPRO_FASTPATH_KERNEL=reference|array`` as the array-kernel bool."""
    raw = os.environ.get("REPRO_FASTPATH_KERNEL")
    if raw is None:
        return True
    value = raw.strip().lower()
    if value in ("array", "1", "true", "yes", "on"):
        return True
    if value in ("reference", "0", "false", "no", "off", ""):
        return False
    raise ValueError(
        f"REPRO_FASTPATH_KERNEL={raw!r}: expected 'reference' or 'array'"
    )


def from_env() -> FastPathConfig:
    """Build the config the environment asks for."""
    return FastPathConfig(
        array_kernel=_env_kernel(),
        parallel_batch=_env_bool("REPRO_FASTPATH_PARALLEL", False),
        summaries=_env_bool("REPRO_FASTPATH_SUMMARIES", False),
    )


#: messages per ring flush when ``parallel_batch`` is enabled.
DEFAULT_PARALLEL_BATCH = 256


def parallel_batch_size(explicit: int | None = None) -> int:
    """Resolve the parallel helper's messages-per-flush.

    An explicit positive argument wins; otherwise the ``parallel_batch``
    flag selects between unbatched (1) and the environment's
    ``REPRO_FASTPATH_PARALLEL_BATCH`` (default
    :data:`DEFAULT_PARALLEL_BATCH`).
    """
    if explicit is not None:
        if explicit < 1:
            raise ValueError("batch size must be >= 1")
        return explicit
    if not current().parallel_batch:
        return 1
    raw = os.environ.get("REPRO_FASTPATH_PARALLEL_BATCH")
    if raw is None:
        return DEFAULT_PARALLEL_BATCH
    return max(1, int(raw))


#: records per inline micro-batch when the array kernel is active.
DEFAULT_KERNEL_BATCH = 2048

#: cached numpy availability (None = not probed yet).
_numpy_available: bool | None = None

#: times an array-kernel request fell back to the reference kernel,
#: keyed by reason ("numpy" | "policy"); read by engine telemetry.
kernel_fallbacks: dict[str, int] = {}

_fallback_warned = False


def numpy_available() -> bool:
    """Whether numpy can be imported (probed once, cached)."""
    global _numpy_available
    if _numpy_available is None:
        try:
            import numpy  # noqa: F401
        except ImportError:
            _numpy_available = False
        else:
            _numpy_available = True
    return _numpy_available


def note_kernel_fallback(reason: str, *, explicit: bool) -> None:
    """Count (and, for explicit requests, warn once about) an
    array-kernel request that fell back to the reference kernel."""
    global _fallback_warned
    kernel_fallbacks[reason] = kernel_fallbacks.get(reason, 0) + 1
    if explicit and not _fallback_warned:
        import warnings

        warnings.warn(
            f"array propagation kernel requested but unavailable ({reason}); "
            "falling back to the reference kernel",
            RuntimeWarning,
            stacklevel=3,
        )
        _fallback_warned = True


def propagation_kernel(explicit: str | None = None) -> str:
    """Resolve the propagation kernel name: ``"array"`` or ``"reference"``.

    An explicit name wins, otherwise the ``array_kernel`` config flag
    (``REPRO_FASTPATH_KERNEL=reference|array``, default array).  The
    array kernel additionally requires numpy: when it is missing the
    resolution falls back to ``"reference"``, counted in
    :data:`kernel_fallbacks` — with a one-line warning only when the
    array kernel was *explicitly* requested (argument or environment),
    so the importable-by-default path stays silent.
    """
    if explicit not in (None, "array", "reference"):
        raise ValueError(f"unknown propagation kernel {explicit!r}")
    if explicit == "reference":
        return "reference"
    if explicit is None and not current().array_kernel:
        return "reference"
    if numpy_available():
        return "array"
    asked = explicit == "array" or os.environ.get("REPRO_FASTPATH_KERNEL") is not None
    note_kernel_fallback("numpy", explicit=asked)
    return "reference"


def kernel_batch_size(explicit: int | None = None) -> int:
    """Records per inline micro-batch for the array kernel.

    An explicit positive argument wins, then
    ``REPRO_FASTPATH_KERNEL_BATCH``, then :data:`DEFAULT_KERNEL_BATCH`.
    Purely an implementation knob: any positive value yields
    bit-identical observables (the differential suite proves it).
    """
    if explicit is not None:
        if explicit < 1:
            raise ValueError("kernel batch size must be >= 1")
        return explicit
    raw = os.environ.get("REPRO_FASTPATH_KERNEL_BATCH")
    if raw is None:
        return DEFAULT_KERNEL_BATCH
    return max(1, int(raw))


def service_degrade_enabled(explicit: bool | None = None) -> bool:
    """Resolve the analysis service's degraded-mode policy.

    When on (the default), an overloaded daemon sheds *fidelity* first
    — full tracing falls back to DIFT-only, then logging-only, the
    paper's §2.2 cheap-logging/expensive-replay split — and only sheds
    *jobs* (REJECTED) at the hard capacity wall.  When off, overload
    goes straight to REJECTED with no degraded rung.

    Unlike the implementation flags above this is an admission *policy*,
    not a bit-identity lever, so it lives beside — not inside —
    :class:`FastPathConfig`: an explicit argument wins, otherwise
    ``REPRO_SERVICE_DEGRADE`` decides (default on).
    """
    if explicit is not None:
        return explicit
    return _env_bool("REPRO_SERVICE_DEGRADE", True)


def service_async_enabled(explicit: bool | None = None) -> bool:
    """Resolve the service's asyncio front-door switch.

    When on, ``repro serve`` runs the :mod:`repro.service.aserver`
    event-loop server (coroutine per connection, streamed partial
    results) instead of the thread-per-connection daemon.  Both speak
    the identical frame protocol against the identical pool, so this is
    a deployment-shape lever, not a semantic one: an explicit argument
    (the ``--async`` / ``--sync`` CLI flags) wins, otherwise
    ``REPRO_SERVICE_ASYNC`` decides (default off — the threaded daemon
    remains the conservative default).
    """
    if explicit is not None:
        return explicit
    return _env_bool("REPRO_SERVICE_ASYNC", False)


#: rows per streamed partial frame (slice pcs/lines chunking).
DEFAULT_STREAM_CHUNK_ROWS = 64


def stream_chunk_rows(explicit: int | None = None) -> int:
    """Resolve the streamed-result row-chunk size.

    Bounds how many slice rows ride in one ``partial`` frame.  Purely a
    framing knob — reassembly is chunk-size-independent, so any positive
    value yields byte-identical results.  An explicit positive argument
    wins, then ``REPRO_SERVICE_STREAM_CHUNK``, then
    :data:`DEFAULT_STREAM_CHUNK_ROWS`.
    """
    if explicit is not None:
        if explicit < 1:
            raise ValueError("stream chunk must be >= 1 row")
        return explicit
    raw = os.environ.get("REPRO_SERVICE_STREAM_CHUNK")
    if raw is None:
        return DEFAULT_STREAM_CHUNK_ROWS
    return max(1, int(raw))


def service_observe_enabled(explicit: bool | None = None) -> bool:
    """Resolve the analysis service's observability switch.

    When on (the default), a daemon keeps a flight-recorder ring and a
    metrics sampler running, and honors per-job ``trace`` requests with
    wall-clock spans.  All of it is job-granular host-side bookkeeping —
    nothing touches the modeled cycle counters or the per-record hot
    loops — so like ``service_degrade_enabled`` above it is an
    operational policy, not a bit-identity lever: an explicit argument
    wins, otherwise ``REPRO_SERVICE_OBSERVE`` decides (default on).
    """
    if explicit is not None:
        return explicit
    return _env_bool("REPRO_SERVICE_OBSERVE", True)


def service_lake_enabled(explicit: bool | None = None) -> bool:
    """Resolve the service's trace-lake persistence switch.

    When on, workers spill each traced job's packed dependence stream
    into the trace lake (:mod:`repro.lake`) under the observability
    umbrella, so "the one request that failed" can be sliced and
    diffed post-hoc — even after a crash — without re-executing it.
    Persistence is job-granular I/O outside the modeled machine, so
    like the switches above it is an operational policy: an explicit
    argument wins, otherwise ``REPRO_SERVICE_LAKE`` decides (default
    off — spilling every job costs disk).
    """
    if explicit is not None:
        return explicit
    return _env_bool("REPRO_SERVICE_LAKE", False)


_current: FastPathConfig | None = None


def current() -> FastPathConfig:
    """The active process-wide config."""
    global _current
    if _current is None:
        _current = from_env()
    return _current


def configure(config: FastPathConfig) -> FastPathConfig:
    """Install ``config`` process-wide; returns the previous config."""
    global _current
    previous = current()
    _current = config
    return previous


@contextmanager
def overridden(config: FastPathConfig):
    """Temporarily install ``config`` (the differential tests' lever)."""
    previous = configure(config)
    try:
        yield config
    finally:
        configure(previous)


def resolve(flag: bool | None, name: str) -> bool:
    """Resolve one flag: an explicit bool wins, None falls back to
    the process-wide config's attribute ``name``."""
    if flag is None:
        return getattr(current(), name)
    return flag


__all__ = [
    "DEFAULT_KERNEL_BATCH",
    "DEFAULT_PARALLEL_BATCH",
    "DEFAULT_STREAM_CHUNK_ROWS",
    "FastPathConfig",
    "configure",
    "current",
    "from_env",
    "kernel_batch_size",
    "kernel_fallbacks",
    "note_kernel_fallback",
    "numpy_available",
    "overridden",
    "parallel_batch_size",
    "propagation_kernel",
    "replace",
    "resolve",
    "service_async_enabled",
    "service_degrade_enabled",
    "service_lake_enabled",
    "service_observe_enabled",
    "stream_chunk_rows",
]
