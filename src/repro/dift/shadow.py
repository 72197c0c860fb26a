"""Shadow state: taint labels for registers and memory.

Mirrors the guest's storage one-for-one: a label per (thread, register)
and per memory cell.  Untainted locations are simply absent, so
:attr:`tainted_cells` / :attr:`shadow_bytes` directly measure the
footprint the paper reports as "taint memory overhead".

Two memory backends, chosen by the propagation kernel:

* **array store** — used when the array kernel is engaged
  (`repro.fastpath.array_kernel`): 4 KiB pages of numpy ``int64``
  label words, allocated on first taint (scalar-encodable policies
  only: bool -> 1, last-writer -> pc, ``-1`` = untainted).  Adds a
  vectorized :meth:`~ArrayLabelStore.tainted_addresses` export the
  array propagation kernel uses to seed its per-batch tainted-key set
  without a Python-level scan, and drops whole pages on ``clear_range``.
* **flat dict** — address -> label, used otherwise (the reference
  kernel, set-based policies); it is also the oracle the array store
  is checked against.

Both expose the same mapping surface (``get``/``pop``/``[]=``/``len``/
``values``/``items``), hold only non-``None`` labels, and produce
identical taint sets.
"""

from __future__ import annotations

from .. import fastpath as fastpath_config
from .policy import PCTaintPolicy, TaintPolicy

#: cells per shadow page (a 4 KiB page of one-word label slots).
PAGE_SIZE = 4096
PAGE_SHIFT = 12
PAGE_MASK = PAGE_SIZE - 1


class ArrayLabelStore:
    """Sparse address -> label map over numpy int64 label pages.

    Pages of :data:`PAGE_SIZE` cells, allocated on first taint, with
    the dict mapping surface; each page is one ``int64`` word per cell
    (``-1`` = untainted;
    the sentinel cannot be 0 because pc 0 is a valid last-writer
    label).  Only scalar-encodable labels fit: ``True`` for the bool
    policy, the non-negative writer pc for the PC policy — exactly the
    policies the array kernel specializes.
    """

    __slots__ = ("pages", "counts", "total", "pages_allocated", "pc_labels", "_np")

    #: empty-slot sentinel (labels are True->1 or a pc >= 0).
    CLEAR = -1

    def __init__(self, pc_labels: bool = False) -> None:
        import numpy

        self._np = numpy
        #: page index -> int64 array of PAGE_SIZE label words.
        self.pages: dict[int, object] = {}
        #: page index -> number of non-clear slots (drives page reclaim).
        self.counts: dict[int, int] = {}
        self.total = 0
        #: monotone count of pages ever materialized (telemetry).
        self.pages_allocated = 0
        #: decode words as writer pcs (else as the bool label ``True``).
        self.pc_labels = pc_labels

    def _decode(self, word: int):
        return int(word) if self.pc_labels else True

    # -- mapping surface (mirrors the dict backend) ---------------------
    def get(self, addr: int, default=None):
        page = self.pages.get(addr >> PAGE_SHIFT)
        if page is None:
            return default
        word = page[addr & PAGE_MASK]
        return default if word == self.CLEAR else self._decode(word)

    def __contains__(self, addr: int) -> bool:
        return self.get(addr) is not None

    def __setitem__(self, addr: int, label) -> None:
        idx = addr >> PAGE_SHIFT
        page = self.pages.get(idx)
        if page is None:
            page = self.pages[idx] = self._np.full(PAGE_SIZE, self.CLEAR, dtype=self._np.int64)
            self.counts[idx] = 0
            self.pages_allocated += 1
        slot = addr & PAGE_MASK
        if page[slot] == self.CLEAR:
            self.counts[idx] += 1
            self.total += 1
        page[slot] = 1 if label is True else label

    def pop(self, addr: int, default=None):
        idx = addr >> PAGE_SHIFT
        page = self.pages.get(idx)
        if page is None:
            return default
        slot = addr & PAGE_MASK
        word = page[slot]
        if word == self.CLEAR:
            return default
        page[slot] = self.CLEAR
        remaining = self.counts[idx] - 1
        if remaining == 0:
            del self.pages[idx]
            del self.counts[idx]
        else:
            self.counts[idx] = remaining
        self.total -= 1
        return self._decode(word)

    def __len__(self) -> int:
        return self.total

    def __eq__(self, other) -> bool:
        if isinstance(other, ArrayLabelStore):
            return self.total == len(other) and dict(self.items()) == dict(other.items())
        if isinstance(other, dict):
            return dict(self.items()) == other
        return NotImplemented

    __hash__ = None

    def values(self):
        for _, label in self.items():
            yield label

    def items(self):
        np = self._np
        for idx, page in self.pages.items():
            base = idx << PAGE_SHIFT
            for slot in np.nonzero(page != self.CLEAR)[0].tolist():
                yield base + slot, self._decode(page[slot])

    def keys(self):
        for addr, _ in self.items():
            yield addr

    __iter__ = keys

    # -- bulk operations -------------------------------------------------
    def tainted_addresses(self):
        """All tainted addresses as a sorted int64 numpy array."""
        np = self._np
        if not self.pages:
            return np.empty(0, dtype=np.int64)
        parts = []
        for idx in sorted(self.pages):
            page = self.pages[idx]
            parts.append((idx << PAGE_SHIFT) + np.nonzero(page != self.CLEAR)[0])
        return np.concatenate(parts).astype(np.int64, copy=False)

    def clear_range(self, base: int, size: int) -> None:
        """Untaint ``[base, base+size)``; full pages are dropped whole."""
        if size <= 0 or not self.pages:
            return
        end = base + size
        first = base >> PAGE_SHIFT
        last = (end - 1) >> PAGE_SHIFT
        if last - first + 1 <= len(self.pages):
            touched = [i for i in range(first, last + 1) if i in self.pages]
        else:
            touched = [i for i in self.pages if first <= i <= last]
        np = self._np
        for idx in touched:
            page_base = idx << PAGE_SHIFT
            lo = max(0, base - page_base)
            hi = min(PAGE_SIZE, end - page_base)
            if lo == 0 and hi == PAGE_SIZE:
                self.total -= self.counts.pop(idx)
                del self.pages[idx]
                continue
            page = self.pages[idx]
            window = page[lo:hi]
            cleared = int(np.count_nonzero(window != self.CLEAR))
            if cleared:
                window[:] = self.CLEAR
                remaining = self.counts[idx] - cleared
                self.total -= cleared
                if remaining == 0:
                    del self.pages[idx]
                    del self.counts[idx]
                else:
                    self.counts[idx] = remaining

    def copy(self) -> "ArrayLabelStore":
        new = ArrayLabelStore.__new__(ArrayLabelStore)
        new._np = self._np
        new.pages = {idx: page.copy() for idx, page in self.pages.items()}
        new.counts = dict(self.counts)
        new.total = self.total
        new.pages_allocated = self.pages_allocated
        new.pc_labels = self.pc_labels
        return new

    def as_dict(self) -> dict[int, object]:
        return dict(self.items())


class ShadowState:
    """Taint labels for one run's registers and memory cells."""

    def __init__(
        self,
        policy: TaintPolicy,
        regs: dict[tuple[int, int], object] | None = None,
        mem=None,
        array: bool = False,
    ):
        self.policy = policy
        #: (tid, reg) -> label, only for tainted registers.
        self.regs: dict[tuple[int, int], object] = {} if regs is None else regs
        #: address -> label, only for tainted cells (dict or array store —
        #: ``array=True`` requires numpy and a scalar-encodable policy,
        #: which the engine's kernel resolution guarantees).
        if mem is None:
            if array and fastpath_config.numpy_available():
                mem = ArrayLabelStore(pc_labels=type(policy) is PCTaintPolicy)
            else:
                mem = {}
        self.mem = mem
        #: high-water mark of simultaneously tainted locations (regs + cells).
        self.peak_locations = 0

    # -- registers -------------------------------------------------------
    def reg(self, tid: int, reg: int) -> object | None:
        return self.regs.get((tid, reg))

    def set_reg(self, tid: int, reg: int, label: object | None) -> None:
        key = (tid, reg)
        if label is None:
            self.regs.pop(key, None)
        else:
            self.regs[key] = label
            self._bump_peak()

    # -- memory ------------------------------------------------------------
    def cell(self, addr: int) -> object | None:
        return self.mem.get(addr)

    def set_cell(self, addr: int, label: object | None) -> None:
        if label is None:
            self.mem.pop(addr, None)
        else:
            self.mem[addr] = label
            self._bump_peak()

    def _bump_peak(self) -> None:
        size = len(self.mem) + len(self.regs)
        if size > self.peak_locations:
            self.peak_locations = size

    def clear_range(self, base: int, size: int) -> None:
        """Untaint ``[base, base+size)`` (used when blocks are freed).

        One pass over ``min(range size, tainted cells)`` entries: the
        array store sweeps only materialized pages, and the dict backend
        switches to scanning its keys when the range is wider than the
        tainted set — clearing a huge range that overlaps mostly
        untainted holes no longer visits every hole.
        """
        mem = self.mem
        if isinstance(mem, dict):
            if size > len(mem):
                end = base + size
                for addr in [a for a in mem if base <= a < end]:
                    del mem[addr]
            else:
                for addr in range(base, base + size):
                    mem.pop(addr, None)
        else:
            mem.clear_range(base, size)

    # -- measurement ------------------------------------------------------------
    @property
    def tainted_cells(self) -> int:
        return len(self.mem)

    @property
    def tainted_regs(self) -> int:
        return len(self.regs)

    @property
    def shadow_bytes(self) -> int:
        """Modeled shadow-memory size in bytes."""
        return (len(self.mem) + len(self.regs)) * self.policy.label_bytes

    @property
    def pages_allocated(self) -> int:
        """Shadow pages ever materialized (0 under the dict backend)."""
        return getattr(self.mem, "pages_allocated", 0)

    def mem_items(self) -> dict[int, object]:
        """Tainted cells as a plain dict (backend-independent view)."""
        return dict(self.mem.items()) if not isinstance(self.mem, dict) else dict(self.mem)

    def snapshot(self) -> "ShadowState":
        mem = dict(self.mem) if isinstance(self.mem, dict) else self.mem.copy()
        return ShadowState(policy=self.policy, regs=dict(self.regs), mem=mem)
