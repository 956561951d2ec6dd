"""The Adam optimiser operating on :class:`~repro.nn.parameter.Parameter`.

Per-parameter state (the Adam moments) is keyed by the
parameter's *index* in ``self.parameters`` rather than by ``id(param)``:
CPython reuses object ids after garbage collection, so identity keys can
silently alias one parameter's state onto an unrelated parameter that
happens to be allocated at the same address — and identity keys cannot
round-trip through a checkpoint.  Index keys are stable, collision-free and
serialisable.

Sparse / lazy updates
---------------------
Parameters flagged ``sparse`` (the hash-grid tables under
``Instant3DConfig(sparse_updates=True)``) receive **touched-rows-only lazy
updates**, mirroring the accelerator's backward-update-merging unit, which
only ever writes touched hash-table entries back to SRAM:

* rows carrying a gradient this step get the full moment + bias-correction
  update at the current global step count;
* untouched rows are not visited at all — their pending moment decay is
  recorded through a per-row *last-step* counter and applied as a
  closed-form ``beta ** k`` catch-up the next time the row is touched
  (``k`` = steps since the last touch), which is arithmetically the
  deferred form of decaying every step;
* untouched rows receive **no parameter update** while their gradient is
  zero.  This is where the lazy semantics deliberately differ from plain
  dense Adam, whose bias-corrected momentum keeps nudging a row for many
  steps after its last gradient — exactly the per-entry work (and SRAM
  traffic) the paper's hardware never performs.

Gradients arrive as a compacted COO pair (:attr:`Parameter.sparse_grad`,
produced by the grid backward) whose rows are exactly the non-zero rows of
the equivalent dense gradient table; a sparse parameter with no pair this
step was not touched.  Each touched row's update depends on that row
alone, so :meth:`Adam.step` can split the rows into two halves and run them
on two threads (its ``runner`` argument) with bit-identical results.

``state_dict()`` **flushes** the deferred decay first (every row's moments
are brought up to the current step), so serialised moments are canonical
plain arrays: checkpoints need no per-row counters, and a save → load →
continue run is bit-identical to the saving run's own continuation.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.nn.parameter import Parameter, flat_pair_view
from repro.utils.workspace import WorkspaceArena, arena_buffer


def _load_indexed_state(slots: Dict[int, np.ndarray], stored: Dict[str, Any],
                        parameters: List[Parameter], label: str) -> None:
    """Restore an index-keyed moment dict in place."""
    slots.clear()
    for key, array in stored.items():
        index = int(key)
        if not 0 <= index < len(parameters):
            raise ValueError(
                f"checkpoint {label} index {index} is out of range for "
                f"{len(parameters)} parameters")
        array = np.asarray(array, dtype=np.float32)
        expected = parameters[index].data.shape
        if array.shape != expected:
            raise ValueError(
                f"checkpoint {label}[{index}] shape {array.shape} does not "
                f"match parameter shape {expected}")
        slots[index] = array.copy()


def _dump_indexed_state(slots: Dict[int, np.ndarray]) -> Dict[str, np.ndarray]:
    """Serialise an index-keyed moment dict (string keys for the manifest)."""
    return {str(index): array.copy() for index, array in sorted(slots.items())}


def _state_slot(slots: Dict[int, np.ndarray], index: int,
                template: np.ndarray, dtype=None) -> np.ndarray:
    """The per-parameter state array, created zeroed on first use.

    (``dict.setdefault`` would evaluate — allocate and zero — the default
    table-sized array on *every* call; this helper only pays on the miss.)
    """
    slot = slots.get(index)
    if slot is None:
        slot = (np.zeros(template.shape, dtype=template.dtype)
                if dtype is None
                else np.zeros(template.shape[0], dtype=dtype))
        slots[index] = slot
    return slot


def _touched_rows(param: Parameter) -> Tuple[np.ndarray, np.ndarray]:
    """The ``(rows, values)`` COO gradient of a sparse parameter.

    The dense grad of a sparse parameter is all-zero by construction, so a
    missing ``sparse_grad`` means nothing was touched this step.
    """
    if param.sparse_grad is not None:
        return param.sparse_grad.rows, param.sparse_grad.values
    return np.empty(0, dtype=np.int64), param.grad[:0]


def _broadcast_tail(factors: np.ndarray, ndim: int) -> np.ndarray:
    """Reshape per-row ``(U,)`` factors to broadcast over trailing axes."""
    return factors.reshape(factors.shape + (1,) * (ndim - 1))


def _pow_by_exponent(beta: float, k: np.ndarray,
                     out: Optional[np.ndarray] = None) -> np.ndarray:
    """``beta ** k`` for an integer array ``k >= 0``.

    Evaluates ``np.power`` once per *distinct exponent* (a table over
    ``[0, k.max()]`` — gap lengths are bounded by the step count, so the
    table is tiny) and gathers, instead of one scalar ``pow`` per element.
    Bit-identical to ``np.power(beta, k)``: the same scalar power is
    evaluated at the same integer exponents.
    """
    table = np.power(np.float64(beta), np.arange(int(k.max()) + 1,
                                                 dtype=np.int64))
    if out is None:
        return table[k]
    np.take(table.astype(out.dtype, copy=False), k, out=out)
    return out


def _rebuild_last_step(slots: Dict[int, np.ndarray], indices,
                       parameters: List[Parameter], step_count: int) -> None:
    """Recreate last-touch counters after a checkpoint load.

    ``state_dict()`` flushes before serialising, so every serialised row is
    decayed up to ``step_count`` — the counters are uniform and need not be
    stored.  ``indices`` iterates the parameter indices holding state.
    """
    slots.clear()
    for index in indices:
        if parameters[index].sparse:
            slots[index] = np.full(parameters[index].data.shape[0],
                                   step_count, dtype=np.int32)


class Adam:
    """Adam optimiser, the optimiser used by Instant-NGP for both MLPs and grids.

    The hash-grid tables receive extremely sparse gradients (only touched
    entries are non-zero).  Dense parameters (and every parameter when
    ``sparse_updates`` is off) run the textbook per-element update; ``sparse``
    parameters run the touched-rows-only lazy update of the module
    docstring, whose per-step cost scales with the touched-row count instead
    of the table size.
    """

    def __init__(self, parameters: Iterable[Parameter], lr: float = 1e-2,
                 betas=(0.9, 0.99), eps: float = 1e-10,
                 weight_decay: float = 0.0,
                 arena: Optional[WorkspaceArena] = None):
        # Each check is phrased so that NaN fails it.
        if not (np.isfinite(lr) and lr > 0):
            raise ValueError(f"learning rate must be finite and positive, got {lr}")
        if not all(0.0 <= beta < 1.0 for beta in betas):
            raise ValueError(f"betas must lie in [0, 1), got {betas}")
        if not (np.isfinite(eps) and eps > 0):
            raise ValueError(f"eps must be finite and positive, got {eps}")
        if not (np.isfinite(weight_decay) and weight_decay >= 0):
            raise ValueError(
                f"weight_decay must be finite and non-negative, got {weight_decay}")
        self.parameters: List[Parameter] = list(parameters)
        self.lr = float(lr)
        self.beta1, self.beta2 = float(betas[0]), float(betas[1])
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self.arena = arena
        #: Arena-name prefix of this instance's scratch buffers.
        self.arena_prefix = "adam"
        self._step_count = 0
        self._m: Dict[int, np.ndarray] = {}
        self._v: Dict[int, np.ndarray] = {}
        #: Per sparse parameter: the step each row's moments are decayed to.
        self._last_step: Dict[int, np.ndarray] = {}

    def set_arena(self, arena: Optional[WorkspaceArena],
                  prefix: Optional[str] = None) -> None:
        """Attach a workspace arena supplying the per-update scratch buffers,
        optionally with this instance's own buffer-name prefix (needed when
        two optimisers share one arena and may step concurrently)."""
        self.arena = arena
        if prefix is not None:
            self.arena_prefix = prefix

    def step(self, runner: Optional[Callable] = None) -> None:
        """Apply one Adam update using the accumulated gradients.

        Every arithmetic step of the dense path runs in place through two
        scratch buffers with the exact operation order of the textbook
        expression ``param -= lr * (m / bias1) / (sqrt(v / bias2) + eps)``,
        so results are bit-identical to the allocating formulation while
        steady-state steps allocate nothing.  ``sparse`` parameters branch
        to the lazy row update instead.

        ``runner`` is an optional pair runner, ``runner(first, second)``
        returning both results (such as
        :meth:`~repro.core.model.DecoupledRadianceField.run_branches`): each
        sparse parameter's lazy update then runs as two tasks over the two
        halves of its touched rows.  The result is bit-identical either way.
        """
        self._step_count += 1
        bias1 = 1.0 - self.beta1 ** self._step_count
        bias2 = 1.0 - self.beta2 ** self._step_count
        for index, param in enumerate(self.parameters):
            if param.sparse:
                self._step_sparse(index, param, bias1, bias2, runner)
                continue
            grad = param.grad
            if self.weight_decay > 0.0:
                grad = grad + self.weight_decay * param.data
            m = _state_slot(self._m, index, param.data)
            v = _state_slot(self._v, index, param.data)
            t1 = arena_buffer(self.arena, f"{self.arena_prefix}/t1",
                              grad.shape, grad.dtype)
            t2 = arena_buffer(self.arena, f"{self.arena_prefix}/t2",
                              grad.shape, grad.dtype)
            m *= self.beta1
            np.multiply(1.0 - self.beta1, grad, out=t1)
            m += t1
            v *= self.beta2
            np.multiply(1.0 - self.beta2, grad, out=t1)
            t1 *= grad
            v += t1
            np.divide(m, bias1, out=t1)          # m_hat
            np.multiply(self.lr, t1, out=t1)     # lr * m_hat
            np.divide(v, bias2, out=t2)          # v_hat
            np.sqrt(t2, out=t2)
            t2 += self.eps
            t1 /= t2
            param.data -= t1

    def _step_sparse(self, index: int, param: Parameter, bias1: float,
                     bias2: float, runner: Optional[Callable]) -> None:
        """Touched-rows-only Adam update of one sparse parameter.

        With a ``runner`` the sorted unique touched rows are split at
        ``n_rows // 2`` into two disjoint halves, one :meth:`_step_rows`
        task each; the moment arrays are created here first, so the two
        tasks only read and write disjoint rows of them.
        """
        rows, vals = _touched_rows(param)
        n_rows = int(rows.size)
        if n_rows == 0:
            return            # nothing touched: every row's decay stays deferred
        state = (_state_slot(self._m, index, param.data),
                 _state_slot(self._v, index, param.data),
                 _state_slot(self._last_step, index, param.data,
                             dtype=np.int32))
        if runner is None:
            self._step_rows(state, param, rows, vals, bias1, bias2, 0)
            return
        half = n_rows // 2
        runner(lambda: self._step_rows(state, param, rows[:half], vals[:half],
                                       bias1, bias2, 0),
               lambda: self._step_rows(state, param, rows[half:], vals[half:],
                                       bias1, bias2, 1))

    def _step_rows(self, state: Tuple[np.ndarray, np.ndarray, np.ndarray],
                   param: Parameter, rows: np.ndarray, vals: np.ndarray,
                   bias1: float, bias2: float, part: int) -> None:
        """Lazy Adam update of a slice of sorted unique touched rows, with
        ``beta ** k`` moment catch-up.

        Gathers the rows' moments, applies the deferred decay of the ``k``
        steps since each row's last touch (the current step included),
        folds in this step's gradient and writes back — every pass is
        ``O(rows)``, never ``O(table)``.  Each row's arithmetic depends on
        that row alone, so updating disjoint slices (in any order, or at
        once on two threads — ``part`` names their scratch buffers) is
        bit-identical to one call over all rows.  Like the dense path, the
        arithmetic runs in single precision (moments are float32 storage);
        the decay factors are float32 roundings of exact float64 powers.
        """
        n_rows = int(rows.size)
        if n_rows == 0:
            return
        m, v, last = state
        arena = self.arena
        pre = f"{self.arena_prefix}{part}"
        # mode="clip" skips numpy's per-element bounds check on the gathers
        # below: the touched rows are in range by construction.
        k = arena_buffer(arena, f"{pre}/sp_k", n_rows, np.int32)
        np.take(last, rows, out=k, mode="clip")
        np.subtract(np.int32(self._step_count), k, out=k)        # k >= 1
        last[rows] = self._step_count
        c1 = _pow_by_exponent(self.beta1, k,
                              arena_buffer(arena, f"{pre}/sp_c1", n_rows,
                                           np.float32))
        c2 = _pow_by_exponent(self.beta2, k,
                              arena_buffer(arena, f"{pre}/sp_c2", n_rows,
                                           np.float32))
        # Gather the touched rows of the moments and the parameter into
        # contiguous scratch.  The hash-table layout ((T, 2) float32,
        # contiguous) goes through the complex64 flat pair view — one flat
        # take per array instead of 2-D fancy indexing — and all arithmetic
        # below then runs on contiguous float32 blocks.
        mflat = flat_pair_view(m)
        vflat = flat_pair_view(v)
        dflat = flat_pair_view(param.data)
        if mflat is not None and vflat is not None and dflat is not None:
            mg = arena_buffer(arena, f"{pre}/sp_mg", n_rows, np.complex64)
            vg = arena_buffer(arena, f"{pre}/sp_vg", n_rows, np.complex64)
            dg = arena_buffer(arena, f"{pre}/sp_dg", n_rows, np.complex64)
            np.take(mflat, rows, out=mg, mode="clip")
            np.take(vflat, rows, out=vg, mode="clip")
            np.take(dflat, rows, out=dg, mode="clip")
            m32 = mg.view(np.float32).reshape(vals.shape)
            v32 = vg.view(np.float32).reshape(vals.shape)
            d32 = dg.view(np.float32).reshape(vals.shape)
        else:
            mg = vg = dg = None
            m32 = arena_buffer(arena, f"{pre}/sp_m32", vals.shape, np.float32)
            v32 = arena_buffer(arena, f"{pre}/sp_v32", vals.shape, np.float32)
            d32 = arena_buffer(arena, f"{pre}/sp_d32", vals.shape, np.float32)
            np.take(m, rows, axis=0, out=m32, mode="clip")
            np.take(v, rows, axis=0, out=v32, mode="clip")
            np.take(param.data, rows, axis=0, out=d32, mode="clip")
        if self.weight_decay > 0.0:
            vals = vals + self.weight_decay * d32
        # Moments, float32 in place on the gathered rows:
        #   m <- beta1**k * m + (1 - beta1) * g
        #   v <- beta2**k * v + (1 - beta2) * g^2
        tail = vals.ndim
        g1 = arena_buffer(arena, f"{pre}/sp_g1", vals.shape, np.float32)
        np.multiply(1.0 - self.beta1, vals, out=g1)
        g2 = arena_buffer(arena, f"{pre}/sp_g2", vals.shape, np.float32)
        np.multiply(vals, vals, out=g2)
        g2 *= 1.0 - self.beta2
        if mg is not None:
            # Complex in-place forms: a real factor scales both features of
            # a row (value-identical to the per-feature multiply), and the
            # complex add is the elementwise add — every pass contiguous,
            # no broadcast column.
            mg *= c1
            mg += g1.view(np.complex64).reshape(-1)
            vg *= c2
            vg += g2.view(np.complex64).reshape(-1)
        else:
            m32 *= _broadcast_tail(c1, tail)
            m32 += g1
            v32 *= _broadcast_tail(c2, tail)
            v32 += g2
        # Parameter update (g1/g2 reused as scratch, scalars folded):
        #   param -= (lr / bias1) * m / (sqrt(v * (1 / bias2)) + eps)
        np.multiply(self.lr / bias1, m32, out=g1)
        np.multiply(1.0 / bias2, v32, out=g2)
        np.sqrt(g2, out=g2)
        g2 += self.eps
        g1 /= g2
        d32 -= g1
        # Scatter moments and parameter back (touched rows only).
        if mg is not None:
            mflat[rows] = mg
            vflat[rows] = vg
            dflat[rows] = dg
        else:
            m[rows] = m32
            v[rows] = v32
            param.data[rows] = d32

    def _flush_lazy(self) -> None:
        """Apply all deferred moment decay (every row up to the current step)."""
        for index, last in self._last_step.items():
            stale = np.flatnonzero(last < self._step_count)
            if stale.size == 0:
                continue
            k = self._step_count - last[stale]
            m, v = self._m[index], self._v[index]
            m[stale] *= _broadcast_tail(_pow_by_exponent(self.beta1, k), m.ndim)
            v[stale] *= _broadcast_tail(_pow_by_exponent(self.beta2, k), v.ndim)
            last[stale] = self._step_count

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    @property
    def step_count(self) -> int:
        return self._step_count

    # -- serialisation ------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """Serialisable optimiser state: step count plus per-index moments.

        The step count drives the bias-correction terms, so omitting it
        would change every post-resume update; moments are float32 arrays
        and round-trip exactly.  Deferred lazy decay is **flushed first**
        (rebasing the live optimiser too), so the serialised moments are
        canonical and no per-row counters need to be stored — see the
        module docstring.
        """
        self._flush_lazy()
        return {
            "step_count": int(self._step_count),
            "m": _dump_indexed_state(self._m),
            "v": _dump_indexed_state(self._v),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore :meth:`state_dict`; continuation is bit-identical."""
        step_count = int(state["step_count"])
        if step_count < 0:
            raise ValueError("checkpoint step_count must be non-negative")
        _load_indexed_state(self._m, state["m"], self.parameters, "m")
        _load_indexed_state(self._v, state["v"], self.parameters, "v")
        self._step_count = step_count
        _rebuild_last_step(self._last_step, self._m, self.parameters,
                           step_count)
