"""Compile captured replay tapes into flat instruction plans.

The replay engine (``replay.py``) removes graph *construction* from the
steady-state step but still walks Python closures: every forward thunk
allocates fresh arrays, and every backward step re-runs the eager adjoint
closures.  This module lowers a captured ``_Tape`` one level further into a
:class:`LoweredPlan` — two flat lists of zero-argument instructions (one
forward, one backward) over preallocated buffers:

* every intermediate that the lowerer understands is computed straight into
  a persistent destination buffer via ``out=``/``np.copyto`` (the entry's
  captured output array is adopted as that destination, so downstream
  consumers keep reading the same storage);
* runs of adjacent lowered elementwise instructions are fused into single
  plan instructions (one Python dispatch for the whole chain);
* the backward schedule is resolved once at lowering time: the topological
  order, each node's adjoint instruction, and the grad-buffer handoffs are
  frozen into a second flat list, so ``run_backward`` never touches the
  graph.

Bit-identity contract: a lowered step must produce exactly the arrays the
eager step produces — losses, gradients, weight updates and RNG consumption
are compared bitwise in the test-suite.  Every lowering rule therefore
mirrors its op's eager arithmetic *operation for operation* (same ufuncs,
same operand order, same dtypes); anything that cannot be proven equivalent
is left as a *generic* instruction that simply re-runs the captured thunk
(exact replay semantics).  If the tape contains an op the lowerer does not
recognise at all, :func:`lower_tape` declines with a
:class:`LoweringFallbackWarning` and the engine keeps using plain replay.

Gradient-buffer safety: adjoint instructions hand per-instruction scratch
buffers to ``Tensor._accumulate``, which *borrows* the first contribution
without copying.  A buffer handed over this way is written exactly once per
step, before the handoff, and never shared between instructions — by the
time the next step overwrites it, every borrower (optimizer, interior
nodes) has consumed and released its gradient.
"""

from __future__ import annotations

import functools
import warnings
from time import perf_counter as _perf_counter
from typing import Callable, Dict, List, Optional

import numpy as np

from .ops import (_cheb_adjoint, _cheb_terms, _node_major, _rows,
                  _slice_major)
from .tensor import Tensor, _active_profiler, _op_label

__all__ = [
    "LoweredPlan",
    "LoweringFallbackWarning",
    "LoweringUnsupported",
    "lower_tape",
]


class LoweringFallbackWarning(RuntimeWarning):
    """A tape could not be lowered and the engine fell back to replay."""


class LoweringUnsupported(Exception):
    """Raised internally when a tape cannot be lowered safely."""


#: Labels the lowerer knows how to run *generically* (re-running the
#: captured thunk preserves exact replay semantics for these).  An entry
#: with a label outside this set aborts lowering for the whole tape: an
#: unknown op may have capture-time state the generic path cannot see.
GENERIC_SAFE = frozenset({
    "add", "neg", "sub", "mul", "truediv", "pow", "matmul", "sum", "max",
    "reshape", "transpose", "getitem", "expand_dims", "squeeze",
    "exp", "log", "sqrt", "sigmoid", "tanh", "relu", "softmax",
    "concat", "stack", "maximum", "abs_", "clip_min", "dropout", "where",
    "pad_axis", "take_axis", "_pool_axis",
    "cheb_propagate", "cheb_conv",
    "fused_gcnn_stage", "fused_latent_head", "fused_gru_gates",
    "fused_cnrnn_cell",
    "fused_twin_cheb_conv", "fused_twin_cnrnn_cell",
    "fused_twin_gcnn_stage", "fused_twin_latent_head",
    "fused_softmax_recovery", "fused_masked_frobenius",
    "dirichlet_energy",
})

#: Sentinel returned by a rule when the entry needs *no* instruction at
#: all (the captured output already aliases its parent's stable buffer).
_ELIDE = object()


# ----------------------------------------------------------------------
# compile context
# ----------------------------------------------------------------------
class _Build:
    """Mutable state threaded through one ``lower_tape`` compilation."""

    def __init__(self, tape) -> None:
        self.tape = tape
        self.out_ids = {id(out) for out, _, _ in tape.entries}
        self._stable_outs: set = set()
        self.staged: Dict[tuple, np.ndarray] = {}
        self.fwd: List[Callable[[], None]] = []
        self.bwd_special: Dict[int, tuple] = {}
        self.scratch_nbytes = 0
        self.n_specialized = 0
        self.n_generic = 0
        self.n_elided = 0

    def alloc(self, shape, dtype) -> np.ndarray:
        buf = np.empty(shape, dtype=dtype)
        self.scratch_nbytes += buf.nbytes
        return buf

    def zeros(self, shape, dtype) -> np.ndarray:
        buf = np.zeros(shape, dtype=dtype)
        self.scratch_nbytes += buf.nbytes
        return buf

    def stable(self, t: Tensor) -> bool:
        """Whether ``t.data`` is the same array object on every step.

        Leaves qualify unconditionally: parameters are updated in place by
        the optimizer (both Adam paths mutate ``parameter.data``), input
        tensors wrap the tape's refreshed capture buffers, and constants
        never change.  Entry outputs qualify only once a rule adopted
        their buffer (generic instructions rebind ``out.data``).
        """
        return id(t) not in self.out_ids or id(t) in self._stable_outs

    def mark_stable(self, t: Tensor) -> None:
        self._stable_outs.add(id(t))

    def staged_buf(self, key: tuple, shape, dtype):
        """Shared per-step staging buffer (e.g. stacked weight pairs).

        Weight stacks like the CNRNN's ``w_ru`` are identical across every
        cell instruction that uses the same parameter tensors, so they are
        built once per step by the *first* instruction that needs them.
        Returns ``(buffer, first)``; only the first requester emits the
        fill code in its forward instruction (forward always runs before
        any adjoint reads the stack, and the optimizer only mutates the
        source parameters after backward).
        """
        buf = self.staged.get(key)
        if buf is not None:
            return buf, False
        buf = self.alloc(shape, dtype)
        self.staged[key] = buf
        return buf, True


# ----------------------------------------------------------------------
# buffered Chebyshev features (mirror ops._cheb_feats(ops._cheb_terms(...)))
# ----------------------------------------------------------------------
class _ChebFeatsBuf:
    """Buffered ``_cheb_feats(_cheb_terms(lap, sig, order), order)``.

    The interleaved feature store ``sig_shape + (order,)`` is allocated
    once; the eager ``_cheb_terms`` recursion runs and term ``s`` is
    copied into the strided slice ``store[..., s]``, exactly as eager's
    ``_cheb_feats`` fills a fresh array.  ``feats`` is the flattened
    ``(..., B·N, C·S)`` view eager's reshape would produce.
    """

    def __init__(self, build: _Build, lap: np.ndarray, sig_shape: tuple,
                 dtype, order: int) -> None:
        self.lap = lap
        self.order = order
        self.store = build.alloc(sig_shape + (order,), dtype)
        self.views = [self.store[..., s] for s in range(order)]
        c = sig_shape[-1]
        rows = sig_shape[:-3] + (sig_shape[-3] * sig_shape[-2],)
        self.feats = self.store.reshape(rows + (c * order,))

    def run(self, sig: np.ndarray) -> None:
        for view, term in zip(self.views,
                              _cheb_terms(self.lap, sig, self.order)):
            view[...] = term


class _StableSigmoidBuf:
    """Buffered ``ops._stable_sigmoid``: same ufunc sequence, no allocs.

    Eager computes ``z = exp(-|y|)`` then ``where(y >= 0, 1, z)/(1+z)``;
    the masked assignment below reproduces the ``where`` select bitwise.
    """

    def __init__(self, build: _Build, shape: tuple, dtype) -> None:
        self.z = build.alloc(shape, dtype)
        self.cond = build.alloc(shape, bool)
        self.den = build.alloc(shape, dtype)

    def run(self, y: np.ndarray, out: np.ndarray) -> None:
        with np.errstate(under="ignore"):
            np.abs(y, out=self.z)
            np.negative(self.z, out=self.z)
            np.exp(self.z, out=self.z)
            np.greater_equal(y, 0, out=self.cond)
            np.add(self.z, 1.0, out=self.den)
            self.z[self.cond] = 1.0
            np.divide(self.z, self.den, out=out)


# ----------------------------------------------------------------------
# lowering rules
# ----------------------------------------------------------------------
# A rule returns:
#   None                        -> keep the entry generic (re-run thunk)
#   _ELIDE                      -> drop the entry (output aliases parent)
#   (instr, bwd_body, fuse)     -> specialized forward instruction, an
#                                  optional specialized adjoint body
#                                  ``body(grad) -> None``, and whether the
#                                  forward instruction is elementwise
#                                  (eligible for chain fusion).

def _same_dtype(out: Tensor, *tensors: Tensor) -> bool:
    dtype = out.data.dtype
    return all(t.data.dtype == dtype for t in tensors)


def _rule_add(build, out, run, spec):
    _, a, b = spec
    if not _same_dtype(out, a, b):
        return None
    buf = out.data

    def instr():
        np.add(a.data, b.data, out=buf)

    return instr, None, True


def _rule_sub(build, out, run, spec):
    _, a, b = spec
    if not _same_dtype(out, a, b):
        return None
    buf = out.data

    def instr():
        np.subtract(a.data, b.data, out=buf)

    return instr, None, True


def _rule_mul(build, out, run, spec):
    _, a, b = spec
    if not _same_dtype(out, a, b):
        return None
    buf = out.data

    def instr():
        np.multiply(a.data, b.data, out=buf)

    return instr, None, True


def _rule_neg(build, out, run, spec):
    _, a = spec
    if not _same_dtype(out, a):
        return None
    buf = out.data

    def instr():
        np.negative(a.data, out=buf)

    return instr, None, True


def _rule_matmul(build, out, run, spec):
    _, a, b = spec
    if a.ndim < 2 or b.ndim < 2 or not _same_dtype(out, a, b):
        return None
    buf = out.data

    def instr():
        np.matmul(a.data, b.data, out=buf)

    return instr, None, False


def _rule_concat(build, out, run, spec):
    _, payload = spec
    tensors = payload["tensors"]
    axis = payload["axis"]
    if not _same_dtype(out, *tensors):
        return None
    buf = out.data

    def instr():
        np.concatenate([t.data for t in tensors], axis=axis, out=buf)

    return instr, None, False


def _rule_view(build, out, run, spec):
    """reshape/transpose/basic-getitem/expand_dims/squeeze elision.

    When the captured output aliases a stable parent buffer, the view
    tracks every in-place parent update for free — the entry needs no
    instruction at all.  ``shares_memory`` is the exact capture-time
    proof (a reshape of a non-contiguous array, or a fancy getitem,
    produced a copy and stays generic).
    """
    parent = spec[1]
    if build.stable(parent) and np.shares_memory(out.data, parent.data):
        return _ELIDE
    return None


def _rule_getitem(build, out, run, spec):
    """Basic-slice getitem: elide the forward, specialize the scatter.

    Eager's adjoint allocates ``zeros_like(parent)`` and writes the slice
    every step; the plan keeps one zeroed buffer per getitem node —
    regions outside the slice stay exactly zero, the slice itself is
    fully rewritten each step.  The adjoint only depends on the parent's
    (signature-fixed) shape, so it applies whether or not the forward
    view could be elided.
    """
    _, parent, index, basic = spec
    if basic and parent.requires_grad:
        full = build.zeros(parent.data.shape, parent.data.dtype)

        def bwd_body(grad):
            full[index] = grad
            parent._accumulate(full)

        build.bwd_special[id(out)] = (bwd_body, "getitem")
    return _rule_view(build, out, run, spec)


def _rule_twin_cheb_conv(build, out, run, spec):
    _, d = spec
    x = d["x"]
    w_a, b_a, w_b, b_b = d["w_a"], d["b_a"], d["w_b"], d["b_b"]
    order, lap_b, lap_t = d["order"], d["lap_b"], d["lap_t"]
    two, batch, n, channels = x.shape
    q = w_a.shape[-1]
    dtype = out.data.dtype
    if not _same_dtype(out, x, w_a, b_a, w_b, b_b):
        return None

    feats = _ChebFeatsBuf(build, lap_b, (two, batch, n, channels), dtype,
                          order)
    w2, fill_w2 = build.staged_buf(("w2", id(w_a), id(w_b)),
                                   (two, channels * order, q), dtype)
    b2, fill_b2 = build.staged_buf(("b2", id(b_a), id(b_b)),
                                   (two, q), dtype)
    b2_bc = b2[:, None, None]
    pre = build.alloc((two, batch * n, q), dtype)
    pre_v = pre.reshape(two, batch, n, q)
    buf = out.data

    def instr():
        if fill_w2:
            np.copyto(w2[0], w_a.data)
            np.copyto(w2[1], w_b.data)
        if fill_b2:
            np.copyto(b2[0], b_a.data)
            np.copyto(b2[1], b_b.data)
        feats.run(x.data)
        np.matmul(feats.feats, w2, out=pre)
        np.add(pre_v, b2_bc, out=buf)

    feats_t = np.swapaxes(feats.feats, -1, -2)
    adjoint = functools.partial(_cheb_adjoint, lap_t, weight=w2,
                                shape=(two, batch, n, channels),
                                order=order)
    dw = build.alloc((two, channels * order, q), dtype)
    db = build.alloc((two, q), dtype)
    wg = w_a.requires_grad or w_b.requires_grad
    bg = b_a.requires_grad or b_b.requires_grad
    xg = x.requires_grad

    def bwd_body(grad):
        gm = grad.reshape(two, batch * n, q)
        if wg:
            np.matmul(feats_t, gm, out=dw)
            if w_a.requires_grad:
                w_a._accumulate(dw[0])
            if w_b.requires_grad:
                w_b._accumulate(dw[1])
        if bg:
            np.add.reduce(gm, axis=1, out=db)
            if b_a.requires_grad:
                b_a._accumulate(db[0])
            if b_b.requires_grad:
                b_b._accumulate(db[1])
        if xg:
            x._accumulate(adjoint(gm))

    return instr, bwd_body, False


class _Recorded:
    """A node-major kernel (``ops._gcnn_stage_*``, ``ops._latent_head_*``)
    on a plan's persistent arrays, recorded once and replayed.

    The first call runs ``kernel`` with a ``call`` hook that performs
    each array operation and keeps it, bound to its arrays (the plan's
    ``ws`` or the inputs).  While the inputs are the same buffers, later
    calls replay the kept operations — the same arithmetic on the same
    memory, without the kernel's Python set-up.
    """

    def __init__(self, kernel: Callable) -> None:
        self.kernel = kernel
        self.ops: Optional[list] = None
        self.inputs = None
        self.result = None

    def __call__(self, *arrays, **kwargs):
        inputs = tuple((a.__array_interface__["data"][0], a.shape,
                        a.strides) for a in arrays)
        if self.ops is not None and inputs == self.inputs:
            for op in self.ops:
                op()
            return self.result
        ops: list = []

        def call(fn, *args, **kw):
            ops.append(functools.partial(fn, *args, **kw))
            return fn(*args, **kw)

        self.result = self.kernel(*arrays, call=call, **kwargs)
        self.ops, self.inputs = ops, inputs
        return self.result


def _rule_factorizer(build, out, run, spec):
    """A twin factorizer op (stage or latent head) on the shared
    node-major kernels: both sides' parameters stacked into staged
    buffers, every working array and the output kept for the plan's
    lifetime, and the kernels recorded once (:class:`_Recorded`)."""
    _, d = spec
    x, sides, stage = d["x"], d["sides"], d["stage"]
    dtype = out.data.dtype
    if len(sides) != 2 or not _same_dtype(out, x, *sides[0], *sides[1]):
        return None
    staged = [build.staged_buf(("factorizer", id(a), id(b)),
                               (2,) + a.shape, dtype)
              for a, b in zip(*sides)]
    params = [buf for buf, _ in staged]
    ws = {"out": out.data.base if stage else out.data}
    forward = _Recorded(functools.partial(d["forward"], params=params,
                                          ws=ws))
    backward = _Recorded(functools.partial(
        d["backward"], params=params, need_dx=x.requires_grad, ws=ws))
    # A stage's gradient arrives in the next kernel's persistent buffer;
    # the head's in whatever array its consumers built, so it is copied.
    grad_buf = None if stage else build.alloc(out.shape, dtype)
    batch, channels = x.shape[-3], x.shape[-1]
    state = {}

    def instr():
        for (buf, fill), a, b in zip(staged, *sides):
            if fill:
                np.copyto(buf[0], a.data)
                np.copyto(buf[1], b.data)
        x_in = _node_major(x.data, ws) if stage else _rows(x.data)
        _, state["cache"] = forward(x_in)

    def bwd_body(grad):
        if stage:
            grad = _rows(grad)
        else:
            np.copyto(grad_buf, grad)
            grad = grad_buf
        *grads, dx = backward(grad, cache=state["cache"])
        for index, side in enumerate(sides):
            for param, value in zip(side, grads):
                if param.requires_grad:
                    param._accumulate(value[index])
        if dx is not None:
            x._accumulate(_slice_major(dx, batch, channels))

    return instr, bwd_body, False


def _rule_twin_cnrnn_cell(build, out, run, spec):
    _, d = spec
    x, h = d["x"], d["h"]
    w_reset_a, b_reset_a, w_update_a, b_update_a, w_cand_a, b_cand_a = \
        d["params_a"]
    w_reset_b, b_reset_b, w_update_b, b_update_b, w_cand_b, b_cand_b = \
        d["params_b"]
    order, lap_b, lap_t = d["order"], d["lap_b"], d["lap_t"]
    two, batch, n, cx = x.shape
    hidden = h.shape[-1]
    joint = hidden + cx
    dtype = out.data.dtype
    params = d["params_a"] + d["params_b"]
    if not _same_dtype(out, x, h, *params):
        return None

    h2 = 2 * hidden
    w_ru, fill_wru = build.staged_buf(
        ("w_ru", id(w_reset_a), id(w_update_a), id(w_reset_b),
         id(w_update_b)), (two, joint * order, h2), dtype)
    b_ru, fill_bru = build.staged_buf(
        ("b_ru", id(b_reset_a), id(b_update_a), id(b_reset_b),
         id(b_update_b)), (two, h2), dtype)
    w_cand, fill_wc = build.staged_buf(
        ("w_cand", id(w_cand_a), id(w_cand_b)),
        (two, joint * order, hidden), dtype)
    b_cand, fill_bc = build.staged_buf(
        ("b_cand", id(b_cand_a), id(b_cand_b)), (two, hidden), dtype)
    b_ru_bc = b_ru[:, None, None]
    b_cand_bc = b_cand[:, None, None]

    full = (two, batch, n, joint)
    gate2 = (two, batch, n, h2)
    gate1 = (two, batch, n, hidden)
    hx = build.alloc(full, dtype)
    feats_hx = _ChebFeatsBuf(build, lap_b, full, dtype, order)
    pre_ru = build.alloc((two, batch * n, h2), dtype)
    pre_ru_v = pre_ru.reshape(gate2)
    ru_in = build.alloc(gate2, dtype)
    sig = _StableSigmoidBuf(build, gate2, dtype)
    ru = build.alloc(gate2, dtype)
    r_v = ru[..., :hidden]
    u_v = ru[..., hidden:]
    rh = build.alloc(gate1, dtype)
    rhx = build.alloc(full, dtype)
    feats_rhx = _ChebFeatsBuf(build, lap_b, full, dtype, order)
    pre_c = build.alloc((two, batch * n, hidden), dtype)
    pre_c_v = pre_c.reshape(gate1)
    c_in = build.alloc(gate1, dtype)
    c = build.alloc(gate1, dtype)
    hmc = build.alloc(gate1, dtype)
    blend = build.alloc(gate1, dtype)
    buf = out.data

    def instr():
        if fill_wru:
            np.copyto(w_ru[0, :, :hidden], w_reset_a.data)
            np.copyto(w_ru[0, :, hidden:], w_update_a.data)
            np.copyto(w_ru[1, :, :hidden], w_reset_b.data)
            np.copyto(w_ru[1, :, hidden:], w_update_b.data)
        if fill_bru:
            np.copyto(b_ru[0, :hidden], b_reset_a.data)
            np.copyto(b_ru[0, hidden:], b_update_a.data)
            np.copyto(b_ru[1, :hidden], b_reset_b.data)
            np.copyto(b_ru[1, hidden:], b_update_b.data)
        if fill_wc:
            np.copyto(w_cand[0], w_cand_a.data)
            np.copyto(w_cand[1], w_cand_b.data)
        if fill_bc:
            np.copyto(b_cand[0], b_cand_a.data)
            np.copyto(b_cand[1], b_cand_b.data)
        np.concatenate((h.data, x.data), axis=-1, out=hx)
        feats_hx.run(hx)
        np.matmul(feats_hx.feats, w_ru, out=pre_ru)
        np.add(pre_ru_v, b_ru_bc, out=ru_in)
        sig.run(ru_in, ru)
        np.multiply(r_v, h.data, out=rh)
        np.concatenate((rh, x.data), axis=-1, out=rhx)
        feats_rhx.run(rhx)
        np.matmul(feats_rhx.feats, w_cand, out=pre_c)
        np.add(pre_c_v, b_cand_bc, out=c_in)
        np.tanh(c_in, out=c)
        np.subtract(h.data, c, out=hmc)
        np.multiply(u_v, hmc, out=blend)
        np.add(c, blend, out=buf)

    feats_hx_t = np.swapaxes(feats_hx.feats, -1, -2)
    feats_rhx_t = np.swapaxes(feats_rhx.feats, -1, -2)
    adj_cand = functools.partial(_cheb_adjoint, lap_t, weight=w_cand,
                                 shape=full, order=order)
    adj_ru = functools.partial(_cheb_adjoint, lap_t, weight=w_ru,
                               shape=full, order=order)
    dh = build.alloc(gate1, dtype)
    t_h = build.alloc(gate1, dtype)
    dpre_c = build.alloc(gate1, dtype)
    t_2h = build.alloc(gate2, dtype)
    dru = build.alloc(gate2, dtype)
    dru_r = dru[..., :hidden]
    dru_u = dru[..., hidden:]
    dpre_u = build.alloc(gate1, dtype)
    dw_cand = build.alloc((two, joint * order, hidden), dtype)
    db_cand = build.alloc((two, hidden), dtype)
    dpre_r = build.alloc(gate1, dtype)
    dpre_ru = build.alloc((two, batch * n, h2), dtype)
    dpre_ru_v = dpre_ru.reshape(gate2)
    dpre_ru_r = dpre_ru_v[..., :hidden]
    dpre_ru_u = dpre_ru_v[..., hidden:]
    dw_ru = build.alloc((two, joint * order, h2), dtype)
    db_ru = build.alloc((two, h2), dtype)
    dh_out = build.alloc(gate1, dtype)
    dx_out = build.alloc((two, batch, n, cx), dtype)
    wc_g = w_cand_a.requires_grad or w_cand_b.requires_grad
    bc_g = b_cand_a.requires_grad or b_cand_b.requires_grad
    wru_g = (w_reset_a.requires_grad or w_update_a.requires_grad
             or w_reset_b.requires_grad or w_update_b.requires_grad)
    bru_g = (b_reset_a.requires_grad or b_update_a.requires_grad
             or b_reset_b.requires_grad or b_update_b.requires_grad)
    hg = h.requires_grad
    xg = x.requires_grad

    def bwd_body(grad):
        np.multiply(grad, u_v, out=dh)
        np.subtract(grad, dh, out=t_h)
        np.multiply(c, c, out=dpre_c)
        np.subtract(1.0, dpre_c, out=dpre_c)
        np.multiply(t_h, dpre_c, out=dpre_c)
        np.subtract(1.0, ru, out=t_2h)
        np.multiply(ru, t_2h, out=dru)
        np.multiply(grad, hmc, out=t_h)
        np.multiply(t_h, dru_u, out=dpre_u)
        dpre_c_flat = dpre_c.reshape(two, batch * n, hidden)
        if wc_g:
            np.matmul(feats_rhx_t, dpre_c_flat, out=dw_cand)
            if w_cand_a.requires_grad:
                w_cand_a._accumulate(dw_cand[0])
            if w_cand_b.requires_grad:
                w_cand_b._accumulate(dw_cand[1])
        if bc_g:
            np.add.reduce(dpre_c_flat, axis=1, out=db_cand)
            if b_cand_a.requires_grad:
                b_cand_a._accumulate(db_cand[0])
            if b_cand_b.requires_grad:
                b_cand_b._accumulate(db_cand[1])
        drhx = adj_cand(dpre_c_flat)
        drh = drhx[..., :hidden]
        np.multiply(drh, h.data, out=dpre_r)
        np.multiply(dpre_r, dru_r, out=dpre_r)
        np.multiply(drh, r_v, out=t_h)
        np.add(dh, t_h, out=dh)
        np.copyto(dpre_ru_r, dpre_r)
        np.copyto(dpre_ru_u, dpre_u)
        if wru_g:
            np.matmul(feats_hx_t, dpre_ru, out=dw_ru)
            if w_reset_a.requires_grad:
                w_reset_a._accumulate(dw_ru[0, :, :hidden])
            if w_update_a.requires_grad:
                w_update_a._accumulate(dw_ru[0, :, hidden:])
            if w_reset_b.requires_grad:
                w_reset_b._accumulate(dw_ru[1, :, :hidden])
            if w_update_b.requires_grad:
                w_update_b._accumulate(dw_ru[1, :, hidden:])
        if bru_g:
            np.add.reduce(dpre_ru, axis=1, out=db_ru)
            if b_reset_a.requires_grad:
                b_reset_a._accumulate(db_ru[0, :hidden])
            if b_update_a.requires_grad:
                b_update_a._accumulate(db_ru[0, hidden:])
            if b_reset_b.requires_grad:
                b_reset_b._accumulate(db_ru[1, :hidden])
            if b_update_b.requires_grad:
                b_update_b._accumulate(db_ru[1, hidden:])
        dhx = adj_ru(dpre_ru)
        if hg:
            np.add(dh, dhx[..., :hidden], out=dh_out)
            h._accumulate(dh_out)
        if xg:
            np.add(drhx[..., hidden:], dhx[..., hidden:], out=dx_out)
            x._accumulate(dx_out)

    return instr, bwd_body, False


def _rule_gru_gates(build, out, run, spec):
    _, d = spec
    x, h = d["x"], d["h"]
    w_reset, b_reset, w_update, b_update, w_cand, b_cand = d["params"]
    hidden = d["hidden"]
    dtype = out.data.dtype
    if not _same_dtype(out, x, h, *d["params"]):
        return None
    lead = h.shape[:-1]
    joint = hidden + x.shape[-1]
    full = lead + (joint,)
    gate = lead + (hidden,)

    hx = build.alloc(full, dtype)
    pre_r = build.alloc(gate, dtype)
    pre_u = build.alloc(gate, dtype)
    sig_r = _StableSigmoidBuf(build, gate, dtype)
    sig_u = _StableSigmoidBuf(build, gate, dtype)
    r = build.alloc(gate, dtype)
    u = build.alloc(gate, dtype)
    rh = build.alloc(gate, dtype)
    rhx = build.alloc(full, dtype)
    pre_c = build.alloc(gate, dtype)
    c = build.alloc(gate, dtype)
    t_a = build.alloc(gate, dtype)
    t_b = build.alloc(gate, dtype)
    buf = out.data

    def instr():
        np.concatenate((h.data, x.data), axis=-1, out=hx)
        np.matmul(hx, w_reset.data, out=pre_r)
        np.add(pre_r, b_reset.data, out=pre_r)
        sig_r.run(pre_r, r)
        np.matmul(hx, w_update.data, out=pre_u)
        np.add(pre_u, b_update.data, out=pre_u)
        sig_u.run(pre_u, u)
        np.multiply(r, h.data, out=rh)
        np.concatenate((rh, x.data), axis=-1, out=rhx)
        np.matmul(rhx, w_cand.data, out=pre_c)
        np.add(pre_c, b_cand.data, out=pre_c)
        np.tanh(pre_c, out=c)
        np.multiply(u, h.data, out=t_a)
        np.subtract(1.0, u, out=t_b)
        np.multiply(t_b, c, out=t_b)
        np.add(t_a, t_b, out=buf)

    rows = 1
    for dim in lead:
        rows *= dim
    hx2 = hx.reshape(rows, joint)
    rhx2 = rhx.reshape(rows, joint)
    hx2_t = hx2.T
    rhx2_t = rhx2.T
    lead_axes = tuple(range(len(lead)))
    dpre_c = build.alloc(gate, dtype)
    dh = build.alloc(gate, dtype)
    dpre_u = build.alloc(gate, dtype)
    dpre_r = build.alloc(gate, dtype)
    g_a = build.alloc(gate, dtype)
    g_b = build.alloc(gate, dtype)
    drhx = build.alloc(full, dtype)
    dhx = build.alloc(full, dtype)
    t_joint = build.alloc(full, dtype)
    dh_out = build.alloc(gate, dtype)
    dx_out = build.alloc(lead + (x.shape[-1],), dtype)
    dw_r = build.alloc((joint, hidden), dtype)
    dw_u = build.alloc((joint, hidden), dtype)
    dw_c = build.alloc((joint, hidden), dtype)
    db_r = build.alloc((hidden,), dtype)
    db_u = build.alloc((hidden,), dtype)
    db_c = build.alloc((hidden,), dtype)
    hg = h.requires_grad
    xg = x.requires_grad
    param_g = any(p.requires_grad for p in d["params"])

    def bwd_body(grad):
        np.subtract(1.0, u, out=g_a)
        np.multiply(grad, g_a, out=g_a)
        np.multiply(c, c, out=g_b)
        np.subtract(1.0, g_b, out=g_b)
        np.multiply(g_a, g_b, out=dpre_c)
        np.multiply(grad, u, out=dh)
        np.subtract(h.data, c, out=g_a)
        np.multiply(grad, g_a, out=g_a)
        np.multiply(g_a, u, out=g_a)
        np.subtract(1.0, u, out=g_b)
        np.multiply(g_a, g_b, out=dpre_u)
        np.matmul(dpre_c, w_cand.data.T, out=drhx)
        drh = drhx[..., :hidden]
        np.multiply(drh, h.data, out=g_a)
        np.multiply(g_a, r, out=g_a)
        np.subtract(1.0, r, out=g_b)
        np.multiply(g_a, g_b, out=dpre_r)
        np.multiply(drh, r, out=g_a)
        np.add(dh, g_a, out=dh)
        np.matmul(dpre_r, w_reset.data.T, out=dhx)
        np.matmul(dpre_u, w_update.data.T, out=t_joint)
        np.add(dhx, t_joint, out=dhx)
        if hg:
            np.add(dh, dhx[..., :hidden], out=dh_out)
            h._accumulate(dh_out)
        if xg:
            np.add(drhx[..., hidden:], dhx[..., hidden:], out=dx_out)
            x._accumulate(dx_out)
        if param_g:
            if w_reset.requires_grad:
                np.matmul(hx2_t, dpre_r.reshape(rows, hidden), out=dw_r)
                w_reset._accumulate(dw_r)
            if b_reset.requires_grad:
                np.add.reduce(dpre_r, axis=lead_axes, out=db_r)
                b_reset._accumulate(db_r)
            if w_update.requires_grad:
                np.matmul(hx2_t, dpre_u.reshape(rows, hidden), out=dw_u)
                w_update._accumulate(dw_u)
            if b_update.requires_grad:
                np.add.reduce(dpre_u, axis=lead_axes, out=db_u)
                b_update._accumulate(db_u)
            if w_cand.requires_grad:
                np.matmul(rhx2_t, dpre_c.reshape(rows, hidden), out=dw_c)
                w_cand._accumulate(dw_c)
            if b_cand.requires_grad:
                np.add.reduce(dpre_c, axis=lead_axes, out=db_c)
                b_cand._accumulate(db_c)

    return instr, bwd_body, False


_RULES: Dict[str, Callable] = {
    "add": _rule_add,
    "sub": _rule_sub,
    "mul": _rule_mul,
    "neg": _rule_neg,
    "matmul": _rule_matmul,
    "concat": _rule_concat,
    "reshape": _rule_view,
    "transpose": _rule_view,
    "expand_dims": _rule_view,
    "squeeze": _rule_view,
    "getitem": _rule_getitem,
    "fused_twin_cheb_conv": _rule_twin_cheb_conv,
    "fused_twin_gcnn_stage": _rule_factorizer,
    "fused_twin_cnrnn_cell": _rule_twin_cnrnn_cell,
    "fused_gru_gates": _rule_gru_gates,
    "fused_twin_latent_head": _rule_factorizer,
}


# ----------------------------------------------------------------------
# generic instructions (exact replay semantics)
# ----------------------------------------------------------------------
def _generic_forward(out: Tensor, run: Callable, label: str) -> Callable:
    dtype = out.data.dtype

    def instr():
        out.data = np.asarray(run(), dtype=dtype)

    instr.__qualname__ = label
    return instr


def _generic_backward(node: Tensor) -> Callable:
    backward = node._backward

    def instr():
        grad = node.grad
        if grad is not None:
            backward(grad)
            node.grad = None

    instr.__qualname__ = _op_label(backward)
    return instr


def _special_backward(node: Tensor, body: Callable, label: str) -> Callable:
    def instr():
        grad = node.grad
        if grad is not None:
            body(grad)
            node.grad = None

    instr.__qualname__ = label
    return instr


def _fuse_elementwise(instrs: List[Callable]):
    """Merge maximal runs of adjacent elementwise instructions.

    The merged closure executes its members in the original order, so
    fusing is semantically the identity — it only collapses Python
    dispatch.  Returns ``(instructions, chains, ops_fused)``.
    """
    fused: List[Callable] = []
    chain: List[Callable] = []
    chains = 0
    ops_fused = 0

    def flush():
        nonlocal chains, ops_fused
        if len(chain) == 1:
            fused.append(chain[0])
        elif chain:
            members = tuple(chain)

            def fused_instr(_members=members):
                for member in _members:
                    member()

            fused_instr.__qualname__ = "fused_elementwise"
            chains += 1
            ops_fused += len(members)
            fused.append(fused_instr)
        chain.clear()

    for ins in instrs:
        if getattr(ins, "_fuse", False):
            chain.append(ins)
        else:
            flush()
            fused.append(ins)
    flush()
    return fused, chains, ops_fused


# ----------------------------------------------------------------------
# the plan
# ----------------------------------------------------------------------
class LoweredPlan:
    """A compiled tape: two flat instruction lists over arena buffers."""

    __slots__ = ("loss", "forward_instrs", "backward_instrs",
                 "hist_buf", "truth_buf", "mask_buf", "_seed",
                 "n_forward", "n_backward", "n_specialized", "n_generic",
                 "n_elided", "n_fused_chains", "n_fused_ops",
                 "scratch_nbytes")

    def __init__(self, tape, forward_instrs, backward_instrs, build,
                 n_fused_chains, n_fused_ops) -> None:
        self.loss = tape.loss
        self.forward_instrs = forward_instrs
        self.backward_instrs = backward_instrs
        self.hist_buf = tape.hist_buf
        self.truth_buf = tape.truth_buf
        self.mask_buf = tape.mask_buf
        # Forward-only plans (inference tapes) have no backward schedule
        # and their root is a full prediction tensor, not a scalar loss —
        # don't allocate a prediction-sized seed nobody will use.
        self._seed = np.ones_like(tape.loss.data) if backward_instrs \
            else None
        self.n_forward = len(forward_instrs)
        self.n_backward = len(backward_instrs)
        self.n_specialized = build.n_specialized
        self.n_generic = build.n_generic
        self.n_elided = build.n_elided
        self.n_fused_chains = n_fused_chains
        self.n_fused_ops = n_fused_ops
        self.scratch_nbytes = build.scratch_nbytes

    def run_forward(self, histories, targets=None, masks=None) -> Tensor:
        np.copyto(self.hist_buf, histories)
        if targets is not None:
            np.copyto(self.truth_buf, targets)
        if masks is not None:
            np.copyto(self.mask_buf, masks)
        profiler = _active_profiler()
        if profiler is None:
            for instr in self.forward_instrs:
                instr()
        else:
            for instr in self.forward_instrs:
                start = _perf_counter()
                instr()
                profiler._record_forward(instr, _perf_counter() - start)
        return self.loss

    def run_backward(self) -> None:
        if self._seed is None:
            raise RuntimeError(
                "this plan was compiled forward_only; it has no backward "
                "schedule")
        # Mirrors Tensor.backward's seed: a ones array accumulated into
        # the loss (borrowed, never mutated -> reusable across steps).
        self.loss._accumulate(self._seed)
        profiler = _active_profiler()
        if profiler is None:
            for instr in self.backward_instrs:
                instr()
        else:
            for instr in self.backward_instrs:
                start = _perf_counter()
                instr()
                profiler._record_backward(instr, _perf_counter() - start)

    def stats(self) -> dict:
        return {
            "instructions": self.n_forward + self.n_backward,
            "forward_instructions": self.n_forward,
            "backward_instructions": self.n_backward,
            "specialized": self.n_specialized,
            "generic": self.n_generic,
            "elided": self.n_elided,
            "fused_chains": self.n_fused_chains,
            "fused_ops": self.n_fused_ops,
            "scratch_nbytes": self.scratch_nbytes,
        }


# ----------------------------------------------------------------------
# the lowering pass
# ----------------------------------------------------------------------
def lower_tape(tape, forward_only: bool = False) -> Optional[LoweredPlan]:
    """Compile ``tape`` into a :class:`LoweredPlan`.

    Returns ``None`` (after emitting :class:`LoweringFallbackWarning`)
    when any entry cannot be lowered or run generically with confidence —
    the caller should keep using plain replay for this tape.

    With ``forward_only=True`` (inference tapes, whose root is the
    prediction rather than a scalar loss) no backward schedule is
    compiled: the plan runs forward instructions only and
    :meth:`LoweredPlan.run_backward` raises.
    """
    try:
        build = _compile_forward(tape)
        backward_instrs = [] if forward_only \
            else _compile_backward(tape, build)
    except LoweringUnsupported as exc:
        warnings.warn(
            f"tape lowering fell back to plain replay: {exc}",
            LoweringFallbackWarning, stacklevel=2)
        return None
    forward_instrs, chains, ops_fused = _fuse_elementwise(build.fwd)
    return LoweredPlan(tape, forward_instrs, backward_instrs, build,
                       chains, ops_fused)


def _compile_forward(tape) -> _Build:
    build = _Build(tape)
    for out, run, spec in tape.entries:
        kind = spec[0] if spec else None
        label = kind if kind is not None else _op_label(run)
        if label not in GENERIC_SAFE:
            raise LoweringUnsupported(f"op '{label}' is not known to the "
                                      "lowerer")
        rule = _RULES.get(kind) if spec is not None else None
        lowered = rule(build, out, run, spec) if rule is not None else None
        if lowered is None:
            build.fwd.append(_generic_forward(out, run, label))
            build.n_generic += 1
        elif lowered is _ELIDE:
            build.mark_stable(out)
            build.n_elided += 1
        else:
            instr, bwd_body, fuse = lowered
            instr.__qualname__ = label
            if fuse:
                instr._fuse = True
            build.fwd.append(instr)
            build.mark_stable(out)
            if bwd_body is not None:
                build.bwd_special[id(out)] = (bwd_body, label)
            build.n_specialized += 1
    return build


def _compile_backward(tape, build: _Build) -> List[Callable]:
    loss = tape.loss
    order = loss._topo_cache
    if order is None:
        order = loss._topo_order()
    instrs: List[Callable] = []
    for node in order:
        if node._backward is None:
            continue
        special = build.bwd_special.get(id(node))
        if special is None:
            instrs.append(_generic_backward(node))
        else:
            body, label = special
            instrs.append(_special_backward(node, body, label))
    return instrs
