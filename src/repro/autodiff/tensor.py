"""Reverse-mode automatic differentiation on numpy arrays.

This module is the numerical substrate for the whole library.  The paper's
models were originally implemented on top of a deep-learning framework; here
we provide the equivalent capability from scratch: a :class:`Tensor` that
records the operations applied to it and can back-propagate gradients
through arbitrary DAGs of those operations.

Design notes
------------
* Every differentiable operation creates a new ``Tensor`` whose ``_parents``
  reference the input tensors and whose ``_backward`` closure knows how to
  push the output gradient back to those parents.
* Gradients are accumulated (summed) into ``Tensor.grad`` so a tensor used
  several times in a graph receives the total derivative.
* Broadcasting is supported everywhere numpy broadcasts; gradients are
  reduced back to the original shape by :func:`_unbroadcast`.
* Graphs are freed after ``backward()`` unless ``retain_graph=True``.
* Every op packages its forward computation as a local ``run()`` thunk that
  (re)binds, via ``nonlocal``, any intermediate the backward closure needs,
  and ends with ``return Tensor._make(run, parents, backward)``.  ``_make``
  is the one place an op output is created: it runs the thunk (timed
  under a profiler), checks it under anomaly mode and links the graph
  edge.  Training, validation and serving all run this one eager path.
"""

from __future__ import annotations

import contextlib
from time import perf_counter as _perf_counter
from typing import Callable, Optional, Sequence, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, Sequence]

# The library-wide floating dtype.  float32, as in the GPU frameworks the
# paper's models were trained with: stage 1 is memory- and GEMM-bound,
# and float32 halves its bytes and doubles BLAS throughput.  Forecasts
# still leave the program as float64 histograms (``core.recovery.publish``).
# The numerical gradient checks and the tests with float64 tolerances
# pin float64 with ``set_default_dtype``.
_DEFAULT_DTYPE = np.float32


def set_default_dtype(dtype):
    """Set the dtype used by all subsequently-created tensors; returns the
    previous one, so a caller can restore what it found."""
    global _DEFAULT_DTYPE
    dtype = np.dtype(dtype)
    if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"dtype must be float32 or float64, got {dtype}")
    previous = _DEFAULT_DTYPE
    _DEFAULT_DTYPE = dtype.type
    return previous


def get_default_dtype():
    """The dtype new tensors are created with."""
    return _DEFAULT_DTYPE


def _as_array(value: ArrayLike) -> np.ndarray:
    """Coerce ``value`` to a numpy array of the library dtype."""
    if isinstance(value, np.ndarray):
        if value.dtype != _DEFAULT_DTYPE:
            return value.astype(_DEFAULT_DTYPE)
        return value
    return np.asarray(value, dtype=_DEFAULT_DTYPE)


# ----------------------------------------------------------------------
# NaN-provenance anomaly mode
# ----------------------------------------------------------------------
# When enabled, every op output (forward) and every gradient an op's
# backward produces are checked for non-finite values at creation time,
# and the first offender raises naming the *creating* op and its input
# shapes — turning "loss is NaN after 3 epochs" into "tanh produced Inf
# from inputs (16, 24, 32)".  Both the fused kernels and the primitive
# reference ops route through Tensor._make / Tensor.backward, so one
# hook covers both modes.  Costs a single bool check per op when off.
_ANOMALY_ENABLED = False

# ----------------------------------------------------------------------
# Profiling hook
# ----------------------------------------------------------------------
# _PROFILER, when set, receives exact per-op forward/backward timings.
# It costs one global read per op when inactive.
_PROFILER = None


def _set_profiler(profiler):
    """Install ``profiler`` as the active op profiler; returns the previous."""
    global _PROFILER
    previous = _PROFILER
    _PROFILER = profiler
    return previous


def _run_forward(run: Callable[[], np.ndarray]) -> np.ndarray:
    """Execute an op's forward thunk, timing it when a profiler is active."""
    profiler = _PROFILER
    if profiler is None:
        return run()
    start = _perf_counter()
    data = run()
    profiler._record_forward(run, _perf_counter() - start)
    return data


class AnomalyError(RuntimeError):
    """A non-finite value appeared under :func:`detect_anomaly`.

    ``op`` names the operation that created the value; ``phase`` is
    ``"forward"`` or ``"backward"``.
    """

    def __init__(self, message: str, op: str = "?", phase: str = "?"):
        super().__init__(message)
        self.op = op
        self.phase = phase


@contextlib.contextmanager
def detect_anomaly(enabled: bool = True):
    """Context manager: check every op's forward output and backward
    gradients for NaN/Inf, raising :class:`AnomalyError` with the
    creating op's name and input shapes.  Noticeably slows training —
    meant for debugging a diverged run, not for production epochs."""
    global _ANOMALY_ENABLED
    previous = _ANOMALY_ENABLED
    _ANOMALY_ENABLED = bool(enabled)
    try:
        yield
    finally:
        _ANOMALY_ENABLED = previous


def _op_label(closure: Optional[Callable]) -> str:
    """Human-readable op name recovered from an op-local closure.

    Every op defines its adjoint as a local ``backward`` function and its
    forward as a local ``run`` thunk, so either closure's qualname
    (``sigmoid.<locals>.backward``, ``Tensor.__add__.<locals>.run``)
    names the op that created the output tensor.
    """
    qual = getattr(closure, "__qualname__", None)
    if not qual:
        return "<unknown op>"
    return qual.split(".<locals>")[0].split(".")[-1]


def _anomaly_forward_check(data: np.ndarray, parents: tuple,
                           backward: Optional[Callable]) -> None:
    if np.isfinite(data).all():
        return
    op = _op_label(backward)
    shapes = ", ".join(str(np.shape(p.data)) for p in parents) or "()"
    n_bad = int((~np.isfinite(data)).sum())
    raise AnomalyError(
        f"detect_anomaly: op '{op}' produced {n_bad} non-finite "
        f"value(s) in its forward output (output shape {data.shape}; "
        f"input shapes: {shapes})", op=op, phase="forward")


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting.

    When an operand of shape ``shape`` was broadcast up to ``grad.shape``
    during the forward pass, the chain rule requires summing the incoming
    gradient over every broadcast axis.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy-backed tensor that supports reverse-mode differentiation.

    Parameters
    ----------
    data:
        Array (or scalar / nested sequence) holding the tensor's value.
    requires_grad:
        If ``True``, operations involving this tensor are recorded so that
        :meth:`backward` can compute ``d(output)/d(this)`` into ``grad``.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents",
                 "name", "_grad_borrowed")

    def __init__(self, data: ArrayLike, requires_grad: bool = False,
                 name: Optional[str] = None):
        self.data: np.ndarray = _as_array(data)
        self.requires_grad: bool = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._grad_borrowed: bool = False
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: tuple = ()
        self.name = name

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def zero_grad(self) -> None:
        self.grad = None
        self._grad_borrowed = False

    # ------------------------------------------------------------------
    # graph construction helper
    # ------------------------------------------------------------------
    @staticmethod
    def _make(run: Callable[[], np.ndarray], parents: tuple,
              backward: Optional[Callable[[np.ndarray], None]]) -> "Tensor":
        """Create an op's output tensor from its forward thunk ``run``.

        Runs the thunk (timed under a profiler), checks its output under
        anomaly mode and links the graph edge when a parent requires a
        gradient.
        """
        data = _run_forward(run)
        if _ANOMALY_ENABLED:
            _anomaly_forward_check(np.asarray(data), parents, backward)
        requires = any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = parents
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` into ``self.grad``.

        The first gradient is *borrowed* (no copy): backward closures may
        hand the same array to several parents (e.g. addition), so a
        borrowed gradient is never mutated in place — a second
        accumulation allocates a fresh sum instead.  Nodes that receive a
        single gradient (the vast majority) therefore cost zero copies.
        """
        if self.grad is None:
            self.grad = grad
            self._grad_borrowed = True
        elif self._grad_borrowed:
            self.grad = self.grad + grad
            self._grad_borrowed = False
        else:
            self.grad += grad

    # ------------------------------------------------------------------
    # backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[ArrayLike] = None,
                 retain_graph: bool = False) -> None:
        """Back-propagate from this tensor through the recorded graph.

        Parameters
        ----------
        grad:
            Gradient of the final objective w.r.t. this tensor.  Defaults
            to 1 for scalar tensors (the usual loss case).
        retain_graph:
            Keep the graph alive so ``backward`` can be called again.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not "
                               "require grad")
        if grad is None:
            if self.size != 1:
                raise RuntimeError("grad must be supplied for non-scalar "
                                   "backward()")
            grad = np.ones_like(self.data)
        else:
            grad = _as_array(grad)
            if grad.shape != self.shape:
                raise ValueError(
                    f"grad shape {grad.shape} does not match tensor shape "
                    f"{self.shape}")

        order = self._topo_order()
        self._accumulate(grad)
        profiler = _PROFILER
        for node in order:
            if node._backward is not None and node.grad is not None:
                if profiler is None:
                    node._backward(node.grad)
                else:
                    start = _perf_counter()
                    node._backward(node.grad)
                    profiler._record_backward(node._backward,
                                              _perf_counter() - start)
                if _ANOMALY_ENABLED:
                    node._anomaly_backward_check()
                # Interior nodes' grads are transient workspace; clearing
                # them keeps repeated backward passes (retain_graph) from
                # double-counting and frees memory early.
                node.grad = None
                if not retain_graph:
                    node._backward = None
                    node._parents = ()

    def _anomaly_backward_check(self) -> None:
        """Raise if this node's backward just wrote a non-finite gradient.

        Runs right after ``_backward``, so a non-finite entry in a
        parent's accumulated gradient was created by *this* op's adjoint
        (earlier contributions were checked when their creating ops ran).
        """
        for parent in self._parents:
            if parent.requires_grad and parent.grad is not None \
                    and not np.isfinite(parent.grad).all():
                op = _op_label(self._backward)
                n_bad = int((~np.isfinite(parent.grad)).sum())
                raise AnomalyError(
                    f"detect_anomaly: backward of op '{op}' produced "
                    f"{n_bad} non-finite gradient value(s) for an input "
                    f"of shape {parent.shape} (output shape "
                    f"{self.shape})", op=op, phase="backward")

    def _topo_order(self) -> list:
        """Reverse topological order of the graph rooted at ``self``."""
        order: list = []
        visited: set = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        order.reverse()
        return order

    # ------------------------------------------------------------------
    # arithmetic ops
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = _ensure_tensor(other)

        def run() -> np.ndarray:
            return self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.shape))

        return Tensor._make(run, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def run() -> np.ndarray:
            return -self.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad)

        return Tensor._make(run, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = _ensure_tensor(other)

        def run() -> np.ndarray:
            return self.data - other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(-grad, other.shape))

        return Tensor._make(run, (self, other), backward)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return _ensure_tensor(other).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = _ensure_tensor(other)

        def run() -> np.ndarray:
            return self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.shape))

        return Tensor._make(run, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = _ensure_tensor(other)
        # Data-dependent guard: runs every time the op is built.
        if (other.data == 0).any():
            n_bad = int((other.data == 0).sum())
            raise ValueError(
                f"truediv: divisor contains {n_bad} zero(s) (shape "
                f"{other.shape}); this would silently propagate inf/nan "
                f"through the graph — mask the zeros or add an epsilon "
                f"to the denominator first")

        def run() -> np.ndarray:
            return self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(
                    -grad * self.data / (other.data ** 2), other.shape))

        return Tensor._make(run, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return _ensure_tensor(other).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")

        def run() -> np.ndarray:
            return self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(run, (self,), backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        return self.matmul(other)

    def matmul(self, other: ArrayLike) -> "Tensor":
        """Matrix product with full broadcasting over batch dimensions."""
        other = _ensure_tensor(other)
        a, b = self, other

        def run() -> np.ndarray:
            return a.data @ b.data

        def backward(grad: np.ndarray) -> None:
            if a.requires_grad:
                if b.data.ndim == 1:
                    # (..., n) @ (n,) -> (...,): grad_a = outer(grad, b)
                    ga = np.expand_dims(grad, -1) * b.data
                else:
                    ga = grad @ np.swapaxes(b.data, -1, -2)
                if a.data.ndim == 1 and ga.ndim > 1:
                    ga = ga.sum(axis=tuple(range(ga.ndim - 1)))
                a._accumulate(_unbroadcast(ga, a.shape))
            if b.requires_grad:
                if a.data.ndim == 1:
                    gb = np.expand_dims(a.data, -1) * grad
                elif b.data.ndim == 1:
                    gb = (np.swapaxes(a.data, -1, -2) @
                          np.expand_dims(grad, -1))[..., 0]
                    if gb.ndim > 1:
                        gb = gb.sum(axis=tuple(range(gb.ndim - 1)))
                else:
                    gb = np.swapaxes(a.data, -1, -2) @ grad
                b._accumulate(_unbroadcast(gb, b.shape))

        return Tensor._make(run, (self, other), backward)

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        def run() -> np.ndarray:
            return self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            self._accumulate(np.broadcast_to(g, self.shape).copy())

        return Tensor._make(run, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = None

        def run() -> np.ndarray:
            nonlocal out_data
            out_data = self.data.max(axis=axis, keepdims=keepdims)
            return out_data

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            out = out_data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
                out = np.expand_dims(out, axis=axis)
            mask = (self.data == out)
            # Split gradient between ties, matching subgradient convention.
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None \
                else mask.sum()
            self._accumulate(mask * g / counts)

        return Tensor._make(run, (self,), backward)

    # ------------------------------------------------------------------
    # shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.shape

        def run() -> np.ndarray:
            return self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(original))

        return Tensor._make(run, (self,), backward)

    def transpose(self, axes: Optional[Sequence[int]] = None) -> "Tensor":
        if axes is None:
            inverse = None
        else:
            # Normalize negative axes before inverting: argsort((0, -1, 1))
            # would order the *raw* values and produce a wrong inverse
            # permutation.
            axes = tuple(int(a) % self.data.ndim for a in axes)
            inverse = np.argsort(axes)

        def run() -> np.ndarray:
            return self.data.transpose(axes)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.transpose(inverse))

        return Tensor._make(run, (self,), backward)

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[axis1], axes[axis2] = axes[axis2], axes[axis1]
        return self.transpose(axes)

    def __getitem__(self, index) -> "Tensor":
        # Basic indexing (ints/slices) selects disjoint elements, so the
        # gradient can be written with a plain assignment; only fancy
        # (array) indexing needs the slow duplicate-accumulating add.at.
        parts = index if isinstance(index, tuple) else (index,)
        basic = all(isinstance(p, (int, np.integer, slice, type(None),
                                   type(Ellipsis))) for p in parts)

        def run() -> np.ndarray:
            return self.data[index]

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                if basic:
                    full[index] = grad
                else:
                    np.add.at(full, index, grad)
                self._accumulate(full)

        return Tensor._make(run, (self,), backward)

    def expand_dims(self, axis: int) -> "Tensor":
        def run() -> np.ndarray:
            return np.expand_dims(self.data, axis)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(np.squeeze(grad, axis=axis))

        return Tensor._make(run, (self,), backward)

    def squeeze(self, axis: int) -> "Tensor":
        def run() -> np.ndarray:
            return np.squeeze(self.data, axis=axis)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(np.expand_dims(grad, axis=axis))

        return Tensor._make(run, (self,), backward)


def _ensure_tensor(value: ArrayLike) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


# ----------------------------------------------------------------------
# convenience constructors
# ----------------------------------------------------------------------
def zeros(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


def ones(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape), requires_grad=requires_grad)


def tensor(data: ArrayLike, requires_grad: bool = False) -> Tensor:
    return Tensor(data, requires_grad=requires_grad)
