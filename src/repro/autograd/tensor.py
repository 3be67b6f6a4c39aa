"""The :class:`Tensor` type: a numpy array with reverse-mode autodiff.

Every differentiable operation builds a node holding a backward closure;
:meth:`Tensor.backward` runs the closures in reverse topological order and
accumulates gradients into ``Tensor.grad``. Broadcasting is handled by
summing gradients over broadcast dimensions (:func:`unbroadcast`).
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.errors import ShapeError

ArrayLike = Union[np.ndarray, float, int, list, tuple]

# Grad mode is per-thread: the serving gateway decodes on concurrent
# worker threads, and with a process-global flag two overlapping
# ``no_grad`` blocks can interleave their save/restore so that one
# thread's stale snapshot re-disables (or re-enables) grad for every
# other thread. Thread-local state makes ``no_grad`` an isolated,
# race-free property of the calling thread; fresh threads start with
# grad enabled, like the main thread.
_GRAD_STATE = threading.local()


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Context manager that disables graph construction (inference mode)."""
    previous = grad_enabled()
    _GRAD_STATE.enabled = False
    try:
        yield
    finally:
        _GRAD_STATE.enabled = previous


def grad_enabled() -> bool:
    """Return whether operations currently record the autodiff graph."""
    return getattr(_GRAD_STATE, "enabled", True)


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` by summing broadcast dimensions."""
    if grad.shape == shape:
        return grad
    # Sum away leading dimensions added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum dimensions that were 1 in the original shape.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """A numpy array plus the bookkeeping needed for backpropagation."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Tuple["Tensor", ...] = (),
    ) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        recording = grad_enabled()
        self.requires_grad = requires_grad and recording
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents = _parents if recording else ()

    # -- basic introspection ------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return int(self.data.size)

    def item(self) -> float:
        """Return the value of a single-element tensor as a float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else self._item_error()

    def _item_error(self) -> float:
        raise ShapeError(f"item() requires a one-element tensor, got shape {self.shape}")

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut off from the graph."""
        return Tensor(self.data, requires_grad=False)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- graph construction helpers ---------------------------------------
    def _make(
        self,
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Create a result tensor, wiring the backward closure if needed."""
        requires = grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires, _parents=parents if requires else ())
        if requires:
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` into this tensor's gradient buffer.

        The first gradient is stored as an owned copy: backward closures
        hand the same array to several parents (``a + b`` passes ``grad``
        to both), and optimizers scale ``.grad`` in place.
        """
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.array(grad, dtype=np.float64)
        else:
            self.grad += grad

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other: Union["Tensor", float, int]) -> "Tensor":
        other_t = _as_tensor(other)
        out_data = self.data + other_t.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(unbroadcast(grad, self.shape))
            other_t._accumulate(unbroadcast(grad, other_t.shape))

        return self._make(out_data, (self, other_t), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return self._make(-self.data, (self,), backward)

    def __sub__(self, other: Union["Tensor", float, int]) -> "Tensor":
        return self + (-_as_tensor(other))

    def __rsub__(self, other: Union[float, int]) -> "Tensor":
        return _as_tensor(other) + (-self)

    def __mul__(self, other: Union["Tensor", float, int]) -> "Tensor":
        other_t = _as_tensor(other)
        out_data = self.data * other_t.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(unbroadcast(grad * other_t.data, self.shape))
            other_t._accumulate(unbroadcast(grad * self.data, other_t.shape))

        return self._make(out_data, (self, other_t), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: Union["Tensor", float, int]) -> "Tensor":
        other_t = _as_tensor(other)
        out_data = self.data / other_t.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(unbroadcast(grad / other_t.data, self.shape))
            other_t._accumulate(
                unbroadcast(-grad * self.data / (other_t.data**2), other_t.shape)
            )

        return self._make(out_data, (self, other_t), backward)

    def __rtruediv__(self, other: Union[float, int]) -> "Tensor":
        return _as_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        out_data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return self._make(out_data, (self,), backward)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        if self.data.ndim < 1 or other.data.ndim < 1:
            raise ShapeError("matmul requires tensors of rank >= 1")
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            a, b = self.data, other.data
            grad_a = grad @ np.swapaxes(b, -1, -2)
            grad_b = np.swapaxes(a, -1, -2) @ grad
            self._accumulate(unbroadcast(grad_a, self.shape))
            other._accumulate(unbroadcast(grad_b, other.shape))

        return self._make(out_data, (self, other), backward)

    # -- elementwise functions -------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data)

        return self._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data)

        return self._make(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self**0.5

    # -- reductions -----------------------------------------------------------
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else axis
                for ax in sorted(a % self.data.ndim for a in axes):
                    g = np.expand_dims(g, ax)
            self._accumulate(np.broadcast_to(g, self.shape).copy())

        return self._make(out_data, (self,), backward)

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else axis
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max_along(self, axis: int) -> "Tensor":
        """Max reduction along one axis (gradient flows to the argmax)."""
        out_data = self.data.max(axis=axis)
        argmax = self.data.argmax(axis=axis)

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.put_along_axis(
                full, np.expand_dims(argmax, axis), np.expand_dims(grad, axis), axis
            )
            self._accumulate(full)

        return self._make(out_data, (self,), backward)

    # -- shape manipulation ---------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        out_data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(self.shape))

        return self._make(out_data, (self,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        axes_tuple = axes if axes else tuple(reversed(range(self.data.ndim)))
        out_data = self.data.transpose(axes_tuple)
        inverse = np.argsort(axes_tuple)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.transpose(inverse))

        return self._make(out_data, (self,), backward)

    def __getitem__(self, key: object) -> "Tensor":
        out_data = self.data[key]

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, key, grad)
            self._accumulate(full)

        return self._make(out_data, (self,), backward)

    # -- masking / constants -------------------------------------------------
    def masked_fill(self, mask: np.ndarray, value: float) -> "Tensor":
        """Return a tensor equal to self where ``mask`` is False, else ``value``.

        ``mask`` is a plain boolean numpy array (no gradient flows to it).
        """
        mask_arr = np.asarray(mask, dtype=bool)
        out_data = np.where(mask_arr, value, self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(unbroadcast(np.where(mask_arr, 0.0, grad), self.shape))

        return self._make(out_data, (self,), backward)

    # -- backprop -----------------------------------------------------------
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        For scalar outputs (losses) ``grad`` defaults to 1; otherwise the
        caller must supply the output gradient.
        """
        if not self.requires_grad:
            raise ShapeError("backward() called on a tensor with requires_grad=False")
        if grad is None:
            if self.data.size != 1:
                raise ShapeError("backward() without a gradient requires a scalar tensor")
            grad = np.ones_like(self.data)

        order = _topological_order(self)
        grads: dict[int, np.ndarray] = {id(self): np.asarray(grad, dtype=np.float64)}
        for node in order:
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node.requires_grad and node._backward is None:
                # Leaf tensor: accumulate into .grad.
                node._accumulate(node_grad)
            if node._backward is not None:
                _run_backward(node, node_grad, grads)

    def zero_grad(self) -> None:
        """Clear the accumulated gradient."""
        self.grad = None


def _run_backward(
    node: Tensor, node_grad: np.ndarray, grads: dict[int, np.ndarray]
) -> None:
    """Invoke a node's backward closure, collecting parent grads.

    The closures call ``parent._accumulate``, which writes ``.grad``.
    Afterwards each interior (non-leaf) parent's ``.grad`` is moved into
    the ``grads`` work dict and cleared, so interior tensors hold no
    gradient buffer once backward is done; leaves keep theirs.
    """
    assert node._backward is not None
    node._backward(node_grad)
    for parent in node._parents:
        if parent._backward is not None and parent.grad is not None:
            # Interior node: move its accumulated grad into the work dict.
            # Both arrays are owned copies (see _accumulate), so the sum
            # can run in place.
            existing = grads.get(id(parent))
            if existing is None:
                grads[id(parent)] = parent.grad
            else:
                existing += parent.grad
            parent.grad = None


def _topological_order(root: Tensor) -> List[Tensor]:
    """Return nodes reachable from ``root`` in reverse topological order."""
    order: List[Tensor] = []
    visited: set[int] = set()
    stack: List[Tuple[Tensor, bool]] = [(root, False)]
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
    return list(reversed(order))


def _as_tensor(value: Union[Tensor, float, int, np.ndarray]) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)
