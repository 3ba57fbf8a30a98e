"""Dense float64 arrays with reverse-mode automatic differentiation.

Every operation computes its result eagerly with numpy and, when a Tape is
active, records a node holding the exact backward rule. Tapes are built fresh
for each optimization step and thrown away afterwards; gradients are obtained
by walking the recorded nodes once, in reverse order.

Broadcasting follows numpy's trailing-dimension rule but is restricted to
rank <= 3 so every gradient rule stays auditable by hand.

On glibc, freed arrays below 32 MiB stay in the C heap (see
`_hold_freed_memory`), so that a training step reuses pages an earlier step
has already faulted in. Only where arrays live depends on it, never a result.
"""

from __future__ import annotations

import ctypes
import itertools
import os
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ContractError, DimensionError, NumericError

_uid_counter = itertools.count()

# Module-global active tape; training is single-threaded per step.
_ACTIVE_TAPE: Optional["Tape"] = None

_MAX_RANK = 3

# glibc's mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
# Blocks below this size come from the heap instead of their own mapping; it is
# glibc's largest mmap threshold on 64-bit, and setting it also stops glibc
# from moving the threshold as blocks are freed.
MMAP_THRESHOLD_BYTES = 32 * 2**20
# Free memory at the top of the heap goes back to the OS only past this size.
TRIM_THRESHOLD_BYTES = 2**30


def _hold_freed_memory(libc) -> bool:
    """Set libc's malloc to keep freed blocks below MMAP_THRESHOLD_BYTES, and
    up to TRIM_THRESHOLD_BYTES of free heap top, for the process's life.

    Each step frees and allocates the same multi-MB temporaries; by default
    glibc maps and unmaps them, or trims the heap top, and the next step
    faults every page in again. Returns whether libc took both settings; a
    libc without `mallopt` (not glibc) is left as it is.
    """
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return (mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES) == 1
            and mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES) == 1)


_hold_freed_memory(ctypes.CDLL(None) if os.name == "posix" else None)


def _check_finite(data: np.ndarray, context: str) -> None:
    if not np.isfinite(data).all():
        raise NumericError(f"non-finite values produced by {context}")


class Tensor:
    """Immutable-by-convention float64 array, optionally tracked on a tape.

    `data` may be mutated only by the optimizer (parameter updates happen
    between tapes, never inside one).
    """

    __slots__ = ("data", "requires_grad", "uid")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim > _MAX_RANK:
            raise DimensionError(f"rank {arr.ndim} exceeds supported rank {_MAX_RANK}")
        arr = np.ascontiguousarray(arr)
        _check_finite(arr, "tensor construction")
        self.data = arr
        self.requires_grad = requires_grad
        self.uid = next(_uid_counter)

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def numpy(self) -> np.ndarray:
        return self.data

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # arithmetic sugar; full rules live in the module-level functions
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return neg(self)


@dataclass
class TapeNode:
    """One recorded operation: inputs, output, and its local backward rule."""

    inputs: tuple
    output: Tensor
    backward: Callable[[np.ndarray], Sequence[Optional[np.ndarray]]]
    op: str


class Tape:
    """Append-only record of operations, replayed in reverse and emptied by backward()."""

    def __init__(self):
        self.nodes: list[TapeNode] = []
        self.gradients: dict[int, np.ndarray] = {}
        self._prev: Optional["Tape"] = None

    def __enter__(self) -> "Tape":
        global _ACTIVE_TAPE
        self._prev = _ACTIVE_TAPE
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = self._prev
        self._prev = None

    def backward(self, loss: Tensor) -> dict[int, np.ndarray]:
        """Accumulate d(loss)/d(leaf) for every leaf recorded on this tape.

        The loss must be a scalar produced while the tape was active. Nodes
        are visited exactly once, in reverse recording order. A node's output
        gradient is complete when the node is visited, since every consumer
        was recorded after it, so it is dropped once the node has used it:
        only the gradients of leaves, the tensors no node produced, are kept.
        """
        if loss.data.ndim != 0:
            raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
        if not any(node.output is loss for node in self.nodes):
            raise ContractError("loss was not produced on this tape")
        grads: dict[int, np.ndarray] = {loss.uid: np.ones((), dtype=np.float64)}
        # each node is popped when visited, so the arrays only it holds are
        # freed while backward still runs; the tape is empty afterwards
        nodes, self.nodes = self.nodes, []
        while nodes:
            node = nodes.pop()
            g_out = grads.pop(node.output.uid, None)
            if g_out is None:
                continue
            for inp, g_in in zip(node.inputs, node.backward(g_out)):
                if g_in is None:
                    continue
                acc = grads.get(inp.uid)
                if acc is None:
                    grads[inp.uid] = g_in
                else:
                    grads[inp.uid] = acc + g_in
        self.gradients = grads
        return grads

    def grad(self, t: Tensor) -> np.ndarray:
        """Gradient of the last backward() w.r.t. the leaf `t`; zeros if unreachable.

        Only leaves keep a gradient: for a tensor some node produced this
        reads zeros.
        """
        g = self.gradients.get(t.uid)
        if g is None:
            return np.zeros_like(t.data)
        return g


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _record(op: str, inputs: tuple, out: Tensor, backward_fn) -> Tensor:
    if _ACTIVE_TAPE is not None and any(i.requires_grad for i in inputs):
        out.requires_grad = True
        _ACTIVE_TAPE.nodes.append(TapeNode(inputs, out, backward_fn, op))
    else:
        out.requires_grad = any(i.requires_grad for i in inputs)
    return out


def _make(data: np.ndarray) -> Tensor:
    """Wrap an already-validated numpy result without re-copying."""
    t = Tensor.__new__(Tensor)
    t.data = data
    t.requires_grad = False
    t.uid = next(_uid_counter)
    return t


def _broadcast_shape(sa: tuple, sb: tuple, op: str) -> tuple:
    out = []
    for da, db in itertools.zip_longest(reversed(sa), reversed(sb), fillvalue=1):
        if da == db or da == 1 or db == 1:
            out.append(max(da, db))
        else:
            raise DimensionError(f"{op}: shapes {sa} and {sb} do not broadcast")
    return tuple(reversed(out))


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to the original input shape."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _normalize_axis(axis: int, rank: int, op: str) -> int:
    if axis < 0:
        axis += rank
    if not 0 <= axis < rank:
        raise DimensionError(f"{op}: axis {axis} out of range for rank {rank}")
    return axis


# ---------------------------------------------------------------------------
# elementwise ops


def _binary(op: str, a, b, forward, grad_a, grad_b, context: Optional[str] = None) -> Tensor:
    """The ufunc forward(a.data, b.data) with broadcasting. grad_a and grad_b
    map (g, a.data, b.data) to each input's gradient, of g's shape, before it
    is summed back to the input's shape. `context`, if given, names the op in
    the finite check."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:  # equal shapes always broadcast
        _broadcast_shape(a.shape, b.shape, op)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        data = forward(a.data, b.data)
    _check_finite(data, context or op)

    def grad_fn(g):
        return (
            _unbroadcast(grad_a(g, a.data, b.data), a.shape) if a.requires_grad else None,
            _unbroadcast(grad_b(g, a.data, b.data), b.shape) if b.requires_grad else None,
        )

    return _record(op, (a, b), _make(data), grad_fn)


def _unary(op: str, a: Tensor, data: np.ndarray, backward) -> Tensor:
    """Record `data`, computed from `a` alone; backward(g) is a's gradient."""
    return _record(op, (a,), _make(data),
                   lambda g: (backward(g) if a.requires_grad else None,))


def add(a, b) -> Tensor:
    return _binary("add", a, b, np.add, lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b) -> Tensor:
    return _binary("sub", a, b, np.subtract, lambda g, x, y: g, lambda g, x, y: np.negative(g))


def mul(a, b) -> Tensor:
    return _binary("mul", a, b, np.multiply,
                   lambda g, x, y: np.multiply(g, y), lambda g, x, y: np.multiply(g, x))


def _div_grad_b(g: np.ndarray, x, y) -> np.ndarray:
    # -g * x / (y * y), in that order
    out = np.negative(g)
    np.multiply(out, x, out=out)
    return np.divide(out, np.multiply(y, y), out=out)


def div(a, b) -> Tensor:
    return _binary("div", a, b, np.divide,
                   lambda g, x, y: np.divide(g, y), _div_grad_b,
                   "div (zero or overflowing denominator)")


def neg(a) -> Tensor:
    a = _as_tensor(a)
    return _unary("neg", a, -a.data, lambda g: -g)


def exp(a) -> Tensor:
    a = _as_tensor(a)
    with np.errstate(over="ignore"):
        data = np.exp(a.data)
    _check_finite(data, "exp (overflow)")
    return _unary("exp", a, data, lambda g: np.multiply(g, data))


def tanh(a) -> Tensor:
    a = _as_tensor(a)
    data = np.tanh(a.data)
    return _unary("tanh", a, data, lambda g: g * (1.0 - data * data))


def relu(a) -> Tensor:
    a = _as_tensor(a)
    return _unary("relu", a, np.maximum(a.data, 0.0), lambda g: g * (a.data > 0.0))


def power(a, p: float) -> Tensor:
    """Elementwise a**p for a constant exponent."""
    a = _as_tensor(a)
    p = float(p)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        data = np.power(a.data, p)
    _check_finite(data, f"power(exponent={p})")

    def grad_fn(g):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            local = p * np.power(a.data, p - 1.0)
        _check_finite(local, f"power(exponent={p}) gradient")
        return g * local

    return _unary("power", a, data, grad_fn)


# ---------------------------------------------------------------------------
# contraction and reduction ops


def matmul(a, b) -> Tensor:
    """a @ b with a of rank 2 or 3 and b a rank-2 matrix."""
    a, b = _as_tensor(a), _as_tensor(b)
    if b.ndim != 2 or a.ndim not in (2, 3):
        raise DimensionError(f"matmul: unsupported ranks {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[0]:
        raise DimensionError(f"matmul: inner dims differ for {a.shape} @ {b.shape}")
    # collapse leading axes into one GEMM; numpy's stacked matmul would loop
    a2 = a.data.reshape(-1, a.shape[-1])
    out_shape = a.shape[:-1] + (b.shape[1],)
    with np.errstate(over="ignore", invalid="ignore"):
        data = (a2 @ b.data).reshape(out_shape)
    _check_finite(data, "matmul")
    out = _make(data)

    def grad_fn(g):
        g2 = g.reshape(-1, b.shape[1])
        ga = (g2 @ b.data.T).reshape(a.shape) if a.requires_grad else None
        gb = a2.T @ g2 if b.requires_grad else None
        return (ga, gb)

    return _record("matmul", (a, b), out, grad_fn)


MLP_ACTIVATIONS = ("tanh", "relu")

# Hidden layers run over blocks of this many bytes of the widest hidden
# activation, so a block stays in L2 cache from one layer to the next.
MLP_BLOCK_BYTES = 256 * 1024


def _activate(data: np.ndarray, activation: Optional[str]) -> None:
    if activation == "tanh":
        np.tanh(data, out=data)
    elif activation == "relu":
        np.maximum(data, 0.0, out=data)


def _activation_grad(g: np.ndarray, out: np.ndarray, activation: Optional[str],
                     dst: Optional[np.ndarray] = None) -> np.ndarray:
    """g times the activation's derivative, formed from the activation's output."""
    if activation == "tanh":
        d = np.multiply(out, out, out=dst)
        np.subtract(1.0, d, out=d)
        return np.multiply(g, d, out=d)
    if activation == "relu":
        return np.multiply(g, out > 0.0, out=dst)
    if dst is None:
        return g
    np.copyto(dst, g)
    return dst


def _row_blocks(rows: int, block: int) -> list[tuple[int, int]]:
    """Split rows into [lo, hi) blocks of `block` rows, the last taking the rest.

    No block is shorter than `block` unless it holds every row: OpenBLAS
    rounds a product with a few rows differently from one with many.
    """
    edges = list(range(0, rows - block + 1, block)) or [0]
    return list(zip(edges, edges[1:] + [rows]))


def _mlp_layers(op: str, layers: Sequence, activations: Sequence[Optional[str]],
                width: int) -> tuple[list, tuple]:
    """Checked (weight, bias) tensor pairs and activations of an MLP whose
    input has `width` features."""
    layers = [(_as_tensor(w), _as_tensor(b)) for w, b in layers]
    activations = tuple(activations)
    if not layers or len(activations) != len(layers):
        raise ContractError(
            f"{op}: {len(layers)} layers need as many activations, got {len(activations)}")
    for act in activations:
        if act is not None and act not in MLP_ACTIVATIONS:
            raise ContractError(f"{op}: unknown activation {act!r}")
    for i, (w, b) in enumerate(layers):
        if w.ndim != 2 or w.shape[0] != width:
            raise DimensionError(f"{op}: layer {i} weight {w.shape} for input width {width}")
        if b.shape != (w.shape[1],):
            raise DimensionError(f"{op}: layer {i} bias shape {b.shape} for weight {w.shape}")
        width = w.shape[1]
    return layers, activations


def _mlp_forward(x2: np.ndarray, layers: list, activations: tuple, taped: bool):
    """Run checked layers over the rows of the 2-D x2, as `mlp` describes.

    Returns the output over all rows, the hidden layers' outputs and the row
    blocks, which `_mlp_backward` takes. A hidden layer's output is kept over
    all rows when `taped`, and for the last hidden layer; otherwise each block
    reuses one buffer.
    """
    rows = x2.shape[0]
    n_hidden = len(layers) - 1
    block = rows
    if n_hidden:
        block = MLP_BLOCK_BYTES // (8 * max(w.shape[1] for w, _ in layers[:-1]))
    blocks = _row_blocks(rows, max(1, block))
    most = max(hi - lo for lo, hi in blocks)
    hidden = [np.empty((rows if taped or i == n_hidden - 1 else most, w.shape[1]))
              for i, (w, _) in enumerate(layers[:-1])]
    w_last, b_last = layers[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi in blocks:
            h = x2[lo:hi]
            for i, buf in enumerate(hidden):
                w, b = layers[i]
                dst = buf[lo:hi] if len(buf) == rows else buf[:hi - lo]
                np.matmul(h, w.data, out=dst)
                dst += b.data
                # tanh and relu of a finite value are finite
                _check_finite(dst, f"mlp layer {i}")
                _activate(dst, activations[i])
                h = dst
        data = (hidden[-1] if hidden else x2) @ w_last.data
        data += b_last.data
    _check_finite(data, f"mlp layer {n_hidden}")
    _activate(data, activations[-1])
    return data, hidden, blocks


def _mlp_backward(g2: np.ndarray, x2: np.ndarray, lead: tuple, layers: list,
                  activations: tuple, out: np.ndarray, hidden: list, blocks: list,
                  x_grad: bool) -> list:
    """Gradients of an `_mlp_forward` run, given its output gradient g2 over
    rows: x2's (rows, features) gradient if `x_grad`, then each layer's
    weight and bias gradient if it requires one, else None in each place.
    `lead` is the input's shape without its last axis."""
    rows = x2.shape[0]
    most = max(hi - lo for lo, hi in blocks)
    # g_pre[i]: gradient of layer i's pre-activation, kept over all rows
    # for a layer whose weight or bias needs a gradient, and for layer 0
    # when x needs one; else per block
    keep = [w.requires_grad or b.requires_grad for w, b in layers]
    keep[0] = keep[0] or x_grad
    g_pre = [np.empty(h.shape) if k else None for h, k in zip(hidden, keep)]
    g_pre.append(_activation_grad(g2, out, activations[-1]))
    if any(p is not None for p in g_pre[:-1]):
        g_h = [np.empty((most, h.shape[1])) for h in hidden]
        pre = [p if p is not None else np.empty((most, h.shape[1]))
               for p, h in zip(g_pre, hidden)]
        for lo, hi in blocks:
            g_blk = g_pre[-1][lo:hi]
            for i in range(len(hidden) - 1, -1, -1):
                g_out = g_h[i][:hi - lo]
                np.matmul(g_blk, layers[i + 1][0].data.T, out=g_out)
                dst = pre[i][lo:hi] if len(pre[i]) == rows else pre[i][:hi - lo]
                g_blk = _activation_grad(g_out, hidden[i][lo:hi], activations[i], dst)
    grads = [g_pre[0] @ layers[0][0].data.T if x_grad else None]
    for layer_in, gp, (w, b) in zip([x2] + hidden, g_pre, layers):
        grads.append(layer_in.T @ gp if w.requires_grad else None)
        grads.append(_unbroadcast(gp.reshape(lead + (w.shape[1],)), b.shape)
                     if b.requires_grad else None)
    return grads


def mlp(x, layers: Sequence, activations: Sequence[Optional[str]]) -> Tensor:
    """A stack of act(h @ weight + bias) layers as one tape node.

    `layers` holds (weight, bias) pairs, weight (in, out) and bias (out,), and
    `activations` one of MLP_ACTIVATIONS or None per layer; x is rank 2 or 3.

    The hidden layers run over row blocks of about MLP_BLOCK_BYTES, so each
    block passes through every hidden layer while it is still in cache; bias
    add and activation run in place. Without a tape only the last hidden
    layer is kept over all rows, and the others reuse one block-sized buffer
    each. The last layer's GEMM, and in the backward each weight gradient and
    bias sum, and the input gradient, run once over all rows: OpenBLAS rounds
    a blocked product with few output columns, or a row sum split into
    blocks, differently. For the coupling and backbone widths the results are
    then bit-identical to the chain of matmul, add and activation ops.
    """
    x = _as_tensor(x)
    if x.ndim not in (2, 3):
        raise DimensionError(f"mlp: unsupported input rank {x.shape}")
    layers, activations = _mlp_layers("mlp", layers, activations, x.shape[-1])
    inputs = (x,) + tuple(t for pair in layers for t in pair)
    taped = _ACTIVE_TAPE is not None and any(t.requires_grad for t in inputs)
    lead = x.shape[:-1]
    x2 = x.data.reshape(-1, x.shape[-1])
    data, hidden, blocks = _mlp_forward(x2, layers, activations, taped)
    out = _make(data.reshape(lead + (data.shape[1],)))

    def grad_fn(g):
        grads = _mlp_backward(g.reshape(data.shape), x2, lead, layers, activations, data,
                              hidden, blocks, x.requires_grad)
        if grads[0] is not None:
            grads[0] = grads[0].reshape(x.shape)
        return grads

    return _record("mlp", inputs, out, grad_fn)


def affine_coupling(h, split: int, scale, translate, inverse: bool = False) -> Tensor:
    """An affine coupling over the variates of h as one tape node.

    h is [batch, length, variates]; h1 = h[..., :split] passes through and
    conditions h2, the rest. `scale` and `translate` are each a
    (layers, activations) pair as `mlp` takes it, from `split` features to
    `variates - split`. Forward gives h2 * exp(scale(h1)) + translate(h1),
    and `inverse` (h2 - translate(h1)) / exp(scale(h1)).

    Both directions run the numpy operations of the op chain (slice_axis,
    mlp, exp, mul and add or sub and div, concat) in its order, with its
    finite checks, and sum h1's gradient in its order, so the output and
    every gradient are bit-identical to it. h1 is read as a view, and the
    output is one array: a copy of h with the updated h2 written in.
    """
    h = _as_tensor(h)
    if h.ndim != 3:
        raise DimensionError(f"affine_coupling: expects [batch, length, variates], got {h.shape}")
    batch, length, width = h.shape
    if not 1 <= split < width:
        raise DimensionError(f"affine_coupling: split {split} outside 1..{width - 1}")
    nets = []
    for name, (layers, activations) in (("scale", scale), ("translate", translate)):
        layers, activations = _mlp_layers(f"affine_coupling {name}", layers, activations,
                                          split)
        if layers[-1][0].shape[1] != width - split:
            raise DimensionError(f"affine_coupling: {name} net gives {layers[-1][0].shape[1]} "
                                 f"outputs for {width - split} variates")
        nets.append((layers, activations))
    (s_layers, s_acts), (t_layers, t_acts) = nets
    s_params = [t for pair in s_layers for t in pair]
    t_params = [t for pair in t_layers for t in pair]
    inputs = (h, *s_params, *t_params)
    taped = _ACTIVE_TAPE is not None and any(t.requires_grad for t in inputs)
    lead, half = (batch, length), (batch, length, width - split)
    x1 = h.data[..., :split].reshape(-1, split)
    # numpy runs an elementwise op over a strided [..., split:] view one short
    # row at a time, so h2 is gathered once and the update runs contiguously
    h2 = np.ascontiguousarray(h.data[..., split:])
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if inverse:
            t_out, t_hidden, t_blocks = _mlp_forward(x1, t_layers, t_acts, taped)
            diff = np.subtract(h2, t_out.reshape(half))
            _check_finite(diff, "sub")
        s_out, s_hidden, s_blocks = _mlp_forward(x1, s_layers, s_acts, taped)
        factor = np.exp(s_out.reshape(half))
        _check_finite(factor, "exp (overflow)")
        if inverse:
            out2 = np.divide(diff, factor)
            _check_finite(out2, "div (zero or overflowing denominator)")
        else:
            out2 = np.multiply(h2, factor)
            _check_finite(out2, "mul")
            t_out, t_hidden, t_blocks = _mlp_forward(x1, t_layers, t_acts, taped)
            np.add(out2, t_out.reshape(half), out=out2)
            _check_finite(out2, "add")
    data = h.data.copy()
    data[..., split:] = out2
    del out2

    def grad_fn(g):
        h_grad = h.requires_grad
        s_grad = h_grad or any(t.requires_grad for t in s_params)
        t_grad = h_grad or any(t.requires_grad for t in t_params)
        g2 = np.ascontiguousarray(g[..., split:])
        if inverse:
            g_diff = np.divide(g2, factor) if t_grad else None
            g_factor = _div_grad_b(g2, diff, factor) if s_grad else None
            g_h2, g_t = g_diff, (np.negative(g_diff) if t_grad else None)
        else:
            g_h2 = np.multiply(g2, factor) if h_grad else None
            g_factor = np.multiply(g2, h2) if s_grad else None
            g_t = g2 if t_grad else None
        s_grads = t_grads = None
        if g_t is not None:
            t_grads = _mlp_backward(g_t.reshape(t_out.shape), x1, lead, t_layers, t_acts,
                                    t_out, t_hidden, t_blocks, h_grad)
        if g_factor is not None:
            np.multiply(g_factor, factor, out=g_factor)  # exp's backward
            s_grads = _mlp_backward(g_factor.reshape(s_out.shape), x1, lead, s_layers, s_acts,
                                    s_out, s_hidden, s_blocks, h_grad)
        g_h = None
        if h_grad:
            # h1's gradient sums as the chain visits its nodes: the net recorded
            # last comes first
            first, second = (s_grads, t_grads) if inverse else (t_grads, s_grads)
            g1 = g[..., :split] + first[0].reshape(lead + (split,))
            np.add(g1, second[0].reshape(g1.shape), out=g1)
            # the chain adds the two slices' zero-padded gradients, which turns
            # -0.0 into 0.0
            g_h = np.empty(h.shape)
            np.add(g1, 0.0, out=g_h[..., :split])
            np.add(g_h2, 0.0, out=g_h[..., split:])
        return (g_h, *(s_grads[1:] if s_grads else [None] * len(s_params)),
                *(t_grads[1:] if t_grads else [None] * len(t_params)))

    return _record("affine_coupling", inputs, _make(data), grad_fn)


def _reduce_axis(op: str, a, axis: int, keepdims: bool, rule) -> Tensor:
    """Reduce `a` along one axis. rule(x, axis) returns the result and the
    rule that maps the output gradient, with the axis kept, to x's."""
    a = _as_tensor(a)
    axis = _normalize_axis(axis, a.ndim, op)
    data, backward = rule(a.data, axis)
    return _unary(op, a, data, lambda g: backward(g if keepdims else np.expand_dims(g, axis)))


def mean_axis(a, axis: int, keepdims: bool = False) -> Tensor:
    def rule(x, axis):
        n = x.shape[axis]
        return (x.mean(axis=axis, keepdims=keepdims), lambda g: np.full(x.shape, g / n))

    return _reduce_axis("mean_axis", a, axis, keepdims, rule)


def var_axis(a, axis: int, keepdims: bool = False, mean=None) -> Tensor:
    """Biased (divide-by-N) variance along one axis.

    `mean`, if given, is a's mean along that axis, with or without the axis
    kept, such as `mean_axis`'s output; the variance centres on it instead of
    taking the mean again. It is data, not a recorded input.
    """
    def rule(x, axis):
        n = x.shape[axis]
        if mean is None:
            mu = x.mean(axis=axis, keepdims=True)
        else:
            mu = _as_tensor(mean).data
            kept = x.shape[:axis] + (1,) + x.shape[axis + 1:]
            if mu.shape not in (kept, x.shape[:axis] + x.shape[axis + 1:]):
                raise DimensionError(f"var_axis: mean shape {mu.shape} for input {x.shape} "
                                     f"along axis {axis}")
            mu = mu.reshape(kept)
        # d var / d x_i = 2 (x_i - mu) / N; the mu terms cancel exactly, so a
        # given mean needs no gradient of its own
        def backward(g):
            # g * (2 / N) * (x - mu)
            d = x - mu
            return np.multiply(g * (2.0 / n), d, out=d)

        # x ** 2 of an array is numpy's square
        d = x - mu
        np.square(d, out=d)
        return d.mean(axis=axis, keepdims=keepdims), backward

    return _reduce_axis("var_axis", a, axis, keepdims, rule)


def _sum_to(x: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a [batch, length, variates] array down to (variates,) or
    (batch, 1, variates) as one matrix product: BLAS beats numpy's axis sum
    over rows this narrow."""
    if len(shape) == 1:
        return np.ones(x.shape[0] * x.shape[1]) @ x.reshape(-1, x.shape[2])
    return np.matmul(np.ones(x.shape[1]), x).reshape(shape)


def affine_norm(h, mu, var, log_scale, shift, eps: float, inverse: bool = False) -> Tensor:
    """Normalize h by (mu, var) and the affine (exp(log_scale), shift), as one tape node.

    Forward is ((h - mu) * (var + eps)**-0.5) * exp(log_scale) + shift, and
    `inverse` is ((h - shift) * exp(-log_scale)) * (var + eps)**0.5 + mu. h is
    [batch, length, variates], mu and var are (variates,) or
    (batch, 1, variates), log_scale and shift (variates,). Each runs the numpy
    operations of the op-by-op chain in its order, so the output is
    bit-identical to it; the backward is derived by hand, with each reduction
    done once.
    """
    h, mu, var, log_scale, shift = (_as_tensor(t) for t in (h, mu, var, log_scale, shift))
    if h.ndim != 3:
        raise DimensionError(f"affine_norm: expects [batch, length, variates], got {h.shape}")
    batch, _, width = h.shape
    stats, affine = ((width,), (batch, 1, width)), ((width,),)
    for t, shapes in ((mu, stats), (var, stats), (log_scale, affine), (shift, affine)):
        if t.shape not in shapes:
            raise DimensionError(f"affine_norm: shape {t.shape} for input {h.shape}")
    var_eps = var.data + eps
    # out = ((h - center) * k1) * k2 + offset
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if inverse:
            center, offset = shift, mu
            k1, k2 = np.exp(-log_scale.data), np.power(var_eps, 0.5)
        else:
            center, offset = mu, shift
            k1, k2 = np.power(var_eps, -0.5), np.exp(log_scale.data)
        data = h.data - center.data
        data *= k1
        data *= k2
        data += offset.data
    _check_finite(data, "affine_norm")
    # d out / d log_scale is +-(h - center) * k1 * k2; d out / d var is -+0.5 of
    # that over var + eps
    sign = -1.0 if inverse else 1.0

    def grad_fn(g):
        g_h = g * (k1 * k2)
        g_center = -_sum_to(g_h, center.shape) if center.requires_grad else None
        g_offset = _sum_to(g, offset.shape) if offset.requires_grad else None
        g_ls = g_var = None
        if log_scale.requires_grad or var.requires_grad:
            p = h.data - center.data
            p *= g_h
            if log_scale.requires_grad:
                g_ls = sign * _sum_to(p, log_scale.shape)
            if var.requires_grad:
                g_var = _sum_to(p, var.shape) * (-0.5 * sign) / var_eps
        g_mu, g_shift = (g_offset, g_center) if inverse else (g_center, g_offset)
        return (g_h if h.requires_grad else None, g_mu, g_var, g_ls, g_shift)

    return _record("affine_norm", (h, mu, var, log_scale, shift), _make(data), grad_fn)


def sum_all(a) -> Tensor:
    a = _as_tensor(a)
    return _unary("sum_all", a, np.asarray(a.data.sum()), lambda g: np.full(a.shape, g))


def mean_all(a) -> Tensor:
    a = _as_tensor(a)
    n = a.data.size
    return _unary("mean_all", a, np.asarray(a.data.mean()), lambda g: np.full(a.shape, g / n))


# ---------------------------------------------------------------------------
# shape ops


def slice_axis(a, axis: int, start: int, stop: int) -> Tensor:
    a = _as_tensor(a)
    axis = _normalize_axis(axis, a.ndim, "slice_axis")
    size = a.shape[axis]
    if not (0 <= start < stop <= size):
        raise DimensionError(
            f"slice_axis: bounds [{start}, {stop}) invalid for axis {axis} of size {size}"
        )
    index = tuple(slice(None) if i != axis else slice(start, stop) for i in range(a.ndim))
    out = _make(np.ascontiguousarray(a.data[index]))

    def grad_fn(g):
        if not a.requires_grad:
            return (None,)
        full = np.zeros(a.shape)
        full[index] = g
        return (full,)

    return _record("slice_axis", (a,), out, grad_fn)


def concat(tensors: Sequence, axis: int) -> Tensor:
    ts = [_as_tensor(t) for t in tensors]
    if not ts:
        raise DimensionError("concat: empty input list")
    axis = _normalize_axis(axis, ts[0].ndim, "concat")
    for t in ts[1:]:
        if t.ndim != ts[0].ndim:
            raise DimensionError(f"concat: mixed ranks {ts[0].shape} and {t.shape}")
    sizes = [t.shape[axis] for t in ts]
    out = _make(np.concatenate([t.data for t in ts], axis=axis))
    offsets = np.cumsum([0] + sizes)

    def grad_fn(g):
        pieces = []
        for t, lo, hi in zip(ts, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index = tuple(
                    slice(None) if i != axis else slice(lo, hi) for i in range(t.ndim)
                )
                pieces.append(np.ascontiguousarray(g[index]))
            else:
                pieces.append(None)
        return pieces

    return _record("concat", tuple(ts), out, grad_fn)


def reshape(a, shape: Sequence[int]) -> Tensor:
    a = _as_tensor(a)
    shape = tuple(int(s) for s in shape)
    try:
        data = a.data.reshape(shape)
    except ValueError as e:
        raise DimensionError(f"reshape: {a.shape} -> {shape}: {e}") from None
    return _unary("reshape", a, np.ascontiguousarray(data), lambda g: g.reshape(a.shape))


def broadcast_to(a, shape: Sequence[int]) -> Tensor:
    a = _as_tensor(a)
    shape = tuple(int(s) for s in shape)
    if _broadcast_shape(a.shape, shape, "broadcast_to") != shape:
        raise DimensionError(f"broadcast_to: {a.shape} does not expand to {shape}")
    return _unary("broadcast_to", a, np.full(shape, a.data), lambda g: _unbroadcast(g, a.shape))


def flip_axis(a, axis: int) -> Tensor:
    """Reverse element order along one axis; self-inverse."""
    a = _as_tensor(a)
    axis = _normalize_axis(axis, a.ndim, "flip_axis")
    return _unary("flip_axis", a, np.ascontiguousarray(np.flip(a.data, axis=axis)),
                  lambda g: np.ascontiguousarray(np.flip(g, axis=axis)))


def swap_last_axes(a) -> Tensor:
    """Transpose the last two axes (rank 2 or 3). Its own inverse."""
    a = _as_tensor(a)
    if a.ndim not in (2, 3):
        raise DimensionError(f"swap_last_axes: rank {a.ndim} unsupported")
    return _unary("swap_last_axes", a, np.ascontiguousarray(np.swapaxes(a.data, -1, -2)),
                  lambda g: np.ascontiguousarray(np.swapaxes(g, -1, -2)))


# ---------------------------------------------------------------------------
# optimizer


# Adam's moment decay rates and the floor added to the denominator
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Moment estimates and step counter for one parameter tensor."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0
    lr: float = 1e-3

    @classmethod
    def for_param(cls, param: Tensor, lr: float = 1e-3) -> "AdamState":
        return cls(
            first_moment=np.zeros_like(param.data),
            second_moment=np.zeros_like(param.data),
            lr=lr,
        )


def adam_step(state: AdamState, param: Tensor, grad: np.ndarray) -> None:
    """One bias-corrected Adam update, in place. Refuses non-finite gradients."""
    if grad.shape != param.data.shape:
        raise DimensionError(
            f"adam_step: grad shape {grad.shape} vs param shape {param.data.shape}"
        )
    if not np.isfinite(grad).all():
        raise NumericError("adam_step: non-finite gradient, step refused")
    state.step_count += 1
    t = state.step_count
    state.first_moment = ADAM_BETA1 * state.first_moment + (1.0 - ADAM_BETA1) * grad
    state.second_moment = ADAM_BETA2 * state.second_moment + (1.0 - ADAM_BETA2) * grad * grad
    m_hat = state.first_moment / (1.0 - ADAM_BETA1 ** t)
    v_hat = state.second_moment / (1.0 - ADAM_BETA2 ** t)
    param.data -= state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


class Adam:
    """Adam over a named parameter group, one AdamState per tensor."""

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3):
        self.params = dict(params)
        self.states = {name: AdamState.for_param(p, lr=lr) for name, p in self.params.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        for name, p in self.params.items():
            adam_step(self.states[name], p, grads[name])
