"""Reverse-mode differentiation over dense float64 tensors.

Graphs are static: nodes are appended once, with concrete shapes
(including the batch dimension), and then ``forward``/``backward`` run
as many times as needed with different bindings.  The operation set is
the minimal closed set needed by the adversarial objectives and the
code-recovery head: affine maps, pointwise nonlinearities, softmax
cross-entropy, fixed-variance Gaussian log-likelihood, the mean, and
weighted sums of equal-shaped nodes.

Every value is a 64-bit row-major numpy array.  Any non-finite entry
produced by a public operation raises ``NonFiniteError`` instead of
propagating silently.  ``forward`` checks only the inputs, the sinks
(nodes no other node reads) and the operands of relu and tanh.  Every
other op turns a non-finite operand into a non-finite output (a weighted
sum too, since 0 * inf is NaN), and only
relu (-inf -> 0) and tanh (+-inf -> +-1) can mask one, so a non-finite
value anywhere reaches a checked node.  When a check fires, the pass is
rerun checking every node, so the error names the first non-finite node.

``backward`` sends cotangents only along nodes that lie on a path from
a wanted parameter to the loss, so no gradient is formed that no slot
reads (e.g. ``g @ W.T`` into an input leaf).
"""
from __future__ import annotations

import functools
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

LEAKY_SLOPE = 0.01
_LOG_2PI = float(np.log(2.0 * np.pi))


class ShapeError(ValueError):
    """Operand shapes are inconsistent with an operation's contract."""


class NonFiniteError(ArithmeticError):
    """A NaN or infinity appeared in a tensor value."""


class GraphError(ValueError):
    """Malformed graph construction or evaluation request."""


def as_tensor(value, where: str = "tensor") -> np.ndarray:
    """Coerce to a C-contiguous float64 array, rejecting non-finite entries."""
    arr = np.ascontiguousarray(value, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"{where}: non-finite entries")
    return arr


class Run(NamedTuple):
    """A contiguous 1-D stretch of a store: the names it covers, in order,
    and flat views of their parameters and gradient slots."""

    names: tuple[str, ...]
    params: np.ndarray
    grads: np.ndarray


class ParamStore:
    """Named parameters with matching gradient slots, in one flat layout.

    ``ParamStore(params)`` copies a name -> array mapping into one
    contiguous float64 buffer, in mapping order, and each parameter is a
    view of its stretch.  The gradient slots are views of a second buffer
    with the same layout, made zero-filled on the first read of ``grads``
    (by ``backward``, an optimizer or the noise).  So a store that is only
    run forward, such as a net loaded to evaluate or generate, holds its
    parameters alone.

    A store's buffers are fixed at construction: parameter arrays are
    mutated in place by optimizers and clipping, never replaced, and
    nets that share a store (the generator and critic of a trained or
    loaded pair) share one storage location per name.

    ``runs(names)`` yields the fewest 1-D runs covering ``names``: names
    laid out side by side share one run, so an elementwise pass (an
    optimizer, clipping, noise) makes one numpy call per run instead of
    one per tensor, with the same arithmetic on every entry.
    """

    def __init__(self, params: Mapping[str, object]):
        arrays = {name: as_tensor(value, where=f"param {name!r}")
                  for name, value in params.items()}
        # each name's [start, stop) in the buffers, and its shape
        self._spans: dict[str, tuple[int, int, tuple[int, ...]]] = {}
        pos = 0
        for name, arr in arrays.items():
            self._spans[name] = (pos, pos + arr.size, arr.shape)
            pos += arr.size
        self._flat = np.empty(pos)
        self._flat_grads: np.ndarray | None = None
        self.params: dict[str, np.ndarray] = self._views(self._flat)
        self._grads: dict[str, np.ndarray] | None = None
        self._runs: dict[tuple[str, ...], list[Run]] = {}
        for name, arr in arrays.items():
            self.params[name][...] = arr

    def _views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        return {name: flat[start:stop].reshape(shape)
                for name, (start, stop, shape) in self._spans.items()}

    @property
    def grads(self) -> dict[str, np.ndarray]:
        if self._grads is None:
            self._flat_grads = np.zeros_like(self._flat)
            self._grads = self._views(self._flat_grads)
        return self._grads

    def names(self) -> list[str]:
        return list(self.params)

    def names_with_prefix(self, *prefixes: str) -> list[str]:
        return [n for n in self.params if n.startswith(prefixes)]

    def runs(self, names: Iterable[str] | None = None) -> list[Run]:
        """The fewest contiguous runs covering ``names`` (all when None), in
        their order."""
        key = tuple(self.params if names is None else names)
        found = self._runs.get(key)
        if found is None:
            found = self._runs[key] = self._make_runs(key)
        return found

    def _make_runs(self, names: tuple[str, ...]) -> list[Run]:
        self.grads  # the slots' buffer exists from here on
        groups: list[list] = []  # [names, start, stop]
        for name in names:
            start, stop, _ = self._spans[name]
            if groups and groups[-1][2] == start:
                groups[-1][0].append(name)
                groups[-1][2] = stop
            else:
                groups.append([[name], start, stop])
        return [Run(tuple(group), self._flat[start:stop], self._flat_grads[start:stop])
                for group, start, stop in groups]


@dataclass(frozen=True)
class Node:
    op: str
    args: tuple[int, ...]
    shape: tuple[int, ...]
    ref: str | None = None       # input/param name
    w: tuple[float, ...] = ()    # weighted_sum: one weight per operand
    k: float | None = None       # weighted_sum: constant added last, if any


class Graph:
    """A static computation graph; node ids are ints in topological order."""

    def __init__(self):
        self.nodes: list[Node] = []
        self._input_names: set[str] = set()
        # (loss, wanted parameter names or None) -> per-node flags, see _needed
        self._needed_cache: dict[tuple, list[bool]] = {}
        self._checked_cache: list[bool] | None = None

    def __len__(self) -> int:
        return len(self.nodes)

    def shape(self, node: int) -> tuple[int, ...]:
        return self.nodes[node].shape

    def _append(self, node: Node) -> int:
        self.nodes.append(node)
        self._needed_cache.clear()
        self._checked_cache = None
        return len(self.nodes) - 1

    def _checked(self) -> list[bool]:
        """Flags the nodes ``forward`` checks for finiteness: inputs,
        sinks and operands of relu/tanh (see the module docstring)."""
        if self._checked_cache is None:
            checked = [nd.op == "input" for nd in self.nodes]
            read = [False] * len(self.nodes)
            for nd in self.nodes:
                for j in nd.args:
                    read[j] = True
                    if nd.op in ("relu", "tanh"):
                        checked[j] = True
            self._checked_cache = [c or not r for c, r in zip(checked, read)]
        return self._checked_cache

    def _needed(self, loss: int, wrt: frozenset[str] | None) -> list[bool]:
        """Flags the nodes on a path from a wanted param to ``loss``.

        ``wrt=None`` wants every param node.  Only flagged nodes can
        carry a cotangent that reaches a wanted gradient slot.
        """
        key = (loss, wrt)
        needed = self._needed_cache.get(key)
        if needed is None:
            from_param = [False] * (loss + 1)
            for i in range(loss + 1):
                nd = self.nodes[i]
                if nd.op == "param":
                    from_param[i] = wrt is None or nd.ref in wrt
                else:
                    from_param[i] = any(from_param[j] for j in nd.args)
            to_loss = [False] * (loss + 1)
            to_loss[loss] = True
            for i in range(loss, -1, -1):
                if to_loss[i]:
                    for j in self.nodes[i].args:
                        to_loss[j] = True
            needed = [f and t for f, t in zip(from_param, to_loss)]
            self._needed_cache[key] = needed
        return needed

    def _check(self, node: int) -> Node:
        if not 0 <= node < len(self.nodes):
            raise GraphError(f"unknown node id {node}")
        return self.nodes[node]

    # -- leaves ---------------------------------------------------------

    def input(self, name: str, shape) -> int:
        if name in self._input_names:
            raise GraphError(f"duplicate input name {name!r}")
        self._input_names.add(name)
        return self._append(Node("input", (), tuple(shape), ref=name))

    def param(self, name: str, shape) -> int:
        return self._append(Node("param", (), tuple(shape), ref=name))

    # -- layers ---------------------------------------------------------

    def affine(self, x: int, w: int, b: int) -> int:
        xs, ws, bs = self.shape(x), self.shape(w), self.shape(b)
        if len(xs) != 2 or len(ws) != 2 or len(bs) != 1:
            raise ShapeError(f"affine needs (b,n)@(n,m)+(m,), got {xs} {ws} {bs}")
        if xs[1] != ws[0] or ws[1] != bs[0]:
            raise ShapeError(f"affine shape mismatch: {xs} {ws} {bs}")
        return self._append(Node("affine", (x, w, b), (xs[0], ws[1])))

    def _unary(self, op: str, x: int) -> int:
        return self._append(Node(op, (x,), self.shape(x)))

    def tanh(self, x: int) -> int:
        return self._unary("tanh", x)

    def relu(self, x: int) -> int:
        return self._unary("relu", x)

    def leaky_relu(self, x: int) -> int:
        return self._unary("leaky_relu", x)

    # -- losses ---------------------------------------------------------

    def _check_target(self, t: int, op: str) -> None:
        if self.nodes[t].op != "input":
            raise GraphError(f"{op} targets must be input nodes")

    def softmax_xent(self, logits: int, targets: int) -> int:
        """Mean over rows of cross-entropy between softmax(logits) and targets.

        Targets are treated as constants; no gradient flows into them.
        """
        ls, ts = self.shape(logits), self.shape(targets)
        if len(ls) != 2 or ls != ts:
            raise ShapeError(f"softmax_xent needs matching (b,K), got {ls} {ts}")
        self._check_target(targets, "softmax_xent")
        return self._append(Node("softmax_xent", (logits, targets), ()))

    def gaussian_loglik(self, means: int, targets: int) -> int:
        """Mean over rows of the unit-variance Gaussian log-density of
        targets at the predicted means, summed over columns."""
        ms, ts = self.shape(means), self.shape(targets)
        if len(ms) != 2 or ms != ts:
            raise ShapeError(f"gaussian_loglik needs matching (b,n), got {ms} {ts}")
        self._check_target(targets, "gaussian_loglik")
        return self._append(Node("gaussian_loglik", (means, targets), ()))

    # -- reductions and weighted sums -----------------------------------

    def mean(self, x: int) -> int:
        return self._append(Node("mean", (x,), ()))

    def weighted_sum(self, terms, const: float | None = None) -> int:
        """``w0*x0 + w1*x1 + ...`` over ``(node, w)`` terms of one shape,
        summed in the order given, then ``+ const`` unless it is None (so
        a -0.0 sum stays -0.0 when there is no constant)."""
        terms = tuple(terms)
        if not terms:
            raise GraphError("weighted_sum needs at least one term")
        shapes = {self.shape(x) for x, _ in terms}
        if len(shapes) != 1:
            raise ShapeError(f"weighted_sum needs equal shapes, got {sorted(shapes)}")
        return self._append(Node("weighted_sum", tuple(x for x, _ in terms), shapes.pop(),
                                 w=tuple(float(w) for _, w in terms),
                                 k=None if const is None else float(const)))


def graph_per_batch(build):
    """Method decorator: ``build(self, batch)`` runs once per instance and
    batch size; later calls return what it built.  Graphs have concrete
    batch dimensions, so each batch size needs its own."""
    @functools.wraps(build)
    def cached(self, batch: int):
        graphs = vars(self).setdefault("_graphs", {})
        built = graphs.get(batch)
        if built is None:
            built = graphs[batch] = build(self, batch)
        return built
    return cached


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def forward(graph: Graph, store: ParamStore, inputs: dict[str, np.ndarray]) -> list[np.ndarray]:
    """Evaluate every node; returns activations indexed by node id.

    Pure: identical bindings produce bit-identical activations.  numpy's
    overflow and invalid-value warnings are silenced during the passes:
    a non-finite value is reported once, as ``NonFiniteError``.
    """
    unknown = set(inputs) - graph._input_names
    if unknown:
        raise GraphError(f"unknown inputs: {sorted(unknown)}")
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            return _evaluate(graph, store, inputs, graph._checked())
        except NonFiniteError:
            return _evaluate(graph, store, inputs, [True] * len(graph.nodes))


def _evaluate(graph: Graph, store: ParamStore, inputs: dict[str, np.ndarray],
              checked: list[bool]) -> list[np.ndarray]:
    """``forward``'s pass, checking finiteness only on the flagged nodes."""
    acts: list[np.ndarray] = [None] * len(graph.nodes)  # type: ignore[list-item]
    for i, nd in enumerate(graph.nodes):
        a = nd.args
        if nd.op == "input":
            if nd.ref not in inputs:
                raise GraphError(f"input {nd.ref!r} not bound")
            v = np.asarray(inputs[nd.ref], dtype=np.float64)
            if v.shape != nd.shape:
                raise ShapeError(f"input {nd.ref!r}: expected {nd.shape}, got {v.shape}")
        elif nd.op == "param":
            if nd.ref not in store.params:
                raise GraphError(f"parameter {nd.ref!r} not in store")
            v = store.params[nd.ref]
            if v.shape != nd.shape:
                raise ShapeError(f"param {nd.ref!r}: expected {nd.shape}, got {v.shape}")
        elif nd.op == "affine":
            v = acts[a[0]] @ acts[a[1]] + acts[a[2]]
        elif nd.op == "tanh":
            v = np.tanh(acts[a[0]])
        elif nd.op == "relu":
            v = np.maximum(acts[a[0]], 0.0)
        elif nd.op == "leaky_relu":
            x = acts[a[0]]
            v = np.maximum(x, LEAKY_SLOPE * x)  # the slope is below 1
        elif nd.op == "softmax_xent":
            logits, t = acts[a[0]], acts[a[1]]
            m = logits.max(axis=1, keepdims=True)
            lse = np.log(np.exp(logits - m).sum(axis=1)) + m[:, 0]
            v = np.asarray((lse - (t * logits).sum(axis=1)).mean())
        elif nd.op == "gaussian_loglik":
            mu, t = acts[a[0]], acts[a[1]]
            d = t - mu
            ncols = mu.shape[1]
            v = np.asarray((-0.5 * _LOG_2PI * ncols - 0.5 * (d * d).sum(axis=1)).mean())
        elif nd.op == "mean":
            v = np.asarray(acts[a[0]].mean())
        elif nd.op == "weighted_sum":
            v = nd.w[0] * acts[a[0]]
            for j, w in zip(a[1:], nd.w[1:]):
                v = v + w * acts[j]
            if nd.k is not None:
                v = v + nd.k
        else:  # pragma: no cover
            raise GraphError(f"unknown op {nd.op!r}")
        if checked[i] and not np.isfinite(v).all():
            raise NonFiniteError(f"node {i} ({nd.op}): non-finite value")
        acts[i] = v
    return acts


def backward(graph: Graph, store: ParamStore, acts: list[np.ndarray], loss: int,
             wrt: Iterable[str] | None = None) -> dict[str, np.ndarray]:
    """Fill the store's gradient slots with d(loss)/d(param).

    The loss node must be scalar-shaped and ``acts`` must come from a
    matching ``forward`` run.  With ``wrt=None`` every slot is filled.
    With ``wrt`` an iterable of parameter names, only those slots are
    filled and every other slot is left untouched; the names must be in
    the store.  A slot's first term is copied in and later terms (more
    uses of the parameter) are added; a wanted slot that gets no term is
    zero-filled.  That equals zero-fill-then-add except that a -0.0 first
    term stays -0.0.  Cotangents flow only into nodes on a path from a
    wanted parameter to the loss; every other gradient is skipped, and
    the wanted ones come out bit-identical to an unpruned pass because
    each needed node receives the same terms in the same order.
    """
    nd = graph._check(loss)
    if nd.shape != ():
        raise ShapeError(f"loss node must be scalar, got shape {nd.shape}")
    if acts is None or len(acts) != len(graph.nodes):
        raise GraphError("backward requires activations from a prior forward")
    grads = store.grads
    if wrt is not None:
        wrt = frozenset(wrt)
        unknown = wrt.difference(grads)
        if unknown:
            raise GraphError(f"unknown parameters in wrt: {sorted(unknown)}")
    needed = graph._needed(loss, wrt)
    node_grads: list[np.ndarray | None] = [None] * (loss + 1)
    if needed[loss]:
        node_grads[loss] = np.ones(())
    filled: set[str] = set()

    # No node gradient is ever written in place, so a first term is kept
    # without a copy.
    def acc(j: int, val: np.ndarray) -> None:
        if node_grads[j] is None:
            node_grads[j] = val
        else:
            node_grads[j] = node_grads[j] + val

    # Unary ops and the losses pass g on untested: the first operand of a
    # needed one is needed too (loss targets are leaves).  Affine and
    # weighted_sum test each operand.
    for i in range(loss, -1, -1):
        g = node_grads[i]
        if g is None:
            continue
        nd = graph.nodes[i]
        a = nd.args
        if nd.op == "param":
            if nd.ref in filled:
                grads[nd.ref] += g
            else:
                grads[nd.ref][...] = g
                filled.add(nd.ref)
        elif nd.op == "affine":
            if needed[a[0]]:
                w = acts[a[1]]
                # one column: each entry is a single product either way
                acc(a[0], g * w.T if w.shape[1] == 1 else g @ w.T)
            if needed[a[1]]:
                acc(a[1], acts[a[0]].T @ g)
            if needed[a[2]]:
                acc(a[2], g.sum(axis=0))
        elif nd.op == "tanh":
            y = acts[i]
            acc(a[0], g * (1.0 - y * y))
        elif nd.op == "relu":
            acc(a[0], g * (acts[a[0]] > 0.0))
        elif nd.op == "leaky_relu":
            acc(a[0], np.where(acts[a[0]] > 0.0, g, LEAKY_SLOPE * g))
        elif nd.op == "softmax_xent":
            logits, t = acts[a[0]], acts[a[1]]
            p = _softmax_rows(logits)
            acc(a[0], g * (p - t) / logits.shape[0])
        elif nd.op == "gaussian_loglik":
            mu, t = acts[a[0]], acts[a[1]]
            acc(a[0], g * (t - mu) / mu.shape[0])
        elif nd.op == "mean":
            acc(a[0], np.full(graph.shape(a[0]), float(g) / acts[a[0]].size))
        elif nd.op == "weighted_sum":
            for j, w in zip(a, nd.w):
                if needed[j]:
                    acc(j, w * g)
        else:  # pragma: no cover
            raise GraphError(f"unknown op {nd.op!r}")
    empty = [n for n in grads if (wrt is None or n in wrt) and n not in filled]
    for run in store.runs(empty):
        run.grads[...] = 0.0
    return grads


def grad_check(graph: Graph, store: ParamStore, inputs: dict[str, np.ndarray],
               loss: int, h: float = 1e-5) -> float:
    """Max over parameter entries of |analytic - central difference| / max(1, |analytic|)."""
    if h <= 0.0:
        raise ValueError("h must be positive")
    acts = forward(graph, store, inputs)
    backward(graph, store, acts, loss)
    analytic = {name: g.copy() for name, g in store.grads.items()}

    def loss_value() -> float:
        return float(forward(graph, store, inputs)[loss])

    worst = 0.0
    for name, arr in store.params.items():
        flat = arr.reshape(-1)
        aflat = analytic[name].reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            up = loss_value()
            flat[j] = orig - h
            dn = loss_value()
            flat[j] = orig
            numeric = (up - dn) / (2.0 * h)
            err = abs(aflat[j] - numeric) / max(1.0, abs(aflat[j]))
            if err > worst:
                worst = err
    return worst
