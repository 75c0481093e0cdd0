"""Reference executor: forward evaluation, reverse-mode differentiation,
and finite-difference gradient verification over any graph at toy scale.

Everything runs in 64-bit floats. The executor is a correctness oracle,
not a performance runtime: identical (graph, seed, input) triples produce
bit-identical results across runs.

``KERNELS`` holds each op kind's forward and backward next to each other;
``forward``, ``backward`` and ``grad_check`` dispatch every node through it.
Shapes, attributes and learnable-tensor shapes come from ``ir.OPS``.

``backward`` differentiates only what its ``wrt`` nodes sit at or upstream
of. ``grad_check`` runs each +/-epsilon pair as two probe lanes stacked on
the batch axis. Only batch norm (per-lane statistics) and linear (one
product per lane) see the lanes; every other kernel treats each sample
alone, so a lane's bits equal those of a run at the plain batch.
"""

from __future__ import annotations

import bisect
import enum
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Collection, Iterator, NamedTuple, Sequence

import numpy as np

from .. import ir
from ..ir import Graph, NodeId, OpKind, topo_order, upsample_kernel_geometry
from . import ops

BN_MOMENTUM = 0.1

NON_LEARNABLE = ("running_mean", "running_var")


class ShapeMismatch(ir.GraphError):
    """A supplied tensor does not fit the graph's declared input."""


class StaleTape(ir.GraphError):
    """backward needs the tape of a Train-mode forward over the same graph."""


class Mode(enum.Enum):
    TRAIN = "train"
    EVAL = "eval"


@dataclass
class ParamStore:
    """Per-node named tensors. Batch-norm running statistics live here too
    but are flagged non-learnable and never appear in gradients."""

    tensors: dict[NodeId, dict[str, np.ndarray]] = field(default_factory=dict)

    def learnable_entries(self) -> Iterator[tuple[NodeId, str, np.ndarray]]:
        for nid in sorted(self.tensors):
            named = self.tensors[nid]
            for name in sorted(named):
                if name not in NON_LEARNABLE:
                    yield nid, name, named[name]

    def copy(self) -> "ParamStore":
        return ParamStore({nid: {k: v.copy() for k, v in named.items()}
                           for nid, named in self.tensors.items()})


GradStore = dict[NodeId, dict[str, np.ndarray]]


def init_params(graph: Graph, seed: int) -> ParamStore:
    """Deterministic initialization: convolution and linear weights draw
    from a zero-mean uniform scaled by 1/sqrt(fan_in); batch norm starts
    at identity; learned upsamplings start as exact bilinear kernels."""
    rng = np.random.default_rng(seed)
    store = ParamStore()
    for node in graph.nodes:
        a = node.op.attrs
        named = {}
        for name, shape in ir.param_shapes(node.op).items():
            if name == "scale":
                named[name] = np.ones(shape)
            elif name != "weight":  # bias, shift
                named[name] = np.zeros(shape)
            elif node.op.kind == OpKind.UPSAMPLE:
                named[name] = ops.bilinear_upsample_weight(a["channels"], a["factor"])
            else:
                bound = 1.0 / np.sqrt(math.prod(shape[1:]))  # 1/sqrt(fan_in)
                named[name] = rng.uniform(-bound, bound, shape)
        if node.op.kind == OpKind.BATCH_NORM:
            named.update(running_mean=np.zeros(a["channels"]),
                         running_var=np.ones(a["channels"]))
        if named:
            store.tensors[node.id] = named
    return store


@dataclass
class Tape:
    graph: Graph
    mode: Mode
    values: dict[NodeId, np.ndarray]
    aux: dict[NodeId, object]


def _check_input_tensor(node, x: np.ndarray) -> None:
    a = node.op.attrs
    if x.ndim != 4 or x.shape[1:] != (a["channels"], a["height"], a["width"]):
        raise ShapeMismatch("graph input expects (*, %d, %d, %d), got %s"
                            % (a["channels"], a["height"], a["width"], x.shape))


def forward(graph: Graph, params: ParamStore, inputs: Sequence[np.ndarray],
            mode: Mode = Mode.TRAIN, update_running: bool = True
            ) -> tuple[list[np.ndarray], Tape]:
    """Evaluate every output; the returned tape holds the activations
    needed by backward. Train mode normalizes with batch statistics (and
    by default refreshes the running ones); Eval mode uses running
    statistics and produces a tape that backward will refuse."""
    if len(inputs) != len(graph.inputs):
        raise ShapeMismatch("graph takes %d inputs, got %d"
                            % (len(graph.inputs), len(inputs)))
    values = {nid: np.asarray(x, dtype=np.float64) for nid, x in zip(graph.inputs, inputs)}
    for nid, x in values.items():
        _check_input_tensor(graph.node(nid), x)
    batches = {x.shape[0] for x in values.values()}
    if len(batches) > 1:
        raise ShapeMismatch("inputs disagree on batch size: %s" % sorted(batches))
    aux: dict[NodeId, object] = {}
    _evaluate(graph, params, topo_order(graph), values, aux, mode, update_running)
    outputs = [values[o] for o in graph.outputs]
    return outputs, Tape(graph, mode, values, aux)


class Kernels(NamedTuple):
    """The numerics of one op kind. Both take the node's attrs ``a`` and its
    learnable tensors ``p`` (None if it owns none) first, and look ``ops``
    functions up when they run, so a wrapper put on the module takes effect.

    ``forward`` gets the number of probe lanes stacked on the batch axis
    (see ``grad_check``). ``backward`` gets whether the first input's
    gradient and the tensors' gradients are wanted; a kernel may skip what
    is not, and returns None or {} for it."""

    forward: Callable  # (a, p, xs, mode, update_running, lanes) -> (value, kept or None)
    backward: Callable  # (a, p, gy, xs, y, kept, want_x, want_p)
    #                     -> ([grad per input], {tensor: grad})


def _conv(a, p, xs, *_):
    return ops.conv_apply(xs[0], p["weight"], p.get("bias"), a["stride"], a["padding"],
                          a["groups"]), None


def _conv_grad(a, p, gy, xs, y, kept, want_x, want_p):
    gx = named = None
    if want_x:
        gx = ops.conv_apply_adjoint(gy, p["weight"], a["stride"], a["padding"],
                                    a["groups"], xs[0].shape[2:])
    if want_p:
        named = {"weight": ops.conv_weight_grad(gy, xs[0], a["kernel"], a["stride"],
                                                a["padding"], a["groups"])}
        if a["has_bias"]:
            named["bias"] = gy.sum(axis=(0, 2, 3))
    return [gx], named


def _batch_norm(a, p, xs, mode, update_running, lanes):
    if mode != Mode.TRAIN:
        return ops.batchnorm_eval(xs[0], p["scale"], p["shift"], p["running_mean"],
                                  p["running_var"], a["epsilon"]), None
    y, kept = ops.batchnorm_train(xs[0], p["scale"], p["shift"], a["epsilon"], lanes)
    if update_running:
        _, _, mean, var = kept
        for name, batch_stat in (("running_mean", mean), ("running_var", var)):
            p[name] *= 1.0 - BN_MOMENTUM
            p[name] += BN_MOMENTUM * batch_stat.reshape(-1)
    return y, kept


def _batch_norm_grad(a, p, gy, xs, y, kept, want_x, want_p):
    gx = ops.batchnorm_train_grads(gy, xs[0], kept, p["scale"]) if want_x else None
    named = None
    if want_p:
        named = {"scale": np.sum(gy * kept[0], axis=(0, 2, 3)),
                 "shift": gy.sum(axis=(0, 2, 3))}
    return [gx], named


def _max_pool_grad(a, p, gy, xs, y, winner, *_):
    return [ops.maxpool_grad(gy, winner, xs[0].shape, a["kernel"], a["stride"])], {}


def _linear_grad(a, p, gy, xs, y, kept, want_x, want_p):
    gx = ops.linear_grads(gy, xs[0], p["weight"]) if want_x else None
    named = None
    if want_p:
        g2 = gy.reshape(gy.shape[0], -1)
        named = {"weight": g2.T @ xs[0].reshape(gy.shape[0], -1)}
        if a["has_bias"]:
            named["bias"] = g2.sum(axis=0)
    return [gx], named


def _concat_grad(a, p, gy, xs, *_):
    ends = np.cumsum([x.shape[1] for x in xs])
    return [gy[:, end - x.shape[1]:end] for x, end in zip(xs, ends)], {}


def _upsample_weight(a, p):  # a learned upsampling owns its kernel
    return p["weight"] if p else ops.bilinear_upsample_weight(a["channels"], a["factor"])


def _upsample(a, p, xs, *_):
    f = a["factor"]
    _, stride, padding = upsample_kernel_geometry(f)
    out_hw = (xs[0].shape[2] * f, xs[0].shape[3] * f)
    return ops.conv_apply_adjoint(xs[0], _upsample_weight(a, p), stride, padding,
                                  a["channels"], out_hw), None


def _upsample_grad(a, p, gy, xs, y, kept, want_x, want_p):
    kernel, stride, padding = upsample_kernel_geometry(a["factor"])
    gx = named = None
    if want_x:
        gx = ops.conv_apply(gy, _upsample_weight(a, p), None, stride, padding,
                            a["channels"])
    if want_p and p:  # a fixed upsampling learns nothing
        named = {"weight": ops.conv_weight_grad(xs[0], gy, kernel, stride, padding,
                                                a["channels"])}
    return [gx], named


KERNELS: dict[OpKind, Kernels] = {
    OpKind.CONV: Kernels(_conv, _conv_grad),
    OpKind.BATCH_NORM: Kernels(_batch_norm, _batch_norm_grad),
    OpKind.RELU: Kernels(lambda a, p, xs, *_: (np.maximum(xs[0], 0.0), None),
                         lambda a, p, gy, xs, *_: ([gy * (xs[0] > 0.0)], {})),
    OpKind.MAX_POOL: Kernels(
        lambda a, p, xs, *_: ops.maxpool(xs[0], a["kernel"], a["stride"], a["ceil_mode"]),
        _max_pool_grad),
    OpKind.GLOBAL_AVG_POOL: Kernels(
        lambda a, p, xs, *_: (ops.global_avg_pool(xs[0]), None),
        lambda a, p, gy, xs, *_: ([ops.global_avg_pool_grad(gy, xs[0].shape)], {})),
    OpKind.LINEAR: Kernels(
        lambda a, p, xs, mode, update_running, lanes: (
            ops.linear_apply(xs[0], p["weight"], p.get("bias"), lanes), None),
        _linear_grad),
    OpKind.CONCAT: Kernels(lambda a, p, xs, *_: (np.concatenate(xs, axis=1), None),
                           _concat_grad),
    OpKind.ADD: Kernels(lambda a, p, xs, *_: (xs[0] + xs[1], None),
                        lambda a, p, gy, *_: ([gy, gy], {})),
    OpKind.UPSAMPLE: Kernels(_upsample, _upsample_grad),
    OpKind.SOFTMAX: Kernels(
        lambda a, p, xs, *_: (ops.softmax_channels(xs[0]), None),
        lambda a, p, gy, xs, y, *_: ([ops.softmax_channels_grad(gy, y)], {})),
    OpKind.OUTPUT: Kernels(lambda a, p, xs, *_: (xs[0], None),
                           lambda a, p, gy, *_: ([gy], {})),
}


def _evaluate(graph: Graph, params: ParamStore, order: Sequence[NodeId],
              values: dict[NodeId, np.ndarray], aux: dict[NodeId, object],
              mode: Mode, update_running: bool, lanes: int = 1) -> None:
    """Evaluate the nodes named by ``order``, in that order, into ``values``
    and ``aux``. Each node's inputs must already be in ``values``; Input
    nodes keep the tensor the caller put there."""
    for nid in order:
        node = graph.node(nid)
        if node.op.kind is OpKind.INPUT:
            continue
        values[nid], kept = KERNELS[node.op.kind].forward(
            node.op.attrs, params.tensors.get(nid), [values[i] for i in node.inputs],
            mode, update_running, lanes)
        if kept is not None:
            aux[nid] = kept


def backward(graph: Graph, params: ParamStore, tape: Tape,
             output_gradients: Sequence[np.ndarray],
             wrt: Collection[NodeId] | None = None
             ) -> tuple[GradStore, dict[NodeId, np.ndarray]]:
    """Exact reverse-mode gradients of sum_o <output_gradients[o],
    outputs[o]> with respect to the learnable tensors of the nodes in
    ``wrt`` (by default every node that owns some) and to the graph inputs
    listed there.

    Only what some ``wrt`` node sits at or upstream of is differentiated:
    other nodes are skipped, and no input gradient flows into them. Raises
    ValueError if ``wrt`` names a node the graph does not have."""
    if tape.graph is not graph or tape.mode != Mode.TRAIN:
        raise StaleTape("backward requires the Train-mode tape of this graph")
    if len(output_gradients) != len(graph.outputs):
        raise ShapeMismatch("expected %d output gradients, got %d"
                            % (len(graph.outputs), len(output_gradients)))
    wrt = {nid for nid, _, _ in params.learnable_entries()} if wrt is None else set(wrt)
    if not wrt.issubset(range(len(graph))):
        raise ValueError("wrt names nodes the graph does not have: %s"
                         % sorted(wrt.difference(range(len(graph)))))
    # ids ascend along every edge, so one pass marks all downstream of wrt
    active = [False] * len(graph.nodes)
    for node in graph.nodes:
        active[node.id] = node.id in wrt or any(active[i] for i in node.inputs)

    grads: dict[NodeId, np.ndarray] = {}

    def accumulate(nid: NodeId, g: np.ndarray) -> None:
        if nid in grads:
            grads[nid] = grads[nid] + g
        else:
            grads[nid] = np.array(g, dtype=np.float64, copy=True)

    for out_id, g in zip(graph.outputs, output_gradients):
        if np.shape(g) != tape.values[out_id].shape:
            raise ShapeMismatch("output gradient shape %s does not match output %s"
                                % (np.shape(g), tape.values[out_id].shape))
        if active[out_id]:
            accumulate(out_id, np.asarray(g, dtype=np.float64))

    pgrads: GradStore = {}
    for nid in reversed(topo_order(graph)):
        node = graph.node(nid)
        if nid not in grads or node.op.kind is OpKind.INPUT:
            continue
        gxs, named = KERNELS[node.op.kind].backward(
            node.op.attrs, params.tensors.get(nid), grads[nid],
            [tape.values[i] for i in node.inputs], tape.values[nid], tape.aux.get(nid),
            active[node.inputs[0]], nid in wrt)
        for src, g in zip(node.inputs, gxs):
            if active[src]:
                accumulate(src, g)
        if named:  # each node is visited once, so its tensors' gradients are complete
            pgrads[nid] = named

    input_grads = {i: grads.get(i, np.zeros_like(tape.values[i]))
                   for i in graph.inputs if i in wrt}
    return pgrads, input_grads


@dataclass(frozen=True)
class GradCheckEntry:
    node_id: NodeId
    name: str
    index: int
    analytic: float
    numeric: float
    rel_error: float


@dataclass(frozen=True)
class GradReport:
    """Per-parameter comparison of analytic and central-difference
    gradients. Relative error divides by max(|analytic|, |numeric|, 1e-8)."""

    entries: tuple[GradCheckEntry, ...]
    max_rel_error: float
    epsilon: float
    tolerance: float
    passed: bool

    def worst(self) -> GradCheckEntry:
        return max(self.entries, key=lambda e: e.rel_error)

    def to_json_dict(self) -> dict:
        worst = self.worst()
        return {
            "samples": len(self.entries),
            "epsilon": self.epsilon,
            "tolerance": self.tolerance,
            "max_rel_error": self.max_rel_error,
            "passed": self.passed,
            "worst": {
                "node": worst.node_id, "param": worst.name, "index": worst.index,
                "analytic": worst.analytic, "numeric": worst.numeric,
            },
        }


def _rel_error(a: float, n: float) -> float:
    return abs(a - n) / max(abs(a), abs(n), 1e-8)


def _downstream_cone(graph: Graph, root: NodeId) -> list[NodeId]:
    """``root`` and every node that depends on it, in ascending id order.
    One ascending pass finds them all because every input id is below its
    node's id."""
    inside = {root}
    for node in graph.nodes[root + 1:]:
        if not inside.isdisjoint(node.inputs):
            inside.add(node.id)
    return sorted(inside)


def _probe_pair(graph: Graph, params: ParamStore, tape: Tape, cone: list[NodeId],
                outside: dict[NodeId, np.ndarray], arr: np.ndarray, offset: int,
                epsilon: float) -> dict[NodeId, np.ndarray]:
    """The cone's values with ``arr.flat[offset]`` moved by +epsilon and by
    -epsilon, as two lanes stacked on the batch axis. The cone root runs once
    per value at batch N, every later cone node once at 2N. ``outside``
    holds each input from outside the cone, its tape value repeated for
    both lanes."""
    root = graph.node(cone[0])
    xs = [tape.values[i] for i in root.inputs]
    original = arr.flat[offset]
    ys = []
    for value in (original + epsilon, original - epsilon):
        arr.flat[offset] = value
        ys.append(KERNELS[root.op.kind].forward(
            root.op.attrs, params.tensors[root.id], xs, Mode.TRAIN, False, 1)[0])
    arr.flat[offset] = original
    values = dict(outside)
    values[root.id] = np.concatenate(ys)
    _evaluate(graph, params, cone[1:], values, {}, Mode.TRAIN, False, lanes=2)
    return values


def grad_check(graph: Graph, params: ParamStore, x: np.ndarray,
               epsilon: float = 1e-5, tolerance: float = 1e-4,
               sample: int = 200, seed: int = 0,
               corrupt_backward: bool = False) -> GradReport:
    """Compare reverse-mode gradients against central differences on a
    random contraction of the outputs, over ``sample`` uniformly sampled
    learnable parameters. ``corrupt_backward`` flips the sign of the
    largest sampled analytic gradient to prove the check can fail.

    Each +/-epsilon pair re-evaluates only the downstream cone of the node
    that owns the perturbed parameter, as two lanes of one pass (see
    ``_probe_pair``), and reads every other activation from the first
    forward's tape; that gives the same bits as two full forwards. The
    backward pass differentiates only with respect to the sampled nodes.
    Raises ValueError for ``sample < 1``, an ``epsilon`` that is not finite
    and positive, a negative or NaN ``tolerance``, or parameters with no
    learnable entry."""
    if sample < 1:
        raise ValueError("sample must be >= 1, got %d" % sample)
    if not 0.0 < epsilon < math.inf:
        raise ValueError("epsilon must be finite and > 0, got %r" % epsilon)
    if not tolerance >= 0.0:
        raise ValueError("tolerance must be >= 0, got %r" % tolerance)
    flat = list(params.learnable_entries())
    ends = list(itertools.accumulate(arr.size for _, _, arr in flat))  # flat index ends
    if not ends or ends[-1] == 0:
        raise ValueError("the graph has no learnable parameters to check")
    total = ends[-1]
    rng = np.random.default_rng(seed)
    outputs, tape = forward(graph, params, [x], Mode.TRAIN, update_running=False)
    # Keep the contracted scalar small: central differences carry an
    # absolute roundoff of about |loss| * 1e-16 / epsilon, and that noise
    # must stay below the 1e-8 floor of the relative-error denominator.
    contraction = [rng.standard_normal(o.shape) for o in outputs]
    norm = np.sqrt(sum(float(np.vdot(c, c)) for c in contraction))
    contraction = [c * (0.01 / norm) for c in contraction]
    picks = sorted(rng.choice(total, size=min(sample, total), replace=False).tolist())
    located = []  # (node, tensor name, tensor, flat offset) per pick
    for pick in picks:
        slot = bisect.bisect_right(ends, pick)
        nid, name, arr = flat[slot]
        located.append((nid, name, arr, pick - (ends[slot] - arr.size)))
    pgrads, _ = backward(graph, params, tape, contraction, wrt={nid for nid, *_ in located})
    n = tape.values[graph.inputs[0]].shape[0]

    def loss(values: dict[NodeId, np.ndarray], lane: int) -> float:
        return float(sum(np.vdot(g, values[o][lane * n:(lane + 1) * n] if o in values
                                 else tape.values[o])
                         for g, o in zip(contraction, graph.outputs)))

    entries: list[GradCheckEntry] = []
    cone_root, cone, outside = None, [], {}
    for nid, name, arr, offset in located:
        if nid != cone_root:  # picks are sorted, so one node's picks come in a row
            cone_root, cone = nid, _downstream_cone(graph, nid)
            inside = set(cone)
            outside = {i: np.concatenate((tape.values[i],) * 2) for c in cone[1:]
                       for i in graph.node(c).inputs if i not in inside}
        values = _probe_pair(graph, params, tape, cone, outside, arr, offset, epsilon)
        lo_plus, lo_minus = loss(values, 0), loss(values, 1)
        numeric = (lo_plus - lo_minus) / (2.0 * epsilon)
        node_grads = pgrads.get(nid, {})
        analytic = float(node_grads[name].flat[offset]) if name in node_grads else 0.0
        entries.append(GradCheckEntry(nid, name, int(offset), analytic, float(numeric),
                                      _rel_error(analytic, numeric)))

    if corrupt_backward:
        target = max(range(len(entries)), key=lambda i: abs(entries[i].analytic))
        e = entries[target]
        corrupted = -e.analytic
        entries[target] = GradCheckEntry(e.node_id, e.name, e.index, corrupted,
                                         e.numeric, _rel_error(corrupted, e.numeric))

    max_err = max(e.rel_error for e in entries)
    return GradReport(tuple(entries), max_err, epsilon, tolerance,
                      passed=max_err < tolerance)


def sgd_step(params: ParamStore, grads: GradStore, lr: float) -> None:
    """One in-place stochastic-gradient step over the learnable tensors."""
    for nid, name, arr in params.learnable_entries():
        g = grads.get(nid, {}).get(name)
        if g is not None:
            arr -= lr * g


def cross_entropy(probs: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean negative log-likelihood of softmax outputs shaped (N, K, 1, 1),
    plus its gradient with respect to the probabilities."""
    n = probs.shape[0]
    p = probs[np.arange(n), labels, 0, 0]
    loss = float(-np.mean(np.log(p)))
    gp = np.zeros_like(probs)
    gp[np.arange(n), labels, 0, 0] = -1.0 / (n * p)
    return loss, gp
