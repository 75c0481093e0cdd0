"""Reference executor: forward evaluation, reverse-mode differentiation,
and finite-difference gradient verification over any graph at toy scale.

Everything runs in 64-bit floats. The executor is a correctness oracle,
not a performance runtime: identical (graph, seed, input) triples produce
bit-identical results across runs.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .. import ir
from ..ir import Graph, NodeId, OpKind, UpsampleMode, topo_order, upsample_kernel_geometry
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


def _upsample_weight(node, params: ParamStore) -> tuple[np.ndarray, bool]:
    """The kernel an upsampling node applies, and whether it is learned:
    the node's own tensor for a learned transposed conv, else the fixed
    bilinear kernel."""
    a = node.op.attrs
    if a["mode"] == UpsampleMode.LEARNED_TRANSPOSED_CONV.value:
        return params.tensors[node.id]["weight"], True
    return ops.bilinear_upsample_weight(a["channels"], a["factor"]), False


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


def _evaluate(graph: Graph, params: ParamStore, order: Sequence[NodeId],
              values: dict[NodeId, np.ndarray], aux: dict[NodeId, object],
              mode: Mode, update_running: bool) -> None:
    """Evaluate the nodes named by ``order``, in that order, into ``values``
    and ``aux``. Each node's inputs must already be in ``values``; Input
    nodes keep the tensor the caller put there."""
    for nid in order:
        node = graph.node(nid)
        kind = node.op.kind
        a = node.op.attrs
        xs = [values[i] for i in node.inputs]
        if kind == OpKind.INPUT:
            pass
        elif kind == OpKind.CONV:
            p = params.tensors[nid]
            values[nid] = ops.conv_apply(xs[0], p["weight"], p.get("bias"),
                                         a["stride"], a["padding"], a["groups"])
        elif kind == OpKind.BATCH_NORM:
            p = params.tensors[nid]
            if mode == Mode.TRAIN:
                y, bn_aux = ops.batchnorm_train(xs[0], p["scale"], p["shift"], a["epsilon"])
                values[nid] = y
                aux[nid] = bn_aux
                if update_running:
                    _, _, mean, var = bn_aux
                    p["running_mean"] *= 1.0 - BN_MOMENTUM
                    p["running_mean"] += BN_MOMENTUM * mean.reshape(-1)
                    p["running_var"] *= 1.0 - BN_MOMENTUM
                    p["running_var"] += BN_MOMENTUM * var.reshape(-1)
            else:
                values[nid] = ops.batchnorm_eval(xs[0], p["scale"], p["shift"],
                                                 p["running_mean"], p["running_var"],
                                                 a["epsilon"])
        elif kind == OpKind.RELU:
            values[nid] = np.maximum(xs[0], 0.0)
        elif kind == OpKind.MAX_POOL:
            y, winner = ops.maxpool(xs[0], a["kernel"], a["stride"], a["ceil_mode"])
            values[nid] = y
            aux[nid] = winner
        elif kind == OpKind.GLOBAL_AVG_POOL:
            values[nid] = ops.global_avg_pool(xs[0])
        elif kind == OpKind.LINEAR:
            p = params.tensors[nid]
            values[nid] = ops.linear_apply(xs[0], p["weight"], p.get("bias"))
        elif kind == OpKind.CONCAT:
            values[nid] = np.concatenate(xs, axis=1)
        elif kind == OpKind.ADD:
            if xs[0].shape != xs[1].shape:
                raise ShapeMismatch("add operands differ: %s vs %s"
                                    % (xs[0].shape, xs[1].shape))
            values[nid] = xs[0] + xs[1]
        elif kind == OpKind.UPSAMPLE:
            f = a["factor"]
            _, stride, padding = upsample_kernel_geometry(f)
            w, _ = _upsample_weight(node, params)
            out_hw = (xs[0].shape[2] * f, xs[0].shape[3] * f)
            values[nid] = ops.conv_apply_adjoint(xs[0], w, stride, padding,
                                                 a["channels"], out_hw)
        elif kind == OpKind.SOFTMAX:
            values[nid] = ops.softmax_channels(xs[0])
        elif kind == OpKind.OUTPUT:
            values[nid] = xs[0]
        else:  # pragma: no cover
            raise NotImplementedError(kind)


def backward(graph: Graph, params: ParamStore, tape: Tape,
             output_gradients: Sequence[np.ndarray]
             ) -> tuple[GradStore, list[np.ndarray]]:
    """Exact reverse-mode gradients of sum_o <output_gradients[o],
    outputs[o]> with respect to every learnable parameter and every graph
    input."""
    if tape.graph is not graph or tape.mode != Mode.TRAIN:
        raise StaleTape("backward requires the Train-mode tape of this graph")
    if len(output_gradients) != len(graph.outputs):
        raise ShapeMismatch("expected %d output gradients, got %d"
                            % (len(graph.outputs), len(output_gradients)))

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
        accumulate(out_id, np.asarray(g, dtype=np.float64))

    pgrads: GradStore = {}

    def param_grad(nid: NodeId, name: str, g: np.ndarray) -> None:
        slot = pgrads.setdefault(nid, {})
        if name in slot:
            slot[name] = slot[name] + g
        else:
            slot[name] = g

    for nid in reversed(topo_order(graph)):
        if nid not in grads:
            continue
        node = graph.node(nid)
        kind = node.op.kind
        a = node.op.attrs
        gy = grads[nid]
        xs = [tape.values[i] for i in node.inputs]
        if kind == OpKind.INPUT:
            continue
        elif kind == OpKind.OUTPUT:
            accumulate(node.inputs[0], gy)
        elif kind == OpKind.CONV:
            p = params.tensors[nid]
            gx = ops.conv_apply_adjoint(gy, p["weight"], a["stride"], a["padding"],
                                        a["groups"], xs[0].shape[2:])
            gw = ops.conv_weight_grad(gy, xs[0], a["kernel"], a["stride"],
                                      a["padding"], a["groups"])
            accumulate(node.inputs[0], gx)
            param_grad(nid, "weight", gw)
            if a["has_bias"]:
                param_grad(nid, "bias", gy.sum(axis=(0, 2, 3)))
        elif kind == OpKind.BATCH_NORM:
            p = params.tensors[nid]
            gx, gscale, gshift = ops.batchnorm_train_grads(gy, xs[0], tape.aux[nid],
                                                           p["scale"])
            accumulate(node.inputs[0], gx)
            param_grad(nid, "scale", gscale)
            param_grad(nid, "shift", gshift)
        elif kind == OpKind.RELU:
            accumulate(node.inputs[0], gy * (xs[0] > 0.0))
        elif kind == OpKind.MAX_POOL:
            accumulate(node.inputs[0], ops.maxpool_grad(gy, tape.aux[nid], xs[0].shape,
                                                        a["kernel"], a["stride"]))
        elif kind == OpKind.GLOBAL_AVG_POOL:
            accumulate(node.inputs[0], ops.global_avg_pool_grad(gy, xs[0].shape))
        elif kind == OpKind.LINEAR:
            p = params.tensors[nid]
            gx, gw, gb = ops.linear_grads(gy, xs[0], p["weight"], a["has_bias"])
            accumulate(node.inputs[0], gx)
            param_grad(nid, "weight", gw)
            if gb is not None:
                param_grad(nid, "bias", gb)
        elif kind == OpKind.CONCAT:
            offset = 0
            for src, x in zip(node.inputs, xs):
                c = x.shape[1]
                accumulate(src, gy[:, offset:offset + c])
                offset += c
        elif kind == OpKind.ADD:
            accumulate(node.inputs[0], gy)
            accumulate(node.inputs[1], gy)
        elif kind == OpKind.UPSAMPLE:
            f = a["factor"]
            kernel, stride, padding = upsample_kernel_geometry(f)
            w, learned = _upsample_weight(node, params)
            accumulate(node.inputs[0],
                       ops.conv_apply(gy, w, None, stride, padding, a["channels"]))
            if learned:
                param_grad(nid, "weight",
                           ops.conv_weight_grad(xs[0], gy, kernel, stride, padding,
                                                a["channels"]))
        elif kind == OpKind.SOFTMAX:
            accumulate(node.inputs[0], ops.softmax_channels_grad(gy, tape.values[nid]))
        else:  # pragma: no cover
            raise NotImplementedError(kind)

    input_grads = [grads.get(i, np.zeros_like(tape.values[i])) for i in graph.inputs]
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


def grad_check(graph: Graph, params: ParamStore, x: np.ndarray,
               epsilon: float = 1e-5, tolerance: float = 1e-4,
               sample: int = 200, seed: int = 0,
               corrupt_backward: bool = False) -> GradReport:
    """Compare reverse-mode gradients against central differences on a
    random contraction of the outputs, over ``sample`` uniformly sampled
    learnable parameters. ``corrupt_backward`` flips the sign of the
    largest sampled analytic gradient to prove the check can fail.

    Each probe re-evaluates only the downstream cone of the node that owns
    the perturbed parameter and reads every other activation from the
    first forward's tape, which gives the same bits as a full forward.
    Raises ValueError for ``sample < 1``, an ``epsilon`` that is not finite
    and positive, or a NaN ``tolerance``."""
    if sample < 1:
        raise ValueError("sample must be >= 1, got %d" % sample)
    if not 0.0 < epsilon < math.inf:
        raise ValueError("epsilon must be finite and > 0, got %r" % epsilon)
    if math.isnan(tolerance):
        raise ValueError("tolerance must not be NaN")
    rng = np.random.default_rng(seed)
    outputs, tape = forward(graph, params, [x], Mode.TRAIN, update_running=False)
    # Keep the contracted scalar small: central differences carry an
    # absolute roundoff of about |loss| * 1e-16 / epsilon, and that noise
    # must stay below the 1e-8 floor of the relative-error denominator.
    contraction = [rng.standard_normal(o.shape) for o in outputs]
    norm = np.sqrt(sum(float(np.vdot(c, c)) for c in contraction))
    contraction = [c * (0.01 / norm) for c in contraction]
    pgrads, _ = backward(graph, params, tape, contraction)

    def loss(cone: list[NodeId]) -> float:
        values = dict(tape.values)
        _evaluate(graph, params, cone, values, {}, Mode.TRAIN, update_running=False)
        return float(sum(np.vdot(g, values[o]) for g, o in zip(contraction, graph.outputs)))

    flat: list[tuple[NodeId, str, int]] = []
    for nid, name, arr in params.learnable_entries():
        flat.append((nid, name, arr.size))
    total = sum(size for _, _, size in flat)
    picks = sorted(rng.choice(total, size=min(sample, total), replace=False).tolist())

    entries: list[GradCheckEntry] = []
    cursor = 0
    slot = 0
    cone_root, cone = None, []
    for pick in picks:
        while pick >= cursor + flat[slot][2]:
            cursor += flat[slot][2]
            slot += 1
        nid, name, _ = flat[slot]
        if nid != cone_root:  # picks are sorted, so one node's picks come in a row
            cone_root, cone = nid, _downstream_cone(graph, nid)
        offset = pick - cursor
        arr = params.tensors[nid][name]
        original = arr.flat[offset]
        arr.flat[offset] = original + epsilon
        lo_plus = loss(cone)
        arr.flat[offset] = original - epsilon
        lo_minus = loss(cone)
        arr.flat[offset] = original
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
