"""Reference executor: forward evaluation, reverse-mode differentiation,
and finite-difference gradient verification over any graph at toy scale.

Everything runs in 64-bit floats. The executor is a correctness oracle,
not a performance runtime: identical (graph, seed, input) triples produce
bit-identical results across runs.

``KERNELS`` holds each op kind's forward and backward next to each other;
``forward``, ``backward`` and ``grad_check`` dispatch every node through it.
Shapes, attributes and learnable-tensor shapes come from ``ir.OPS``.

``backward`` differentiates only what its ``wrt`` nodes sit at or upstream
of. ``grad_check`` probes its sampled entries in groups of consecutive
picks, one pass per group over the union of their downstream cones. A node
carries a +/-epsilon pair of lanes, stacked on the batch axis, for every
pick whose cone holds it, and each value is dropped after its last
consumer in the pass unless it is a graph output. Each node's kernel
runs once over all the lanes it carries. Only batch norm (per-lane
statistics) and linear (one product per lane) see the lanes; every other
kernel treats each sample alone, so a lane's bits equal those of a run at
the plain batch. Two bounds keep a pass's memory down: a group holds at
most ``_PROBE_GROUP`` picks, and convolutions and upsamplings build their
im2col or col2im blocks a bounded slice of samples at a time, however
many lanes they get (see ``ops``).

Five rules bound the memory of a training step; none changes a bit.
``forward`` tapes only the values that ``backward`` and ``grad_check`` read
(see ``_tape_drops``) and drops every other value after its last consumer.
``backward`` drops each node's gradient once that node's kernel has used
it, so it holds only the frontier and the graph inputs' gradients. Batch
norm tapes only its per-lane statistics (ivar, mean, var), and its backward
forms x - mean again and its input gradient in one buffer. Every
convolution, forward and backward, builds its im2col and col2im blocks a
bounded slice of samples at a time (see ``ops``).
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
    """What ``backward`` and ``grad_check`` read of a forward pass: the values
    ``forward`` keeps (see ``_tape_drops``), and each kernel's ``kept`` in
    ``aux``."""

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
    """Evaluate every output; the returned tape holds only the activations
    that backward and grad_check read, and every other value is dropped
    after its last consumer runs. Train mode normalizes with batch
    statistics (and by default refreshes the running ones); Eval mode uses
    running statistics and produces a tape that backward will refuse."""
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
    drops = _tape_drops(graph)
    for nid in topo_order(graph):
        node = graph.node(nid)
        if node.op.kind is OpKind.INPUT:
            continue
        values[nid], kept = KERNELS[node.op.kind].forward(
            node.op.attrs, params.tensors.get(nid), [values[i] for i in node.inputs],
            mode, update_running, 1)
        if kept is not None:
            aux[nid] = kept
        for i in drops.get(nid, ()):
            del values[i]
    outputs = [values[o] for o in graph.outputs]
    return outputs, Tape(graph, mode, values, aux)


class Kernels(NamedTuple):
    """The numerics of one op kind. Both take the node's attrs ``a`` and its
    learnable tensors ``p`` (None if it owns none) first, and look ``ops``
    functions up when they run, so a wrapper put on the module takes effect.

    ``forward`` gets the number of probe lanes stacked on the batch axis
    (see ``grad_check``) and runs once over all of them; one that reduces
    over the batch axis does so per lane, and one that builds im2col or
    col2im blocks leaves their size to the sample slices in ``ops``.
    ``backward`` gets whether the first input's gradient and the tensors'
    gradients are wanted; a kernel may skip what is not, and returns None
    or {} for it.

    ``reads`` declares what ``backward`` reads besides ``gy`` and ``kept``:
    ``INPUTS`` (its input values ``xs``), ``OUTPUT`` (its own value ``y``)
    or None. The tape keeps only declared values (see ``_tape_drops``), and
    ``backward`` gets None for a value the tape dropped."""

    forward: Callable  # (a, p, xs, mode, update_running, lanes) -> (value, kept or None)
    backward: Callable  # (a, p, gy, xs, y, kept, want_x, want_p)
    #                     -> ([grad per input], {tensor: grad})
    reads: str | None = None


INPUTS, OUTPUT = "inputs", "output"  # values of Kernels.reads


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
    y, (_, ivar, mean, var) = ops.batchnorm_train(xs[0], p["scale"], p["shift"],
                                                  a["epsilon"], lanes)
    if update_running:
        for name, batch_stat in (("running_mean", mean), ("running_var", var)):
            p[name] *= 1.0 - BN_MOMENTUM
            p[name] += BN_MOMENTUM * batch_stat.reshape(-1)
    return y, (ivar, mean, var)  # not xhat: backward forms it again


def _batch_norm_grad(a, p, gy, xs, y, kept, want_x, want_p):
    ivar, mean, _ = kept
    xmu = xs[0] - mean
    gx = ops.batchnorm_train_grads(gy, xmu, ivar, p["scale"]) if want_x else None
    named = None
    if want_p:
        xmu *= ivar  # forward's xhat, by the same two operations
        named = {"scale": np.sum(gy * xmu, axis=(0, 2, 3)), "shift": gy.sum(axis=(0, 2, 3))}
    return [gx], named


def _max_pool(a, p, xs, *_):
    y, winner = ops.maxpool(xs[0], a["kernel"], a["stride"], a["ceil_mode"])
    return y, (winner, xs[0].shape)


def _max_pool_grad(a, p, gy, xs, y, kept, *_):
    winner, x_shape = kept
    return [ops.maxpool_grad(gy, winner, x_shape, a["kernel"], a["stride"])], {}


def _linear_grad(a, p, gy, xs, y, kept, want_x, want_p):
    gx = ops.linear_grads(gy, xs[0], p["weight"]) if want_x else None
    named = None
    if want_p:
        g2 = gy.reshape(gy.shape[0], -1)
        named = {"weight": g2.T @ xs[0].reshape(gy.shape[0], -1)}
        if a["has_bias"]:
            named["bias"] = g2.sum(axis=0)
    return [gx], named


def _concat_grad(a, p, gy, xs, y, widths, *_):
    ends = np.cumsum(widths)
    return [gy[:, end - width:end] for width, end in zip(widths, ends)], {}


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
    OpKind.CONV: Kernels(_conv, _conv_grad, INPUTS),
    OpKind.BATCH_NORM: Kernels(_batch_norm, _batch_norm_grad, INPUTS),
    OpKind.RELU: Kernels(lambda a, p, xs, *_: (np.maximum(xs[0], 0.0), None),
                         lambda a, p, gy, xs, y, *_: ([gy * (y > 0.0)], {}), OUTPUT),
    OpKind.MAX_POOL: Kernels(_max_pool, _max_pool_grad),
    OpKind.GLOBAL_AVG_POOL: Kernels(
        lambda a, p, xs, *_: (ops.global_avg_pool(xs[0]), xs[0].shape),
        lambda a, p, gy, xs, y, x_shape, *_: ([ops.global_avg_pool_grad(gy, x_shape)], {})),
    OpKind.LINEAR: Kernels(
        lambda a, p, xs, mode, update_running, lanes: (
            ops.linear_apply(xs[0], p["weight"], p.get("bias"), lanes), None),
        _linear_grad, INPUTS),
    OpKind.CONCAT: Kernels(
        lambda a, p, xs, *_: (np.concatenate(xs, axis=1), [x.shape[1] for x in xs]),
        _concat_grad),
    OpKind.ADD: Kernels(lambda a, p, xs, *_: (xs[0] + xs[1], None),
                        lambda a, p, gy, *_: ([gy, gy], {})),
    # the learned form's weight gradient reads the input
    OpKind.UPSAMPLE: Kernels(_upsample, _upsample_grad, INPUTS),
    OpKind.SOFTMAX: Kernels(
        lambda a, p, xs, *_: (ops.softmax_channels(xs[0]), None),
        lambda a, p, gy, xs, y, *_: ([ops.softmax_channels_grad(gy, y)], {}), OUTPUT),
    OpKind.OUTPUT: Kernels(lambda a, p, xs, *_: (xs[0], None),
                           lambda a, p, gy, *_: ([gy], {})),
}


def _tape_drops(graph: Graph) -> dict[NodeId, list[NodeId]]:
    """The values ``forward`` drops once each node has run: those with no
    later reader, after their last consumer (a value with none goes once
    made). A value stays on the tape if it is a graph input or output, if
    its own backward reads its output, or if a consumer's backward reads its
    inputs or the consumer takes two or more inputs: ``_probe_group`` reads
    such an input from the tape when a pick's cone holds the consumer but
    not the input."""
    keep = {*graph.inputs, *graph.outputs}
    last: dict[NodeId, NodeId] = {}
    for node in graph.nodes:
        nid, inputs = node.id, node.inputs
        last[nid] = nid
        for i in inputs:
            last[i] = nid
        if node.op.kind is OpKind.INPUT:
            continue
        reads = KERNELS[node.op.kind].reads
        if reads == OUTPUT:
            keep.add(nid)
        if reads == INPUTS or len(inputs) > 1:
            keep.update(inputs)
    drops: dict[NodeId, list[NodeId]] = {}
    for i, consumer in last.items():
        if i not in keep:
            drops.setdefault(consumer, []).append(i)
    return drops


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
        gxs, named = KERNELS[node.op.kind].backward(  # None for a value the tape dropped
            node.op.attrs, params.tensors.get(nid), grads.pop(nid),
            [tape.values.get(i) for i in node.inputs], tape.values.get(nid),
            tape.aux.get(nid), active[node.inputs[0]], nid in wrt)
        for src, g in zip(node.inputs, gxs):
            if active[src]:
                accumulate(src, g)
        del gxs, g  # grads holds copies: free these before the next kernel runs
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
        return _worst(self.entries)

    def to_json_dict(self) -> dict:
        """The report as strict JSON values: a NaN or infinite float is None."""
        worst = self.worst()
        return {
            "samples": len(self.entries),
            "epsilon": self.epsilon,  # grad_check admits only a finite one
            "tolerance": _json_number(self.tolerance),
            "max_rel_error": _json_number(self.max_rel_error),
            "passed": self.passed,
            "worst": {
                "node": worst.node_id, "param": worst.name, "index": worst.index,
                "analytic": _json_number(worst.analytic), "numeric": _json_number(worst.numeric),
            },
        }


def _json_number(v: float) -> float | None:
    return v if math.isfinite(v) else None


def _rel_error(a: float, n: float) -> float:
    return abs(a - n) / max(abs(a), abs(n), 1e-8)


def _worst(entries: Sequence[GradCheckEntry]) -> GradCheckEntry:
    """The first entry of largest error, a NaN above all (``max`` skips a later NaN)."""
    return max(entries, key=lambda e: (math.isnan(e.rel_error), e.rel_error))


_PROBE_GROUP = 6  # picks per probe pass: the widest that kept the heap peak down


def _probe_group(graph: Graph, params: ParamStore, tape: Tape,
                 group: Sequence[tuple[NodeId, str, np.ndarray, int]], epsilon: float
                 ) -> tuple[dict[NodeId, np.ndarray], dict[NodeId, tuple[int, ...]]]:
    """The probe pass of ``group``, picks given as (node, tensor name, tensor,
    flat offset) in pick order, so in ascending node order.

    A pick's root runs twice at batch N with its entry moved, on tape
    inputs. Each cone node's lanes of picks rooted upstream, which come
    first, run once and unperturbed; an input gives its tape value in the
    lanes of picks whose cone does not hold it. Returns the values still
    held at the end, which are the graph outputs some cone holds, and the
    picks whose lane pairs each cone node carries, in order."""
    n = tape.values[graph.inputs[0]].shape[0]
    rooted: dict[NodeId, list[int]] = {}
    for k, (nid, *_) in enumerate(group):
        rooted.setdefault(nid, []).append(k)
    held: dict[NodeId, tuple[int, ...]] = {}
    last: dict[NodeId, NodeId] = {}  # each cone value's last consumer in the pass
    for node in graph.nodes[group[0][0]:]:  # ids ascend along every edge
        picks = {k for i in node.inputs for k in held.get(i, ())}
        picks.update(rooted.get(node.id, ()))
        if picks:
            held[node.id] = tuple(sorted(picks))
            last.update((i, node.id) for i in (*node.inputs, node.id))

    values: dict[NodeId, np.ndarray] = {}
    outputs = set(graph.outputs)

    def lanes_of(i: NodeId, picks: tuple[int, ...]) -> np.ndarray:
        own = held.get(i, ())
        if own == picks:
            return values[i]
        parts = []
        for k in picks:
            if k in own:
                j = own.index(k)
                parts.append(values[i][2 * j * n:2 * (j + 1) * n])
            else:
                parts += (tape.values[i],) * 2
        return np.concatenate(parts)

    for nid, picks in held.items():
        node = graph.node(nid)
        run, p = KERNELS[node.op.kind].forward, params.tensors.get(nid)
        here = rooted.get(nid, ())
        upstream = picks[:len(picks) - len(here)]
        parts = []
        if upstream:
            parts.append(run(node.op.attrs, p, [lanes_of(i, upstream) for i in node.inputs],
                             Mode.TRAIN, False, 2 * len(upstream))[0])
        xs = [tape.values[i] for i in node.inputs] if here else None
        for k in here:
            _, _, arr, offset = group[k]
            original = arr.flat[offset]
            for value in (original + epsilon, original - epsilon):
                arr.flat[offset] = value
                parts.append(run(node.op.attrs, p, xs, Mode.TRAIN, False, 1)[0])
            arr.flat[offset] = original
        values[nid] = parts[0] if len(parts) == 1 else np.concatenate(parts)
        for i in (*node.inputs, nid):
            if last.get(i) == nid and i not in outputs:
                values.pop(i, None)
    return values, held


def grad_check(graph: Graph, params: ParamStore, x: np.ndarray,
               epsilon: float = 1e-5, tolerance: float = 1e-4,
               sample: int = 200, seed: int = 0,
               corrupt_backward: bool = False) -> GradReport:
    """Compare reverse-mode gradients against central differences on a
    random contraction of the outputs, over ``sample`` uniformly sampled
    learnable parameters. ``corrupt_backward`` flips the sign of the
    largest sampled analytic gradient to prove the check can fail.

    Each +/-epsilon pair re-evaluates only the downstream cone of the node
    that owns the perturbed parameter, as two lanes of a pass shared by up
    to ``_PROBE_GROUP`` consecutive picks (see ``_probe_group``), and reads
    every other activation from the first forward's tape; that gives the
    same bits as two full forwards. The backward pass differentiates only
    with respect to the sampled nodes.
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

    def loss(values: dict[NodeId, np.ndarray], held: dict[NodeId, tuple[int, ...]],
             pick: int, lane: int) -> float:
        def output(o: NodeId) -> np.ndarray:
            if pick not in held.get(o, ()):
                return tape.values[o]
            j = 2 * held[o].index(pick) + lane
            return values[o][j * n:(j + 1) * n]
        return float(sum(np.vdot(g, output(o)) for g, o in zip(contraction, graph.outputs)))

    entries: list[GradCheckEntry] = []
    for start in range(0, len(located), _PROBE_GROUP):
        group = located[start:start + _PROBE_GROUP]
        values, held = _probe_group(graph, params, tape, group, epsilon)
        for k, (nid, name, arr, offset) in enumerate(group):
            numeric = (loss(values, held, k, 0) - loss(values, held, k, 1)) / (2.0 * epsilon)
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

    max_err = _worst(entries).rel_error
    return GradReport(tuple(entries), max_err, epsilon, tolerance,
                      passed=max_err < tolerance)  # False for a NaN


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
