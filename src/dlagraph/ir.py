"""Computation-graph intermediate representation.

A ``Graph`` is an immutable directed acyclic multigraph of primitive tensor
operations. Node ids are dense integers assigned in construction order, and
every input id is below its node's id, so the id order is already a
topological order. Every node takes as many inputs as its kind allows, so
node 0 is an Input and every node is reachable from an Input, and every
node's shape rule holds from the extents its graph's Input nodes declare.
Construction rejects any graph for which this fails; ``validate`` checks
only what it leaves open, that the graph declares an output. Static shapes
are one sample's CHW extents; the batch extent is the executor's. The
``GraphBuilder`` is the single-writer construction API; built graphs are
safe to share between any number of readers.

What each op kind means statically is one ``OpDef`` entry in ``OPS``: its
attribute schema, arity, shape rule, learnable-tensor shapes and DOT label.
Convolution and pooling windows share one rule, ``window_out_hw``, which the
numeric kernels import too. The kinds' forward and backward kernels form the
executor's table in ``numerics.executor``, since this module loads no numpy.
"""

from __future__ import annotations

import enum
import heapq
import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Sequence

NodeId = int


class GraphError(Exception):
    """Base class for graph construction and analysis errors."""


class UnknownInput(GraphError):
    """A node, input or output id names no node that precedes its use."""


class ArityMismatch(GraphError):
    """An op was given the wrong number of inputs."""


class ShapeConflict(GraphError):
    """Operand shapes are inconsistent with the op's attributes."""


@dataclass(frozen=True)
class TensorShape:
    """Extents of one sample of a dense NCHW tensor, its CHW; every extent
    is at least 1. No op changes the batch extent, so shapes omit it."""

    channels: int
    height: int
    width: int

    def __post_init__(self) -> None:
        if self.channels < 1 or self.height < 1 or self.width < 1:
            name = next(n for n in ("channels", "height", "width") if getattr(self, n) < 1)
            raise ValueError("%s must be >= 1, got %d" % (name, getattr(self, name)))

    @property
    def spatial(self) -> tuple[int, int]:
        return (self.height, self.width)


class OpKind(enum.Enum):
    """Op kinds hash by identity, which keeps ``OPS`` and kernel-table
    lookups in C (``Enum.__hash__`` is Python code); members compare by
    identity anyway."""

    __hash__ = object.__hash__

    CONV = "Conv"
    BATCH_NORM = "BatchNorm"
    RELU = "ReLU"
    MAX_POOL = "MaxPool"
    GLOBAL_AVG_POOL = "GlobalAvgPool"
    LINEAR = "Linear"
    CONCAT = "Concat"
    ADD = "Add"
    UPSAMPLE = "Upsample"
    SOFTMAX = "Softmax"
    INPUT = "Input"
    OUTPUT = "Output"


class UpsampleMode(enum.Enum):
    FIXED_BILINEAR = "fixed_bilinear"
    LEARNED_TRANSPOSED_CONV = "learned_transposed_conv"


def window_out_hw(h: int, w: int, kernel: int, stride: int, padding: int,
                  ceil_mode: bool = False) -> tuple[int, int]:
    """Output extent of a kernel x kernel window sliding by ``stride`` over an
    h x w input padded by ``padding``: floor((extent + 2*padding - kernel) /
    stride) + 1, or the ceiling with ``ceil_mode``; below 1 the window does
    not fit. Convolution and pooling share it, in shape rules and kernels."""
    span_h, span_w = h + 2 * padding - kernel, w + 2 * padding - kernel
    if ceil_mode:
        return -(-span_h // stride) + 1, -(-span_w // stride) + 1
    return span_h // stride + 1, span_w // stride + 1


# Shape rules raise ShapeConflict, naming the op kind, for operands that do not fit.

def _expect_channels(what: str, want: int, s: TensorShape) -> TensorShape:
    if s.channels != want:
        raise ShapeConflict("%s expects %d channels, got %d" % (what, want, s.channels))
    return s


def _conv_shape(a: dict[str, Any], s: TensorShape) -> TensorShape:
    _expect_channels("conv", a["in_channels"], s)
    oh, ow = window_out_hw(s.height, s.width, a["kernel"], a["stride"], a["padding"])
    if oh < 1 or ow < 1:
        raise ShapeConflict("conv output collapses to zero extent")
    return TensorShape(a["out_channels"], oh, ow)


def _max_pool_shape(a: dict[str, Any], s: TensorShape) -> TensorShape:
    oh, ow = window_out_hw(s.height, s.width, a["kernel"], a["stride"], 0, a["ceil_mode"])
    if oh < 1 or ow < 1:
        raise ShapeConflict("pool output collapses to zero extent")
    return TensorShape(s.channels, oh, ow)


def _linear_shape(a: dict[str, Any], s: TensorShape) -> TensorShape:
    if s.spatial != (1, 1):
        raise ShapeConflict("linear expects 1x1 spatial extent, got %dx%d" % s.spatial)
    if s.channels != a["in_features"]:
        raise ShapeConflict("linear expects %d features, got %d"
                            % (a["in_features"], s.channels))
    return TensorShape(a["out_features"], 1, 1)


def _concat_shape(a: dict[str, Any], *shapes: TensorShape) -> TensorShape:
    first = shapes[0]
    if any(s.spatial != first.spatial for s in shapes[1:]):
        raise ShapeConflict("concat operands disagree outside the channel axis")
    return TensorShape(sum(s.channels for s in shapes), first.height, first.width)


def _add_shape(a: dict[str, Any], left: TensorShape, right: TensorShape) -> TensorShape:
    if left != right:
        raise ShapeConflict("add operands differ: %s vs %s" % (left, right))
    return left


def _upsample_shape(a: dict[str, Any], s: TensorShape) -> TensorShape:
    _expect_channels("upsample", a["channels"], s)
    f = a["factor"]
    return TensorShape(s.channels, s.height * f, s.width * f)


# Learnable-tensor rules: attrs -> {name: shape}. A "weight" is applied
# once per output pixel.

def _weight_and_bias(a: dict[str, Any], weight: tuple[int, ...]) -> dict[str, tuple[int, ...]]:
    shapes = {"weight": weight}
    if a["has_bias"]:
        shapes["bias"] = weight[:1]
    return shapes


def _conv_params(a: dict[str, Any]) -> dict[str, tuple[int, ...]]:
    return _weight_and_bias(a, (a["out_channels"], a["in_channels"] // a["groups"],
                                a["kernel"], a["kernel"]))


def _upsample_params(a: dict[str, Any]) -> dict[str, tuple[int, ...]]:
    if a["mode"] != UpsampleMode.LEARNED_TRANSPOSED_CONV.value:
        return {}
    kernel, _, _ = upsample_kernel_geometry(a["factor"])
    return {"weight": (a["channels"], 1, kernel, kernel)}  # one kernel per channel


def _conv_label(a: dict[str, Any]) -> str:
    groups = " g%d" % a["groups"] if a["groups"] > 1 else ""
    return "Conv %dx%d s%d%s %d>%d" % (a["kernel"], a["kernel"], a["stride"], groups,
                                       a["in_channels"], a["out_channels"])


@dataclass(frozen=True)
class OpDef:
    """The static facts of one op kind; the executor's kernel table holds
    its numerics. Each callable takes the node's attrs first."""

    attrs: dict[str, tuple[type, Any]]  # name -> (type, range check or None)
    shape: Callable[..., TensorShape] = lambda a, s: s  # (attrs, *input shapes)
    params: Callable[..., dict[str, tuple[int, ...]]] = lambda a: {}  # learnable shapes
    label: Callable[..., str] | None = None  # DOT label; None: the kind's name
    min_inputs: int = 1
    max_inputs: int | None = 1  # None: unbounded


# Attribute checks: (type, range check or None).
_COUNT = (int, lambda v: v > 0)
_FLAG = (bool, None)
_CHANNEL_AXIS = (int, lambda v: v == 1)  # concat and softmax act on channels only

OPS: dict[OpKind, OpDef] = {
    OpKind.CONV: OpDef(
        attrs={"kernel": _COUNT, "stride": _COUNT, "padding": (int, lambda v: v >= 0),
               "in_channels": _COUNT, "out_channels": _COUNT, "groups": _COUNT,
               "has_bias": _FLAG},
        shape=_conv_shape, params=_conv_params, label=_conv_label),
    OpKind.BATCH_NORM: OpDef(
        attrs={"channels": _COUNT, "epsilon": (float, lambda v: 0 < v < math.inf)},
        shape=lambda a, s: _expect_channels("batchnorm", a["channels"], s),
        params=lambda a: {"scale": (a["channels"],), "shift": (a["channels"],)},
        label=lambda a: "BN %d" % a["channels"]),
    OpKind.RELU: OpDef(attrs={}),
    OpKind.MAX_POOL: OpDef(
        attrs={"kernel": _COUNT, "stride": _COUNT, "ceil_mode": _FLAG},
        shape=_max_pool_shape,
        label=lambda a: "MaxPool %dx%d s%d" % (a["kernel"], a["kernel"], a["stride"])),
    OpKind.GLOBAL_AVG_POOL: OpDef(
        attrs={}, shape=lambda a, s: TensorShape(s.channels, 1, 1)),
    OpKind.LINEAR: OpDef(
        attrs={"in_features": _COUNT, "out_features": _COUNT, "has_bias": _FLAG},
        shape=_linear_shape,
        params=lambda a: _weight_and_bias(a, (a["out_features"], a["in_features"])),
        label=lambda a: "Linear %d>%d" % (a["in_features"], a["out_features"])),
    OpKind.CONCAT: OpDef(attrs={"axis": _CHANNEL_AXIS}, shape=_concat_shape,
                         min_inputs=2, max_inputs=None),
    OpKind.ADD: OpDef(attrs={}, shape=_add_shape, min_inputs=2, max_inputs=2),
    OpKind.UPSAMPLE: OpDef(
        attrs={"factor": (int, lambda v: v > 0 and v % 2 == 0), "channels": _COUNT,
               "mode": (str, lambda v: v in {m.value for m in UpsampleMode})},
        shape=_upsample_shape, params=_upsample_params,
        label=lambda a: "Upsample x%d" % a["factor"]),
    OpKind.SOFTMAX: OpDef(attrs={"axis": _CHANNEL_AXIS}),
    OpKind.INPUT: OpDef(
        attrs={"channels": _COUNT, "height": _COUNT, "width": _COUNT},
        shape=lambda a: TensorShape(a["channels"], a["height"], a["width"]),
        label=lambda a: "Input %dx%dx%d" % (a["channels"], a["height"], a["width"]),
        min_inputs=0, max_inputs=0),
    OpKind.OUTPUT: OpDef(attrs={}),
}


@dataclass(frozen=True)
class PrimOp:
    """A primitive operation with its kind-specific attribute map; construction
    raises ValueError for an attribute the kind's schema lacks or rejects."""

    kind: OpKind
    attrs: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        a = self.attrs
        schema = OPS[self.kind].attrs
        if a.keys() != schema.keys():
            raise ValueError("%s takes attrs %s, got %s"
                             % (self.kind.value, sorted(schema), sorted(a)))
        for name, (want, in_range) in schema.items():
            value = a[name]
            if type(value) is not want and not (want is float and type(value) is int):
                raise ValueError("%s attr %r must be a %s, got %r"
                                 % (self.kind.value, name, want.__name__, value))
            if in_range is not None and not in_range(value):
                raise ValueError("%s attr %r is out of range: %r"
                                 % (self.kind.value, name, value))
        if self.kind == OpKind.CONV and (a["in_channels"] % a["groups"]
                                         or a["out_channels"] % a["groups"]):
            raise ValueError("channels (%d -> %d) not divisible by groups=%d"
                             % (a["in_channels"], a["out_channels"], a["groups"]))

    def label(self) -> str:
        """Short DOT label: the kind's name, or its entry's rendering."""
        describe = OPS[self.kind].label
        return self.kind.value if describe is None else describe(self.attrs)


def param_shapes(op: PrimOp) -> dict[str, tuple[int, ...]]:
    """Shapes of the learnable tensors a node of this op owns, by name.
    Every parameter and FMA count and the executor's initialization derive
    from these; a ``"weight"`` is applied once per output pixel."""
    return OPS[op.kind].params(op.attrs)


def conv(kernel: int, stride: int, padding: int, in_channels: int,
         out_channels: int, groups: int = 1, has_bias: bool = False) -> PrimOp:
    return PrimOp(OpKind.CONV, {
        "kernel": kernel, "stride": stride, "padding": padding,
        "in_channels": in_channels, "out_channels": out_channels,
        "groups": groups, "has_bias": has_bias,
    })


def batch_norm(channels: int, epsilon: float = 1e-5) -> PrimOp:
    return PrimOp(OpKind.BATCH_NORM, {"channels": channels, "epsilon": epsilon})


def relu() -> PrimOp:
    return PrimOp(OpKind.RELU)


def max_pool(kernel: int, stride: int, ceil_mode: bool = False) -> PrimOp:
    return PrimOp(OpKind.MAX_POOL, {"kernel": kernel, "stride": stride, "ceil_mode": ceil_mode})


def global_avg_pool() -> PrimOp:
    return PrimOp(OpKind.GLOBAL_AVG_POOL)


def linear(in_features: int, out_features: int, has_bias: bool = True) -> PrimOp:
    return PrimOp(OpKind.LINEAR, {
        "in_features": in_features, "out_features": out_features, "has_bias": has_bias,
    })


def concat() -> PrimOp:
    # Concatenation is defined along the channel axis only.
    return PrimOp(OpKind.CONCAT, {"axis": 1})


def add() -> PrimOp:
    return PrimOp(OpKind.ADD)


def upsample(factor: int, mode: UpsampleMode, channels: int) -> PrimOp:
    return PrimOp(OpKind.UPSAMPLE, {"factor": factor, "mode": mode.value, "channels": channels})


def softmax() -> PrimOp:
    return PrimOp(OpKind.SOFTMAX, {"axis": 1})


def input_op(channels: int, height: int, width: int) -> PrimOp:
    return PrimOp(OpKind.INPUT, {"channels": channels, "height": height, "width": width})


def output_op() -> PrimOp:
    return PrimOp(OpKind.OUTPUT)


def upsample_kernel_geometry(factor: int) -> tuple[int, int, int]:
    """(kernel, stride, padding) of the transposed conv realizing an exact
    x``factor`` upsampling. Output extent is exactly factor * input extent."""
    return (2 * factor, factor, factor // 2)


def is_tag_value(key: str, value: Any) -> bool:
    """Whether tag ``key`` may hold ``value`` besides None: an int (not a
    bool), or for ``stage`` also a str."""
    return type(value) is int or (key == "stage" and type(value) is str)


@dataclass(frozen=True)
class Tags:
    """Structural labels: stage (1..6, "head" or "decoder"), block id and
    aggregation-node id, each None or a value ``is_tag_value`` accepts."""

    stage: int | str | None = None
    block_id: int | None = None
    agg_node_id: int | None = None

    def __post_init__(self) -> None:
        for key in ("stage", "block_id", "agg_node_id"):
            value = getattr(self, key)
            if value is not None and not is_tag_value(key, value):
                raise ValueError("tag %r has the wrong type: %r" % (key, value))


@dataclass(frozen=True)
class GraphNode:
    """One op application; construction raises UnknownInput unless the id is
    an int and every input id is an int in ``[0, id)``, then ArityMismatch
    unless the op's kind takes that many inputs."""

    id: NodeId
    op: PrimOp
    inputs: tuple[NodeId, ...]
    tags: Tags = Tags()

    def __post_init__(self) -> None:
        nid, inputs = self.id, self.inputs
        known = type(nid) is int
        if known:  # a plain loop: this runs for every node of every graph
            for i in inputs:
                if type(i) is not int or not 0 <= i < nid:
                    known = False
                    break
        if not known:
            raise UnknownInput("node %r: id must be an int and inputs %r earlier node ids"
                               % (nid, inputs))
        spec = OPS[self.op.kind]
        n = len(inputs)
        if n < spec.min_inputs or (spec.max_inputs is not None and n > spec.max_inputs):
            bound = "exactly" if spec.min_inputs == spec.max_inputs else "at least"
            raise ArityMismatch("%s takes %s %d inputs, got %d" % (
                self.op.kind.value, bound, spec.min_inputs, n))


@dataclass(frozen=True)
class Graph:
    """Immutable multigraph; input argument order is preserved verbatim.
    Construction raises UnknownInput unless ``nodes[i].id == i``, ``inputs``
    lists the Input node ids in id order, and every output id names a node,
    then ShapeConflict unless every node's shape rule holds in id order from
    the extents each Input node declares."""

    nodes: tuple[GraphNode, ...]
    inputs: tuple[NodeId, ...]
    outputs: tuple[NodeId, ...]

    def __post_init__(self) -> None:
        input_ids: list[NodeId] = []
        for i, node in enumerate(self.nodes):
            if node.id != i:
                raise UnknownInput("node at position %d carries id %d" % (i, node.id))
            if node.op.kind is OpKind.INPUT:
                input_ids.append(i)
        if not all(type(i) is int for i in self.inputs) or self.inputs != tuple(input_ids):
            raise UnknownInput("declared inputs %r do not match Input nodes %r"
                               % (self.inputs, tuple(input_ids)))
        if not all(type(o) is int and 0 <= o < len(self.nodes) for o in self.outputs):
            raise UnknownInput("output ids %r do not all name a node" % (self.outputs,))
        shapes: list[TensorShape] = []
        for node in self.nodes:
            try:
                shapes.append(infer_node_shape(node.op, [shapes[i] for i in node.inputs]))
            except ShapeConflict as exc:
                raise ShapeConflict("node %d: %s" % (node.id, exc)) from None

    def node(self, nid: NodeId) -> GraphNode:
        return self.nodes[nid]

    def __len__(self) -> int:
        return len(self.nodes)


def successors(graph: Graph) -> dict[NodeId, list[NodeId]]:
    """Consumer lists per node, with multiplicity, in ascending consumer order."""
    succ: dict[NodeId, list[NodeId]] = {n.id: [] for n in graph.nodes}
    for n in graph.nodes:
        for src in n.inputs:
            succ[src].append(n.id)
    return succ


def infer_node_shape(op: PrimOp, input_shapes: Sequence[TensorShape]) -> TensorShape:
    """Single-op shape rule shared by graph construction, the builder and the
    shape analysis; Conv and MaxPool windows follow ``window_out_hw``, and an
    Input gives its declared extents. Raises ShapeConflict when operands are
    inconsistent."""
    return OPS[op.kind].shape(op.attrs, *input_shapes)


class GraphBuilder:
    """Single-writer graph construction with incremental shape tracking.

    Tag context managers (``stage``, ``block``, ``agg_node``) give every
    node added inside them one shared ``Tags``; block and aggregation-node
    ids are handed out densely in construction order.
    """

    def __init__(self) -> None:
        self._nodes: list[GraphNode] = []
        self._shapes: list[TensorShape] = []
        self._inputs: list[NodeId] = []
        self._outputs: list[NodeId] = []
        self._tags = Tags()
        self._block_ids = itertools.count()
        self._agg_ids = itertools.count()

    def __len__(self) -> int:
        return len(self._nodes)

    def channels(self, nid: NodeId) -> int:
        return self._shapes[nid].channels

    def add(self, op: PrimOp, inputs: Sequence[NodeId] = ()) -> NodeId:
        nid = len(self._nodes)
        node = GraphNode(nid, op, tuple(inputs), self._tags)
        shape = infer_node_shape(op, [self._shapes[i] for i in node.inputs])
        if op.kind == OpKind.INPUT:
            self._inputs.append(nid)
        self._nodes.append(node)
        self._shapes.append(shape)
        return nid

    def add_input(self, shape: TensorShape) -> NodeId:
        return self.add(input_op(shape.channels, shape.height, shape.width))

    def mark_output(self, nid: NodeId) -> NodeId:
        out = self.add(output_op(), [nid])
        self._outputs.append(out)
        return out

    @contextmanager
    def _scope(self, key: str, value: Any):
        """Label nodes added inside with tag ``key`` set to ``value``; yields it."""
        outer = self._tags
        self._tags = replace(outer, **{key: value})
        try:
            yield value
        finally:
            self._tags = outer

    def stage(self, stage: int | str):
        return self._scope("stage", stage)

    def block(self):
        return self._scope("block_id", next(self._block_ids))

    def agg_node(self):
        return self._scope("agg_node_id", next(self._agg_ids))

    def build(self) -> Graph:
        return Graph(tuple(self._nodes), tuple(self._inputs), tuple(self._outputs))


def topo_order(graph: Graph) -> list[NodeId]:
    """Deterministic topological order; ties broken by ascending node id.
    Since every input id is below its node's id, this is 0..n-1."""
    indegree = {n.id: len(n.inputs) for n in graph.nodes}
    succ = successors(graph)
    ready = [nid for nid, deg in indegree.items() if deg == 0]
    heapq.heapify(ready)
    order: list[NodeId] = []
    while ready:
        nid = heapq.heappop(ready)
        order.append(nid)
        for consumer in succ[nid]:
            indegree[consumer] -= 1
            if indegree[consumer] == 0:
                heapq.heappush(ready, consumer)
    return order


def validate(graph: Graph) -> list[str]:
    """Check what construction leaves open, that the graph declares an
    output; returns ``"Kind: message"`` lines, empty means valid. Ids,
    edges, arity, reachability from an Input and shapes hold by
    construction.

    Pure: never raises for graph defects, never mutates.
    """
    if not graph.outputs:
        return ["NoOutput: graph declares no outputs"]
    return []
