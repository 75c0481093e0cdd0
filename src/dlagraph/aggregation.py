"""Aggregation nodes and the two deep-aggregation constructions.

An aggregation node fuses an ordered list of same-resolution features:
channel concatenation, one k x k convolution to the output width, batch
norm, an optional residual add from a designated input, then ReLU. The
concat-plus-single-conv realizes a learned linear combination of all
inputs in one map, so argument order is structurally significant.

``build_ida`` folds a shallow-to-deep feature list with binary nodes.
``build_hda`` grows a tree of blocks whose sub-tree roots are rerouted
back into the backbone and whose same-depth nodes are merged, giving
2^n blocks, 2^(n-1) nodes, and a root fan-in of n+1 at depth n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from . import ir
from .blocks import BlockSpec, build_block
from .ir import ChannelMismatch, GraphBuilder, NodeId


class SpatialMismatch(ir.GraphError):
    """Aggregation inputs do not share one spatial extent."""


class ResidualChannelMismatch(ir.GraphError):
    """The residual operand's channels differ from the node's output width."""


class EmptyInput(ir.GraphError):
    """An aggregation was requested over zero features."""


class DepthOutOfRange(ir.GraphError):
    """Hierarchy depth outside 1..6."""


@dataclass(frozen=True)
class AggNodeSpec:
    """One aggregation node: per-input channel widths, output width,
    convolution kernel (1 for classification heads, 3 in the dense
    decoder), and the optional residual connection.

    ``residual_index`` selects which input the identity path attaches to;
    by default the last one. Tree roots that receive appended cross-stage
    inputs keep the residual on the last backbone feature instead.
    """

    input_channels: tuple[int, ...]
    out_channels: int
    kernel: int = 1
    residual: bool = False
    residual_index: int | None = None


@dataclass(frozen=True)
class HdaSpec:
    """A depth-n aggregation tree over one kind of convolutional block.

    ``block`` is the template for every block in the tree: the first block
    built consumes the tree input at ``block.in_channels`` (and the
    template stride); every later block runs at ``out_channels`` with
    stride 1. ``extra_root_inputs`` are appended to the root node's
    argument list after the backbone features. Its aggregation nodes
    convolve 1x1.
    """

    depth: int
    block: BlockSpec
    out_channels: int
    extra_root_inputs: tuple[NodeId, ...] = ()
    residual_nodes: bool = False


def build_aggregation_node(b: GraphBuilder, inputs: Sequence[NodeId],
                           spec: AggNodeSpec) -> NodeId:
    """Concat -> Conv kxk -> BN (-> Add residual) -> ReLU over ``inputs``,
    preserving their order. Returns the ReLU id; the whole subgraph is
    tagged with a fresh aggregation-node id."""
    inputs = list(inputs)
    if len(inputs) < 2:
        raise ir.ArityMismatch("aggregation nodes take at least 2 inputs, got %d" % len(inputs))
    if len(inputs) != len(spec.input_channels):
        raise ChannelMismatch("spec lists %d input widths for %d inputs"
                              % (len(spec.input_channels), len(inputs)))
    shapes = [b.shape(i) for i in inputs]
    for got, want in zip(shapes, spec.input_channels):
        if got.channels != want:
            raise ChannelMismatch("aggregation input has %d channels, spec says %d"
                                  % (got.channels, want))
    spatial = shapes[0].spatial
    for s in shapes[1:]:
        if s.spatial != spatial:
            raise SpatialMismatch("aggregation inputs mix extents %s and %s"
                                  % (spatial, s.spatial))
    residual_src: NodeId | None = None
    if spec.residual:
        idx = len(inputs) - 1 if spec.residual_index is None else spec.residual_index
        residual_src = inputs[idx]
        if b.channels(residual_src) != spec.out_channels:
            raise ResidualChannelMismatch("residual operand has %d channels, node emits %d"
                                          % (b.channels(residual_src), spec.out_channels))
    with b.agg_node():
        cat = b.add(ir.concat(), inputs)
        conv = b.add(ir.conv(spec.kernel, 1, spec.kernel // 2,
                             sum(spec.input_channels), spec.out_channels), [cat])
        y = b.add(ir.batch_norm(spec.out_channels), [conv])
        if residual_src is not None:
            y = b.add(ir.add(), [y, residual_src])
        return b.add(ir.relu(), [y])


def build_ida(b: GraphBuilder, features: Sequence[NodeId],
              node_spec_fn: Callable[[int, int, int], AggNodeSpec]) -> NodeId:
    """Left-fold binary aggregation over features ordered shallow to deep.

    A single feature is returned unchanged and adds no nodes; k features
    produce exactly k-1 aggregation nodes. ``node_spec_fn(step, left_ch,
    right_ch)`` supplies the spec for each fold step.
    """
    if not features:
        raise EmptyInput("iterative aggregation over an empty feature list")
    acc = features[0]
    for step, feat in enumerate(features[1:]):
        spec = node_spec_fn(step, b.channels(acc), b.channels(feat))
        acc = build_aggregation_node(b, [acc, feat], spec)
    return acc


def _block_chain(b: GraphBuilder, x: NodeId, spec: HdaSpec) -> Callable[[NodeId], NodeId]:
    """Check a tree's depth and input width, and return the builder of its
    backbone: the first block follows the template, every later one runs at
    ``out_channels`` with stride 1."""
    if not 1 <= spec.depth <= 6:
        raise DepthOutOfRange("depth must be within 1..6, got %d" % spec.depth)
    if b.channels(x) != spec.block.in_channels:
        raise ChannelMismatch("tree input has %d channels, block template expects %d"
                              % (b.channels(x), spec.block.in_channels))
    continuation = replace(spec.block, in_channels=spec.out_channels,
                           out_channels=spec.out_channels, stride=1)
    pending_first = [replace(spec.block, out_channels=spec.out_channels)]

    def make_block(src: NodeId) -> NodeId:
        bs = pending_first.pop() if pending_first else continuation
        return build_block(b, src, bs)

    return make_block


def build_hda(b: GraphBuilder, x: NodeId, spec: HdaSpec) -> NodeId:
    """Build the merged-and-rerouted aggregation tree of depth ``spec.depth``.

    The root receives, in order: the rerouted sub-tree outputs deepest
    first, the two final backbone blocks, then ``extra_root_inputs``.
    Each sub-tree below the root consumes the output of the previous one,
    so every earlier aggregation feeds the later backbone.
    """
    make_block = _block_chain(b, x, spec)

    def tree(depth: int, src: NodeId, top: bool) -> NodeId:
        rerouted: list[NodeId] = []
        cur = src
        for sub_depth in range(depth - 1, 0, -1):
            cur = tree(sub_depth, cur, False)
            rerouted.append(cur)
        first = make_block(cur)
        second = make_block(first)
        node_inputs = [*rerouted, first, second]
        residual_index = len(node_inputs) - 1
        if top:
            node_inputs.extend(spec.extra_root_inputs)
        agg = AggNodeSpec(
            input_channels=tuple(b.channels(i) for i in node_inputs),
            out_channels=spec.out_channels,
            residual=spec.residual_nodes,
            residual_index=residual_index if spec.residual_nodes else None,
        )
        return build_aggregation_node(b, node_inputs, agg)

    return tree(spec.depth, x, True)


def build_unmerged_hda(b: GraphBuilder, x: NodeId, spec: HdaSpec) -> NodeId:
    """Reference form without reroute or merge: blocks chain through the
    backbone and a complete binary tree of 2^depth - 1 binary nodes
    aggregates them. Kept as a structural baseline for comparison; the
    catalog never builds it."""
    make_block = _block_chain(b, x, spec)

    def node(left: NodeId, right: NodeId) -> NodeId:
        agg = AggNodeSpec((b.channels(left), b.channels(right)), spec.out_channels,
                          residual=spec.residual_nodes)
        return build_aggregation_node(b, [left, right], agg)

    def tree(depth: int, src: NodeId) -> tuple[NodeId, NodeId]:
        # returns (backbone continuation, aggregation output)
        if depth == 1:
            first = make_block(src)
            second = make_block(first)
            return second, node(first, second)
        back, agg_left = tree(depth - 1, src)
        back, agg_right = tree(depth - 1, back)
        return back, node(agg_left, agg_right)

    _, root = tree(spec.depth, x)
    return root


@dataclass(frozen=True)
class HdaStructure:
    blocks: int
    agg_nodes: int
    root_fanin: int
    max_path_blocks: int


def structure_of_hda(depth: int) -> HdaStructure:
    """Closed-form structure of a depth-n tree: 2^n blocks, 2^(n-1)
    aggregation nodes, root fan-in n+1, and at most n aggregation nodes on
    the path from any block output to the root. The fan-in equals
    floor(log2(blocks)) + 1, logarithmic in the block count."""
    if not 1 <= depth <= 6:
        raise DepthOutOfRange("depth must be within 1..6, got %d" % depth)
    blocks = 2 ** depth
    assert depth + 1 == int(math.log2(blocks)) + 1
    return HdaStructure(blocks=blocks, agg_nodes=2 ** (depth - 1),
                        root_fanin=depth + 1, max_path_blocks=depth)
