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

from dataclasses import dataclass
from typing import Sequence

from . import ir
from .blocks import BlockSpec, build_block, conv_bn
from .ir import GraphBuilder, NodeId


class ResidualChannelMismatch(ir.GraphError):
    """The residual operand's channels differ from the node's output width."""


class EmptyInput(ir.GraphError):
    """An aggregation was requested over zero features."""


class DepthOutOfRange(ir.GraphError):
    """Hierarchy depth outside 1..6."""


@dataclass(frozen=True)
class AggNodeSpec:
    """One aggregation node: output width, convolution kernel (1 for
    classification heads, 3 in the dense decoder), and the optional
    residual connection. The convolution's input width is that of the
    concatenated inputs.

    ``residual_index`` is the input the identity path attaches to, indexed
    as a list (-1 is the last input), or None for no residual. Tree roots
    that receive appended cross-stage inputs keep the residual on the last
    backbone feature.
    """

    out_channels: int
    kernel: int = 1
    residual_index: int | None = None


@dataclass(frozen=True)
class HdaSpec:
    """A depth-n aggregation tree over one kind of convolutional block.

    ``block`` is the template for every block in the tree, and its
    ``out_channels`` is the tree's width: the first block built consumes
    the tree input, every later one the previous block's output or an
    aggregation. ``extra_root_inputs`` are appended to the root node's
    argument list after the backbone features. Its aggregation nodes
    convolve 1x1.
    """

    depth: int
    block: BlockSpec
    extra_root_inputs: tuple[NodeId, ...] = ()
    residual_nodes: bool = False


def build_aggregation_node(b: GraphBuilder, inputs: Sequence[NodeId],
                           spec: AggNodeSpec) -> NodeId:
    """Concat -> Conv kxk -> BN (-> Add residual) -> ReLU over ``inputs``,
    preserving their order. Returns the ReLU id; the whole subgraph is
    tagged with a fresh aggregation-node id. Inputs of different spatial
    extents raise ShapeConflict from the Concat, and fewer than two inputs
    or a ``residual_index`` outside them ArityMismatch, before any node is
    added."""
    inputs = list(inputs)
    if len(inputs) < 2:
        raise ir.ArityMismatch("aggregation nodes take at least 2 inputs, got %d" % len(inputs))
    residual = spec.residual_index
    if residual is not None and not -len(inputs) <= residual < len(inputs):
        raise ir.ArityMismatch("residual_index %d is out of range for %d inputs"
                               % (residual, len(inputs)))
    residual_src = None if residual is None else inputs[residual]
    if residual_src is not None and b.channels(residual_src) != spec.out_channels:
        raise ResidualChannelMismatch("residual operand has %d channels, node emits %d"
                                      % (b.channels(residual_src), spec.out_channels))
    with b.agg_node():
        cat = b.add(ir.concat(), inputs)
        y = conv_bn(b, cat, spec.kernel, spec.out_channels)
        if residual_src is not None:
            y = b.add(ir.add(), [y, residual_src])
        return b.add(ir.relu(), [y])


def build_ida(b: GraphBuilder, features: Sequence[NodeId], spec: AggNodeSpec) -> NodeId:
    """Left-fold binary aggregation over features ordered shallow to deep.

    A single feature is returned unchanged and adds no nodes; k features
    produce exactly k-1 aggregation nodes, each built from ``spec``.
    """
    if not features:
        raise EmptyInput("iterative aggregation over an empty feature list")
    acc = features[0]
    for feat in features[1:]:
        acc = build_aggregation_node(b, [acc, feat], spec)
    return acc


def _check_depth(depth: int) -> None:
    if not 1 <= depth <= 6:
        raise DepthOutOfRange("depth must be within 1..6, got %d" % depth)


def build_hda(b: GraphBuilder, x: NodeId, spec: HdaSpec) -> NodeId:
    """Build the merged-and-rerouted aggregation tree of depth ``spec.depth``.

    The root receives, in order: the rerouted sub-tree outputs deepest
    first, the two final backbone blocks, then ``extra_root_inputs``.
    Each sub-tree below the root consumes the output of the previous one,
    so every earlier aggregation feeds the later backbone.
    """
    _check_depth(spec.depth)

    def tree(depth: int, src: NodeId, top: bool) -> NodeId:
        rerouted: list[NodeId] = []
        cur = src
        for sub_depth in range(depth - 1, 0, -1):
            cur = tree(sub_depth, cur, False)
            rerouted.append(cur)
        first = build_block(b, cur, spec.block)
        second = build_block(b, first, spec.block)
        node_inputs = [*rerouted, first, second]
        if top:
            node_inputs.extend(spec.extra_root_inputs)
        agg = AggNodeSpec(spec.block.out_channels,
                          residual_index=len(rerouted) + 1 if spec.residual_nodes else None)
        return build_aggregation_node(b, node_inputs, agg)

    return tree(spec.depth, x, True)


def build_unmerged_hda(b: GraphBuilder, x: NodeId, spec: HdaSpec) -> NodeId:
    """Reference form without reroute or merge: blocks chain through the
    backbone and a complete binary tree of 2^depth - 1 binary nodes
    aggregates them. Kept as a structural baseline for comparison; the
    catalog never builds it."""
    _check_depth(spec.depth)
    agg = AggNodeSpec(spec.block.out_channels,
                      residual_index=-1 if spec.residual_nodes else None)

    def tree(depth: int, src: NodeId) -> tuple[NodeId, NodeId]:
        # returns (backbone continuation, aggregation output)
        if depth == 1:
            first = build_block(b, src, spec.block)
            second = build_block(b, first, spec.block)
            return second, build_aggregation_node(b, [first, second], agg)
        back, agg_left = tree(depth - 1, src)
        back, agg_right = tree(depth - 1, back)
        return back, build_aggregation_node(b, [agg_left, agg_right], agg)

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
    _check_depth(depth)
    return HdaStructure(blocks=2 ** depth, agg_nodes=2 ** (depth - 1),
                        root_fanin=depth + 1, max_path_blocks=depth)
