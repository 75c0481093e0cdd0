"""Static analyses over graphs: shape inference, parameter and
fused-multiply-add accounting, and structural statistics.

Cost conventions: parameters count learnable scalars only (batch-norm
running statistics are excluded); FMAs count convolution, linear, and
learned-upsampling arithmetic for one sample, while normalization,
activations, pooling, and concatenation contribute zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from . import ir
from .ir import (Graph, GraphNode, NodeId, OpKind, TensorShape, infer_node_shape,
                 param_shapes, topo_order)

ShapeMap = dict[NodeId, TensorShape]


def infer_shapes(graph: Graph, input_shape: TensorShape) -> ShapeMap:
    """Shape of every node given the single graph input's shape.

    Every graph fits the extents its Input node declares; raises
    ShapeConflict when ``input_shape`` is other extents that do not fit.
    """
    if len(graph.inputs) != 1:
        raise ir.ShapeConflict("expected exactly one graph input, found %d"
                               % len(graph.inputs))
    shapes: ShapeMap = {}
    for nid in topo_order(graph):
        node = graph.node(nid)
        if node.op.kind == OpKind.INPUT:
            shapes[nid] = input_shape
        else:
            shapes[nid] = infer_node_shape(node.op, [shapes[i] for i in node.inputs])
    return shapes


def _param_count(learnable: dict[str, tuple[int, ...]]) -> int:
    return sum(math.prod(shape) for shape in learnable.values())


def node_params(node: GraphNode) -> int:
    """Learnable scalars owned by one node."""
    return _param_count(param_shapes(node.op))


def count_params(graph: Graph) -> int:
    return sum(node_params(node) for node in graph.nodes)


@dataclass(frozen=True)
class StageCost:
    params: int
    fmas: int


@dataclass(frozen=True)
class CostReport:
    params: int
    fmas: int
    per_stage: dict[str, StageCost]


def cost_report(graph: Graph, input_shape: TensorShape) -> CostReport:
    """Totals plus a per-stage breakdown; totals equal the stage sums. Each
    op's costs are derived once, however many nodes share it, as the nodes
    of a parsed graph do."""
    shapes = infer_shapes(graph, input_shape)
    per_stage: dict[str, list[int]] = {}
    op_costs: dict[int, tuple[int, int]] = {}  # id(op) -> (params, weight size)
    for node in graph.nodes:
        key = "untagged" if node.tags.stage is None else str(node.tags.stage)
        bucket = per_stage.setdefault(key, [0, 0])
        costs = op_costs.get(id(node.op))
        if costs is None:
            learnable = param_shapes(node.op)
            weight = learnable.get("weight")  # applied once per output pixel
            costs = op_costs[id(node.op)] = (_param_count(learnable),
                                             0 if weight is None else math.prod(weight))
        bucket[0] += costs[0]
        if costs[1]:
            bucket[1] += math.prod(shapes[node.id].spatial) * costs[1]
    return CostReport(
        params=sum(v[0] for v in per_stage.values()),
        fmas=sum(v[1] for v in per_stage.values()),
        per_stage={k: StageCost(*v) for k, v in sorted(per_stage.items())},
    )


def count_fmas(graph: Graph, input_shape: TensorShape) -> int:
    return cost_report(graph, input_shape).fmas


@dataclass(frozen=True)
class StructureStats:
    blocks: int
    agg_nodes: int
    max_root_fanin: int
    per_stage_depth: dict[int, int | None]
    max_block_to_output_hops: int


def _block_output_nodes(graph: Graph) -> dict[int, NodeId]:
    """Last node of each tagged block; blocks end in their join ReLU, which
    is always the block's highest id."""
    out: dict[int, NodeId] = {}
    for node in graph.nodes:
        bid = node.tags.block_id
        if bid is not None:
            out[bid] = max(out.get(bid, -1), node.id)
    return out


def _agg_hops_to_output(graph: Graph) -> dict[NodeId, int]:
    """Minimum number of aggregation nodes entered on any path from each
    node to a graph output; unreachable nodes are absent. Every input id is
    below its node's id, so walking ids downward settles each node before
    its inputs."""
    dist = dict.fromkeys(graph.outputs, 0)
    for node in reversed(graph.nodes):
        d = dist.get(node.id)
        if d is None:
            continue
        tag = node.tags.agg_node_id
        for i in node.inputs:
            step = 1 if tag is not None and tag != graph.node(i).tags.agg_node_id else 0
            dist[i] = min(dist.get(i, d + step), d + step)
    return dist


def _stage_groups(graph: Graph) -> dict[int | str | None, list]:
    """One pass over the tags: per stage tag (None when untagged), the
    stage's block ids, its aggregation-node ids and its widest aggregation
    concat."""
    groups: dict[int | str | None, list] = {}
    for node in graph.nodes:
        tags = node.tags
        group = groups.setdefault(tags.stage, [set(), set(), 0])
        if tags.block_id is not None:
            group[0].add(tags.block_id)
        if tags.agg_node_id is not None:
            group[1].add(tags.agg_node_id)
            if node.op.kind == OpKind.CONCAT:
                group[2] = max(group[2], len(node.inputs))
    return groups


def _stage_trees(groups: dict) -> Iterator[tuple[int, int, int | None, int, int]]:
    """(stage, blocks, tree depth when the block count is a power of two
    else None, aggregation nodes, root fan-in) for each numbered stage
    holding blocks, in stage order."""
    for stage in sorted(s for s, g in groups.items() if isinstance(s, int) and g[0]):
        blocks, aggs, fanin = groups[stage]
        depth = len(blocks).bit_length() - 1
        yield (stage, len(blocks), depth if 2 ** depth == len(blocks) else None,
               len(aggs), fanin)


def structure_stats(graph: Graph) -> StructureStats:
    """Counts of tagged blocks and aggregation nodes, the widest
    aggregation fan-in, per-stage tree depths, and the worst shortest-path
    hop count from a block output to the graph output (counted in
    aggregation nodes entered); all zero on a graph without those tags."""
    groups = _stage_groups(graph)
    block_ids = set().union(*(g[0] for g in groups.values()))
    agg_ids = set().union(*(g[1] for g in groups.values()))

    hops = _agg_hops_to_output(graph)
    max_hops = 0
    for bid, nid in _block_output_nodes(graph).items():
        if nid in hops:
            max_hops = max(max_hops, hops[nid])

    return StructureStats(
        blocks=len(block_ids),
        agg_nodes=len(agg_ids),
        max_root_fanin=max((g[2] for g in groups.values()), default=0),
        per_stage_depth={tree[0]: tree[2] for tree in _stage_trees(groups)},
        max_block_to_output_hops=max_hops,
    )


def structural_violations(graph: Graph) -> list[str]:
    """Claims checked by the document checker: per stage, a tree over 2^d
    blocks must carry 2^(d-1) aggregation nodes and a root fan-in between
    d+1 and d+2 (the upper value when the stage root also receives the
    cross-stage feature)."""
    problems: list[str] = []
    for stage, count, depth, aggs, fanin in _stage_trees(_stage_groups(graph)):
        if depth is None:
            problems.append("StructureViolation: stage %d has %d blocks, not a power of two"
                            % (stage, count))
            continue
        if aggs != count // 2:
            problems.append("StructureViolation: stage %d has %d aggregation nodes for "
                            "%d blocks, expected %d" % (stage, aggs, count, count // 2))
        if not depth + 1 <= fanin <= depth + 2:
            problems.append("StructureViolation: stage %d root fan-in %d outside "
                            "[%d, %d]" % (stage, fanin, depth + 1, depth + 2))
    return problems
