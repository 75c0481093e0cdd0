"""Catalog of the nine DLA classification networks and the dense decoder.

A network has six stages. Stage 1 keeps the input resolution (a 7x7 stem
convolution plus one 3x3 convolution layer); stage 2 is one 3x3
convolution with stride 2. Stages 3 to 6 each halve resolution with a 2x2
max pool and then run a hierarchical aggregation tree at the stage's
channel width; the previous stage's output is also routed into the
stage's root node (width-matched by a 1x1 projection when needed), which
chains the stages iteratively through shared roots. The classifier head
is global average pooling, a linear layer, and softmax.

The dense-prediction decoder keeps the backbone, projects the outputs of
stages 2..6 to a common small width, upsamples stages 3..6 back to
stage-2 resolution with learned transposed convolutions initialized to
bilinear interpolation, fuses them iteratively with 3x3 aggregation
nodes, and scores per pixel at half the input resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

from . import ir
from .aggregation import AggNodeSpec, HdaSpec, build_hda, build_ida
from .analysis import count_params
from .blocks import BlockKind, BlockSpec, conv_bn
from .ir import Graph, GraphBuilder, NodeId, TensorShape, UpsampleMode


class UnknownArchitecture(ir.GraphError):
    """The requested name is not in the catalog."""


class IndivisibleInput(ir.GraphError):
    """Input extents incompatible with the network's resolution schedule."""


# Intermediate-width divisors per block kind. Bottleneck blocks narrow to
# half the output width; split blocks run their grouped 3x3 at the full
# output width, which is what makes them cheaper than bottlenecks only in
# the grouped convolution.
MID_RATIO = {BlockKind.BASIC: 2, BlockKind.BOTTLENECK: 2, BlockKind.SPLIT: 1}

SPLIT_CARDINALITY = 32


@dataclass(frozen=True)
class ArchSpec:
    """One catalog row: block kind, per-stage channels, and the
    aggregation depths of stages 3..6."""

    name: str
    block_kind: BlockKind
    stage_channels: tuple[int, int, int, int, int, int]
    stage_depths: tuple[int, int, int, int]
    residual_nodes: bool = False
    cardinality: int = SPLIT_CARDINALITY

    def __post_init__(self) -> None:
        if any(d < 1 for d in self.stage_depths):
            raise ValueError("aggregation depths must be >= 1")
        rising = self.stage_channels[1:]
        if any(a > b for a, b in zip(rising, rising[1:])):
            raise ValueError("stage channels must be non-decreasing from stage 2 on")


@dataclass(frozen=True)
class DenseHeadSpec:
    """Dense-prediction head: class count and common projection width. Its
    aggregation nodes use 3x3 convolutions, and it scores at output stride
    2 (stage-2 resolution)."""

    num_classes: int
    project_channels: int = 32


_CATALOG: tuple[ArchSpec, ...] = (
    ArchSpec("DLA-34", BlockKind.BASIC, (16, 32, 64, 128, 256, 512), (1, 2, 2, 1)),
    ArchSpec("DLA-46-C", BlockKind.BOTTLENECK, (16, 32, 64, 64, 128, 256), (1, 2, 2, 1)),
    ArchSpec("DLA-60", BlockKind.BOTTLENECK, (16, 32, 128, 256, 512, 1024), (1, 2, 3, 1)),
    ArchSpec("DLA-102", BlockKind.BOTTLENECK, (16, 32, 128, 256, 512, 1024), (1, 3, 4, 1),
             residual_nodes=True),
    ArchSpec("DLA-169", BlockKind.BOTTLENECK, (16, 32, 128, 256, 512, 1024), (2, 3, 5, 1),
             residual_nodes=True),
    ArchSpec("DLA-X-46-C", BlockKind.SPLIT, (16, 32, 64, 64, 128, 256), (1, 2, 2, 1)),
    ArchSpec("DLA-X-60-C", BlockKind.SPLIT, (16, 32, 64, 64, 128, 256), (1, 2, 3, 1)),
    ArchSpec("DLA-X-60", BlockKind.SPLIT, (16, 32, 128, 256, 512, 1024), (1, 2, 3, 1)),
    ArchSpec("DLA-X-102", BlockKind.SPLIT, (16, 32, 128, 256, 512, 1024), (1, 3, 4, 1),
             residual_nodes=True),
)

_BY_NAME = {spec.name: spec for spec in _CATALOG}


def arch_spec(name: str) -> ArchSpec:
    """Look up a catalog row by its exact, case-sensitive name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise UnknownArchitecture(
            "unknown architecture %r; known: %s" % (name, ", ".join(_BY_NAME))) from None


def catalog_names() -> tuple[str, ...]:
    return tuple(spec.name for spec in _CATALOG)


def _check_input(shape: TensorShape, strict: bool) -> None:
    if shape.channels != 3:
        raise IndivisibleInput("expected a 3-channel input, got %d" % shape.channels)
    if strict and (shape.height % 32 or shape.width % 32):
        raise IndivisibleInput("input extents %dx%d must be divisible by 32"
                               % (shape.height, shape.width))
    if not strict and (shape.height % 2 or shape.width % 2):
        raise IndivisibleInput("input extents must at least be even")


def _conv_level(b: GraphBuilder, x: NodeId, kernel: int, stride: int, out_ch: int) -> NodeId:
    return b.add(ir.relu(), [conv_bn(b, x, kernel, out_ch, stride=stride)])


def _build_backbone(b: GraphBuilder, spec: ArchSpec,
                    input_shape: TensorShape) -> list[NodeId]:
    """Input, stem, and the six stages; returns each stage's output node."""
    c = spec.stage_channels
    stage_outputs: list[NodeId] = []

    with b.stage(1):
        x = b.add_input(input_shape)
        y = _conv_level(b, x, 7, 1, c[0])
        y = _conv_level(b, y, 3, 1, c[0])
    stage_outputs.append(y)

    with b.stage(2):
        y = _conv_level(b, y, 3, 2, c[1])
    stage_outputs.append(y)

    for stage_index in range(3, 7):
        out_ch = c[stage_index - 1]
        with b.stage(stage_index):
            pooled = b.add(ir.max_pool(2, 2, ceil_mode=True), [y])
            extra = pooled if b.channels(pooled) == out_ch else conv_bn(b, pooled, 1, out_ch)
            y = build_hda(b, pooled, HdaSpec(
                depth=spec.stage_depths[stage_index - 3],
                block=BlockSpec(spec.block_kind, out_ch, cardinality=spec.cardinality,
                                mid_ratio=MID_RATIO[spec.block_kind]),
                extra_root_inputs=(extra,),
                residual_nodes=spec.residual_nodes,
            ))
        stage_outputs.append(y)
    return stage_outputs


def build_classifier(spec: ArchSpec, num_classes: int, input_shape: TensorShape,
                     _strict_input: bool = True) -> Graph:
    """Full classification network; input extents must be divisible by 32.

    The final feature map before pooling sits at 1/32 of the input
    resolution. Raises IndivisibleInput otherwise.
    """
    _check_input(input_shape, _strict_input)
    b = GraphBuilder()
    stages = _build_backbone(b, spec, input_shape)
    with b.stage("head"):
        y = b.add(ir.global_avg_pool(), [stages[-1]])
        y = b.add(ir.linear(b.channels(y), num_classes, has_bias=True), [y])
        y = b.add(ir.softmax(), [y])
        b.mark_output(y)
    return b.build()


def build_dense_decoder(spec: ArchSpec, head: DenseHeadSpec,
                        input_shape: TensorShape) -> Graph:
    """Backbone plus the interpolating decoder; scores land at half the
    input resolution with a channelwise softmax per pixel."""
    _check_input(input_shape, strict=True)
    b = GraphBuilder()
    stages = _build_backbone(b, spec, input_shape)

    width = head.project_channels
    with b.stage("decoder"):
        fused: list[NodeId] = []
        for stage_index in range(2, 7):
            y = _conv_level(b, stages[stage_index - 1], 1, 1, width)
            factor = 2 ** (stage_index - 2)
            if factor > 1:
                y = b.add(ir.upsample(factor, UpsampleMode.LEARNED_TRANSPOSED_CONV,
                                      width), [y])
            fused.append(y)
        y = build_ida(b, fused, AggNodeSpec(width, kernel=3))
        y = b.add(ir.conv(1, 1, 0, width, head.num_classes, has_bias=True), [y])
        y = b.add(ir.softmax(), [y])
        b.mark_output(y)
    return b.build()


def list_architectures(num_classes: int = 1000,
                       input_shape: TensorShape | None = None
                       ) -> list[tuple[str, BlockKind, int]]:
    """All catalog entries in table order with their learnable-parameter
    counts for ``num_classes``-way classification."""
    if input_shape is None:
        input_shape = TensorShape(3, 224, 224)
    out = []
    for spec in _CATALOG:
        graph = build_classifier(spec, num_classes, input_shape)
        out.append((spec.name, spec.block_kind, count_params(graph)))
    return out


def _toy_cardinality(cardinality: int, widths: Sequence[int]) -> int:
    g = cardinality
    for w in widths:
        g = math.gcd(g, w)
    # Keep at least 4 channels per group: one-channel groups at 1x1
    # resolution degenerate to a single scalar weight, which starves the
    # following batch norm of variance.
    while g > 1 and min(widths) // g < 4:
        g //= 2
    return max(g, 1)


def toy_spec(spec: ArchSpec, width_cap: int) -> ArchSpec:
    """Clamp every stage width to ``width_cap`` so the reference executor
    can run the architecture at toy scale. Split cardinality is reduced to
    keep the grouped convolutions divisible and well conditioned."""
    if width_cap < 4 or width_cap % 4:
        raise ValueError("width cap must be a positive multiple of 4")
    channels = tuple(min(c, width_cap) for c in spec.stage_channels)
    cardinality = spec.cardinality
    if spec.block_kind == BlockKind.SPLIT:
        ratio = MID_RATIO[BlockKind.SPLIT]
        cardinality = _toy_cardinality(cardinality, [c // ratio for c in channels[2:]])
    return replace(spec, stage_channels=channels, cardinality=cardinality)


def build_toy_classifier(name: str, width_cap: int, input_hw: int,
                         num_classes: int = 10) -> Graph:
    """Width-capped classifier for gradient checking at small inputs.

    Unlike the full builder this accepts any even input extent; stage
    pools fall back to partial windows once the resolution reaches one
    pixel, so a 16x16 input is enough to exercise all six stages.
    """
    spec = toy_spec(arch_spec(name), width_cap)
    shape = TensorShape(3, input_hw, input_hw)
    return build_classifier(spec, num_classes, shape, _strict_input=False)


def build_toy_dense_decoder(name: str, width_cap: int, input_hw: int,
                            num_classes: int = 10) -> Graph:
    """Width-capped dense decoder. The decoder fuses upsampled stages, so
    the input must still be divisible by 32; 32x32 is the smallest case."""
    spec = toy_spec(arch_spec(name), width_cap)
    head = DenseHeadSpec(num_classes=num_classes,
                         project_channels=min(32, width_cap))
    shape = TensorShape(3, input_hw, input_hw)
    return build_dense_decoder(spec, head, shape)
