"""Residual convolutional blocks: basic, bottleneck, and split (grouped).

Every block is a subgraph ending in Add(main, skip) -> ReLU. The skip path
is the identity when the block keeps its input's channels, otherwise a
1x1 convolution with batch norm. Blocks keep their input's resolution:
the stages downsample by max pool. Convolutions never carry a bias here
because each one is followed by batch norm. All nodes of a block share a
fresh block id tag.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from . import ir
from .ir import GraphBuilder, NodeId


class IndivisibleWidth(ir.GraphError):
    """out_channels is not divisible by the requested mid ratio."""


class IndivisibleGroups(ir.GraphError):
    """The intermediate width is not divisible by the cardinality."""


class BlockKind(enum.Enum):
    BASIC = "Basic"
    BOTTLENECK = "Bottleneck"
    SPLIT = "Split"


@dataclass(frozen=True)
class BlockSpec:
    """Channel plan for one residual block; its input width is that of the
    feature it is built on.

    ``mid_ratio`` divides out_channels to give the intermediate width of
    bottleneck and split blocks; ``cardinality`` is the group count of the
    split block's 3x3 convolution.
    """

    kind: BlockKind
    out_channels: int
    cardinality: int = 32
    mid_ratio: int = 2

    @property
    def mid_channels(self) -> int:
        if self.out_channels % self.mid_ratio:
            raise IndivisibleWidth("out_channels=%d not divisible by mid_ratio=%d"
                                   % (self.out_channels, self.mid_ratio))
        return self.out_channels // self.mid_ratio


def _conv_bn(b: GraphBuilder, x: NodeId, kernel: int, out_ch: int, groups: int = 1) -> NodeId:
    c = b.add(ir.conv(kernel, 1, kernel // 2, b.channels(x), out_ch, groups=groups), [x])
    return b.add(ir.batch_norm(out_ch), [c])


def build_block(b: GraphBuilder, x: NodeId, spec: BlockSpec) -> NodeId:
    """One residual block on ``x``. Basic: two 3x3 convolutions. Bottleneck:
    1x1 reduce, 3x3 at the narrowed width, 1x1 expand. Split: a bottleneck
    whose 3x3 convolution is grouped into ``cardinality`` separate paths."""
    out = spec.out_channels
    if spec.kind == BlockKind.BASIC:
        layers = [(3, out, 1), (3, out, 1)]
    else:
        mid = spec.mid_channels
        groups = spec.cardinality if spec.kind == BlockKind.SPLIT else 1
        if mid % groups:
            raise IndivisibleGroups("mid width %d not divisible by cardinality %d"
                                    % (mid, groups))
        layers = [(1, mid, 1), (3, mid, groups), (1, out, 1)]
    with b.block():
        y = _conv_bn(b, x, *layers[0])
        for kernel, width, groups in layers[1:]:
            y = b.add(ir.relu(), [y])
            y = _conv_bn(b, y, kernel, width, groups)
        skip = x if b.channels(x) == out else _conv_bn(b, x, 1, out)
        joined = b.add(ir.add(), [y, skip])
        return b.add(ir.relu(), [joined])
