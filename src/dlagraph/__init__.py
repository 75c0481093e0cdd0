"""dlagraph: deep layer aggregation networks as explicit computation graphs.

The package materializes the DLA architecture family as a graph IR,
analyzes it statically (shapes, parameters, fused multiply-adds,
aggregation structure), and executes it at toy scale with a
differentiable float64 reference engine.
"""

__version__ = "0.1.0"

from .aggregation import (AggNodeSpec, HdaSpec, HdaStructure, build_aggregation_node,
                          build_hda, build_ida, build_unmerged_hda, structure_of_hda)
from .analysis import (CostReport, ShapeMap, StructureStats, cost_report, count_fmas,
                       count_params, infer_shapes, structure_stats)
from .architectures import (ArchSpec, DenseHeadSpec, arch_spec, build_classifier,
                            build_dense_decoder, build_toy_classifier,
                            build_toy_dense_decoder, catalog_names, list_architectures,
                            toy_spec)
from .blocks import BlockKind, BlockSpec, build_block
from .graphdoc import parse, serialize, to_dot
from .ir import (Graph, GraphBuilder, GraphNode, NodeId, OpKind, PrimOp, Tags,
                 TensorShape, UpsampleMode, topo_order, validate)

__all__ = [
    "__version__",
    "AggNodeSpec", "HdaSpec", "HdaStructure", "build_aggregation_node", "build_hda",
    "build_ida", "build_unmerged_hda", "structure_of_hda",
    "CostReport", "ShapeMap", "StructureStats", "cost_report", "count_fmas",
    "count_params", "infer_shapes", "structure_stats",
    "ArchSpec", "DenseHeadSpec", "arch_spec", "build_classifier", "build_dense_decoder",
    "build_toy_classifier", "build_toy_dense_decoder", "catalog_names",
    "list_architectures", "toy_spec",
    "BlockKind", "BlockSpec", "build_block",
    "parse", "serialize", "to_dot",
    "Graph", "GraphBuilder", "GraphNode", "NodeId", "OpKind", "PrimOp", "Tags",
    "TensorShape", "UpsampleMode", "topo_order", "validate",
]
