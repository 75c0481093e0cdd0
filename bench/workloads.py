"""The three benchmark workloads.

Each workload is a closed loop driven by one client: the next op starts
when the previous one has returned. A workload knows its cases, how to set
them up, how to run one op, and how to observe an op's result as a small
JSON value that is compared with the reference stored in refs.json.

The program is called through module attributes (``cli.main``,
``executor.forward``, ...) so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import ctypes
import hashlib
import io
import json
import os
import random
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import numpy as np

from dlagraph import architectures, cli, graphdoc
from dlagraph.numerics import executor

TOY_WIDTH_CAP = 16
TOY_CLASSES = 10
TOY_DECODER_CLASSES = 5
DECODER = "DLA-34-dense"
ALL_CASES = architectures.catalog_names() + (DECODER,)


def digest_arrays(arrays) -> str:
    """sha256 over the shapes, dtypes and bits of a sequence of arrays."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(("%s%s" % (a.dtype.str, a.shape)).encode())
        h.update(a.data)
    return h.hexdigest()


def digest_named(store: dict) -> str:
    """Digest of a {node id: {name: array}} store in sorted order."""
    keys = [(nid, name) for nid in sorted(store) for name in sorted(store[nid])]
    h = hashlib.sha256(repr(keys).encode())
    h.update(digest_arrays(store[nid][name] for nid, name in keys).encode())
    return h.hexdigest()


def host() -> dict:
    """What the float64 bits of the toy workloads depend on besides the
    code: the CPU model, the SIMD extensions numpy dispatches to, and the
    kernel set OpenBLAS picked at run time. refs.json stores the host it
    was recorded on."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    model = None
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {"cpu_model": model,
            "numpy_simd": [f for f in __cpu_dispatch__ if __cpu_features__.get(f)],
            "blas_core": _openblas_core()}


def _openblas_core():
    """OpenBLAS's run-time kernel name, read from the loaded library."""
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line and "/" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                return fn().decode()
    return None


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Workload:
    """Shared schedule logic; subclasses define cases, set-up and ops."""

    name = ""
    work_unit = ""
    case_names: tuple[str, ...] = ()
    variants = 1
    # Labels of traced functions that this workload must call, in its
    # timed ops or in its set-up; the tracer's self-check enforces it.
    uses: frozenset = frozenset()

    def schedule(self, seed: int):
        """Infinite op sequence of (case index, variant). The seed permutes
        the case order once and draws the variants; every round visits
        each case once."""
        rng = random.Random(seed)
        order = list(range(len(self.case_names)))
        rng.shuffle(order)
        while True:
            for c in order:
                yield c, rng.randrange(self.variants)

    def prepare(self, state, item):
        """Untimed per-op preparation; its result is passed to run_op."""
        return None

    def work(self, result) -> int:
        """Work units an op completed, for throughput."""
        return 1

    def close(self, state) -> None:
        pass


# --- static-catalog -------------------------------------------------------

# (case, architecture, head, input HxWxC, classes)
STATIC_DOCS = tuple(
    (name, name, "classify", "224x224x3", 1000) for name in architectures.catalog_names()
) + ((DECODER, "DLA-34", "dense", "864x864x3", 19),)

REPORT_FIELDS = ("params", "fmas", "per_stage", "blocks", "agg_nodes", "max_root_fanin",
                 "max_block_to_output_hops", "per_stage_hda_depth")


class StaticCatalog(Workload):
    """One op is one document through the CLI: build, export-dot with
    blocks collapsed, check and report."""

    name = "static-catalog"
    work_unit = "documents"
    case_names = tuple(d[0] for d in STATIC_DOCS)
    uses = frozenset({
        "cli.main", "graphdoc.serialize", "graphdoc.parse", "graphdoc.to_dot",
        "ir.GraphBuilder.add", "ir.infer_node_shape", "ir.topo_order", "ir.validate",
        "ir.successors", "blocks.build_block", "aggregation.build_hda",
        "aggregation.build_ida", "aggregation.build_aggregation_node",
        "architectures.build_classifier", "architectures.build_dense_decoder",
        "analysis.infer_shapes", "analysis.cost_report", "analysis.structure_stats",
        "analysis.structural_violations"})

    def __init__(self, scratch_root: str):
        self.scratch_root = scratch_root

    def setup(self):
        os.makedirs(self.scratch_root, exist_ok=True)
        state = {"dir": tempfile.mkdtemp(dir=self.scratch_root, prefix="static-")}
        for c in range(len(self.case_names)):  # one warm-up pass per document
            self.run_op(state, (c, 0), None)
        return state

    def _argv(self, state, c: int) -> list[list[str]]:
        case, arch, head, shape, classes = STATIC_DOCS[c]
        path = os.path.join(state["dir"], "%s.json" % case)
        return [["build", arch, "--input", shape, "--classes", str(classes),
                 "--head", head, "-o", path],
                ["export-dot", path, "--collapse", "blocks"],
                ["check", path],
                ["report", path]]

    def run_op(self, state, item, prepared):
        outs = []
        for argv in self._argv(state, item[0]):
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            outs.append((code, out.getvalue()))
        return outs

    def observe(self, state, item, result) -> dict:
        (bc, _), (dc, dot), (cc, check_out), (rc, report_text) = result
        path = self._argv(state, item[0])[0][-1]
        with open(path, "rb") as fh:
            doc = fh.read()
        graph, metadata = graphdoc.parse(doc.decode())
        report = json.loads(report_text)
        return {
            "exit_codes": [bc, dc, cc, rc],
            "document": _sha(doc),
            "round_trip": graphdoc.serialize(graph, metadata).encode() == doc,
            "dot": _sha(dot.encode()),
            "check_output": check_out,
            "report": {k: report[k] for k in REPORT_FIELDS},
        }

    def close(self, state) -> None:
        shutil.rmtree(state["dir"], ignore_errors=True)


# --- toy executor cases ---------------------------------------------------

@dataclass
class ToyCase:
    graph: object
    hw: int
    dense: bool


def build_toy_case(name: str, hw: int) -> ToyCase:
    if name == DECODER:
        graph = architectures.build_toy_dense_decoder(
            "DLA-34", TOY_WIDTH_CAP, hw, num_classes=TOY_DECODER_CLASSES)
        return ToyCase(graph, hw, True)
    graph = architectures.build_toy_classifier(name, TOY_WIDTH_CAP, hw,
                                               num_classes=TOY_CLASSES)
    return ToyCase(graph, hw, False)


def _warm_up(case: ToyCase, params, x) -> None:
    executor.forward(case.graph, params, [x], executor.Mode.TRAIN, update_running=False)


def pixel_nll(probs: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean per-pixel negative log-likelihood of channelwise softmax
    scores shaped (N, K, H, W) and its gradient; labels are (N, H, W)."""
    n, _, h, w = probs.shape
    ni, hi, wi = np.indices((n, h, w))
    p = probs[ni, labels, hi, wi]
    loss = float(-np.mean(np.log(p)))
    gp = np.zeros_like(probs)
    gp[ni, labels, hi, wi] = -1.0 / (n * h * w * p)
    return loss, gp


# --- toy-train ------------------------------------------------------------

TRAIN_BATCH = 16
TRAIN_BATCHES_PER_CASE = 8
TRAIN_LR = 0.05

TOY_OPS = ("numerics.ops.conv_apply", "numerics.ops.conv_apply_adjoint",
           "numerics.ops.conv_weight_grad", "numerics.ops._im2col", "numerics.ops._col2im",
           "numerics.ops.batchnorm_train", "numerics.ops.batchnorm_train_grads",
           "numerics.ops.maxpool", "numerics.ops.maxpool_grad", "numerics.ops.linear_apply",
           "numerics.ops.linear_grads", "numerics.ops.softmax_channels",
           "numerics.ops.softmax_channels_grad", "numerics.ops.global_avg_pool",
           "numerics.ops.global_avg_pool_grad", "numerics.ops.bilinear_upsample_weight")

TOY_BUILDERS = ("ir.GraphBuilder.add", "ir.infer_node_shape", "blocks.build_block",
                "aggregation.build_hda", "aggregation.build_ida",
                "aggregation.build_aggregation_node", "architectures.build_classifier",
                "architectures.build_dense_decoder")


class ToyTrain(Workload):
    """One op is one training step from the case's initial parameters:
    forward (Train, running statistics updated), loss, backward, SGD."""

    name = "toy-train"
    work_unit = "steps"
    case_names = ALL_CASES
    variants = TRAIN_BATCHES_PER_CASE
    uses = frozenset(TOY_BUILDERS + TOY_OPS + (
        "ir.topo_order", "ir.successors", "numerics.executor.init_params",
        "numerics.executor.forward", "numerics.executor.backward",
        "numerics.executor.sgd_step", "numerics.executor.cross_entropy"))

    def setup(self):
        cases = []
        for index, name in enumerate(self.case_names):
            case = build_toy_case(name, 32 if name == DECODER else 16)
            params = executor.init_params(case.graph, index)
            batches = []
            for b in range(self.variants):
                rng = np.random.default_rng([index, b])
                x = rng.standard_normal((TRAIN_BATCH, 3, case.hw, case.hw))
                if case.dense:
                    labels = rng.integers(0, TOY_DECODER_CLASSES,
                                          (TRAIN_BATCH, case.hw // 2, case.hw // 2))
                else:
                    labels = rng.integers(0, TOY_CLASSES, TRAIN_BATCH)
                batches.append((x, labels))
            _warm_up(case, params, batches[0][0])
            cases.append((case, params, batches))
        return cases

    def prepare(self, state, item):
        return state[item[0]][1].copy()

    def run_op(self, state, item, params):
        case, _, batches = state[item[0]]
        x, labels = batches[item[1]]
        outputs, tape = executor.forward(case.graph, params, [x], executor.Mode.TRAIN,
                                         update_running=True)
        if case.dense:
            loss, gp = pixel_nll(outputs[0], labels)
        else:
            loss, gp = executor.cross_entropy(outputs[0], labels)
        grads, _ = executor.backward(case.graph, params, tape, [gp])
        executor.sgd_step(params, grads, TRAIN_LR)
        return outputs[0], loss, grads, params

    def observe(self, state, item, result) -> dict:
        output, loss, grads, params = result
        return {"output": digest_arrays([output]), "loss": float(loss).hex(),
                "grads": digest_named(grads), "params": digest_named(params.tensors)}


# --- toy-gradcheck --------------------------------------------------------

GRADCHECK_SAMPLES = 6

# (input extent, batch, init seed, data seed, check seed): the acceptance
# suite's pinned points, where the loss is smooth across the +/- epsilon
# windows, so every check passes.
GRADCHECK_POINTS = {
    "DLA-34": (16, 2, 7, 3, 1),
    "DLA-X-102": (16, 2, 1, 9, 1),
    "DLA-169": (16, 2, 11, 42, 1),
    DECODER: (32, 2, 8, 33, 5),
}


class ToyGradcheck(Workload):
    """One op is one grad_check call at batch 2 with a fixed sample count."""

    name = "toy-gradcheck"
    work_unit = "checked parameter samples"
    case_names = tuple(GRADCHECK_POINTS)
    uses = frozenset(TOY_BUILDERS + TOY_OPS + (
        "ir.topo_order", "ir.successors", "numerics.executor.init_params",
        "numerics.executor.forward", "numerics.executor.backward",
        "numerics.executor.grad_check"))

    def setup(self):
        cases = []
        for name, (hw, batch, init_seed, data_seed, check_seed) in GRADCHECK_POINTS.items():
            case = build_toy_case(name, hw)
            params = executor.init_params(case.graph, init_seed)
            x = np.random.default_rng(data_seed).standard_normal((batch, 3, hw, hw))
            _warm_up(case, params, x)
            cases.append((case, params, x, check_seed))
        return cases

    def run_op(self, state, item, prepared):
        case, params, x, check_seed = state[item[0]]
        return executor.grad_check(case.graph, params, x, epsilon=1e-5, tolerance=1e-4,
                                   sample=GRADCHECK_SAMPLES, seed=check_seed)

    def observe(self, state, item, result) -> dict:
        h = hashlib.sha256()
        for e in result.entries:
            h.update(repr((e.node_id, e.name, e.index, e.analytic.hex(), e.numeric.hex(),
                           e.rel_error.hex())).encode())
        return {"passed": result.passed, "entries": h.hexdigest(),
                "max_rel_error": result.max_rel_error.hex()}

    def work(self, result) -> int:
        return len(result.entries)


def make(name: str, scratch_root: str) -> Workload:
    if name == StaticCatalog.name:
        return StaticCatalog(scratch_root)
    return {ToyTrain.name: ToyTrain, ToyGradcheck.name: ToyGradcheck}[name]()
