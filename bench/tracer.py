"""Spans around calls into the package's public functions, recorded from
outside the package.

A wrapper replaces each traced function at every place it is looked up:
its defining module, every ``dlagraph`` module that imported the name,
and the class attribute for methods. Spans are (name, start, end, parent)
kept in memory; after each op they are folded into per-function totals
of calls, self time and work, where self time is the span's duration
minus the time its child spans cover. The time a wrapper spends counting
work is charged to no span.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

# Raw spans written out per run: the first ops' spans, up to this many.
KEEP_SPANS = 50000

LAYERS = ("cli", "graphdoc", "ir", "blocks", "aggregation", "architectures", "analysis",
          "numerics.executor", "numerics.ops")

TARGETS = (
    "cli.main",
    "graphdoc.serialize", "graphdoc.parse", "graphdoc.to_dot",
    "ir.GraphBuilder.add", "ir.infer_node_shape", "ir.topo_order", "ir.validate",
    "ir.successors",
    "blocks.build_block",
    "aggregation.build_hda", "aggregation.build_ida", "aggregation.build_aggregation_node",
    "architectures.build_classifier", "architectures.build_dense_decoder",
    "analysis.infer_shapes", "analysis.cost_report", "analysis.structure_stats",
    "analysis.structural_violations",
    "numerics.executor.init_params", "numerics.executor.forward",
    "numerics.executor.backward", "numerics.executor.grad_check",
    "numerics.executor.sgd_step", "numerics.executor.cross_entropy",
    "numerics.ops.conv_apply", "numerics.ops.conv_apply_adjoint",
    "numerics.ops.conv_weight_grad", "numerics.ops._im2col", "numerics.ops._col2im",
    "numerics.ops.batchnorm_train", "numerics.ops.batchnorm_train_grads",
    "numerics.ops.maxpool", "numerics.ops.maxpool_grad", "numerics.ops.linear_apply",
    "numerics.ops.linear_grads", "numerics.ops.softmax_channels",
    "numerics.ops.softmax_channels_grad", "numerics.ops.global_avg_pool",
    "numerics.ops.global_avg_pool_grad", "numerics.ops.bilinear_upsample_weight",
)


def layer_of(label: str) -> str:
    return max((layer for layer in LAYERS if label.startswith(layer + ".")), key=len)


def _split(label: str) -> tuple[str, str]:
    """'ir.GraphBuilder.add' -> ('dlagraph.ir', 'GraphBuilder.add')."""
    layer = layer_of(label)
    return "dlagraph." + layer, label[len(layer) + 1:]


def _nbytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(o) for o in obj)
    return 0


def _conv_fmas(out_shape, w_shape) -> int:
    n, oc, oh, ow = out_shape
    _, icg, kh, kw = w_shape
    return n * oc * oh * ow * icg * kh * kw


def _weight_grad_fmas(args, kwargs, result) -> int:
    z, x = args[0], args[1]
    groups = args[5]
    return _conv_fmas(z.shape, (None, x.shape[1] // groups, args[2], args[2]))


def _tape_bytes(args, kwargs, result) -> int:
    tape = result[1]
    return _nbytes(list(tape.values.values())) + _nbytes(list(tape.aux.values()))


# Work counted per call, from arguments and results: bytes of documents,
# graph nodes, convolution FMAs, column-tensor bytes and tape bytes.
WORK = {
    "graphdoc.serialize": lambda a, k, r: len(r),
    "graphdoc.parse": lambda a, k, r: len(a[0]),
    "ir.topo_order": lambda a, k, r: len(a[0]),
    "ir.validate": lambda a, k, r: len(a[0]),
    "numerics.ops.conv_apply": lambda a, k, r: _conv_fmas(r.shape, a[1].shape),
    "numerics.ops.conv_apply_adjoint": lambda a, k, r: _conv_fmas(a[0].shape, a[1].shape),
    "numerics.ops.conv_weight_grad": _weight_grad_fmas,
    "numerics.ops._im2col": lambda a, k, r: r.nbytes,
    "numerics.ops._col2im": lambda a, k, r: a[0].nbytes,
    "numerics.executor.forward": _tape_bytes,
}


class Tracer:
    """Installs wrappers, records spans while ``active`` and folds them."""

    def __init__(self):
        self.active = False
        self.spans: list = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.totals = {label: [0, 0, 0] for label in TARGETS}  # calls, self ns, work
        self.kept: list = []
        self._keep_budget = KEEP_SPANS

    def _wrap(self, label: str, fn):
        spans, stack, count = self.spans, self._stack, WORK.get(label)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[index] = (label, start, end, end, parent, 0)
            if count is not None:
                work = count(args, kwargs, result)
                spans[index] = (label, start, end, time.perf_counter_ns(), parent, work)
            return result

        return traced

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "dlagraph" or name.startswith("dlagraph."))]
        for label in TARGETS:
            module_name, path = _split(label)
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(label, original)
            sites = [(owner, attr)] if outer else [
                (m, name) for m in modules for name, value in vars(m).items()
                if value is original]
            for site, name in sites:
                self._patched.append((site, name, original))
                setattr(site, name, wrapper)

    def uninstall(self) -> None:
        for site, name, original in reversed(self._patched):
            setattr(site, name, original)
        self._patched.clear()

    def fold(self, tag) -> None:
        """Fold the spans recorded since the last fold into the totals."""
        spans = self.spans
        if len(spans) <= self._keep_budget:
            self.kept.append((tag, list(spans)))
            self._keep_budget -= len(spans)
        covered = [0] * len(spans)
        for label, start, end, done, parent, work in spans:
            if parent >= 0:
                covered[parent] += done - start
        for i, (label, start, end, done, parent, work) in enumerate(spans):
            total = self.totals[label]
            total[0] += 1
            total[1] += end - start - covered[i]
            total[2] += work
        spans.clear()

    def reset(self) -> None:
        for total in self.totals.values():
            total[:] = [0, 0, 0]
