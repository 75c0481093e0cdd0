"""Command-line front end.

Exit codes: 0 ok, 1 check or gradient failure, 2 bad argument (an
unwritable output path included), 3 bad input shape, 4 parse error (a
document whose own shapes conflict, or that holds more than one Input node,
included), 141 stdout closed by its reader (the status of a process that
SIGPIPE ends).
Machine-readable output goes to stdout, diagnostics to stderr. Output
files are written atomically.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .analysis import cost_report, structural_violations, structure_stats
from .architectures import (DenseHeadSpec, IndivisibleInput, UnknownArchitecture,
                            arch_spec, build_classifier, build_dense_decoder,
                            build_toy_classifier, build_toy_dense_decoder, catalog_names)
from .graphdoc import ParseError, parse, serialize, to_dot
from .ir import Graph, ShapeConflict, TensorShape, infer_node_shape, validate
from .numerics import grad_check, init_params

FMA_CONVENTION = ("fused multiply-adds of convolution, linear, and learned "
                  "upsampling layers at batch size 1; normalization, "
                  "activations, pooling, and concatenation count zero")


def _diag(message: str) -> None:
    print("dlagraph: %s" % message, file=sys.stderr)


def _parse_hwc(text: str) -> TensorShape:
    parts = text.lower().split("x")
    if len(parts) != 3:
        raise ValueError("expected HxWxC, got %r" % text)
    h, w, c = (int(p) for p in parts)
    return TensorShape(c, h, w)


def _atomic_write(path: str, text: str) -> None:
    """Write through a temp file beside the target, then rename it into
    place. A path that cannot be written is a bad argument (ValueError)."""
    if os.path.isdir(path):
        raise ValueError("cannot write %s: it is a directory" % path)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                   prefix=".dlagraph-", suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise ValueError("cannot write %s: %s" % (path, exc.strerror or exc)) from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _read_document(path: str) -> Graph:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc)) from None
    except UnicodeDecodeError as exc:
        raise ParseError("%s is not UTF-8 text: %s" % (path, exc)) from None
    return parse(text)[0]


def cmd_build(args: argparse.Namespace) -> int:
    spec = arch_spec(args.arch)
    shape = _parse_hwc(args.input)
    if args.head == "classify":
        graph = build_classifier(spec, args.classes, shape)
    else:
        graph = build_dense_decoder(spec, DenseHeadSpec(num_classes=args.classes), shape)
    metadata = {
        "arch_name": spec.name,
        "input_shape": args.input,
        "generator_version": __version__,
        "head": args.head,
        "num_classes": args.classes,
    }
    _atomic_write(args.output, serialize(graph, metadata))
    _diag("wrote %s (%d nodes)" % (args.output, len(graph)))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    graph = _read_document(args.graph)
    # the --input override, else the Input node's extents, never the metadata
    shape = (infer_node_shape(graph.node(graph.inputs[0]).op, []) if args.input is None
             else _parse_hwc(args.input))
    try:
        costs = cost_report(graph, shape)
    except ShapeConflict as exc:  # a parsed document fits its declared extents
        raise IndivisibleInput("--input %s does not fit the document: %s"
                               % (args.input, exc)) from None
    stats = structure_stats(graph)
    payload = {
        "params": costs.params,
        "fmas": costs.fmas,
        "per_stage": {k: {"params": v.params, "fmas": v.fmas}
                      for k, v in costs.per_stage.items()},
        "input_shape": "%dx%dx%d" % (shape.height, shape.width, shape.channels),
        "fma_convention": FMA_CONVENTION,
        "blocks": stats.blocks,
        "agg_nodes": stats.agg_nodes,
        "max_root_fanin": stats.max_root_fanin,
        "max_block_to_output_hops": stats.max_block_to_output_hops,
        "per_stage_hda_depth": {str(k): v for k, v in stats.per_stage_depth.items()},
    }
    print(json.dumps(payload, sort_keys=True, indent=2))
    return 0


def cmd_export_dot(args: argparse.Namespace) -> int:
    graph = _read_document(args.graph)
    sys.stdout.write(to_dot(graph, collapse=args.collapse))
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    graph = _read_document(args.graph)
    problems = validate(graph) or structural_violations(graph)
    for line in problems:
        print(line)
    if problems:
        _diag("%d violation(s)" % len(problems))
        return 1
    _diag("ok")
    return 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    for flag, value, least in (("--samples", args.samples, 1), ("--batch", args.batch, 1),
                               ("--seed", args.seed, 0)):
        if value < least:
            raise ValueError("%s must be >= %d, got %d" % (flag, least, value))
    if not 0.0 < args.epsilon < math.inf:
        raise ValueError("--epsilon must be finite and > 0, got %r" % args.epsilon)
    if not 0.0 <= args.tol < math.inf:
        raise ValueError("--tol must be finite and >= 0, got %r" % args.tol)
    if args.head == "classify":
        graph = build_toy_classifier(args.arch, args.width_cap, args.input,
                                     num_classes=args.classes)
    else:
        graph = build_toy_dense_decoder(args.arch, args.width_cap, args.input,
                                        num_classes=args.classes)
    # One seed drives three independent streams: parameter init, the input
    # draw, and the check's sampling/contraction.
    init_seed, data_seed, check_seed = (
        int(v) for v in np.random.default_rng(args.seed).integers(0, 2 ** 31, 3))
    # An overflow or NaN shows in the report, so numpy's warnings are muted.
    with np.errstate(all="ignore"):
        params = init_params(graph, init_seed)
        x = np.random.default_rng(data_seed).standard_normal(
            (args.batch, 3, args.input, args.input))
        report = grad_check(graph, params, x, epsilon=args.epsilon, tolerance=args.tol,
                            sample=args.samples, seed=check_seed,
                            corrupt_backward=args.debug_corrupt_backward)
    payload = {"architecture": args.arch, "width_cap": args.width_cap,
               "input_hw": args.input, "head": args.head, "seed": args.seed,
               "batch": args.batch}
    payload.update(report.to_json_dict())
    print(json.dumps(payload, sort_keys=True, indent=2, allow_nan=False))
    return 0 if report.passed else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process. ``parse_args`` fills a new Namespace on
    every call and looks up sys.stdout/sys.stderr only when it prints, so
    sequential ``main`` calls stay independent."""
    parser = argparse.ArgumentParser(
        prog="dlagraph",
        description="Build, analyze, export, check, and gradient-verify deep "
                    "layer aggregation networks.",
        epilog="architectures: %s" % ", ".join(catalog_names()),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="materialize an architecture as a graph document")
    p.add_argument("arch")
    p.add_argument("--input", default="224x224x3", help="input extents as HxWxC")
    p.add_argument("--classes", type=int, default=1000)
    p.add_argument("--head", choices=("classify", "dense"), default="classify")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("report", help="parameter/FMA accounting and structure stats")
    p.add_argument("graph")
    p.add_argument("--input", default=None,
                   help="HxWxC in place of the extents the Input node declares")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("export-dot", help="render a graph document as DOT")
    p.add_argument("graph")
    p.add_argument("--collapse", choices=("none", "blocks"), default="none")
    p.set_defaults(func=cmd_export_dot)

    p = sub.add_parser("check", help="validate a document and its structural claims")
    p.add_argument("graph")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification "
                                         "of a width-capped toy variant")
    p.add_argument("arch")
    p.add_argument("--width-cap", type=int, default=16)
    p.add_argument("--input", type=int, default=16)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--epsilon", type=float, default=1e-5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--classes", type=int, default=10)
    p.add_argument("--batch", type=int, default=2)
    p.add_argument("--head", choices=("classify", "dense"), default="classify")
    p.add_argument("--debug-corrupt-backward", action="store_true",
                   help="flip one analytic gradient to prove the check can fail")
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows on buffered output only here
        return code
    except BrokenPipeError:
        # The reader closed stdout (as `| head` does). Point stdout at
        # devnull so that the flush at interpreter exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except UnknownArchitecture as exc:
        _diag(str(exc))
        return 2
    except ValueError as exc:
        _diag(str(exc))
        return 2
    except IndivisibleInput as exc:
        _diag(str(exc))
        return 3
    except ParseError as exc:
        _diag(str(exc))
        return 4


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
