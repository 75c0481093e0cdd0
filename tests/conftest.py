import dataclasses

import numpy as np

from dlagraph import graphdoc, ir
from dlagraph.ir import GraphBuilder
from dlagraph.numerics import executor


def graph_to_document(graph, metadata=None):
    """The document of ``graph`` as plain JSON values: the reference that
    ``graphdoc.serialize``'s bytes are pinned to through ``json.dumps``."""
    return {
        "format_version": graphdoc.FORMAT_VERSION,
        "metadata": dict(metadata or {}),
        "inputs": list(graph.inputs),
        "outputs": list(graph.outputs),
        "nodes": [{"id": node.id, "kind": node.op.kind.value, "attrs": dict(node.op.attrs),
                   "inputs": list(node.inputs),
                   "tags": {key: getattr(node.tags, key)
                            for key in ("stage", "block_id", "agg_node_id")
                            if getattr(node.tags, key) is not None}}
                  for node in graph.nodes],
    }


def naive_conv2d(x, w, bias, stride, padding, groups):
    """Direct-loop convolution oracle, independent of the im2col path."""
    n, cin, h, wd = x.shape
    oc, icg, k, _ = w.shape
    oh = (h + 2 * padding - k) // stride + 1
    ow = (wd + 2 * padding - k) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.zeros((n, oc, oh, ow))
    ocg = oc // groups
    for b in range(n):
        for o in range(oc):
            g = o // ocg
            for i in range(oh):
                for j in range(ow):
                    acc = 0.0
                    for ci in range(icg):
                        c = g * icg + ci
                        for ki in range(k):
                            for kj in range(k):
                                acc += xp[b, c, i * stride + ki, j * stride + kj] \
                                    * w[o, ci, ki, kj]
                    out[b, o, i, j] = acc
            if bias is not None:
                out[b, o] += bias[o]
    return out


def kept_bits(kept):
    """A tape value or a kernel's kept as comparable bits: every array by
    its shape, dtype and bytes, every sequence by its type and items."""
    if isinstance(kept, np.ndarray):
        return kept.shape, kept.dtype.str, kept.tobytes()
    if isinstance(kept, (tuple, list)):
        return type(kept).__name__, [kept_bits(k) for k in kept]
    return kept


def reference_forward(graph, params, inputs, mode, update_running):
    """A forward as its own loop over the executor's plan, the reference
    for the walk that makes every tape: each node runs once over the batch
    and tapes its kernel's kept, and each value the plan does not keep goes
    after its last reader."""
    values = executor._input_values(graph, inputs)
    aux = {}
    plan = executor._plan(graph)
    for nid, kernels, attrs, node_inputs, frees in plan.steps:
        values[nid], kept = kernels.forward(attrs, params.tensors.get(nid),
                                            [values[i] for i in node_inputs],
                                            mode, update_running, 1)
        if kept is not None:
            aux[nid] = kept
        for i in frees:
            if i not in plan.keep:
                del values[i]
    return [values[o] for o in graph.outputs], executor.Tape(graph, mode, values, aux)


# --- random single-Input graphs over every op kind ---------------------------

# The seeds of ``random_graph`` that the serialize and executor tests share.
RANDOM_GRAPH_SEEDS = range(40)
# Characters that json escapes, or spells as a surrogate pair, or passes through.
ALPHABET = ("a", "Z", "0", " ", '"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f", "\u00e9",
            "\u2028", "\ufeff", "\u65e5", "\U0001f600", "\ud800")
# Tag ids and batch-norm epsilons a document can carry; 1 and 1.0 render apart.
TAG_INTS = (0, 1, -7, 2 ** 70)
EPSILONS = (1, 1.0, 2, 0.5, 1e-05, 1e300)


def random_string(rng):
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randrange(5)))


def random_tags(rng):
    """Valid tags: each None or an int up to 2**70, and the stage also a
    string with escapes and non-ASCII."""
    stage = rng.choice((None, rng.choice(TAG_INTS), random_string(rng)))
    return ir.Tags(stage, rng.choice((None,) + TAG_INTS), rng.choice((None,) + TAG_INTS))


def random_op(rng, kind, shapes):
    """An op of ``kind`` applied to the last node, and its inputs, which fit
    the node ``shapes`` so far; Concat and Add draw further operands among
    the earlier nodes that fit. Linear needs a 1x1 extent."""
    x, s = len(shapes) - 1, shapes[-1]
    c = s.channels
    if kind is ir.OpKind.CONV:
        k, groups = rng.choice((1, 3)), rng.choice([g for g in (1, 2, 3) if c % g == 0])
        return ir.conv(k, rng.choice((1, 2)), k // 2, c, groups * rng.randrange(1, 3), groups,
                       rng.choice((True, False))), [x]
    if kind is ir.OpKind.BATCH_NORM:
        return ir.batch_norm(c, rng.choice(EPSILONS)), [x]
    if kind is ir.OpKind.MAX_POOL:
        kernel = rng.choice([k for k in (1, 2, 3) if k <= min(s.spatial)])
        return ir.max_pool(kernel, rng.choice((1, 2)), rng.choice((True, False))), [x]
    if kind is ir.OpKind.LINEAR:
        return ir.linear(c, rng.randrange(1, 4), rng.choice((True, False))), [x]
    if kind is ir.OpKind.CONCAT:
        fits = [i for i, t in enumerate(shapes) if t.spatial == s.spatial]
        return ir.concat(), [x] + rng.choices(fits, k=rng.randrange(1, 3))
    if kind is ir.OpKind.ADD:
        return ir.add(), [x, rng.choice([i for i, t in enumerate(shapes) if t == s])]
    if kind is ir.OpKind.UPSAMPLE:
        return ir.upsample(2, rng.choice(list(ir.UpsampleMode)), c), [x]
    return {ir.OpKind.RELU: ir.relu, ir.OpKind.GLOBAL_AVG_POOL: ir.global_avg_pool,
            ir.OpKind.SOFTMAX: ir.softmax}[kind](), [x]


def random_graph(rng):
    """A single-Input graph over every op kind, in random order with random
    repeats, whose nodes carry random valid tags (the Output nodes none)."""
    b = GraphBuilder()
    shapes = []
    tags = []

    def add(op, inputs):
        shapes.append(ir.infer_node_shape(op, [shapes[i] for i in inputs]))
        tags.append(random_tags(rng))
        return b.add(op, inputs)

    add(ir.input_op(rng.randrange(1, 4), 8, 8), [])
    kinds = [k for k in ir.OpKind if k not in (ir.OpKind.INPUT, ir.OpKind.OUTPUT)]
    kinds += rng.choices(kinds, k=rng.randrange(6))
    rng.shuffle(kinds)
    for kind in kinds:
        if kind is ir.OpKind.LINEAR and shapes[-1].spatial != (1, 1):
            add(ir.global_avg_pool(), [len(shapes) - 1])
        add(*random_op(rng, kind, shapes))
    for nid in {len(shapes) - 1, rng.randrange(len(shapes))}:
        b.mark_output(nid)
    g = b.build()
    # a builder's scopes hand out dense ids; a document may hold any int
    nodes = [dataclasses.replace(n, tags=t) for n, t in zip(g.nodes, tags)]
    return ir.Graph((*nodes, *g.nodes[len(tags):]), g.inputs, g.outputs)
