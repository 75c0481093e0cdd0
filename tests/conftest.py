import numpy as np

from dlagraph.numerics import executor


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
