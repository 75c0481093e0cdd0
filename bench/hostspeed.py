"""Host speed, measured with a fixed reference work that is not dlagraph.

The shared host's speed drifts by 15-20% over minutes, and it moves every
kind of work the program does. So the worker runs this reference work at
even points of its timed loop, off the loop's clock, and scales its
end-to-end times by REFERENCE_NS over the reference work's mean time in
that run. The reference work is the three kinds of work the program does:
pure-Python dict and str work (the builders, graphdoc, the executor's
dispatch), numpy ops on small arrays (batch-2 kernels) and a
64x576 @ 576x128 matmul (im2col convolutions). It imports nothing from
dlagraph, so no change to the program can move it.
"""

import time

import numpy as np

# A round figure near the reference work's mean time, in ns, on the host
# refs.json was recorded on (Intel Xeon with AVX-512, OpenBLAS on one
# thread). Scaled times read as if every run had seen the host at that
# speed.
REFERENCE_NS = 6.5e6

_RNG = np.random.default_rng(0)
_A = _RNG.standard_normal((64, 576))
_B = _RNG.standard_normal((576, 128))
_SMALL = _RNG.standard_normal((2, 8, 6, 6))


def _python() -> int:
    table = {}
    acc = 0
    for i in range(6000):
        k = i % 101
        table[k] = table.get(k, 0) + i
        acc += len(str(k))
    return acc


def _small_arrays() -> np.ndarray:
    x = _SMALL
    for _ in range(150):
        x = np.maximum(x * 0.5 + 0.1, 0.0)
        x = x - x.mean(axis=(0, 2, 3), keepdims=True)
    return x


def _matmul() -> np.ndarray:
    y = None
    for _ in range(6):
        y = _A @ _B
    return y


KERNELS = (_python, _small_arrays, _matmul)


def sample() -> int:
    """One timing of the reference work, in ns. Each kernel runs once
    untimed first, so that caches the program's op left cold are warm."""
    total = 0
    for kernel in KERNELS:
        kernel()
        t0 = time.perf_counter_ns()
        kernel()
        total += time.perf_counter_ns() - t0
    return total
