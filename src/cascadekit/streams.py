"""Counter-based random streams for reproducible sign generation.

Every tree node owns one 64-bit uniform word, derived by hashing
(seed, node index) with a SplitMix64-style mixer.  Because the draw is a
pure function of the node's absolute index, any subtree can be
regenerated bit-identically without replaying the rest of the tree, and
level generation can be chunked or parallelized in any order.

Stream layout (fixed; part of the reproducibility contract):

  * nodes of the b-ary tree are numbered breadth-first starting at the
    first child generation: level L >= 1, in-level index j in [0, b^L)
    maps to  node_index = (b^L - b) // (b - 1) + j
  * the per-node word is  mix64(premix(seed) + (node_index + 1) * GOLDEN)
  * a node's sign is -1 iff its word is >= round(p_plus * 2^64)

Changing any of these constants changes every field drawn from a given
seed, so they are frozen here rather than configurable.

Hashing runs in the calling thread, one worker.  Since a word depends
only on its node index, a window's blocks could be hashed on several
threads with the same bits, and on a 2-vCPU host a 2^24-word run split
between two threads took 0.62-0.70 of one thread's time.  A whole
``simulate`` gained nothing from it, though: medians of 0.196 s with one
thread and 0.201 s with two (two faster in 9 of 16 rounds), while the
``paths`` benchmark's peak RSS rose from 80.7 to 83.6-83.9 MiB.  The
ufuncs are bound by memory bandwidth, and the second vCPU adds little
to it: two hashing processes side by side each took 2.4 times as long
as one alone (120 ms against 49.8 ms).  Pipelining the next depth's
hashing behind ``simulate``'s writers saved 0-3 %.
"""

from __future__ import annotations

import numpy as np

GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

#: 2^64 as a Python int, for threshold and counter arithmetic done
#: outside uint64.
_TWO64 = 1 << 64

#: Words hashed per block in :func:`sign_bits`: the block's three uint64
#: buffers (1.5 MiB) and its bool block stay in a 2 MiB L2 cache.  A
#: multiple of 8, so every block packs into whole bytes.
_BLOCK = 2**16


def _mix64_inplace(z: np.ndarray, tmp: np.ndarray) -> None:
    """SplitMix64 finalizer applied to ``z`` in place; ``tmp`` is scratch of
    the same shape."""
    np.right_shift(z, np.uint64(30), out=tmp)
    z ^= tmp
    z *= _MIX1
    np.right_shift(z, np.uint64(27), out=tmp)
    z ^= tmp
    z *= _MIX2
    np.right_shift(z, np.uint64(31), out=tmp)
    z ^= tmp


def mix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer applied elementwise to a uint64 array."""
    z = x.copy()
    _mix64_inplace(z, np.empty_like(z))
    return z


def premix_seed(seed: int) -> np.uint64:
    """Scramble the user seed once so nearby seeds give unrelated streams."""
    s = np.array([seed & (_TWO64 - 1)], dtype=np.uint64)
    s += GOLDEN  # array add: wraps mod 2^64 without the scalar warning
    return mix64(s)[0]


def node_words(seed_state: np.uint64, node_index: np.ndarray) -> np.ndarray:
    """Uniform 64-bit words for the given absolute node indices.

    ``seed_state`` must come from :func:`premix_seed`; ``node_index`` is a
    uint64 array.  Vectorized; allocates the result and one scratch array
    of the same size.
    """
    z = node_index + np.uint64(1)
    z *= GOLDEN
    z += seed_state
    _mix64_inplace(z, np.empty_like(z))
    return z


def level_offset(base: int, level: int) -> int:
    """Absolute index of the first node at ``level`` (level >= 1)."""
    return (base**level - base) // (base - 1)


def sign_threshold(p_plus: float) -> int:
    """Integer T such that a word u encodes +1 iff u < T.

    Returned as a Python int because p_plus = 1 needs T = 2^64, which
    does not fit in uint64.
    """
    if p_plus >= 1.0:
        return _TWO64
    if p_plus <= 0.0:
        return 0
    return int(round(p_plus * _TWO64))


def sign_bits(seed_state: np.uint64, base: int, level: int, start: int,
              count: int, threshold: int, *, out: np.ndarray) -> np.ndarray:
    """Packed sign bits of a contiguous run of level nodes, into ``out``.

    ``start`` is the in-level index of the first node; ``threshold``
    comes from :func:`sign_threshold`.  ``out`` must be a 1-D uint8
    array of (count + 7) // 8 bytes, which is filled and returned: bit k
    of the run, in numpy packbits order, is 1 when node start + k has
    sign -1 (its :func:`node_words` word is at least ``threshold``), and
    the padding bits past the run are 0.  A wrong buffer raises
    ``ValueError`` before anything is hashed.

    The run is hashed in blocks of ``_BLOCK`` words that reuse the same
    cache-resident buffers, so the scratch memory is bounded whatever
    ``count`` is; each block is thresholded into a reused bool block and
    packed into its ``_BLOCK // 8`` bytes of ``out``.
    """
    if out.dtype != np.uint8 or out.shape != ((count + 7) // 8,):
        raise ValueError(f"out must be a uint8 array of shape "
                         f"({(count + 7) // 8},), got {out.dtype} {out.shape}")
    if threshold >= _TWO64:
        out[...] = 0
        return out
    size = min(count, _BLOCK)
    # (i + 1) * GOLDEN + seed_state for consecutive node indices i is an
    # arithmetic progression mod 2^64: each block adds its first counter,
    # computed as a Python int, to one per-call ladder of multiples.
    ladder = np.arange(size, dtype=np.uint64)
    ladder *= GOLDEN
    z = np.empty(size, dtype=np.uint64)
    tmp = np.empty(size, dtype=np.uint64)
    minus = np.empty(size, dtype=np.bool_)
    limit = np.uint64(threshold)
    first = level_offset(base, level) + start + 1
    for lo in range(0, count, _BLOCK):
        n = min(_BLOCK, count - lo)
        ctr = ((first + lo) * int(GOLDEN) + int(seed_state)) % _TWO64
        np.add(ladder[:n], np.uint64(ctr), out=z[:n])
        _mix64_inplace(z[:n], tmp[:n])
        np.greater_equal(z[:n], limit, out=minus[:n])
        out[lo // 8:(lo + n + 7) // 8] = np.packbits(minus[:n])
    return out
