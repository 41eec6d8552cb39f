"""Signed b-adic multiplicative cascades: sign fields, paths, samplers.

The construction lives on the b-ary tree over [0, 1].  Every node w of
generation L carries an independent sign eps(w) in {-1, +1} with

    P(eps = +1) = p_plus = (1 + b^(H-1)) / 2,

where H <= 1 is the roughness parameter.  The branch product sign(w) is
the product of eps along the path from the root to w.  The depth-n path
is the normalized correlated random walk

    B_n(k / b^n) = b^(-n*H) * sum_{j < k} sign(w_j),

linearly interpolated between grid points; its terminal value
Z_n = B_n(1) is the total cascade mass and is a martingale in n.

Four regimes are distinguished by H:

  * convergent (1/2 < H <= 1): B_n converges a.s. and in L^q,
  * critical   (H = 1/2):      B_n / (sigma sqrt(n)) has Brownian limits,
  * divergent  (H < 1/2):      B_n / (sigma b^(n(1/2-H))) has Brownian limits,
  * symmetric  (fair signs):   the H -> -infinity limit, p_plus = 1/2;
    raw paths keep unit increments (no b^(-n*H) factor is meaningful).

This module generates sign fields reproducibly, assembles paths, applies
the regime normalizations, checks the structural identities of the
construction, and draws the terminal mass directly (without paths) for
Monte-Carlo use.

The count-chain samplers split their replicas into fixed chunks of
8,192, each drawing from its own PCG64 stream keyed by (seed, domain,
chunk index).  The chunks of the count chain run on up to
min(usable CPUs, 4) threads (with one they run inline): each chunk's
binomial draws release the interpreter lock for milliseconds at a time,
so the threads overlap.  A chunk's draws depend only on its own stream
and it writes only its own slice of the output, so the samples are the
same bits for any number of threads and any completion order.
"""

from __future__ import annotations

import concurrent.futures
import enum
import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import streams

#: Emission/decimation threshold: paths with more grid cells than this
#: are decimated by an integer stride (values stay exact, never resampled).
DEFAULT_MAX_POINTS = 2**16

#: Memory guard for sign-field generation, which peaks at b^(n-1) / 8 +
#: b^n / 8 packed bytes plus about 1.58 MiB of hashing blocks (25.6 MiB
#: at b = 2, depth 27); the fractal pass then reads the packed field
#: slice by slice.
DEFAULT_MAX_LEAVES = 2**27

#: Leaf chunk size for level expansion at deep levels.
_CHUNK = 2**22

#: Relative roundoff :func:`verify_self_similarity` allows its identity.
_SELF_SIMILARITY_TOL = 1e-10

#: Leaves per slice that :func:`build_path` copies into its result.
_SLICE = 2**16

#: _RUNNING[v, r]: the sum of the signs of leaves 0..r of a packed byte
#: v, bit 1 meaning -1, in packbits order.
_RUNNING = np.cumsum(1.0 - 2.0 * np.unpackbits(
    np.arange(256, dtype=np.uint8)[:, None], axis=1), axis=1)

#: Domain tags keeping independent sampler purposes on disjoint streams.
_DOMAIN_TERMINAL = 0x7E51
_DOMAIN_BRANCH = 0x55B7

#: Replica chunk of the samplers; part of the determinism contract
#: (changing it reshuffles draws, though not their law).
_TERMINAL_CHUNK = 8192

#: Upper bound on the sampler's default thread count: 10^5 replicas are
#: only 13 chunks, so more threads add start-up cost for little overlap.
_MAX_WORKERS = 4


class CapacityError(RuntimeError):
    """A requested size exceeds the configured desk-scale budget."""


class Regime(enum.Enum):
    CONVERGENT = "convergent"
    CRITICAL = "critical"
    DIVERGENT = "divergent"
    SYMMETRIC = "symmetric"


class PathKind(enum.Enum):
    RAW = "raw"
    NORMALIZED_X = "normalized_x"
    NORMALIZED_TILDE = "normalized_tilde"


@dataclass(frozen=True)
class CascadeParams:
    """Construction parameters: branching base, roughness H, RNG seed.

    ``hurst=None`` selects the symmetric case (fair signs); finite values
    must satisfy hurst <= 1.  ``seed`` is a 64-bit unsigned integer.
    """

    base: int = 2
    hurst: float | None = 0.7
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.base, int) or self.base < 2:
            raise ValueError(f"base must be an integer >= 2, got {self.base!r}")
        if self.hurst is not None:
            h = float(self.hurst)
            if math.isnan(h) or math.isinf(h):
                raise ValueError("hurst must be finite or None (symmetric)")
            if h > 1.0:
                raise ValueError(f"hurst must be <= 1, got {h}")
            object.__setattr__(self, "hurst", h)
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")

    @classmethod
    def symmetric(cls, base: int = 2, seed: int = 0) -> "CascadeParams":
        return cls(base=base, hurst=None, seed=seed)

    @property
    def is_symmetric(self) -> bool:
        return self.hurst is None

    @property
    def p_plus(self) -> float:
        if self.hurst is None:
            return 0.5
        return (1.0 + float(self.base) ** (self.hurst - 1.0)) / 2.0

    @property
    def p_minus(self) -> float:
        return 1.0 - self.p_plus

    @property
    def eps_mean(self) -> float:
        """E(eps) = b^(H-1); zero in the symmetric case."""
        if self.hurst is None:
            return 0.0
        return float(self.base) ** (self.hurst - 1.0)

    def weight_scale(self, depth: int) -> float:
        """b^(-depth*H), the magnitude of one depth-``depth`` increment.

        Computed once per depth from a single power call so every
        increment of a path shares the identical float.  Symmetric paths
        keep unit increments.
        """
        if self.hurst is None:
            return 1.0
        return float(self.base) ** (-(depth * self.hurst))


def regime_of(params: CascadeParams) -> Regime:
    """Classify params into the four phases of the construction."""
    if params.hurst is None:
        return Regime.SYMMETRIC
    if params.hurst > 0.5:
        return Regime.CONVERGENT
    if params.hurst == 0.5:
        return Regime.CRITICAL
    return Regime.DIVERGENT


def hurst_tag(hurst: float | None) -> str:
    """H as file names and diagnostics print it: ``sym`` or ``%g``."""
    return "sym" if hurst is None else f"{hurst:g}"


def require_regime(params: CascadeParams, what: str, *, convergent: bool,
                   below_one: bool = False, why: str = "") -> None:
    """Raise ``ValueError`` unless ``params`` lie where ``what`` is valid.

    Each tool is valid on one side of H = 1/2: ``convergent=True`` admits
    1/2 < H <= 1 (1/2 < H < 1 with ``below_one``), ``convergent=False``
    admits H <= 1/2 and the symmetric case.  The message reads "<what>
    requires <restriction> (<why>); got H = <tag> (<regime> regime)".
    """
    reg = regime_of(params)
    if convergent:
        ok = reg is Regime.CONVERGENT and (params.hurst < 1 or not below_one)
        top = "< 1" if below_one else "<= 1"
        restriction = f"the convergent regime 1/2 < H {top}"
    else:
        ok = reg is not Regime.CONVERGENT
        restriction = "H <= 1/2 or the symmetric case"
    if not ok:
        because = f" ({why})" if why else ""
        raise ValueError(f"{what} requires {restriction}{because}; got H = "
                         f"{hurst_tag(params.hurst)} ({reg.value} regime)")


def sigma(params: CascadeParams) -> float:
    """Regime normalization constant for paths and terminal masses.

    convergent: sigma_H = sqrt((b-1) / (b - b^(2-2H)))
    critical:   sqrt(1 - 1/b)
    divergent:  sqrt(1 + (b-1) / (b^(2-2H) - b))
    symmetric:  1
    """
    b = float(params.base)
    reg = regime_of(params)
    if reg is Regime.SYMMETRIC:
        return 1.0
    h = params.hurst
    if reg is Regime.CRITICAL:
        return math.sqrt(1.0 - 1.0 / b)
    if reg is Regime.CONVERGENT:
        return math.sqrt((b - 1.0) / (b - b ** (2.0 - 2.0 * h)))
    return math.sqrt(1.0 + (b - 1.0) / (b ** (2.0 - 2.0 * h) - b))


def regime_divisor(params: CascadeParams, n: int) -> float:
    """Divisor taking a depth-n raw path or terminal mass to its regime
    normalization.

    convergent: sigma_H
    critical:   sigma * sqrt(n)      (undefined at n = 0)
    divergent:  sigma * b^(n(1/2-H))
    symmetric:  b^(n/2)
    """
    reg = regime_of(params)
    if reg is Regime.SYMMETRIC:
        return float(params.base) ** (n / 2.0)
    s = sigma(params)
    if reg is Regime.CONVERGENT:
        return s
    if reg is Regime.CRITICAL:
        if n == 0:
            raise ValueError("the critical normalization divides by "
                             "sqrt(depth) and is undefined at depth 0")
        return s * math.sqrt(n)
    return s * float(params.base) ** (n * (0.5 - params.hurst))


@dataclass(frozen=True)
class LeafSignField:
    """Branch-product signs of all generation-``depth`` nodes, bit-packed,
    with the ``params`` they were drawn with.

    Bit convention: 0 encodes +1, 1 encodes -1.  ``packed[k]`` holds leaf
    bits 8k..8k+7 (numpy packbits order), read only in this module.
    """

    params: CascadeParams
    depth: int
    packed: np.ndarray

    @property
    def n_leaves(self) -> int:
        return self.params.base**self.depth

    def leaf_bits(self) -> np.ndarray:
        """The one unpacked reader: every leaf bit as a uint8 0/1."""
        return np.unpackbits(self.packed, count=self.n_leaves)


def check_leaf_budget(base: int, depth: int) -> None:
    """The size guard of :func:`generate_leaf_signs`, allocating nothing:
    b^depth must not exceed :data:`DEFAULT_MAX_LEAVES`."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if base**depth > DEFAULT_MAX_LEAVES:
        raise CapacityError(f"b^depth = {base}^{depth} exceeds the leaf "
                            f"budget {DEFAULT_MAX_LEAVES}")


def check_max_points(max_points: int) -> None:
    """Raise the ``ValueError`` :func:`build_path` gives ``max_points`` < 1."""
    if max_points < 1:
        raise ValueError(f"max_points must be >= 1, got {max_points}")


def generate_leaf_signs(params: CascadeParams, depth: int) -> LeafSignField:
    """Draw the sign field down to ``depth`` and return the leaf products.

    Each node's sign comes from its own counter-based stream position
    (see :mod:`cascadekit.streams`), so the same (seed, depth) always
    yields the same field and any subtree regenerates identically no
    matter how the tree is traversed.  In particular the generation-p
    branch products of a deeper field are the leaves of the depth-p
    field, except for a base that is not a power of 2, where levels wider
    than 2^22 nodes take parents off by the chunk start modulo b past the
    first chunk.  Each level runs one loop: every chunk of at most 2^22
    nodes is hashed straight into its packed slice of the level and
    XORed there, byte by byte, with its parents, b copies each, spread
    from the packed level before; no node is ever held one byte per
    node.  The peak, at the last level, is b^(n-1) / 8 + b^n / 8 packed
    bytes plus about 1.58 MiB: the three 2^16-word blocks and the bool
    block that :func:`~cascadekit.streams.sign_bits` hashes in (the
    chunk's spread parents and, where they are shifted across bytes,
    their shifted copy, 2^19 bytes each, come after the hashing).  At
    b = 2 that is 4.58 MiB at depth 24, 13.58 MiB at depth 26 and
    25.58 MiB at depth 27.

    Parameters
    ----------
    params : CascadeParams
    depth : int
        Generation n >= 0 of the leaves; the field has b^n entries.
        b^depth above :data:`DEFAULT_MAX_LEAVES` raises
        :class:`CapacityError`.
    """
    check_leaf_budget(params.base, depth)
    b = params.base
    seed_state = streams.premix_seed(params.seed)
    threshold = streams.sign_threshold(params.p_plus)

    # spread[v]: the 8 bits of byte v, each repeated b times, packed into
    # one b-byte item, so an array of bytes gathers its rows at once
    table = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)
    spread = np.packbits(table.repeat(b, axis=1), axis=1).view(f"V{b}")
    parents = np.zeros(1, dtype=np.uint8)  # generation 0: the empty product
    for level in range(1, depth + 1):
        count = b**level
        packed = np.empty((count + 7) // 8, dtype=np.uint8)
        # chunk starts are multiples of 2^22, hence of 8
        for lo in range(0, count, _CHUNK):
            hi = min(lo + _CHUNK, count)
            out = streams.sign_bits(seed_state, b, level, lo, hi - lo,
                                    threshold,
                                    out=packed[lo // 8:(hi + 7) // 8])
            # node lo + i takes parent lo // b + i // b (its own when b
            # divides lo): the spread bits from the one of parent lo // b,
            # which sits `shift` bits into byte `skip` of the rows
            rows = spread[parents[lo // b // 8:((hi + b - 1) // b + 7) // 8]]
            rows = rows.view(np.uint8).ravel()
            skip, shift = divmod(lo // b % 8 * b, 8)
            if shift:
                # each byte takes the high bits of the next; the rows may
                # end before the last byte's, which are padding
                n = min(out.size, rows.size - skip - 1)
                out[:n] ^= rows[skip + 1:skip + 1 + n] >> (8 - shift)
                rows <<= shift
            out ^= rows[skip:skip + out.size]
            if hi % 8:  # clear the padding bits past the level's last node
                out[-1] &= (0xFF << 8 - hi % 8) & 0xFF
            del rows  # not held while the next chunk is hashed
        parents = packed
    return LeafSignField(params=params, depth=depth, packed=parents)


@dataclass(frozen=True)
class SamplePath:
    """Piecewise-linear path on the b-adic grid.

    ``values[k]`` is the path at t = k * stride / b^depth.  stride = 1
    for full-resolution paths; decimated paths keep exact values at
    stride multiples (block sums are computed in integer arithmetic, the
    intermediate grid is simply not stored).
    """

    params: CascadeParams
    depth: int
    values: np.ndarray
    kind: PathKind = PathKind.RAW
    stride: int = 1

    @property
    def n_cells(self) -> int:
        return len(self.values) - 1

    @property
    def grid(self) -> np.ndarray:
        """Grid abscissae t_k matching ``values``."""
        denom = self.params.base**self.depth
        return (np.arange(len(self.values)) * self.stride) / denom


def path_slices(signs: LeafSignField, width: int, stride: int = 1):
    """Yield B_n sampled every ``stride`` leaves over samples [s, s + width]
    for s = 0, width, ..., the last slice clipped to the path's end.

    The one place where leaf bits become path values, read straight
    from the packed bytes.  Sample k is b^(-n*H) times S(k * stride),
    the integer running sum of the first k * stride leaf signs.  A byte
    adds 8 - 2 * popcount to S, and :data:`_RUNNING` holds the running
    sums inside each of the 256 bytes, so the stride alone picks one of
    three routes:

    * a multiple of 8 sums the popcounts of each sample's whole bytes;
    * a divisor of 8 (1, 2, 4) puts 8 / stride samples in every byte:
      one table row per byte, offset by S at the byte's start, which is
      the row before's last sample; slices may start and end inside a
      byte;
    * any other stride straddles bytes (3, 9, ..., 6, 36, 10): the
      slice's bytes are unpacked and each sample sums its leaves' bits.

    Every partial sum is an integer of magnitude at most b^n <= 2^53,
    exact in float64 and carried across slices, so every sample is a
    correctly rounded product, the same for any ``width``.  Each slice
    is a view of one reused buffer that the next slice overwrites; it
    starts with the last sample of the slice before.  H and b come from
    ``signs.params``.
    """
    scale = signs.params.weight_scale(signs.depth)
    n_samples = signs.n_leaves // stride
    # the sample ends repeat every `span` bytes, `per` of them
    per, span = 8 // math.gcd(stride, 8), stride // math.gcd(stride, 8)
    table = np.ascontiguousarray(_RUNNING[:, stride - 1::stride])
    # a divisor of 8 fills the rows of whole bytes, up to 2 * per samples
    # past the slice
    buf = np.empty(width + 2 * per, dtype=np.float64)
    total = 0.0
    for lo in range(0, n_samples, width):
        k = min(width, n_samples - lo)
        j0, r0 = divmod(lo * stride, 8)  # the slice starts r0 leaves in
        src = signs.packed[j0:((lo + k) * stride + 7) // 8]
        if span == 1 and per > 1:  # per samples in each byte, from its row
            rows = buf[1:1 + src.size * per].reshape(src.size, per)
            np.take(table, src, axis=0, out=rows, mode="clip")
            # less the sum of the leaves before the slice in its first byte
            rows[0] += total - (_RUNNING[src[0], r0 - 1] if r0 else 0.0)
            ends = rows[:, -1]  # each byte's last sample ...
            np.cumsum(ends, out=ends)
            for col in rows[1:, :-1].T:  # ... starts the next byte
                col += ends[:-1]
            seg = buf[r0 // stride:r0 // stride + k + 1]
            seg[0] = total
        else:  # a minus count per sample, then the running sum
            seg = buf[:k + 1]
            if per == 1:  # of whole bytes (r0 is 0)
                seg[1:] = np.bitwise_count(src).reshape(k, span).sum(axis=1)
            else:  # of unpacked bits, for strides that straddle bytes
                bits = np.unpackbits(src)[r0:r0 + k * stride]
                np.sum(bits.reshape(k, stride), axis=1, out=seg[1:])
            seg[1:] *= -2.0
            seg[1:] += stride
            seg[0] = total
            np.cumsum(seg, out=seg)
        total = seg[-1]
        seg *= scale
        yield seg


def build_path(signs: LeafSignField, *,
               max_points: int = DEFAULT_MAX_POINTS) -> SamplePath:
    """Assemble B_n from a leaf sign field, under the field's params.

    Grid value k is b^(-n*H) times the k-term cumulative sum of leaf
    signs (value 0 at t=0), evaluated every ``stride`` leaves, where
    ``stride`` is the smallest power of b that leaves at most
    ``max_points`` cells (>= 1), so fields wider than ``max_points``
    cells produce a decimated path.  The values come from
    :func:`path_slices`, copied into the result one slice of at most
    2^16 leaves at a time: the result is the only full-size array.
    """
    check_max_points(max_points)
    stride = 1
    while signs.n_leaves // stride > max_points:
        stride *= signs.params.base
    values = np.empty(signs.n_leaves // stride + 1, dtype=np.float64)
    width = max(1, _SLICE // stride)
    for i, seg in enumerate(path_slices(signs, width, stride)):
        values[i * width:i * width + seg.size] = seg
    return SamplePath(params=signs.params, depth=signs.depth, values=values,
                      kind=PathKind.RAW, stride=stride)


def evaluate(path: SamplePath, t) -> np.ndarray | float:
    """Piecewise-linear value(s) of the path at t in [0, 1].

    Exact at stored grid points; the cell midpoint returns the endpoint
    average.  Scalar in, scalar out.
    """
    t_arr = np.asarray(t, dtype=float)
    if not np.all((t_arr >= 0.0) & (t_arr <= 1.0)):  # NaN fails both
        raise ValueError("t must lie in [0, 1]")
    # position in units of stored cells
    pos = t_arr * (path.params.base**path.depth / path.stride)
    idx = np.minimum(pos.astype(np.int64), path.n_cells - 1)
    frac = pos - idx
    vals = path.values
    out = vals[idx] * (1.0 - frac) + vals[idx + 1] * frac
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def normalize_path(path: SamplePath) -> SamplePath:
    """Apply the regime normalization of ``path.params`` to a raw path.

    Divides by :func:`regime_divisor` at the path's depth; the result
    has kind normalized_tilde in the convergent regime (the limit path
    over sigma_H) and normalized_x otherwise (Brownian limits).
    """
    if path.kind is not PathKind.RAW:
        raise ValueError("normalize_path expects a raw path")
    params = path.params
    kind = (PathKind.NORMALIZED_TILDE
            if regime_of(params) is Regime.CONVERGENT
            else PathKind.NORMALIZED_X)
    return SamplePath(params=params, depth=path.depth,
                      values=path.values / regime_divisor(params, path.depth),
                      kind=kind, stride=path.stride)


@dataclass(frozen=True)
class SelfSimilarityReport:
    """Outcome of the subtree rescaling check."""

    split_depth: int
    subtree_depth: int
    subtrees_checked: int
    max_rel_violation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_violation <= self.tolerance


def subtree_rows(field: LeafSignField, p: int) -> np.ndarray:
    """Row j: the b^(n-p) leaf bits under node j of generation ``p`` of the
    depth-n ``field`` (uint8, 1 meaning -1), XORed with node j's bit in
    the depth-p field to divide its branch product out: b^p fields of
    independent depth-(n-p) cascades (for b not a power of 2, while no
    level is wider than 2^22 nodes), the only b^n-byte array held.  ``p``
    outside [0, n] raises ``ValueError`` before anything is drawn."""
    if not 0 <= p <= field.depth:
        raise ValueError(f"p must lie in [0, {field.depth}], got {p}")
    rows = field.leaf_bits().reshape(field.params.base**p, -1)
    rows ^= generate_leaf_signs(field.params, p).leaf_bits()[:, None]
    return rows


def verify_self_similarity(field: LeafSignField,
                           split_depth: int) -> SelfSimilarityReport:
    """Check the subtree rescaling identity of the construction.

    For every node w at generation p = split_depth, the path over the
    cell of w satisfies

        B_{p+n}(t) - B_{p+n}(t_w) = sign(w) * b^(-p*H) * B_n^(w)(s)

    where B_n^(w) is the depth-n path of w's row of :func:`subtree_rows`
    and s is t rescaled to [0, 1]; every row is compared at once with one
    :func:`build_path` of ``field``.  sign(w) is the field's first bit
    under w XOR its row's, so only :func:`subtree_rows` hashes the depth-p
    field.  The identity is algebraic, so the violation is float roundoff
    and any bits pass, random bytes too; the field's law is tested by
    ``test_subtree_sums_match_the_exact_moments``.
    """
    if not 0 < split_depth < field.depth:
        raise ValueError("split_depth must be strictly inside (0, depth)")
    params, n = field.params, field.depth - split_depth
    rows = subtree_rows(field, split_depth)
    sign_w = 1.0 - 2.0 * (field.leaf_bits()[::rows.shape[1]] ^ rows[:, 0])
    # row j: w's own path past t_w, and the full path's rise over w's cell
    rhs = 1.0 - 2.0 * rows
    np.cumsum(rhs, axis=1, out=rhs)
    rhs *= params.weight_scale(n)
    rhs *= (sign_w * params.weight_scale(split_depth))[:, None]
    values = build_path(field, max_points=field.n_leaves).values
    lhs = values[1:].reshape(rows.shape) - values[:-1:rows.shape[1], None]
    del values  # the absolute values below take its place
    denom = np.maximum(np.abs(lhs).max(axis=1), np.abs(rhs).max(axis=1))
    lhs -= rhs
    worst = np.abs(lhs).max(axis=1) / np.maximum(
        denom, params.weight_scale(field.depth))
    return SelfSimilarityReport(
        split_depth=split_depth, subtree_depth=n, subtrees_checked=len(rows),
        max_rel_violation=float(worst.max()), tolerance=_SELF_SIMILARITY_TOL)


def enumerate_next_level_mean(field: LeafSignField) -> np.ndarray:
    """E[B_{n+1}(t) | generation-n signs] on the generation-(n+1) grid.

    Exhaustive: every assignment of the b^(n+1) fresh signs is expanded
    with its exact probability.  Exponential in the grid size, so this is
    a small-n oracle for the martingale identity (b=2, n <= 3 in tests);
    guarded at 2^20 assignments.
    """
    params = field.params
    b = params.base
    n = field.depth
    m = b ** (n + 1)
    if 2**m > 2**20:
        raise CapacityError(f"2^{m} assignments exceed the enumeration budget")
    parent_signs = 1.0 - 2.0 * field.leaf_bits()
    scale = params.weight_scale(n + 1)
    p_plus, p_minus = params.p_plus, params.p_minus

    assign = np.arange(2**m, dtype=np.uint32)
    bits = ((assign[:, None] >> np.arange(m, dtype=np.uint32)[None, :])
            & np.uint32(1)).astype(np.int8)
    eps = 1 - 2 * bits
    child = parent_signs[np.repeat(np.arange(b**n), b)][None, :] * eps
    minus_count = bits.sum(axis=1)
    if p_minus == 0.0:
        prob = (minus_count == 0).astype(np.float64)
    else:
        prob = p_plus ** (m - minus_count) * p_minus ** minus_count
    csum = np.concatenate(
        [np.zeros((2**m, 1)), np.cumsum(child, axis=1)], axis=1) * scale
    return prob @ csum


def _chunks(seed: int, domain: int, reps: int):
    """Yield (lo, hi, rng) per replica chunk, each on its own PCG64 stream.

    The stream of chunk ci is keyed by (seed, domain, ci), so chunks are
    independent of each other and of the other sampler domains.
    """
    for ci, lo in enumerate(range(0, reps, _TERMINAL_CHUNK)):
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([seed, domain, ci])))
        yield lo, min(lo + _TERMINAL_CHUNK, reps), rng


def _map_threads(fn, items, workers: int | None = None) -> list:
    """``[fn(item) for item in items]`` on up to ``workers`` threads.

    ``workers`` defaults to the CPUs this process may run on, at most
    :data:`_MAX_WORKERS`.  Each call of ``fn`` must write only state that
    no other item touches.  With one worker or one item everything runs
    inline and no thread is started.  Exceptions raised by ``fn``
    propagate to the caller.
    """
    items = list(items)
    if workers is None:
        try:
            workers = len(os.sched_getaffinity(0))
        except AttributeError:  # platforms without CPU affinity
            workers = os.cpu_count() or 1
        workers = min(workers, _MAX_WORKERS)
    workers = min(workers, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    with concurrent.futures.ThreadPoolExecutor(workers) as pool:
        return list(pool.map(fn, items))


def check_chain_depths(base: int, depths: Sequence[int]) -> None:
    """The depth guard of the count-chain samplers, allocating nothing."""
    if not depths:
        raise ValueError("the depth list is empty; give at least one depth")
    if min(depths) < 0:
        raise ValueError("depth must be >= 0")
    n_max = max(depths)
    # the count chain multiplies populations by b before each binomial
    if (n_max + 1) * math.log2(base) > 62:
        raise CapacityError(
            f"b^(n+1) = {base}^{n_max + 1} exceeds int64 counts")


def sample_terminal_depths(params: CascadeParams, depths: Sequence[int],
                           reps: int) -> tuple[np.ndarray, ...]:
    """Joint draws of Z_n for every n in ``depths``, one array per entry.

    Uses the population-count chain over generations instead of explicit
    trees, which reproduces the law of Z_n exactly at O(n) cost per
    replica.  Per generation each node spawns b children; a child of a
    plus node stays plus with probability p_plus, a child of a minus node
    becomes plus with probability p_minus, so the next generation's plus
    count is the sum of two binomial draws, Bin(b * plus, p_plus) then
    Bin(b * minus, p_minus), which carry the joint law of the sign
    counts.  Z_n is b^(-n*H) times the signed count at generation n (the
    raw signed count when symmetric).

    The chain runs once, to the deepest depth, and records each depth on
    the way, so the arrays have the exact joint law of the martingale at
    those times.  This is the one entry for draws at several depths of
    one realization: the terminal trend passes its depths, the residual
    check (n, n + m).  Depths may come in any order and repeat.
    Deterministic given (params.seed, reps): each array is the one a run
    to its depth alone would give.  Replicas are generated in fixed-size
    chunks on disjoint PCG64 streams; each chunk fills only its own
    slice, so the chunks run concurrently on a few threads
    (:func:`_map_threads`) without changing a bit.
    """
    check_chain_depths(params.base, depths)
    if reps < 1:
        raise ValueError("reps must be >= 1")
    b = params.base
    n_max = max(depths)
    p_plus = params.p_plus
    scales = [params.weight_scale(n) for n in depths]
    out = tuple(np.empty(reps, dtype=np.float64) for _ in depths)

    def run_chunk(chunk) -> None:
        lo, hi, rng = chunk
        plus = np.ones(hi - lo, dtype=np.int64)
        total = 1
        for gen in range(n_max + 1):
            if gen:
                # from plus nodes, then from minus nodes: the stream order
                plus = (rng.binomial(b * plus, p_plus)
                        + rng.binomial(b * (total - plus), 1.0 - p_plus))
                total *= b
            for z, n, scale in zip(out, depths, scales):
                if n == gen:
                    z[lo:hi] = scale * (2 * plus - total)

    _map_threads(run_chunk, _chunks(params.seed, _DOMAIN_TERMINAL, reps))
    return out


def sample_terminal(params: CascadeParams, n: int, reps: int) -> np.ndarray:
    """Independent draws of the terminal mass Z_n = B_n(1); see
    :func:`sample_terminal_depths`."""
    return sample_terminal_depths(params, (n,), reps)[0]


def sample_branch_signs(params: CascadeParams, depth: int,
                        reps: int) -> np.ndarray:
    """Monte-Carlo draws of all b^depth branch products at ``depth``.

    Returns an int8 array of shape (reps, b^depth) with values in
    {-1, +1}.  Independent of the field generator streams; used by the
    increment tests, which need fresh top-of-tree signs per replica.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    b = params.base
    if b**depth > 4096:
        raise CapacityError("branch-sign sampling is meant for shallow tops")
    p_plus = params.p_plus
    out = np.empty((reps, b**depth), dtype=np.int8)
    for lo, hi, rng in _chunks(params.seed, _DOMAIN_BRANCH, reps):
        bold = np.ones((hi - lo, 1), dtype=np.int8)
        for lev in range(1, depth + 1):
            eps = np.where(rng.random((hi - lo, b**lev)) < p_plus, 1, -1)
            bold = np.repeat(bold, b, axis=1) * eps.astype(np.int8)
        out[lo:hi] = bold
    return out
