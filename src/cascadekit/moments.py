"""Exact moment computations for the cascade mass and its normalizations.

Everything here is analytic (no Monte Carlo).  The central object is the
terminal mass Z_n = B_n(1), which satisfies the one-step decomposition

    Z_{n+1}  =  b^(-H) * sum_{j=0}^{b-1} eps_j * Z_n(j)

over independent child copies Z_n(j) and fresh signs eps_j.  Raising the
display to the power q and expanding the multinomial gives a forward
recursion for E(Z_n^q) driven only by the sign moments

    E(eps^q) = b^(H-1) for odd q (0 in the symmetric case), 1 for even q.

Three families of quantities are computed:

  * raw moment tables E(Z_n^q)          (:func:`z_moment_recursion`),
  * their n -> infinity limits, H > 1/2 (:func:`limit_z_moments`),
  * normalized moments M_n^(q) = E(X_n(1)^q) for H <= 1/2
                                         (:func:`normalized_moment_recursion`),

plus the even-moment induction characterizing the standard normal law
(:func:`gaussian_even_moments`) and an exhaustive small-tree oracle
(:func:`brute_force_moments`) that recomputes E(Z_n^q) by enumerating
every sign assignment, used to validate the recursion independently.

Numeric ranges: divergent-regime raw moments grow like b^{nq(1/2-H)} and
overflow float64 quickly, so the recursion runs on log-magnitudes (all
recursion terms are nonnegative) and overflowing entries are flagged.
Its log-domain sums use the local :func:`_logsumexp`, so the bits of the
tables are fixed by this module and do not depend on the scipy version.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .core import (CapacityError, CascadeParams, Regime, regime_of,
                   require_regime, sigma)

#: q_max guards: compositions of q into b parts grow combinatorially.
_QMAX_BINARY = 16
_QMAX_GENERAL = 10


def epsilon_moment(q: int, params: CascadeParams) -> float:
    """E(eps^q) for one sign draw; q >= 1 integer."""
    if not isinstance(q, int) or q < 1:
        raise ValueError("q must be an integer >= 1")
    if q % 2 == 0:
        return 1.0
    return params.eps_mean


def closed_form_second_moment(params: CascadeParams, n: int) -> float:
    """E(Z_n^2) in closed form, all regimes.

    H != 1/2: ell + b^(n(1-2H)) (1 - ell) with ell = (b-1)/(b - b^(2-2H));
    H  = 1/2: 1 + n (1 - 1/b); symmetric (raw signed count): b^n.
    """
    b = float(params.base)
    reg = regime_of(params)
    if reg is Regime.SYMMETRIC:
        return b**n
    h = params.hurst
    if reg is Regime.CRITICAL:
        return 1.0 + n * (1.0 - 1.0 / b)
    ell = (b - 1.0) / (b - b ** (2.0 - 2.0 * h))
    return ell + b ** (n * (1.0 - 2.0 * h)) * (1.0 - ell)


@dataclass(frozen=True)
class MomentTable:
    """Moments indexed by (n, q), with per-entry status flags.

    ``values[n, q]`` holds the moment (column 0 is a padding column of
    ones so q indexes directly).  ``log_values`` carries log-magnitudes,
    exact even where ``values`` overflowed to inf; such entries have
    ``overflowed[n, q]`` set.  ``undefined`` marks the entries outside the
    table's domain, which hold NaN (the critical normalization has no
    n = 0 row).  Both flags are read off the two arrays.
    """

    params: CascadeParams
    values: np.ndarray
    log_values: np.ndarray
    overflowed: np.ndarray = field(init=False)
    undefined: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "overflowed", np.isinf(self.values)
                           & np.isfinite(self.log_values))
        object.__setattr__(self, "undefined", np.isnan(self.values))

    @property
    def n_max(self) -> int:
        return self.values.shape[0] - 1

    @property
    def q_max(self) -> int:
        return self.values.shape[1] - 1

    def value(self, n: int, q: int) -> float:
        if self.undefined[n, q]:
            raise ValueError(f"entry (n={n}, q={q}) is undefined")
        return float(self.values[n, q])

    def entry_flag(self, n: int, q: int) -> str:
        if self.undefined[n, q]:
            return "undefined"
        if self.overflowed[n, q]:
            return "overflow"
        return "finite"

    def rows(self):
        """Yield (n, q, value, flag) for serialization."""
        for n in range(self.n_max + 1):
            for q in range(1, self.q_max + 1):
                if self.undefined[n, q]:
                    continue
                yield n, q, float(self.values[n, q]), self.entry_flag(n, q)


def _check_qmax(base: int, q_max: int) -> None:
    cap = _QMAX_BINARY if base == 2 else _QMAX_GENERAL
    if not 1 <= q_max <= cap:
        raise ValueError(f"q_max must be in [1, {cap}] for base {base}")


@lru_cache(maxsize=None)
def _compositions(base: int, q: int
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ordered compositions of q into ``base`` parts, in lexicographic
    order of their cut points: the multinomial coefficients (length C),
    their logs, and the parts as a (base, C) index matrix.  Each log is
    lgamma(q + 1) minus the lgammas of the parts, summed part by part,
    and each coefficient is its ``math.exp``."""
    log_coef, parts = [], []
    log_qfact = math.lgamma(q + 1)
    for cuts in itertools.combinations(range(q + base - 1), base - 1):
        edges = (-1, *cuts, q + base - 1)
        comp = [hi - lo - 1 for lo, hi in zip(edges, edges[1:])]
        log_coef.append(log_qfact - sum(math.lgamma(k + 1) for k in comp))
        parts.append(comp)
    coef = np.array([math.exp(x) for x in log_coef])
    return coef, np.array(log_coef), np.array(parts, dtype=np.intp).T


def _logsumexp(a: np.ndarray) -> float:
    """log(sum(exp(a))) of a 1-D float64 array, with the bits of scipy
    1.17.1's ``scipy.special.logsumexp``.

    The max-split form (Blanchard, Higham & Higham, IMA J. Numer. Anal.
    41(4), 2021): the m elements equal to the max M leave the sum, which
    becomes log1p(sum(exp(rest - M)) / m) + log(m) + M.  Where that is not
    finite (every element -inf, or an inf or nan), the plain log of the
    sum of exponentials is returned instead.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = a.max()
        top = a == a_max
        m = float(np.count_nonzero(top))
        s = np.exp(np.where(top, -np.inf, a) - a_max).sum() / m
        out = np.log1p(s) + np.log(m) + a_max
        if not np.isfinite(out):
            out = np.log(np.exp(a).sum())
    return out


def _eps_moments(params: CascadeParams, q_max: int) -> np.ndarray:
    """E(eps^k) for k = 0..q_max."""
    return np.array([1.0] + [epsilon_moment(k, params)
                             for k in range(1, q_max + 1)])


def _composition_sum(base: int, q: int, m: np.ndarray, *,
                     off_diagonal: bool = False) -> float:
    """sum over compositions k of q into ``base`` parts of
    multinom(q; k) * prod_j m[k_j].

    ``off_diagonal`` drops the compositions with a part equal to q.  Each
    term is its coefficient times the parts' moments in part order, and
    the terms are added one by one in composition order
    (``np.add.accumulate``): a pairwise or compensated sum would move the
    last bits of every moment table.
    """
    coef, _, parts = _compositions(base, q)
    if off_diagonal:
        keep = parts.max(axis=0) < q
        coef, parts = coef[keep], parts[:, keep]
    terms = coef
    for part in parts:
        terms = terms * m[part]
    return np.add.accumulate(terms)[-1]


def _table(params: CascadeParams, *, values: np.ndarray | None = None,
           log_values: np.ndarray | None = None) -> MomentTable:
    """A table from its values, whose log-magnitudes are log|v| (-inf
    exactly where v = 0), or from its log-magnitudes, whose values are
    their exponentials and may overflow to inf, with a warning."""
    with np.errstate(divide="ignore", over="ignore"):
        if values is None:
            values = np.exp(log_values)
        else:
            log_values = np.log(np.abs(values))
    table = MomentTable(params=params, values=values, log_values=log_values)
    if table.overflowed.any():
        warnings.warn("moment table has entries beyond float64 range; "
                      "values flagged 'overflow', log magnitudes retained",
                      RuntimeWarning, stacklevel=3)
    return table


def z_moment_recursion(params: CascadeParams, n_max: int,
                       q_max: int) -> MomentTable:
    """Forward table of E(Z_n^q) from Z_0 = 1.

    One step applies the multinomial expansion of the one-step
    decomposition: with the composition (k_0 .. k_{b-1}) of q,

      E(Z_{n+1}^q) = b^(-qH) * sum_comp multinom(q; k) *
                     prod_j E(eps^(k_j)) E(Z_n^(k_j)).

    Symmetric params drop the b^(-qH) prefactor (raw signed counts) and
    kill every term with an odd part.  Carried in log space; the q = 1
    column is pinned to 1 exactly (martingale).  Each entry is the local
    :func:`_logsumexp` of its composition terms, each term summed part by
    part in composition order, so the table's bits do not depend on the
    scipy version.
    """
    _check_qmax(params.base, q_max)
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    b = params.base
    log_b = math.log(b)
    log_eps = np.array([math.log(e) if e > 0.0 else -math.inf
                        for e in _eps_moments(params, q_max)])
    prefactor = (0.0 if params.is_symmetric
                 else -params.hurst * log_b)

    log_vals = np.zeros((n_max + 1, q_max + 1))
    for n in range(n_max):
        v = log_eps + log_vals[n]
        nxt = log_vals[n + 1]
        for q in range(1, q_max + 1):
            if q == 1 and not params.is_symmetric:
                nxt[1] = 0.0  # exact martingale normalization
                continue
            _, log_coef, parts = _compositions(b, q)
            terms = log_coef + q * prefactor
            for part in parts:  # one add per part, in composition order
                terms += v[part]
            nxt[q] = _logsumexp(terms)
    return _table(params, log_values=log_vals)


def limit_z_moments(params: CascadeParams, q_max: int) -> np.ndarray:
    """E(Z^q) for the almost-sure limit mass Z, convergent regime only.

    Solved order by order: isolating the compositions that contain a
    part equal to q (the b 'diagonal' terms) gives

      E(Z^q) = b^(-qH) S_q / (1 - b^(1-qH) E(eps^q)),

    with S_q the multinomial sum over compositions with all parts < q.
    Entry [0] is E(Z^1) = 1.  Indexing: result[q-1] = E(Z^q).
    """
    require_regime(params, "the limit moments", convergent=True)
    _check_qmax(params.base, q_max)
    b = params.base
    h = params.hurst
    eps = _eps_moments(params, q_max)
    out = np.empty(q_max + 1)
    out[0] = 1.0  # E(Z^0)
    out[1] = 1.0
    for q in range(2, q_max + 1):
        m = eps[:q] * out[:q]
        cross = _composition_sum(b, q, m, off_diagonal=True)
        denom = 1.0 - float(b) ** (1.0 - q * h) * eps[q]
        out[q] = float(b) ** (-q * h) * cross / denom
    return out[1:]


def gaussian_even_moments(p_max: int) -> list[Fraction]:
    """Even moments M^(2p) of the standard normal via the closed induction.

    M^(2) = 1 and

      M^(2p) = (2^p - 2)^(-1) * sum_{k=1}^{p-1} C(2p, 2k) M^(2k) M^(2p-2k).

    This is the unique bounded-growth solution of the normalized even
    moment fixed point and equals (2p-1)!!.  Computed in rational
    arithmetic; returns Fractions.
    """
    if p_max < 1:
        raise ValueError("p_max must be >= 1")
    moments = [Fraction(1)]  # M^(2)
    for p in range(2, p_max + 1):
        acc = Fraction(0)
        for k in range(1, p):
            coef = math.comb(2 * p, 2 * k)
            acc += coef * moments[k - 1] * moments[p - k - 1]
        moments.append(acc / (2**p - 2))
    return moments


def normalized_moment_recursion(params: CascadeParams, n_max: int,
                                q_max: int) -> MomentTable:
    """Table of M_n^(q) = E(X_n(1)^q) for the Brownian-limit regimes.

    The normalized walk satisfies the H-free one-step relation

      X_{n+1}(1) = r_n * b^(-1/2) * sum_j eps_j X_n(1)(j),

    with r_n = sqrt(n/(n+1)) in the critical regime and r_n = 1
    otherwise, so the moment recursion needs only the sign moments.
    Start rows: divergent/symmetric at n = 0 with M_0^(q) = sigma^(-q);
    critical at n = 1 (the sqrt(n) divisor is undefined at n = 0; that
    row is flagged undefined).
    """
    require_regime(params, "the normalized moment table", convergent=False)
    reg = regime_of(params)
    _check_qmax(params.base, q_max)
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    b = params.base
    eps = _eps_moments(params, q_max)
    sqrt_b = math.sqrt(b)

    vals = np.zeros((n_max + 1, q_max + 1))
    vals[:, 0] = 1.0

    def step(row: np.ndarray, r_n: float) -> np.ndarray:
        nxt = np.empty_like(row)
        nxt[0] = 1.0
        m = eps * row
        for q in range(1, q_max + 1):
            nxt[q] = _composition_sum(b, q, m) * (r_n / sqrt_b) ** q
        return nxt

    if reg is Regime.CRITICAL:
        vals[0, 1:] = np.nan  # flagged undefined
        s = sigma(params)
        base_row = np.ones(q_max + 1)  # moments of Z_0 = 1
        z1 = step(base_row, 1.0)       # E(Z_1^q), prefactor b^(-q/2)
        vals[1] = z1 / s ** np.arange(q_max + 1)
        start = 1
    else:
        s = sigma(params)
        vals[0] = 1.0 / s ** np.arange(q_max + 1)
        start = 0

    for n in range(start, n_max):
        r_n = math.sqrt(n / (n + 1.0)) if reg is Regime.CRITICAL else 1.0
        vals[n + 1] = step(vals[n], r_n)

    return _table(params, values=vals)


# ---------------------------------------------------------------------------
# Exhaustive enumeration oracle
# ---------------------------------------------------------------------------

_ENUM_BUDGET = 2**24


def _tree_sign_count(base: int, depth: int) -> int:
    """Number of sign draws in a full depth-``depth`` tree (levels 1..depth)."""
    return (base ** (depth + 1) - base) // (base - 1)


def _aggregate_counts(base: int, depth: int) -> np.ndarray:
    """Joint histogram over (#minus signs, signed leaf sum).

    Enumerates every assignment of the tree's signs; returns an integer
    matrix ``counts[k, i]`` = number of assignments with k minus signs
    and leaf signed sum  s = i - b^depth  (i steps over 0..2*b^depth).
    The probability weighting and moment powers are applied afterwards,
    which keeps this part exact and base-independent.
    """
    b = base
    n_signs = _tree_sign_count(b, depth)
    n_assign = 1 << n_signs
    assign = np.arange(n_assign, dtype=np.uint64)

    minus_total = np.zeros(n_assign, dtype=np.int64)
    bold = np.zeros((n_assign, 1), dtype=np.uint8)
    bit_pos = 0
    for level in range(1, depth + 1):
        width = b**level
        cols = ((assign[:, None] >> np.arange(bit_pos, bit_pos + width,
                                              dtype=np.uint64)[None, :])
                & np.uint64(1)).astype(np.uint8)
        minus_total += cols.sum(axis=1, dtype=np.int64)
        bold = np.repeat(bold, b, axis=1) ^ cols
        bit_pos += width
    leaf_sum = (bold.shape[1] - 2 * bold.sum(axis=1, dtype=np.int64))

    counts = np.zeros((n_signs + 1, 2 * b**depth + 1), dtype=np.int64)
    np.add.at(counts, (minus_total, leaf_sum + b**depth), 1)
    return counts


def brute_force_moments(params: CascadeParams, n_max: int,
                        q_max: int) -> MomentTable:
    """E(Z_n^q) for n <= n_max by full enumeration of sign assignments.

    Every one of the 2^(#signs) assignments of the depth-n tree is
    expanded; assignments are aggregated exactly (integer counts) by
    their sufficient statistic (#minus signs, signed leaf sum), then the
    probability weights and moment powers are evaluated in 40-digit
    decimal arithmetic, for every H, and each entry is rounded once to
    float64.  This oracle is deliberately independent of
    :func:`z_moment_recursion`: it never uses the recursion, only the
    construction's definition.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if q_max < 1:
        raise ValueError("q_max must be >= 1")
    b = params.base
    if 1 << _tree_sign_count(b, n_max) > _ENUM_BUDGET:
        raise CapacityError("enumeration budget exceeded; lower n_max")

    vals = np.ones((n_max + 1, q_max + 1))  # column q = 0 and Z_0 = 1
    with localcontext(Context(prec=40)):
        if params.is_symmetric:
            p_plus = Decimal(1) / 2
        else:
            h = Decimal(params.hurst)
            p_plus = (1 + Decimal(b) ** (h - 1)) / 2
        p_minus = 1 - p_plus
        for n in range(1, n_max + 1):
            scale = (Decimal(1) if params.is_symmetric
                     else Decimal(b) ** (-n * h))
            counts = _aggregate_counts(b, n)
            n_signs = _tree_sign_count(b, n)
            # (count, #minus signs, signed leaf sum) per occupied cell
            ks, si = np.nonzero(counts)
            cells = [(int(counts[k, i]), k, i - b**n)
                     for k, i in zip(ks.tolist(), si.tolist())]
            # k = 0 skips p_minus ** 0: at H = 1, p_minus = 0 and 0 ** 0
            # is an invalid operation in decimal
            weights = [p_plus ** n_signs] + [
                p_plus ** (n_signs - k) * p_minus**k
                for k in range(1, n_signs + 1)]
            for q in range(1, q_max + 1):
                vals[n, q] = float(sum(count * weights[k] * (scale * s) ** q
                                       for count, k, s in cells))

    return _table(params, values=vals)
