"""Hermite polynomial chaos in N Gaussian variables.

Basis functions are products of probabilists' Hermite polynomials,
ψ_i(ξ) = Π_d He_{i_d}(ξ_d) for a multi-index i, unnormalized so that
E[ψ_i²] = Π_d i_d!.  The module builds graded multi-index sets, the
triple-product expectations c_ijk = E[ψ_i ψ_j ψ_k] that couple the
stochastic blocks of the Galerkin system, from their 1-D closed form,
and the dense weighted sums Σ_α w_α G_α of the coupling matrices
(G_α)_jk = c_αjk.  A 1-D factor E[He_a He_b He_c] is nonzero exactly
when |b − c| ≤ a ≤ b + c and a ≡ b + c (mod 2), and the tensor is built
from those nonzeros alone, at a cost that scales with its nonzero count.
It never evaluates a polynomial; the tests check it against
Gauss-Hermite quadrature of ``numpy.polynomial.hermite_e``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_CHUNK_BYTES = 1 << 20  # tensor entries expanded at once, 64 B each


def _compositions(total: int, parts: int):
    """Yield tuples of `parts` non-negative ints summing to `total`,
    in lexicographic descending order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


@dataclass(frozen=True)
class MultiIndexSet:
    """Graded set of N-tuples with total degree up to `degree`.

    Indices are ordered by total degree; ties within a degree are broken
    lexicographically descending.  Index 0 is always the zero tuple.
    """

    N: int
    degree: int
    indices: tuple

    def __len__(self) -> int:
        return len(self.indices)

    def as_array(self) -> np.ndarray:
        """Indices stacked as an integer array of shape (count, N)."""
        return np.array(self.indices, dtype=np.int64)

    def total_degrees(self) -> np.ndarray:
        """Total degree of each index, shape (count,). Non-decreasing."""
        return self.as_array().sum(axis=1)


def multi_index_set(N: int, P: int) -> MultiIndexSet:
    """All multi-indices of dimension N with total degree ≤ P.

    Cardinality is the binomial coefficient (N+P choose P).
    """
    if N < 1:
        raise ValueError("stochastic dimension N must be at least 1")
    if P < 0:
        raise ValueError("degree bound P must be non-negative")
    idx = []
    for s in range(P + 1):
        idx.extend(_compositions(s, N))
    out = MultiIndexSet(N, P, tuple(idx))
    assert len(out) == math.comb(N + P, P)
    return out


def triple_product_1d(a: int, b: int, c: int) -> float:
    """E[He_a He_b He_c] under the standard Gaussian measure.

    Zero when a+b+c is odd or when the largest degree exceeds the sum of
    the other two; otherwise a!b!c! / ((s−a)!(s−b)!(s−c)!) with
    s = (a+b+c)/2.  Always non-negative.
    """
    if a < 0 or b < 0 or c < 0:
        raise ValueError("degrees must be non-negative")
    total = a + b + c
    if total % 2 == 1:
        return 0.0
    s = total // 2
    if s < a or s < b or s < c:  # triangle inequality
        return 0.0
    num = math.factorial(a) * math.factorial(b) * math.factorial(c)
    den = (math.factorial(s - a) * math.factorial(s - b)
           * math.factorial(s - c))
    return float(num // den) if num % den == 0 else num / den


@dataclass(frozen=True)
class CijkTensor:
    """Nonzero triple products c_ijk = E[ψ_i ψ_j ψ_k] in coordinate form.

    The i axis runs over `iset` (degree bound P′), j and k over `jkset`
    (degree bound P).  Coordinates are sorted by (i, j, k) and
    read-only.  Entries are symmetric in (j, k) and strictly nonzero.
    :meth:`g_sum` builds the weighted sums G = Σ_i w_i G_i of the
    coupling matrices.  The levels
    of the block hierarchy are the runs of equal total degree in
    `jkset`'s graded order (:meth:`MultiIndexSet.total_degrees`).
    """

    iset: MultiIndexSet
    jkset: MultiIndexSet
    i: np.ndarray
    j: np.ndarray
    k: np.ndarray
    val: np.ndarray

    def __post_init__(self):
        # one tensor may serve every problem of a process (a cache), so a
        # stray write raises instead of changing them all
        for name in ("i", "j", "k", "val"):
            getattr(self, name).flags.writeable = False

    @property
    def nnz(self) -> int:
        return len(self.val)

    def g_sum(self, weights: np.ndarray) -> np.ndarray:
        """The dense (M+1)×(M+1) matrix G = Σ_i w_i G_i, entries
        Σ_i w_i c_ijk, for one weight per index of `iset`; each entry adds
        its terms in the tensor's (i, j, k) order."""
        m1 = len(self.jkset)
        return np.bincount(self.j * m1 + self.k,
                           weights=weights[self.i] * self.val,
                           minlength=m1 * m1).reshape(m1, m1)


def _half_grid(jk: np.ndarray, P: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of ``jk``, multi-indices of degree ≤ P over some
    of the dimensions, ordered by total degree and then by their digits,
    and the position of each row among them."""
    key = np.c_[jk, jk.sum(axis=1)] @ (P + 1) ** np.arange(jk.shape[1] + 1)
    _, first, position = np.unique(key, return_index=True,
                                   return_inverse=True)
    return jk[first], position


def triple_product_table(max_i: int, max_jk: int) -> np.ndarray:
    """Dense table of triple_product_1d over a ≤ max_i, b,c ≤ max_jk."""
    T = np.zeros((max_i + 1, max_jk + 1, max_jk + 1))
    for a in range(max_i + 1):
        for b in range(max_jk + 1):
            for c in range(max_jk + 1):
                T[a, b, c] = triple_product_1d(a, b, c)
    return T


def _digit_steps(N: int, P: int) -> list:
    """For each dimension d, the table whose row p, column b is the
    position in ``multi_index_set(d + 1, P)`` of the prefix at position p
    of ``multi_index_set(d, P)`` (the empty prefix when d = 0) extended
    by the digit b, −1 past degree P; and per row the degree that prefix
    has left, P minus its total.  After the last step a position is one
    in ``multi_index_set(N, P)`` itself."""
    steps, prev = [], [()]
    for d in range(N):
        at = {t: n for n, t in enumerate(multi_index_set(d + 1, P).indices)}
        steps.append((np.array([[at.get(p + (b,), -1) for b in range(P + 1)]
                                for p in prev]),
                      np.array([P - sum(p) for p in prev])))
        prev = list(at)
    return steps


def build_c_tensor(N: int, P: int, Pprime: int) -> CijkTensor:
    """All nonzero c_ijk with i over the P′ index set, j,k over the P set.

    Each multivariate entry factorizes over dimensions,
    c_ijk = Π_d E[He_{i_d} He_{j_d} He_{k_d}], and a 1-D factor is
    nonzero exactly when |j_d − k_d| ≤ i_d ≤ j_d + k_d and
    i_d ≡ j_d + k_d (mod 2).  The build expands each i digit by digit
    over those 1-D nonzeros alone, so its cost scales with the nonzero
    count, not with |iset|·(M+1)²; the factors multiply as 1.0·t_0·t_1·…
    in dimension order.
    """
    if N < 1:
        raise ValueError(f"stochastic dimension N must be at least 1, got {N}")
    if P < 0:
        raise ValueError(f"polynomial degree P must be non-negative, got {P}")
    if Pprime < P:
        raise ValueError(f"expansion degree P' must be at least P, got "
                         f"P' = {Pprime} < P = {P}")
    iset = multi_index_set(N, Pprime)
    jkset = multi_index_set(N, P)
    T = triple_product_table(Pprime, P)

    # The digits (b, c) that a prefix pair of j and k may take next at an
    # i digit a: T[a, b, c] ≠ 0 within the degrees rj, rk they have left,
    # leaving at least the sum R of i's later digits (a later digit needs
    # b + c of at least itself, and that is always enough).  So every
    # prefix pair completes to at least one entry.  Grouped by
    # (a, R, rj, rk), each group in (b, c) order.
    a, R, rj, rk, b, c = np.ogrid[:Pprime + 1, :Pprime + 1, :P + 1, :P + 1,
                                  :P + 1, :P + 1]
    fits = ((T[a, b, c] != 0) & (b <= rj) & (c <= rk)
            & (rj - b + rk - c >= R))
    count = fits.sum(axis=(4, 5))
    first = np.cumsum(count).reshape(count.shape) - count
    a, _, _, _, b, c = np.nonzero(fits)
    t = T[a, b, c]
    ia = iset.as_array()
    later = ia.sum(axis=1, keepdims=True) - np.cumsum(ia, axis=1)
    steps = _digit_steps(N, P)
    cap = max(_CHUNK_BYTES // 64, 1)

    def entries(lo, hi):
        """(i, j, k, value) for i in lo..hi−1, sorted by (i, j, k); None
        once more than one i would expand past ``cap`` entries."""
        i = np.arange(lo, hi)
        j = k = np.zeros(hi - lo, dtype=np.int64)
        val = np.ones(hi - lo)
        for d, (extend, left) in enumerate(steps):
            group = (ia[i, d], later[i, d], left[j], left[k])
            n = count[group]
            total = int(n.sum())
            if total > cap and hi - lo > 1:
                return None
            src = np.repeat(np.arange(len(i)), n)
            at = np.arange(total) + np.repeat(first[group] - np.cumsum(n) + n,
                                              n)
            i, j, k = i[src], extend[j[src], b[at]], extend[k[src], c[at]]
            val = val[src] * t[at]
        order = np.lexsort((k, j, i))
        return i[order], j[order], k[order], val[order]

    # runs of i sized from the last run's entries per i (a run's entry
    # count only grows from digit to digit), halved while they overflow
    pieces, lo, size = [], 0, 1
    while lo < len(iset):
        hi = min(lo + size, len(iset))
        piece = entries(lo, hi)
        if piece is None:
            size = (hi - lo) // 2
            continue
        pieces.append(piece)
        lo, size = hi, max((hi - lo) * cap // max(len(piece[0]), 1), 1)
    i, j, k, val = (np.concatenate(x) for x in zip(*pieces))
    return CijkTensor(iset, jkset, i, j, k, val)


def write_c_tensor(path, tensor: CijkTensor) -> None:
    """Export the tensor as text lines "i j k value" (17 significant
    digits), sorted by (i, j, k), for cross-checking against other codes."""
    with open(path, "w") as fh:
        fh.write(f"% c_ijk tensor: N={tensor.iset.N} P={tensor.jkset.degree} "
                 f"Pprime={tensor.iset.degree} nnz={tensor.nnz}\n")
        for a, b, c, v in zip(tensor.i, tensor.j, tensor.k, tensor.val):
            fh.write(f"{a} {b} {c} {v:.16e}\n")
