"""Band operators on the integer lattice with eventually constant diagonals.

A band operator A of bandwidth w stores, for each offset k in [-w, w], a
coefficient sequence that equals an exact constant ``limit_minus`` for
negative indices and ``limit_plus`` for nonnegative indices, except on a
finite core window of overrides.  Matrix entries follow the row convention

    A[i, j] = c_{i-j}(i),

so offset k > 0 populates the k-th subdiagonal.  Freezing the coefficients
at either end yields the two limit operators: translation-invariant
operators whose symbol is the trigonometric polynomial
sigma(theta) = sum_k c_k exp(i k theta).  Such an operator is invertible on
the lattice exactly when its symbol stays away from zero, which is what the
certified grid scan below decides.

Products, sums, and scalar multiples of band operators are computed exactly
on the eventually-constant data, so the symbol map is an exact algebra
homomorphism at both ends.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvals_banded

from .errors import GridRefinementNeeded, InputError

DEFAULT_GRID = 4096
DEFAULT_SYMBOL_TOL = 1e-8
DEFAULT_SECTION_EPS = 1e-6

# Finite-section heuristic calibration: besides the eps-count, each section
# also counts singular values below this fraction of the operator norm; a
# symbol touching zero fills that window at a rate proportional to the
# section size, while discrete near-zero states contribute a bounded count.
MODERATE_FRACTION = 0.02


@dataclass(frozen=True)
class Diagonal:
    """One diagonal: two limits and a finite window of overrides."""

    limit_minus: complex = 0j
    limit_plus: complex = 0j
    core: tuple = ()    # sorted pairs (index, value)

    def __post_init__(self):
        core = tuple(sorted((int(i), complex(v)) for i, v in dict(self.core).items()))
        object.__setattr__(self, "core", core)
        object.__setattr__(self, "limit_minus", complex(self.limit_minus))
        object.__setattr__(self, "limit_plus", complex(self.limit_plus))

    def value(self, n):
        for i, v in self.core:
            if i == n:
                return v
        return self.limit_minus if n < 0 else self.limit_plus

    def is_trivial(self):
        return (self.limit_minus == 0 and self.limit_plus == 0 and
                all(v == 0 for _, v in self.core))


def _build_diagonals(offsets, coeff, window_lo, window_hi):
    """Diagonals from a coefficient function, sampled on a safe window.

    ``coeff(k, n)`` must already be in its limit regime for n outside
    [window_lo, window_hi]; window_lo must be negative and window_hi
    positive so the limits are read on the correct sides.
    """
    diags = {}
    for k in offsets:
        lm = coeff(k, window_lo - 1)
        lp = coeff(k, window_hi + 1)
        core = {}
        for n in range(window_lo, window_hi + 1):
            v = coeff(k, n)
            if v != (lm if n < 0 else lp):
                core[n] = v
        diags[k] = Diagonal(lm, lp, tuple(core.items()))
    return diags


class BandOperator:
    """A banded lattice operator with eventually constant diagonals."""

    def __init__(self, diagonals):
        diags = {}
        for k, d in dict(diagonals).items():
            if not isinstance(d, Diagonal):
                d = Diagonal(*d) if isinstance(d, tuple) else Diagonal(**d)
            # drop core overrides that agree with the limit at their position
            core = tuple((i, v) for i, v in d.core
                         if v != (d.limit_minus if i < 0 else d.limit_plus))
            d = Diagonal(d.limit_minus, d.limit_plus, core)
            if not d.is_trivial():
                diags[int(k)] = d
        self.diagonals = diags
        self.bandwidth = max((abs(k) for k in diags), default=0)

    @classmethod
    def from_limits(cls, limits, core=None):
        """Build from {offset: (limit_minus, limit_plus)} and optional cores."""
        core = core or {}
        return cls({k: Diagonal(lm, lp, tuple(core.get(k, {}).items()))
                    for k, (lm, lp) in limits.items()})

    @classmethod
    def toeplitz(cls, coefficients):
        """A translation-invariant band operator (equal limits, no core)."""
        return cls({k: Diagonal(c, c) for k, c in coefficients.items()})

    @classmethod
    def identity(cls):
        return cls.toeplitz({0: 1.0})

    def coefficient(self, k, n):
        d = self.diagonals.get(k)
        return 0j if d is None else d.value(n)

    def entry(self, i, j):
        return self.coefficient(i - j, i)

    def core_window(self):
        """Hull [lo, hi] of the core overrides (row indices); (0, -1) if none."""
        idx = [i for d in self.diagonals.values() for i, _ in d.core]
        if not idx:
            return (0, -1)
        return (min(idx), max(idx))

    def truncation(self, N):
        """The dense finite section over rows and columns in [-N, N]."""
        n = 2 * N + 1
        M = np.zeros((n, n), dtype=complex)
        for k, d in self.diagonals.items():
            for i in range(max(-N, -N + k), min(N, N + k) + 1):
                M[i + N, i - k + N] = d.value(i)
        return M

    def gram_banded(self, N):
        """Upper band storage of the Gram matrix of the finite section.

        Returns (bands, size) with bands in the layout scipy's banded
        eigensolvers expect; the Gram matrix A*A has bandwidth 2w.  Row i
        holds c_k(i) in column i - k, so the pair of offsets k1 >= k2 adds
        conj(c_k1(i)) c_k2(i) to the entry (i - k1, i - k2).
        """
        n = 2 * N + 1
        w = self.bandwidth
        rows = np.arange(-N, N + 1)
        coeffs = {}
        for k, d in self.diagonals.items():
            c = np.where(rows < 0, d.limit_minus, d.limit_plus)
            for i, v in d.core:
                if -N <= i <= N:
                    c[i + N] = v
            coeffs[k] = c
        bands = np.zeros((2 * w + 1, n), dtype=complex)
        for k1, c1 in coeffs.items():
            for k2, c2 in coeffs.items():
                lo, hi = max(-N, k1 - N), min(N, k2 + N)
                if k1 >= k2 and lo <= hi:
                    # upper storage: bands[u + j1 - j2, j2] with u = 2w
                    r = slice(lo + N, hi + N + 1)
                    bands[2 * w - k1 + k2, lo - k2 + N:hi - k2 + N + 1] += (
                        np.conj(c1[r]) * c2[r])
        return bands, n

    def _safe_window(self, *others, shift=0):
        """A window outside which every involved sequence sits at its limits."""
        lo, hi = self.core_window()
        los, his = [lo], [hi]
        for B in others:
            l2, h2 = B.core_window()
            los.append(l2)
            his.append(h2)
        pad = shift + self.bandwidth + sum(B.bandwidth for B in others) + 2
        return min(min(los), 0) - pad, max(max(his), 0) + pad

    def adjoint(self):
        """The adjoint band operator: entries conjugated across the diagonal."""
        lo, hi = self._safe_window(shift=self.bandwidth)

        def coeff(k, n):
            return np.conj(self.coefficient(-k, n - k))

        offsets = [-k for k in self.diagonals]
        return BandOperator(_build_diagonals(offsets, coeff, lo, hi))

    def is_selfadjoint(self):
        A, B = self.diagonals, self.adjoint().diagonals
        return set(A) == set(B) and all(A[k] == B[k] for k in A)

    def __add__(self, other):
        lo, hi = self._safe_window(other)
        offsets = set(self.diagonals) | set(other.diagonals)

        def coeff(k, n):
            return self.coefficient(k, n) + other.coefficient(k, n)

        return BandOperator(_build_diagonals(offsets, coeff, lo, hi))

    def __mul__(self, scalar):
        return BandOperator({
            k: Diagonal(scalar * d.limit_minus, scalar * d.limit_plus,
                        tuple((i, scalar * v) for i, v in d.core))
            for k, d in self.diagonals.items()})

    __rmul__ = __mul__

    def __sub__(self, other):
        return self + (-1.0) * other

    def __matmul__(self, other):
        """Exact band product: c_k(n) = sum over i+j=k of a_i(n) b_j(n-i)."""
        lo, hi = self._safe_window(other, shift=self.bandwidth + other.bandwidth)
        w = self.bandwidth + other.bandwidth

        def coeff(k, n):
            return sum(self.coefficient(i, n) * other.coefficient(k - i, n - i)
                       for i in self.diagonals)

        return BandOperator(_build_diagonals(range(-w, w + 1), coeff, lo, hi))

    def __repr__(self):
        lo, hi = self.core_window()
        return (f"BandOperator(bandwidth={self.bandwidth}, "
                f"core_window=[{lo},{hi}])")


@dataclass(frozen=True)
class LaurentSymbol:
    """A trigonometric polynomial sigma(theta) = sum_k c_k exp(i k theta)."""

    coefficients: tuple  # sorted pairs (offset, complex value)

    def __post_init__(self):
        coeffs = tuple(sorted((int(k), complex(v))
                              for k, v in dict(self.coefficients).items()
                              if v != 0))
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def from_dict(cls, table):
        return cls(tuple(table.items()))

    def coefficient(self, k):
        return dict(self.coefficients).get(k, 0j)

    def __call__(self, theta):
        theta = np.asarray(theta, dtype=float)
        out = np.zeros(theta.shape, dtype=complex)
        for k, c in self.coefficients:
            out += c * np.exp(1j * k * theta)
        return out

    def lipschitz_bound(self):
        """A bound on |d sigma / d theta|: sum of |k c_k|."""
        return float(sum(abs(k) * abs(c) for k, c in self.coefficients))

    def product(self, other):
        out = {}
        for k1, c1 in self.coefficients:
            for k2, c2 in other.coefficients:
                out[k1 + k2] = out.get(k1 + k2, 0j) + c1 * c2
        return LaurentSymbol(tuple(out.items()))

    def max_abs_difference(self, other):
        keys = {k for k, _ in self.coefficients} | {k for k, _ in other.coefficients}
        if not keys:
            return 0.0
        return max(abs(self.coefficient(k) - other.coefficient(k)) for k in keys)


def limit_operator(A, end):
    """The limit symbol of A at one end; ``end`` is 'minus' or 'plus'.

    The core window is discarded: only the exact limits survive.
    """
    if end not in ("minus", "plus"):
        raise InputError("end must be 'minus' or 'plus'")
    table = {}
    for k, d in A.diagonals.items():
        table[k] = d.limit_minus if end == "minus" else d.limit_plus
    return LaurentSymbol(tuple(table.items()))


@dataclass(frozen=True)
class SymbolCheck:
    invertible: bool
    min_modulus: float
    margin: float
    grid: int


def _is_hermitian_symbol(sym):
    """True when c_{-k} = conj(c_k) for all k, i.e. sigma is real-valued."""
    table = dict(sym.coefficients)
    return all(table.get(-k, 0j) == np.conj(c) for k, c in sym.coefficients)


def symbol_invertible(sym, grid=DEFAULT_GRID, tol=DEFAULT_SYMBOL_TOL):
    """Certified invertibility of the Laurent operator with this symbol.

    Scans |sigma| on a uniform grid and subtracts the Lipschitz slack
    L * pi / grid, with L = sum |k c_k|:

    * invertible when the certified minimum exceeds tol;
    * not invertible when the raw grid minimum is already within tol of
      zero, or -- for real-valued symbols (Hermitian coefficients) -- when
      the values change sign between grid points, which pins a zero by the
      intermediate value theorem;
    * otherwise the scan is inconclusive and GridRefinementNeeded is raised
      rather than guessing.
    """
    degree = max((abs(k) for k, _ in sym.coefficients), default=0)
    if grid < 4 * (2 * degree + 1):
        raise InputError("grid is too coarse for the symbol degree")
    theta = np.linspace(0.0, 2.0 * np.pi, int(grid), endpoint=False)
    values = sym(theta)
    moduli = np.abs(values)
    min_modulus = float(moduli.min()) if moduli.size else 0.0
    margin = min_modulus - sym.lipschitz_bound() * np.pi / grid
    if margin > tol:
        return SymbolCheck(True, min_modulus, float(margin), int(grid))
    if min_modulus <= tol:
        return SymbolCheck(False, min_modulus, float(margin), int(grid))
    if _is_hermitian_symbol(sym):
        real = values.real
        if np.any(real * np.roll(real, -1) < 0):
            return SymbolCheck(False, min_modulus, float(margin), int(grid))
    raise GridRefinementNeeded(min_modulus, margin, grid)


@dataclass(frozen=True)
class FredholmVerdict:
    fredholm: bool
    minus: SymbolCheck
    plus: SymbolCheck
    method: str = "symbolic"

    def end(self, which):
        return self.minus if which == "minus" else self.plus


def fredholm_verdict(A, grid=DEFAULT_GRID, tol=DEFAULT_SYMBOL_TOL):
    """Fredholm iff both limit symbols are invertible; margins are carried."""
    minus = symbol_invertible(limit_operator(A, "minus"), grid, tol)
    plus = symbol_invertible(limit_operator(A, "plus"), grid, tol)
    return FredholmVerdict(minus.invertible and plus.invertible, minus, plus)


@dataclass(frozen=True)
class LocalityReport:
    left_fredholm: bool
    right_fredholm: bool
    two_sided: FredholmVerdict

    @property
    def conjunction_identity(self):
        return self.two_sided.fredholm == (self.left_fredholm and self.right_fredholm)


def locality_check(A, grid=DEFAULT_GRID, tol=DEFAULT_SYMBOL_TOL):
    """One-sided verdicts from each half line, beside the two-sided verdict.

    The half containing an end sees exactly one limit symbol, so the
    one-sided verdict is that symbol's invertibility.  Both are read off the
    symbol checks of the two-sided verdict itself, so the conjunction
    identity holds by construction: the report restates the verdict per
    side, it does not test it.
    """
    verdict = fredholm_verdict(A, grid, tol)
    return LocalityReport(verdict.minus.invertible, verdict.plus.invertible,
                          verdict)


# -- finite sections ---------------------------------------------------------


@dataclass(frozen=True)
class FiniteSectionReport:
    sizes: tuple
    eps: float
    counts: tuple           # singular values below eps, per size
    window_counts: tuple    # singular values below the moderate window, per size
    window: float           # the moderate threshold actually used
    norm_estimate: float    # largest singular value at the largest size
    flag: str               # CONSISTENT-FREDHOLM / CONSISTENT-NONFREDHOLM / INCONCLUSIVE


def finite_section_analysis(A, sizes, eps=DEFAULT_SECTION_EPS):
    """Three-valued truncation diagnostics for the Fredholm verdict.

    Each section over [-N, N] contributes the number of singular values
    below eps and the number below a moderate window (a fixed small fraction
    of the operator norm).  Each section costs one full banded eigenvalue
    solve of its Gram matrix; both counts, and the norm at the largest size,
    are read off that sorted spectrum.  The flag is a heuristic:

    * either count strictly increasing -> CONSISTENT-NONFREDHOLM (the
      window fills at a rate proportional to the section size exactly when
      a limit symbol reaches zero);
    * both counts non-increasing beyond the smallest size ->
      CONSISTENT-FREDHOLM (a bounded count of tiny singular values --
      index artifacts, e.g. for shifts, or discrete states trapped by the
      core -- is absorbed, not misread as spectrum filling in);
    * anything else -> INCONCLUSIVE.

    The window count supplements the raw eps-count because at moderate
    section sizes a symbol touching zero produces singular values that
    approach zero only like 1/N, which a tiny fixed eps cannot yet see.
    """
    sizes = [int(N) for N in sizes]
    if sorted(sizes) != sizes or len(sizes) < 2:
        raise InputError("sizes must be an increasing list of at least two entries")
    lo, hi = A.core_window()
    needed = 4 * (max(abs(lo), abs(hi), 1) + A.bandwidth)
    if sizes[0] <= needed:
        raise InputError(f"smallest size must exceed {needed} for this operator")

    spectra = [eigvals_banded(A.gram_banded(N)[0]) for N in sizes]
    scale = float(np.sqrt(max(spectra[-1][-1], 0.0)))
    window = max(MODERATE_FRACTION * scale, 4.0 * eps)

    def below(threshold):
        # Gram eigenvalues in (-1, threshold**2], per size
        t = float(threshold) ** 2
        return [int(np.count_nonzero((vals > -1.0) & (vals <= t))) for vals in spectra]

    counts, window_counts = below(eps), below(window)

    def growing(seq):
        return all(b > a for a, b in zip(seq, seq[1:]))

    def bounded(seq):
        return all(b <= a for a, b in zip(seq, seq[1:]))

    if growing(counts) or growing(window_counts):
        flag = "CONSISTENT-NONFREDHOLM"
    elif bounded(counts) and bounded(window_counts):
        flag = "CONSISTENT-FREDHOLM"
    else:
        flag = "INCONCLUSIVE"
    return FiniteSectionReport(tuple(sizes), float(eps), tuple(counts),
                               tuple(window_counts), float(window),
                               float(scale), flag)
