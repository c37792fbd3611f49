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

import functools
from dataclasses import dataclass

import numpy as np

from .errors import AmbiguityError, GridRefinementNeeded, InputError

DEFAULT_GRID = 4096
DEFAULT_SYMBOL_TOL = 1e-8
DEFAULT_SECTION_EPS = 1e-6
DEFAULT_SECTION_SIZES = (256, 512, 1024)

# Rounding floors of the finite-section counts, u the unit roundoff:
# * Sturm sweep (Hermitian tridiagonal sections): the count is exact for a
#   tridiagonal whose off-diagonal entries differ by at most ~2.5u relatively
#   (Kahan 1966; Demmel, Applied Numerical Linear Algebra, section 5.3), so
#   only an eigenvalue within ~5u ||A|| of -t or t can fall on the wrong side.
# * Block cyclic reduction on the Golub-Kahan dilation (all other bands):
#   its scale is the coefficient bound B = sum_k max_i |c_k(i)|, which needs
#   no solve and bounds every section norm, ||A_N|| <= B <= (2w + 1) ||A||
#   (B / ||A_N|| read 1.02-2.47, median 1.62, on the 700 general operators
#   of the sections benchmark at seeds 0-9 and 100-109).  Each level is
#   backward stable up to ~d u ||C|| for the blocks C it diagonalises, d the
#   largest block dimension reached (b = 2(w + 1) plus the directions
#   carried).  Carrying every direction whose update would exceed
#   PIVOT_GROWTH B keeps ||C|| below ~d PIVOT_GROWTH B, so a level can
#   miscount only a singular value within ~d^2 PIVOT_GROWTH u B of t.  The
#   reduction raises past d = 6b, where that is 1.4e-10 B for b = 6: below
#   eps = 1e-9 for B <= 6.  The levels' errors add (12 levels at N = 4096);
#   on the 700 operators above the blocks reached at most 36 unknowns (one
#   operator; the next largest 27) and 2.9e3 B, at most 2.5e-11 B summed
#   over all levels.
# Both sit far below DEFAULT_SECTION_EPS; counting on A*A would square the
# floor to ~sqrt(n u) ||A||, 5e-7 ||A|| at N = 1024.
# An eliminated Schur-complement eigenvalue of modulus at most
# SCHUR_PIVOT_TOL * dim(C) * max(B, largest eliminated modulus) has no
# determinable sign at that floor: the reduction raises AmbiguityError.
SCHUR_PIVOT_TOL = 8 * np.finfo(float).eps
PIVOT_GROWTH = 1e3

# The window count rests on two results on finite sections of band
# operators.  Singular-value splitting (Boettcher-Silbermann, Introduction
# to Large Truncated Toeplitz Matrices, 1999, ch. 4; Lindner, Infinite
# Matrices and their Finite Sections, 2006): if A is Fredholm, a bounded
# number of the singular values of its sections -- index and core
# artifacts -- may tend to zero while all others stay above a positive
# bound.  Avram-Parter distribution (Boettcher-Silbermann ch. 5): the
# singular values of the sections are distributed like the moduli of the
# limit symbols, half the section in each limit regime, so the count below
# a threshold t grows in proportion to N as soon as a limit symbol dips
# below t on an arc.  The scale of that distribution is the essential norm
# of A, its norm modulo compacts: the core is of finite rank, so that norm
# is max over both ends of max_theta |sigma(theta)|.  A window of MODERATE_FRACTION times that
# norm separates the two cases for every operator whose limit symbols
# either reach zero or stay above the window.  The norm is read on the
# DEFAULT_GRID scan, whose maximum sits at most L pi / grid below the true
# one (L the Lipschitz bound of the symbol, as in symbol_invertible).
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

    def section_coefficients(self, N):
        """The (2w + 1, 2N + 1) table whose row k + w holds c_k(i), i in [-N, N]."""
        w = self.bandwidth
        rows = np.arange(-N, N + 1)
        table = np.zeros((2 * w + 1, 2 * N + 1), dtype=complex)
        for k, d in self.diagonals.items():
            c = table[k + w]
            c[:] = np.where(rows < 0, d.limit_minus, d.limit_plus)
            for i, v in d.core:
                if -N <= i <= N:
                    c[i + N] = v
        return table

    def gram_banded(self, N):
        """Upper band storage of the Gram matrix of the finite section.

        Returns (bands, size) with bands in the layout scipy's banded
        solvers expect; the Gram matrix A*A has bandwidth 2w.  Row i
        holds c_k(i) in column i - k, so the pair of offsets k1 >= k2 adds
        conj(c_k1(i)) c_k2(i) to the entry (i - k1, i - k2).  No verdict
        reads it: it stays only as a target of gcbench's tracer.
        """
        n = 2 * N + 1
        w = self.bandwidth
        coeffs = self.section_coefficients(N)
        bands = np.zeros((2 * w + 1, n), dtype=complex)
        for k1 in self.diagonals:
            for k2 in self.diagonals:
                c1, c2 = coeffs[k1 + w], coeffs[k2 + w]
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


@functools.lru_cache(maxsize=64)
def _unit_circle_wave(grid, k):
    """exp(i k theta) on the uniform grid of ``grid`` angles in [0, 2 pi);
    read-only, computed once per (grid, k)."""
    theta = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)
    wave = np.exp(1j * k * theta)
    wave.flags.writeable = False
    return wave


def _symbol_values(sym, grid):
    """sigma on the uniform grid: the sum of LaurentSymbol.__call__, term by
    term over the cached waves."""
    values = np.zeros(int(grid), dtype=complex)
    for k, c in sym.coefficients:
        values += c * _unit_circle_wave(int(grid), k)
    return values


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
    if not 0 < tol < np.inf:
        raise InputError("tol must be finite and positive")
    values = _symbol_values(sym, grid)
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


def locality_check(A, grid=DEFAULT_GRID, tol=DEFAULT_SYMBOL_TOL):
    """One-sided verdicts from each half line, beside the two-sided verdict.

    The half containing an end sees exactly one limit symbol, so the
    one-sided verdict is that symbol's invertibility, read off the symbol
    checks of the two-sided verdict itself.
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
    flag: str               # CONSISTENT-FREDHOLM / CONSISTENT-NONFREDHOLM / INCONCLUSIVE


# The Fredholm verdict each conclusive flag stands for; INCONCLUSIVE has none.
FLAG_VERDICT = {"CONSISTENT-FREDHOLM": True, "CONSISTENT-NONFREDHOLM": False}


def eigvals_banded(*args, **kwargs):
    """scipy.linalg.eigvals_banded, imported on the first call.

    No verdict calls it: it stays only as a target of gcbench's tracer.
    """
    from scipy.linalg import eigvals_banded as banded
    return banded(*args, **kwargs)


def _hermitian_sections(A, sizes, thresholds):
    """#{sigma <= t} of every Hermitian tridiagonal section and threshold.

    A diagonal unitary similarity turns every coupling c_1(i) into |c_1(i)|,
    so a section is real symmetric and #{sigma <= t} = #{lambda in (-t, t]}.
    LAPACK's dstebz counts (-t, t] by Sturm sweeps under Kahan's pivmin rule
    (a pivot below safmin * max(1, max e_j^2) in modulus becomes -pivmin).
    It first treats a coupling as zero when e_j^2 <= ulp^2 |d_j d_{j+1}| +
    safmin, which moves no eigenvalue by more than ~ulp ||A|| (Weyl): inside
    the ~5u ||A|| floor of the Sturm count.  abstol = 2t spans the whole
    interval, so no eigenvalue is refined.
    """
    from scipy.linalg.lapack import dstebz

    w, out = A.bandwidth, [[] for _ in thresholds]
    for N in sizes:
        c = A.section_coefficients(N)
        diag = c[w].real.copy()
        # couplings of rows -N + 1 .. N; row -N couples to nothing above it
        off = np.abs(c[w + 1, 1:]) if w else np.zeros(diag.size - 1)
        for row, t in zip(out, thresholds):
            m, _, _, _, info = dstebz(diag, off, 1, -t, t, 0, 0, 2 * t, b"B")
            if info < 0:
                raise InputError(f"dstebz rejected argument {-info} at threshold {t}")
            row.append(m)
    return out


def _dilation_blocks(A, sizes):
    """The distinct blocks of every section's dilation H, and where they sit.

    H is the interleaved Golub-Kahan dilation of a section, with unknowns
    x_0, y_0, x_1, y_1, ... and H[x_i, y_j] = A[i, j]: Hermitian of
    bandwidth 2w + 1, so block tridiagonal in blocks of b = 2(w + 1).  Block
    k of size s is entry index[s, k] of three pools: its diagonal block D
    (unshifted), its coupling L = H[block k + 1, block k] and its count of
    live unknowns, which come first.  Every section runs over the blocks of
    the largest; unknowns past its end are padding, decoupled.  Both blocks
    are read from the rows of blocks k and k + 1, so a block repeats its
    predecessor when those rows repeat bit for bit (uint64 views, so that
    +0 and -0 stay apart), and only one block is built per distinct run.
    The pool numbers its blocks in order of first appearance, smallest
    section first, through a dict over the bytes of each run's key: no row
    is sorted.
    """
    w = A.bandwidth
    m, b = w + 1, 2 * w + 2             # section rows and unknowns per block
    Nmax = sizes[-1]
    n_blocks = 2 * Nmax // m + 1
    table = A.section_coefficients(Nmax)   # table[d + w, i + Nmax] = c_d(i)
    bits = table.view(np.uint64)        # two words per coefficient
    # column c + m repeats column c
    repeats = (bits[:, 2 * m:] == bits[:, :-2 * m]).all(0).reshape(-1, 2).all(1)
    offsets = np.arange(-w, w + 1)
    # the x-row p of a block meets the y-column p - d, counted from that
    # block, inside the three blocks k - 1, k, k + 1
    p, d = np.meshgrid(np.arange(m), offsets)
    scatter = (2 * p * 3 * b + 2 * (p - d + m) + 1).ravel()
    keys, windows, runs = [], [], []
    for N in sizes:
        # row r repeats row r - m where neither loses a column at the ends of
        # the section and the table repeats, and where both lie past its end
        same = np.zeros((n_blocks + 1) * m, dtype=bool)
        same[m + w:2 * N + 1 - w] = repeats[Nmax - N + w:Nmax + N + 1 - w - m]
        same[2 * N + 1 + m:] = True
        same = same[m:].reshape(-1, m).all(1)
        live = 2 * np.clip(2 * N + 1 - m * np.arange(n_blocks), 0, m)
        # block k + 1 repeats block k when the rows of blocks k + 1 and k + 2 do
        repeat = same[:-1] & same[1:] & (live[1:] == live[:-1])
        starts = np.flatnonzero(np.r_[True, ~repeat])
        runs.append(np.diff(np.r_[starts, n_blocks]))
        # A_N[r, r - d] = c_d(r - N), zero unless row and column are inside,
        # on the rows of each run's first block and the next
        r = m * starts[:, None] + np.arange(2 * m)
        col = r - offsets[:, None, None]
        window = np.where((r <= 2 * N) & (col >= 0) & (col <= 2 * N),
                          table[:, np.clip(r - N + Nmax, 0, 2 * Nmax)], 0)
        windows.append(np.ascontiguousarray(window.transpose(1, 2, 0)))  # (runs, 2m, 2w+1)
        keys.append(np.hstack([windows[-1].view(np.uint64).reshape(starts.size, -1),
                               live[starts, None].astype(np.uint64)]))
    keys, seen = np.vstack(keys), {}   # key -> (block number, its first run)
    at = np.array([seen.setdefault(key.tobytes(), (len(seen), i))[0]
                   for i, key in enumerate(keys)])
    first = np.array([i for _, i in seen.values()])
    index = np.repeat(at, np.concatenate(runs)).reshape(len(sizes), n_blocks)
    window = np.concatenate(windows)[first]
    F = np.zeros((len(first), 2, b * 3 * b), dtype=complex)
    F[..., scatter] = (window.reshape(-1, 2, m, 2 * w + 1).swapaxes(2, 3)
                       .reshape(len(F), 2, scatter.size))
    F = F.reshape(-1, 2, b, 3 * b)
    mid = F[:, 0, :, b:2 * b]
    return (mid + mid.conj().swapaxes(1, 2),
            F[:, 1, :, :b] + F[:, 0, :, 2 * b:].conj().swapaxes(1, 2),
            keys[first, -1].astype(int), index)


def _negative_pivots(vals, floor, norm, level):
    """Negative eliminated eigenvalues per row; a pivot on its floor raises."""
    size = np.abs(vals)
    pivots, floors = size.min(-1), floor * np.maximum(norm, size.max(-1))
    if np.any(singular := pivots <= floors):
        # the pivot deepest below its floor, whatever the order of the rows
        at = min(np.flatnonzero(singular), key=lambda i: (pivots[i] / floors[i], floors[i]))
        raise AmbiguityError(
            f"block Schur complement at level {level} of the section dilation "
            f"is singular to working precision (pivot {pivots[at]:.3g} at or "
            f"below its floor {floors[at]:.3g})")
    return (vals < 0).sum(-1)


def _distinct(*index):
    """The distinct tuples of equally shaped index arrays, and where each sits.

    The tuples come sorted, as np.unique returns them.  Chains hold long
    runs of one tuple, so only the heads of runs (in flat order) are sorted
    and each run takes the position of its head.
    """
    bases = [int(i.max(initial=0)) + 1 for i in index]
    codes = np.ravel_multi_index(index, bases).ravel()
    head = np.ones(codes.size, dtype=bool)      # where each run begins
    np.not_equal(codes[1:], codes[:-1], out=head[1:])
    tuples, at = np.unique(codes[head], return_inverse=True)
    return np.unravel_index(tuples, bases), at[np.cumsum(head) - 1].reshape(index[0].shape)


def _eliminate(D, blocks, L, left, right, norm, level):
    """Eliminate blocks D[blocks] between the couplings L[left] and L[right].

    Returns their negative eigenvalues, three blocks of G = Y* diag(1/lambda) Y
    over the eliminated eigendirections (rows Y: the couplings to the left
    and right block) -- its two diagonal blocks, the updates of those blocks,
    and its lower off-diagonal one, their new coupling -- and the directions
    carried to the left and to the right (no list entries when no direction
    is deferred).  A last, null triple stands for the missing neighbour at a
    chain's end.  Each distinct block is diagonalised once.
    """
    distinct, at = np.unique(blocks, return_inverse=True)
    lam, V = np.linalg.eigh(D[distinct])
    lam, Vh = lam[at], V.conj().swapaxes(1, 2)[at]
    d = D.shape[-1]
    Y = Vh @ np.concatenate([L[left], L[right].conj().swapaxes(1, 2)], axis=2)
    lam, Y = np.vstack([lam, np.full(d, norm)]), np.concatenate([Y, 0 * Y[:1]])
    weight = (np.abs(Y) ** 2).reshape(len(lam), d, 2, d).sum(-1)
    defer = weight.sum(-1) > PIVOT_GROWTH * norm * np.abs(lam)
    negative = _negative_pivots(np.where(defer, norm, lam), SCHUR_PIVOT_TOL * d,
                                norm, level)
    Yh, scaled = Y.conj().swapaxes(1, 2), Y / np.where(defer, np.inf, lam)[..., None]
    G = (Yh[:, :d] @ scaled[..., :d], Yh[:, d:] @ scaled[..., d:],
         Yh[:, d:] @ scaled[..., :d])
    carried = []
    if defer.any():
        # a deferred direction joins the neighbour it couples to more strongly;
        # per side, the carried ones come first, padded to one count with
        # decoupled directions of eigenvalue norm
        to_left = defer & (weight[..., 0] >= weight[..., 1])
        for mask in (to_left, defer & ~to_left):
            r = mask.sum(-1)
            order = np.argsort(~mask, axis=-1, kind="stable")[:, :r.max()]
            keep = np.arange(r.max()) < r[:, None]
            carried.append((np.where(keep, np.take_along_axis(lam, order, -1), norm),
                            np.take_along_axis(Y, order[..., None], 1) * keep[..., None], r))
    return negative, G, carried


def _reduction_level(D, L, live, blocks, links, norm, level):
    """One level of the reduction: (negatives per chain, the next level).

    Chains are the rows of ``blocks`` (pool entries of D, live) and
    ``links`` (pool entries of L, the coupling to the next block; the last
    of a chain is zero).  Each odd position is eliminated against its
    neighbours; the even positions form the next level.  Without a carried
    direction the new coupling of two even neighbours depends on the odd
    triple between them alone, so it keeps that triple's index; only a
    level that carries deduplicates its link triples.
    """
    K, d = blocks.shape[1], D.shape[-1]
    (tb, tl, tr), inv = _distinct(blocks[:, 1::2], links[:, :K - 1:2], links[:, 1::2])
    negative, (Gll, Grr, Grl), carried = _eliminate(D, tb, L, tl, tr, norm, level)
    # each even block between its two odd neighbours (or the null triple),
    # and the coupling of two even neighbours through the odd block between
    K2, null = (K + 1) // 2, np.full((len(blocks), 1), len(tb))
    (tl, e, tr), at = _distinct(np.hstack([null, inv])[:, :K2], blocks[:, ::2],
                                np.hstack([inv, null])[:, :K2])
    D, L, live, links = D[e] - Grr[tl] - Gll[tr], -Grl, live[e], inv[:, :K2 - 1] + 1
    if carried:
        # border the blocks with the directions carried from the right and
        # from the left, then bring the live unknowns first; a coupling now
        # also depends on the carried directions of both its ends
        (tm, lo, hi), at2 = _distinct(inv[:, :K2 - 1], at[:, :-1], at[:, 1:])
        (lamL, YL, rL), (lamR, YR, rR) = carried
        RL, RR = YL.shape[1], YR.shape[1]
        n = d + RL + RR
        raw = np.zeros((len(e), n, n), dtype=complex)
        raw[:, :d, :d] = D
        raw[:, d:d + RL, :d] = YL[tr, :, :d]
        raw[:, d + RL:, :d] = YR[tl, :, d:]
        raw[:, :d, d:] = raw[:, d:, :d].conj().swapaxes(1, 2)
        raw.reshape(len(e), n * n)[:, d * (n + 1)::n + 1] = np.hstack([lamL[tr], lamR[tl]])
        pad = np.hstack([np.arange(d) >= live[:, None], np.arange(RL) >= rL[tr][:, None],
                         np.arange(RR) >= rR[tl][:, None]])
        live = live + rL[tr] + rR[tl]
        perm = np.argsort(pad, axis=1, kind="stable")[:, :live.max()]
        D = raw[np.arange(len(e))[:, None, None], perm[:, :, None], perm[:, None, :]]
        raw = np.zeros((len(tm), n, n), dtype=complex)
        raw[:, :d, :d] = L[tm]
        raw[:, :d, d:d + RL] = YL[tm, :, d:].conj().swapaxes(1, 2)
        raw[:, d + RL:, :d] = YR[tm, :, :d]
        L = raw[np.arange(len(tm))[:, None, None], perm[hi][:, :, None], perm[lo][:, None, :]]
        links = at2 + 1
    # live unknowns come first (already so without carried directions);
    # padding beyond the largest live count is dropped, and L[0] is zero
    top = live.max()
    L = np.concatenate([np.zeros((1, top, top)), L[:, :top, :top]])
    links = np.hstack([links, np.zeros_like(at[:, :1])])
    return negative[inv].sum(1), (D[:, :top, :top], L, live, at, links)


def _dilation_counts(A, sizes, thresholds, norm):
    """#{sigma <= t} of every section and threshold, by block cyclic reduction.

    The dilation H has eigenvalues +-sigma, so #{sigma <= t} =
    n - neg(H + tI).  Each level diagonalises every odd-position block and
    eliminates its eigendirections against its two neighbours (Heller
    1976): by Haynsworth additivity each adds its sign to neg(H + tI), and
    the even blocks, updated and newly coupled, form the next level.  A
    direction whose update ||y||^2 / |lambda| on the neighbours would exceed
    PIVOT_GROWTH * norm joins the neighbour it couples to more strongly
    instead: pivoting in the eigenbasis, which bounds the growth of the
    blocks.  ``norm`` scales that growth and the pivot floors, and must be
    at least every section's norm, as the coefficient bound B is.  All
    thresholds and sizes share each level, one chain per (threshold, size),
    held as distinct blocks and couplings plus index arrays, level 0's
    numbered by first appearance: each level diagonalises each distinct odd
    block once, eliminates once per distinct (block, left coupling, right
    coupling) triple, found by sorting only the heads of runs of equal
    triples, and does carry bookkeeping, including the deduplication of its
    link triples, only when it defers a direction; the shifts touch only
    the diagonal blocks.  Padding unknowns stay exactly decoupled behind the
    live ones, and each level keeps as many as its largest block has live:
    every chain is padded to the threshold that carries the most
    directions.
    """
    pool, L, live, index = _dilation_blocks(A, sizes)
    b, T = pool.shape[-1], len(thresholds)
    unknowns = np.arange(b) < live[:, None]
    # threshold k: the k-th len(sizes) chains, over the k-th shifted pool
    D = np.concatenate([pool + np.eye(b) * np.where(unknowns, t, norm)[:, None]
                        for t in thresholds])
    live, blocks = np.tile(live, T), np.vstack([index + k * len(pool) for k in range(T)])
    links, negative, level = np.tile(index, (T, 1)), 0, 0
    while blocks.shape[1] > 1:
        found, (D, L, live, blocks, links) = _reduction_level(D, L, live, blocks, links,
                                                              norm, level)
        negative, level = negative + found, level + 1
        if D.shape[-1] > 6 * b:     # bounds the rounding floor of a level
            raise AmbiguityError(
                f"{D.shape[-1]}-dimensional block at level {level} of the section "
                "dilation: too many ill-conditioned directions carried")
    last, at = np.unique(blocks[:, 0], return_inverse=True)
    negative += _negative_pivots(np.linalg.eigvalsh(D[last]),
                                 SCHUR_PIVOT_TOL * D.shape[-1], norm, level)[at]
    return [[2 * N + 1 - int(k) for N, k in zip(sizes, row)]
            for row in negative.reshape(T, len(sizes))]


def _coefficient_bound(A):
    """B = sum_k max_i |c_k(i)|: at least the norm of every section."""
    return float(sum(max(abs(d.limit_minus), abs(d.limit_plus), *(abs(v) for _, v in d.core))
                     for d in A.diagonals.values()))


def finite_section_analysis(A, sizes, eps=DEFAULT_SECTION_EPS):
    """Three-valued truncation diagnostics for the Fredholm verdict.

    Each section over [-N, N] contributes the number of singular values
    below eps and the number below a moderate window,
    max(MODERATE_FRACTION * ess, 4 eps), where ess, the essential norm, is
    the largest |sigma| of the two limit symbols on the DEFAULT_GRID scan
    (at most L pi / grid below the true maximum).  Both are inertia counts,
    read without computing a singular value:

    * a Hermitian tridiagonal operator counts the eigenvalues of each
      section in (-t, t] with LAPACK's Sturm counter;
    * any other band counts the negative eigenvalues of its Golub-Kahan
      dilation shifted by t by block cyclic reduction, one level at a time
      for all sizes and both thresholds over their distinct blocks, with
      its pivot floors scaled by the coefficient bound B = sum_k max |c_k|.

    The flag is a heuristic:

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
    A block Schur complement that is singular to working precision raises
    AmbiguityError instead of guessing a count.
    """
    sizes = [int(N) for N in sizes]
    if len(sizes) < 2 or any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise InputError("sizes must be an increasing list of at least two entries")
    if not 0 < eps < np.inf:
        raise InputError("eps must be finite and positive")
    lo, hi = A.core_window()
    needed = 4 * (max(abs(lo), abs(hi), 1) + A.bandwidth)
    if sizes[0] <= needed:
        raise InputError(f"smallest size must exceed {needed} for this operator")

    ess = max(np.abs(_symbol_values(limit_operator(A, end), DEFAULT_GRID)).max()
              for end in ("minus", "plus"))
    window = max(MODERATE_FRACTION * float(ess), 4.0 * eps)
    if A.bandwidth <= 1 and A.is_selfadjoint():
        counts, window_counts = _hermitian_sections(A, sizes, (eps, window))
    else:
        counts, window_counts = _dilation_counts(A, sizes, (eps, window),
                                                 _coefficient_bound(A))

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
                               tuple(window_counts), float(window), flag)
