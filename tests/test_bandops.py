import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gcstar import bandops
from gcstar.bandops import (BandOperator, Diagonal, LaurentSymbol,
                            finite_section_analysis, fredholm_verdict,
                            limit_operator, locality_check, symbol_invertible)
from gcstar.errors import AmbiguityError, GridRefinementNeeded, InputError
from gcstar.fixtures import laplacian_band, shifted_laplacian_band
from gcstar.randgen import (random_band_operator, random_core,
                            random_selfadjoint_tridiagonal, rng_from_seed)


def test_limit_operator_identity():
    I = BandOperator.identity()
    for end in ("minus", "plus"):
        assert limit_operator(I, end).coefficients == ((0, 1 + 0j),)


def test_limit_operator_laplacian():
    sym = limit_operator(laplacian_band(), "plus")
    theta = np.linspace(0, 2 * np.pi, 17)
    assert np.allclose(sym(theta), 2 * np.cos(theta) - 2)


def test_limit_operator_discards_core_and_reads_potential_limits():
    A = BandOperator.from_limits({-1: (1, 1), 0: (-3, 3), 1: (1, 1)},
                                 core={0: {0: 17.0}})
    minus = limit_operator(A, "minus")
    plus = limit_operator(A, "plus")
    theta = np.linspace(0, 2 * np.pi, 11)
    assert np.allclose(minus(theta), 2 * np.cos(theta) - 2 - 1)
    assert np.allclose(plus(theta), 2 * np.cos(theta) - 2 + 5)
    # offset 1, the first subdiagonal, carries exp(i theta), not exp(-i theta)
    shift = BandOperator.from_limits({1: (2.0, 3.0)})
    assert limit_operator(shift, "plus").coefficients == ((1, 3 + 0j),)


def test_symbol_invertible_examples():
    one = LaurentSymbol(((0, 1.0),))
    chk = symbol_invertible(one)
    assert chk.invertible and abs(chk.min_modulus - 1.0) < 1e-12

    lap = LaurentSymbol(((-1, 1.0), (0, -2.0), (1, 1.0)))
    chk = symbol_invertible(lap)
    assert not chk.invertible and chk.min_modulus < 1e-12

    shifted = LaurentSymbol(((-1, 1.0), (0, 3.0), (1, 1.0)))
    chk = symbol_invertible(shifted)
    assert chk.invertible and abs(chk.min_modulus - 1.0) < 1e-12


def test_symbol_invertible_certifies_offgrid_zero_crossings():
    # real symbol vanishing away from any grid point: sign change certifies
    sym = LaurentSymbol(((-1, 1.0), (0, -2 * np.cos(0.7371)), (1, 1.0)))
    chk = symbol_invertible(sym)
    assert not chk.invertible


def test_symbol_invertible_raises_on_uncertifiable_complex_symbol():
    # a non-real symbol with an off-grid zero cannot be certified either way
    z = np.exp(0.522j)
    sym = LaurentSymbol(((1, 1.0), (0, -z)))
    with pytest.raises(GridRefinementNeeded):
        symbol_invertible(sym, grid=64)


def test_symbol_grid_precondition():
    sym = LaurentSymbol(((5, 1.0),))
    with pytest.raises(InputError):
        symbol_invertible(sym, grid=16)


@pytest.mark.parametrize("tol", [0.0, -1e-8, np.inf, np.nan])
def test_symbol_tolerance_must_be_finite_and_positive(tol):
    # with tol = inf every symbol would read "not invertible"
    with pytest.raises(InputError, match="tol"):
        symbol_invertible(LaurentSymbol(((0, 1.0),)), tol=tol)


def test_fredholm_verdict_examples():
    assert fredholm_verdict(BandOperator.identity()).fredholm
    assert not fredholm_verdict(laplacian_band()).fredholm
    verdict = fredholm_verdict(shifted_laplacian_band())
    assert verdict.fredholm
    assert abs(verdict.minus.min_modulus - 1.0) < 1e-12
    assert abs(verdict.plus.min_modulus - 1.0) < 1e-12


def test_locality_examples():
    loc = locality_check(BandOperator.identity())
    assert (loc.left_fredholm, loc.right_fredholm,
            loc.two_sided.fredholm) == (True, True, True)

    # potential limits (-1, 0): left range [-5, -1], right range [-4, 0]
    A = BandOperator.from_limits({-1: (1, 1), 0: (-3, -2), 1: (1, 1)})
    loc = locality_check(A)
    assert loc.left_fredholm and not loc.right_fredholm
    assert not loc.two_sided.fredholm

    loc = locality_check(shifted_laplacian_band())
    assert loc.left_fredholm and loc.right_fredholm and loc.two_sided.fredholm


def test_locality_conjunction_randomized():
    rng = rng_from_seed(30)
    for _ in range(40):
        A, fredholm, oracle = random_selfadjoint_tridiagonal(rng)
        loc = locality_check(A)
        assert loc.two_sided.fredholm == fredholm
        assert (loc.left_fredholm, loc.right_fredholm) == oracle["sided"]


def test_interval_oracle_agreement():
    rng = rng_from_seed(31)
    for _ in range(60):
        A, oracle_fredholm, _ = random_selfadjoint_tridiagonal(rng)
        assert fredholm_verdict(A).fredholm == oracle_fredholm


def test_verdict_invariant_under_core_perturbation():
    rng = rng_from_seed(32)
    for _ in range(20):
        A, oracle_fredholm, _ = random_selfadjoint_tridiagonal(rng)
        B = A + BandOperator({k: Diagonal(0.0, 0.0, tuple(random_core(rng, 5, 3.0).items()))
                              for k in A.diagonals})
        for end in ("minus", "plus"):
            assert limit_operator(B, end).max_abs_difference(
                limit_operator(A, end)) == 0.0
        assert fredholm_verdict(B).fredholm == oracle_fredholm


def test_scaling_covariance():
    rng = rng_from_seed(33)
    for _ in range(15):
        A, oracle_fredholm, _ = random_selfadjoint_tridiagonal(rng)
        for lam in (0.5, -2.0, 7.5):
            assert fredholm_verdict(lam * A).fredholm == oracle_fredholm
    # complex scaling on an operator whose symbol zero sits on the grid
    lap = laplacian_band()
    assert not fredholm_verdict((1 + 2j) * lap).fredholm
    assert fredholm_verdict((1 + 2j) * shifted_laplacian_band()).fredholm


def test_symbol_of_products_multiplies():
    rng = rng_from_seed(34)
    for _ in range(25):
        A = random_band_operator(rng)
        B = random_band_operator(rng)
        AB = A @ B
        for end in ("minus", "plus"):
            expected = limit_operator(A, end).product(limit_operator(B, end))
            assert limit_operator(AB, end).max_abs_difference(expected) < 1e-12


def _banded_pairs_with_cores(seed, count=12):
    """Seeded pairs of random band operators, both of bandwidth >= 1 with a
    core, the second one's reaching further out: the index shift of a product
    and the window of a sum show only there."""
    rng, pairs = rng_from_seed(seed), []
    while len(pairs) < count:
        A, B = random_band_operator(rng), random_band_operator(rng, core_width=10)
        if all(X.bandwidth >= 1 and X.core_window() != (0, -1) for X in (A, B)):
            pairs.append((A, B))
    return pairs


def test_band_product_matches_dense_truncation_in_the_bulk():
    N = 30
    for A, B in _banded_pairs_with_cores(35):
        dense = A.truncation(N) @ B.truncation(N)
        w = A.bandwidth + B.bandwidth
        inner = slice(w, 2 * N + 1 - w)  # rows unaffected by truncating the factors
        assert np.max(np.abs(dense[inner, :] - (A @ B).truncation(N)[inner, :])) < 1e-12


def test_adjoint_and_linearity():
    N = 20
    for A, B in _banded_pairs_with_cores(36):
        assert np.allclose(A.adjoint().truncation(N), A.truncation(N).conj().T)
        assert np.allclose((A + B).truncation(N), A.truncation(N) + B.truncation(N))
        assert np.allclose((2.5j * A).truncation(N), 2.5j * A.truncation(N))
        H = A + A.adjoint()
        assert H.is_selfadjoint()


def _upper_bands(M, u):
    """The upper band storage of a dense Hermitian matrix, u superdiagonals."""
    bands = np.zeros((u + 1, M.shape[0]), dtype=complex)
    for d in range(u + 1):
        bands[u - d, d:] = np.diagonal(M, d)
    return bands


def test_gram_banded_matches_dense_singular_values():
    rng = rng_from_seed(37)
    ops = []
    for _ in range(5):
        A = random_band_operator(rng)
        ops.append(A)
        N = 24
        from scipy.linalg import eigvals_banded
        bands, n = A.gram_banded(N)
        eigs = np.sqrt(np.clip(eigvals_banded(bands).real, 0.0, None))
        dense = np.linalg.svd(A.truncation(N), compute_uv=False)
        assert np.allclose(np.sort(eigs), np.sort(dense), atol=1e-10)
    # entry by entry against T^H T, also for a section narrower than the
    # core (N = 3) and for an operator with only the offsets -2 and 2
    ops.append(BandOperator.from_limits({-2: (1.5, -0.5j), 2: (2j, 0.25)},
                                        core={2: {-1: 3.0, 1: -1j}, -2: {0: 4.0}}))
    for A in ops:
        for N in (3, 24):
            T = A.truncation(N)
            bands, n = A.gram_banded(N)
            assert n == 2 * N + 1
            expected = _upper_bands(T.conj().T @ T, 2 * A.bandwidth)
            assert np.max(np.abs(bands - expected)) < 1e-12


def _window_oracle(A, eps):
    """The moderate window: 0.02 times the largest |sigma| of both limit
    symbols on the 4096-point scan grid, and at least 4 eps."""
    theta = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    ess = max(np.abs(limit_operator(A, end)(theta)).max() for end in ("minus", "plus"))
    return max(0.02 * float(ess), 4 * eps)


def test_finite_section_counts_match_dense_singular_values():
    rng = rng_from_seed(38)
    ops = [random_band_operator(rng) for _ in range(6)]
    ops += [random_selfadjoint_tridiagonal(rng)[0] for _ in range(4)]
    # winding number 2: two singular values below eps at every size
    ops.append(BandOperator.toeplitz({2: 1.0, 0: 0.5}))
    sizes = (40, 80, 160)
    for A in ops:
        report = finite_section_analysis(A, sizes, 1e-6)
        assert report.window == _window_oracle(A, 1e-6)
        svals = [np.linalg.svd(A.truncation(N), compute_uv=False) for N in sizes]
        assert report.counts == tuple(int(np.sum(s <= 1e-6)) for s in svals)
        assert report.window_counts == tuple(int(np.sum(s <= report.window))
                                             for s in svals)


def _dense_section_check(A, steps, eps):
    """The report against dense singular values, away from the thresholds.

    The sizes start just above the precondition and grow by ``steps``.
    """
    lo, hi = A.core_window()
    sizes = [4 * (max(abs(lo), abs(hi), 1) + A.bandwidth) + 1]
    sizes += [sizes[0] + step for step in steps]
    report = finite_section_analysis(A, sizes, eps)
    assert report.window == _window_oracle(A, eps)
    svals = [np.linalg.svd(A.truncation(N), compute_uv=False) for N in sizes]
    for t in (eps, report.window):
        # a singular value within rounding of a threshold has no right count
        assume(all(np.min(np.abs(s - t)) > 1e-9 * max(1.0, s[0]) for s in svals))
    assert report.counts == tuple(int(np.sum(s <= eps)) for s in svals)
    assert report.window_counts == tuple(int(np.sum(s <= report.window))
                                         for s in svals)


def _general_band(rng, w):
    """A non-Hermitian band of bandwidth w with a core and distinct limits."""
    def draw():
        return complex(rng.standard_normal(), rng.standard_normal())
    return BandOperator({k: Diagonal(draw(), draw(), ((-2, draw()), (0, draw()), (3, draw())))
                         for k in range(-w, w + 1)})


@pytest.mark.parametrize("w", [1, 2])
@pytest.mark.parametrize("largest", [160, 161])
@pytest.mark.parametrize("eps", [1e-6, 1e-9])
def test_general_sections_match_dense_over_long_constant_runs(w, largest, eps):
    # constant runs span dozens of blocks, which the reduction holds once;
    # the largest size sets an odd (160) or even (161) count of blocks
    # for w = 1 (N + 1 of them) and for w = 2 (107 and 108)
    rng = rng_from_seed(40 + w)
    sizes, checked = (40, 80, largest), 0
    for _ in range(4):
        A = _general_band(rng, w)
        report = finite_section_analysis(A, sizes, eps)
        svals = [np.linalg.svd(A.truncation(N), compute_uv=False) for N in sizes]
        if any(np.min(np.abs(s - t)) <= 1e-10 * s[0]
               for s in svals for t in (eps, report.window)):
            continue                    # within the reduction's floor of a threshold
        assert report.counts == tuple(int(np.sum(s <= eps)) for s in svals)
        assert report.window_counts == tuple(int(np.sum(s <= report.window))
                                             for s in svals)
        checked += 1
    assert checked >= 3


def test_general_section_memory_stays_flat():
    # the reduction holds distinct blocks plus index arrays; building every
    # block of every size would take about 22 MB here
    rng = rng_from_seed(39)
    A = _general_band(rng, 2)
    finite_section_analysis(A, [64, 128])
    tracemalloc.start()
    try:
        finite_section_analysis(A, [1024, 2048, 4096])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6


def test_finite_sections_resolve_exact_zeros_below_the_gram_floor():
    # offsets -2 and 2 only: each section splits into two chains, and the
    # odd one has an exact zero singular value; eps = 1e-9 lies below the
    # squared Gram spectrum's floor, where that zero reads as about 1.4e-8
    A = BandOperator.from_limits({-2: (1.5, -0.5j), 2: (2j, 0.25)},
                                 core={2: {-1: 3.0, 1: -1j}, -2: {0: 4.0}})
    sizes = (24, 48, 96)
    report = finite_section_analysis(A, sizes, 1e-9)
    svals = [np.linalg.svd(A.truncation(N), compute_uv=False) for N in sizes]
    expected = tuple(int(np.sum(s <= 1e-9)) for s in svals)
    assert min(expected) >= 1
    assert report.counts == expected


# coefficients on a quarter grid, so exact zeros and exact kernels occur
_grid = st.integers(-8, 8).map(lambda i: i / 4)
_coefficient = st.builds(complex, _grid, _grid)


@st.composite
def _band_operators(draw, offsets, hermitian):
    """Limits and a core in [-3, 3] for each offset, adjoint added if asked."""
    diags = {}
    for k in offsets:
        lm, lp = draw(_coefficient), draw(_coefficient)
        core = draw(st.dictionaries(st.integers(-3, 3), _coefficient, max_size=3))
        if hermitian and k == 0:        # a real diagonal
            lm, lp, core = lm.real, lp.real, {i: v.real for i, v in core.items()}
        diags[k] = Diagonal(lm, lp, tuple(core.items()))
    A = BandOperator(diags)
    if hermitian:
        off = BandOperator({k: d for k, d in A.diagonals.items() if k > 0})
        A = BandOperator({0: A.diagonals.get(0, Diagonal())}) + off + off.adjoint()
        assert A.is_selfadjoint()
    return A


_steps = st.sampled_from([(11, 27), (16,)])
_eps = st.sampled_from([1e-6, 1e-9, 0.3])


@settings(max_examples=40, deadline=None)
@given(_band_operators((0, 1), hermitian=True), _steps, _eps)
def test_hermitian_tridiagonal_sections_match_dense(A, steps, eps):
    _dense_section_check(A, steps, eps)


@settings(max_examples=25, deadline=None)
@given(_band_operators((0, 1, 2), hermitian=True), _steps, _eps)
def test_hermitian_bandwidth_two_sections_match_dense(A, steps, eps):
    _dense_section_check(A, steps, eps)


@settings(max_examples=40, deadline=None)
@given(st.one_of(_band_operators((-1, 0, 1), hermitian=False),
                 _band_operators((-2, -1, 0, 1, 2), hermitian=False)),
       _steps, _eps)
def test_general_band_sections_match_dense(A, steps, eps):
    _dense_section_check(A, steps, eps)


@settings(max_examples=20, deadline=None)
@given(_coefficient.filter(lambda c: c != 0), st.sampled_from([0, 1, -1]),
       _steps, _eps)
def test_scaled_identity_and_shift_sections_match_dense(c, k, steps, eps):
    # bandwidth 0 takes the Sturm path when c is real, the dilation if not
    _dense_section_check(BandOperator.toeplitz({k: c}), steps, eps)


def test_singular_block_schur_complement_raises():
    # |c_0| = 0.5 everywhere and not self-adjoint: with eps = 0.5 every
    # 2x2 block of the dilation shifted by 0.5 is exactly singular
    A = BandOperator.from_limits({0: (0.5, 0.5j)})
    with pytest.raises(AmbiguityError):
        finite_section_analysis(A, [8, 16], 0.5)


def test_counts_do_not_depend_on_how_thresholds_are_grouped(monkeypatch):
    # all thresholds share one reduction; the eps reduction of some draws
    # carries directions, and then the window's chains run padded to its
    # larger blocks
    reached, level = [], bandops._reduction_level

    def recording(*args):
        found, following = level(*args)
        reached.append(following[0].shape[-1])
        return found, following

    monkeypatch.setattr(bandops, "_reduction_level", recording)
    rng = rng_from_seed(7)
    sizes, padded, checked = (24, 48, 96), 0, 0
    for trial in range(8):
        w = 1 + trial % 2
        A = _general_band(rng, w)
        norm, pair = bandops._coefficient_bound(A), (1e-6, _window_oracle(A, 1e-6))
        alone, dims = [], []
        for t in pair:
            reached.clear()
            alone += bandops._dilation_counts(A, sizes, (t,), norm)
            dims.append(max(reached))
        padded += dims[0] > max(2 * (w + 1), dims[1])
        assert bandops._dilation_counts(A, sizes, pair, norm) == alone
        assert bandops._dilation_counts(A, sizes, pair[::-1], norm) == alone[::-1]
        svals = [np.linalg.svd(A.truncation(N), compute_uv=False) for N in sizes]
        if all(np.min(np.abs(s - t)) > 1e-10 * s[0] for s in svals for t in pair):
            assert alone == [[int(np.sum(s <= t)) for s in svals] for t in pair]
            checked += 1
    assert padded >= 1 and checked >= 6

    # only the second threshold meets a singular Schur complement, and the
    # stacked reduction raises as that threshold alone does
    A = BandOperator.from_limits({0: (0.5, 0.5j)})
    norm = bandops._coefficient_bound(A)
    assert bandops._dilation_counts(A, [8, 16], (1e-6,), norm) == [[0, 0]]
    for pair in ((1e-6, 0.5), (0.5, 1e-6)):
        with pytest.raises(AmbiguityError):
            bandops._dilation_counts(A, [8, 16], pair, norm)


def test_carried_directions_stay_bounded(monkeypatch):
    # with no growth allowed every coupled direction is carried, and the
    # sweep stops once more than four blocks' worth pile up
    monkeypatch.setattr(bandops, "PIVOT_GROWTH", 0.0)
    with pytest.raises(AmbiguityError, match="ill-conditioned directions"):
        finite_section_analysis(BandOperator.toeplitz({1: 1.0, 0: 0.5j}),
                                [64, 128], 1e-6)


def test_finite_sections_identity():
    report = finite_section_analysis(BandOperator.identity(), [64, 128, 256], 1e-6)
    assert report.counts == (0, 0, 0)
    assert report.flag == "CONSISTENT-FREDHOLM"


def test_compact_operator_sections_take_their_pivot_scale_from_the_core():
    # zero limits: the essential norm vanishes and the window falls to 4 eps,
    # while the core alone sets the scale of the reduction's pivot floors
    A = BandOperator.from_limits({0: (0, 0), 1: (0, 0)},
                                 core={0: {0: 2.0, 1: -1j}, 1: {1: 0.5j, 2: 3.0}})
    sizes = (16, 32, 64)
    report = finite_section_analysis(A, sizes, 1e-6)
    svals = [np.linalg.svd(A.truncation(N), compute_uv=False) for N in sizes]
    assert report.window == 4e-6
    assert report.counts == report.window_counts == tuple(int(np.sum(s <= 1e-6))
                                                          for s in svals)
    assert report.flag == "CONSISTENT-NONFREDHOLM"


def test_finite_sections_free_laplacian_grows():
    report = finite_section_analysis(laplacian_band(), [64, 128, 256], 1e-6)
    assert report.flag == "CONSISTENT-NONFREDHOLM"
    assert all(b > a for a, b in zip(report.window_counts,
                                     report.window_counts[1:]))


def test_finite_sections_fredholm_example_bounded():
    report = finite_section_analysis(shifted_laplacian_band(),
                                     [64, 128, 256], 1e-6)
    assert report.flag == "CONSISTENT-FREDHOLM"
    assert all(b <= a for a, b in zip(report.counts, report.counts[1:]))


def test_finite_sections_absorb_shift_artifacts():
    shift = BandOperator.toeplitz({1: 1.0})
    report = finite_section_analysis(shift, [64, 128, 256], 1e-6)
    assert report.counts == (1, 1, 1)
    assert report.flag == "CONSISTENT-FREDHOLM"


def test_finite_sections_preconditions():
    with pytest.raises(InputError):
        finite_section_analysis(BandOperator.identity(), [64], 1e-6)
    with pytest.raises(InputError):
        finite_section_analysis(laplacian_band(), [4, 8], 1e-6)
    for eps in (float("nan"), float("inf"), 0.0, -1e-6):
        with pytest.raises(InputError, match="eps must be finite and positive"):
            finite_section_analysis(laplacian_band(), [64, 128], eps)


@pytest.mark.parametrize("sizes", [[64, 64], [64, 128, 128], [128, 64]])
def test_finite_sections_reject_sizes_that_do_not_strictly_increase(sizes):
    # with a size repeated no count can grow, so the free Laplacian (not
    # Fredholm) would read CONSISTENT-FREDHOLM
    with pytest.raises(InputError, match="increasing"):
        finite_section_analysis(BandOperator.toeplitz({-1: 1, 1: 1}), sizes, 1e-6)


def _sturm_count(diag, off2, shift, pivmin):
    """Eigenvalues <= shift of a real symmetric tridiagonal: one Sturm sweep.

    ``off2[i]`` is the squared coupling of rows i - 1 and i (off2[0] = 0).
    A pivot below pivmin in modulus becomes -pivmin (Kahan's rule), so a
    zero pivot neither divides by zero nor loses its count.
    """
    count, d = 0, 1.0
    for a, e2 in zip(diag, off2):
        d = a - shift - e2 / d
        if abs(d) < pivmin:
            d = -pivmin
        if d < 0:
            count += 1
    return count


def _sturm_reference(A, sizes, thresholds):
    """Eigenvalues in (-t, t] of each Hermitian tridiagonal section, per t."""
    w, out = A.bandwidth, [[] for _ in thresholds]
    for N in sizes:
        c = A.section_coefficients(N)
        off = np.abs(c[w + 1]) if w else np.zeros(2 * N + 1)
        off[0] = 0.0
        off2 = off * off
        pivmin = np.finfo(float).tiny * max(1.0, float(off2.max()))
        diag, off2 = c[w].real.tolist(), off2.tolist()
        for row, t in zip(out, thresholds):
            row.append(_sturm_count(diag, off2, t, pivmin)
                       - _sturm_count(diag, off2, -t, pivmin))
    return out


def _sparse_values(rng, size, real):
    v = rng.standard_normal(size) + (0 if real else 1j * rng.standard_normal(size))
    v[rng.random(size) < 0.3] = 0.0
    return v


def _random_hermitian_tridiagonal(rng, coupled):
    """Real diagonal and, if coupled, Hermitian couplings c_-1(i - 1) =
    conj(c_1(i)), with exact zeros among the limits and the core values."""
    core_rows = range(-4, 5)
    limits = {0: tuple(_sparse_values(rng, 2, True))}
    core = {0: dict(zip(core_rows, _sparse_values(rng, 9, True)))}
    if coupled:
        lm, lp = _sparse_values(rng, 2, False)
        c1 = _sparse_values(rng, 9, False)
        limits.update({1: (lm, lp), -1: (np.conj(lm), np.conj(lp))})
        core.update({1: dict(zip(core_rows, c1)),
                     -1: {i - 1: np.conj(v) for i, v in zip(core_rows, c1)}})
    return BandOperator.from_limits(limits, core)


def test_hermitian_section_counts_match_the_sturm_reference():
    rng = rng_from_seed(43)
    sizes = [6, 11, 40]
    for trial in range(150):
        A = _random_hermitian_tridiagonal(rng, coupled=trial % 3 > 0)
        assert A.bandwidth <= 1 and A.is_selfadjoint()
        norm = np.linalg.norm(A.truncation(sizes[-1]), 2)
        diag = A.section_coefficients(sizes[-1])[A.bandwidth].real
        # a diagonal entry as threshold puts an eigenvalue of an uncoupled
        # row exactly on the closed end t or the open end -t
        ties = np.abs(diag[diag != 0])
        thresholds = [1e-6, 1e-9 + 1.01 * norm, rng.uniform(0.01, 1.0) * norm,
                      *rng.choice(ties, size=min(2, ties.size), replace=False)]
        thresholds = [float(t) for t in thresholds if t > 0]
        assert (bandops._hermitian_sections(A, sizes, thresholds)
                == _sturm_reference(A, sizes, thresholds))
    with pytest.raises(InputError, match="dstebz"):
        bandops._hermitian_sections(A, sizes, (0.0,))


def test_truncation_row_convention():
    A = BandOperator.from_limits({1: (2.0, 3.0)})
    M = A.truncation(2)
    # entry (i, j) = c_{i-j}(i): subdiagonal rows carry the row's limit side
    assert M[1, 0] == 2.0   # row index -1: minus side
    assert M[2, 1] == 3.0   # row index 0: plus side
    assert M[0, 1] == 0.0


def test_diagonal_normalization_drops_redundant_core():
    A = BandOperator({0: Diagonal(1.0, 2.0, ((-3, 1.0), (4, 2.0), (0, 9.0)))})
    d = A.diagonals[0]
    assert d.core == ((0, 9 + 0j),)


def test_symbol_scan_reads_cached_waves_bit_for_bit():
    rng = rng_from_seed(53)
    for grid in (64, 4096):
        theta = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)
        for _ in range(10):
            sym = limit_operator(random_band_operator(rng), "plus")
            try:
                check = symbol_invertible(sym, grid=grid)
            except GridRefinementNeeded as exc:
                check = exc
            assert check.min_modulus == float(np.abs(sym(theta)).min())
    assert not bandops._unit_circle_wave(64, 1).flags.writeable
    assert bandops._unit_circle_wave(64, 1) is bandops._unit_circle_wave(64, 1)
