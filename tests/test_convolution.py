import numpy as np
import pytest

from gcstar.convolution import (ArrowFunction, convolve, involution, left_regular_rep,
                                operator_norm, reduced_norm, regular_rep)
from gcstar.errors import InputError
from gcstar.fixtures import disjoint_pair_z2, pair2, pair3, z2_groupoid
from gcstar.groupoid import orbits, reduction, saturation
from gcstar.randgen import (random_arrow_function, random_groupoid, random_subset,
                            rng_from_seed)

TOL = 1e-12


def _pa(G, src, dst):
    (arrow,) = G.hom(src, dst)  # the arrow src -> dst
    return arrow


def test_delta_convolution_follows_composition():
    G = pair3()
    for g in G.arrows:
        for h in G.arrows:
            prod = convolve(ArrowFunction(G, {g: 1.0}), ArrowFunction(G, {h: 1.0}))
            if G.dom[g] == G.ran[h]:
                assert prod.values == {G.compose(g, h): 1.0 + 0j}
            else:
                assert prod.values == {}


def test_pair_groupoid_convolution_example():
    G = pair2()
    f = ArrowFunction(G, {_pa(G, "1", "1"): 1.0, _pa(G, "2", "1"): 1.0})
    g = ArrowFunction(G, {_pa(G, "1", "2"): 1.0})
    out = convolve(f, g)
    assert out.values == {_pa(G, "1", "1"): 1.0 + 0j}


def test_unit_delta_acts_as_partial_identity():
    G = pair3()
    rng = rng_from_seed(0)
    f = random_arrow_function(rng, G)
    x = "2"
    out = convolve(f, ArrowFunction(G, {G.unit_arrow[x]: 1.0}))
    for g in G.arrows:
        expected = f(g) if G.dom[g] == x else 0j
        assert abs(out(g) - expected) < TOL


def test_involution_examples():
    G = pair2()
    g = _pa(G, "1", "2")
    assert involution(ArrowFunction(G, {g: 1.0})).values == {G.inverse[g]: 1.0 + 0j}
    units_fn = ArrowFunction(G, {G.unit_arrow["1"]: 2.5, G.unit_arrow["2"]: -1.0})
    assert involution(units_fn).values == units_fn.values
    assert involution(ArrowFunction(G, {g: 1j})).values == {G.inverse[g]: -1j}


def test_involution_is_antimultiplicative_and_involutive():
    rng = rng_from_seed(1)
    for _ in range(20):
        G = random_groupoid(rng, max_arrows=30)
        f = random_arrow_function(rng, G)
        g = random_arrow_function(rng, G)
        lhs = involution(convolve(f, g))
        rhs = convolve(involution(g), involution(f))
        assert lhs.max_abs_difference(rhs) < TOL
        assert involution(involution(f)).max_abs_difference(f) < TOL


def test_convolution_associativity_randomized():
    rng = rng_from_seed(2)
    for _ in range(20):
        G = random_groupoid(rng, max_arrows=30)
        f, g, h = (random_arrow_function(rng, G) for _ in range(3))
        lhs = convolve(convolve(f, g), h)
        rhs = convolve(f, convolve(g, h))
        assert lhs.max_abs_difference(rhs) < TOL


def _convolve_reference(f, g):
    """The defining sum, term by term: y outer, z inner, in table order."""
    G = f.parent
    out = {}
    for y, gv in g.values.items():
        for z, fv in f.values.items():
            if G.dom[z] == G.ran[y]:
                x = G.compose(z, y)
                out[x] = out.get(x, 0j) + fv * gv
    return {x: v for x, v in out.items() if v != 0}


def _bits(table):
    """Each nonzero value's bit pattern, by arrow id."""
    return {k: (np.float64(v.real).tobytes(), np.float64(v.imag).tobytes())
            for k, v in table.items() if v != 0}


def test_convolution_matches_the_defining_sum_bit_for_bit():
    rng = rng_from_seed(48)
    for _ in range(20):
        G = random_groupoid(rng, max_arrows=40)
        for _ in range(5):
            f = random_arrow_function(rng, G, [a for a in G.arrows if rng.random() < 0.6])
            g = random_arrow_function(rng, G, [a for a in G.arrows if rng.random() < 0.6])
            assert _bits(convolve(f, g).values) == _bits(_convolve_reference(f, g))


def test_vector_operations_match_dict_loops_bit_for_bit():
    rng = rng_from_seed(49)
    for _ in range(20):
        G = random_groupoid(rng, max_arrows=40)
        f = random_arrow_function(rng, G, [a for a in G.arrows if rng.random() < 0.6])
        g = random_arrow_function(rng, G, [a for a in G.arrows if rng.random() < 0.6])
        star = {G.inverse[a]: v.conjugate() for a, v in f.values.items()}
        assert _bits(f.star().values) == _bits(star)
        total = dict(f.values)
        for a, v in g.values.items():
            total[a] = total.get(a, 0j) + v
        assert _bits((f + g).values) == _bits(total)
        U = random_subset(rng, G)
        GU = reduction(G, U)
        h = random_arrow_function(rng, GU)
        up = h.extend_to(G)
        assert _bits(up.values) == _bits(h.values)
        assert all(up(a) == 0 for a in set(G.arrows) - set(GU.arrows))


def _left_translates_reference(T, vec, basis):
    """Left convolution by ``vec`` on the span of ``basis``, gathered from the
    dense n x n product table."""
    zs = np.flatnonzero(vec)
    products = T.product[zs[:, None], basis]
    z, y = np.nonzero(products >= 0)
    M = np.zeros((len(basis), len(basis)), dtype=complex)
    M[np.searchsorted(basis, products[z, y]), y] += vec[zs[z]]
    return M


def _dense_sparse_and_extended(rng, G):
    """A dense function on G, a 60 %-sparse one, and one extended from a
    reduction of G."""
    yield random_arrow_function(rng, G)
    yield random_arrow_function(rng, G, [a for a in G.arrows if rng.random() < 0.6])
    yield random_arrow_function(rng, reduction(G, random_subset(rng, G))).extend_to(G)


def test_regular_representations_match_the_dense_gather_bit_for_bit():
    rng = rng_from_seed(50)
    for _ in range(20):
        G = random_groupoid(rng, max_arrows=40)
        T = G.table
        fibers = {x: np.flatnonzero(T.dom == i) for i, x in enumerate(G.units)}
        for f in _dense_sparse_and_extended(rng, G):
            everything = np.arange(G.n_arrows())
            assert (left_regular_rep(G, f).matrix.tobytes()
                    == _left_translates_reference(T, f.vec, everything).tobytes())
            for x, fiber in fibers.items():
                M = _left_translates_reference(T, f.vec, fiber)
                rep = regular_rep(G, x, f)
                assert rep.matrix.tobytes() == M.tobytes()
                assert operator_norm(rep.matrix) == float(np.linalg.norm(M, 2))
            reference = max(float(np.linalg.norm(_left_translates_reference(
                T, f.vec, fibers[min(orb, key=G.units.index)]), 2)) for orb in orbits(G))
            assert reduced_norm(G, f) == reference


def test_regular_rep_matrix_unit_example():
    G = pair2()
    M = regular_rep(G, "1", ArrowFunction(G, {_pa(G, "1", "2"): 1.0}))
    basis = M.basis
    src = basis.index(G.unit_arrow["1"])
    dst = basis.index(_pa(G, "1", "2"))
    expected = np.zeros((2, 2))
    expected[dst, src] = 1.0
    assert np.allclose(M.matrix, expected)


def test_regular_rep_of_unit_sum_is_identity():
    G = pair3()
    f = ArrowFunction(G, {a: 1.0 for a in G.unit_arrow.values()})
    for x in G.units:
        M = regular_rep(G, x, f)
        assert np.allclose(M.matrix, np.eye(len(M.basis)))
    assert regular_rep(G, "1", ArrowFunction(G)).matrix.max() == 0


def test_regular_rep_is_star_homomorphism():
    rng = rng_from_seed(3)
    for _ in range(10):
        G = random_groupoid(rng, max_arrows=30)
        f = random_arrow_function(rng, G)
        g = random_arrow_function(rng, G)
        for x in G.units:
            Mf = regular_rep(G, x, f).matrix
            Mg = regular_rep(G, x, g).matrix
            Mfg = regular_rep(G, x, convolve(f, g)).matrix
            assert np.max(np.abs(Mfg - Mf @ Mg)) < TOL
            Mstar = regular_rep(G, x, involution(f)).matrix
            assert np.max(np.abs(Mstar - Mf.conj().T)) < TOL


def test_reduced_norm_examples():
    G = pair2()
    assert abs(reduced_norm(G, ArrowFunction(G, {G.unit_arrow["1"]: 1.0})) - 1) < TOL
    flip = ArrowFunction(G, {_pa(G, "1", "2"): 1.0, _pa(G, "2", "1"): 1.0})
    assert abs(reduced_norm(G, flip) - 1.0) < TOL
    Z2 = z2_groupoid("*")
    f = ArrowFunction(Z2, {Z2.arrows[0]: 1.0, Z2.arrows[1]: 1.0})
    assert abs(reduced_norm(Z2, f) - 2.0) < TOL


def test_reduced_norm_is_the_sup_over_all_units():
    rng = rng_from_seed(7)
    for _ in range(20):
        G = random_groupoid(rng, max_arrows=30)
        f = random_arrow_function(rng, G)
        expected = max(operator_norm(regular_rep(G, x, f).matrix) for x in G.units)
        assert abs(reduced_norm(G, f) - expected) < TOL


def test_cstar_identity():
    rng = rng_from_seed(4)
    for _ in range(20):
        G = random_groupoid(rng, max_arrows=30)
        f = random_arrow_function(rng, G)
        lhs = reduced_norm(G, convolve(involution(f), f))
        assert abs(lhs - reduced_norm(G, f) ** 2) < 1e-9


def test_parent_mismatch_raises():
    f = ArrowFunction(pair2(), {0: 1.0})
    g = ArrowFunction(pair3(), {0: 1.0})
    with pytest.raises(InputError):
        convolve(f, g)
    with pytest.raises(InputError):
        ArrowFunction(pair2(), {99: 1.0})


def test_multiplier_estimate_and_support():
    # a function phi on units multiplies as m = sum phi(x) delta_u(x), whose
    # norm is max |phi|
    rng = rng_from_seed(5)
    for _ in range(15):
        G = random_groupoid(rng, max_arrows=30)
        f = random_arrow_function(rng, G)
        phi = {x: complex(rng.standard_normal(), rng.standard_normal())
               for x in G.units}
        m = ArrowFunction(G, {G.unit_arrow[x]: v for x, v in phi.items()})
        bound = max(abs(v) for v in phi.values()) * reduced_norm(G, f)
        assert reduced_norm(G, convolve(m, f)) <= bound + 1e-9

    # supported multipliers land in the invariant sub-arrow-set
    D = disjoint_pair_z2()
    U = {"3"}
    assert saturation(D, U) == U
    f = random_arrow_function(rng_from_seed(6), D)
    scaled = convolve(ArrowFunction(D, {D.unit_arrow["3"]: 2.0}), f)
    assert scaled.values and all(D.dom[g] in U for g in scaled.values)


def test_regular_rep_matches_convolution_on_fiber_vectors():
    rng = rng_from_seed(8)
    for _ in range(10):
        G = random_groupoid(rng, max_arrows=30)
        f = random_arrow_function(rng, G)
        x = G.units[int(rng.integers(0, G.n_units()))]
        basis = G.fiber(x)
        coeffs = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
        # route one: the representation matrix on the coefficient array
        out_matrix = regular_rep(G, x, f).matrix @ coeffs
        # route two: convolution of functions, restricted to the fiber
        xi_fn = ArrowFunction(G, dict(zip(basis, coeffs)))
        conv = convolve(f, xi_fn)
        out_conv = np.array([conv(g) for g in basis])
        assert np.max(np.abs(out_matrix - out_conv)) < 1e-12


def test_corner_projection_cuts_to_reduction():
    G = pair3()
    p = ArrowFunction(G, {G.unit_arrow[x]: 1.0 for x in ("1", "2")})
    assert convolve(p, p).max_abs_difference(p) < TOL
    assert involution(p).max_abs_difference(p) < TOL
    f = random_arrow_function(rng_from_seed(7), G)
    corner = convolve(p, convolve(f, p))
    keep = {"1", "2"}
    for g in corner.values:
        assert G.dom[g] in keep and G.ran[g] in keep
    for g in G.arrows:
        if G.dom[g] in keep and G.ran[g] in keep:
            assert abs(corner(g) - f(g)) < TOL
