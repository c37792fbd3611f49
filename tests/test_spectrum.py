import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from gcstar.convolution import ArrowFunction, regular_rep
from gcstar.errors import CoverPreconditionError, InputError
from gcstar.fixtures import (broken_pair3, disjoint_pair_z2, pair2, pair3,
                             swap_action, z2_groupoid, z3_groupoid)
from gcstar.errors import AmbiguityError
from gcstar.groupoid import (FiniteGroup, direct_product, disjoint_union,
                             group_groupoid, isotropy, orbits, pair_groupoid,
                             reduction)
from gcstar.randgen import (random_admissible_cover, random_arrow_function,
                            random_groupoid, random_subset, rng_from_seed)
from gcstar.spectrum import (ANNIHILATION_TOL, BLOCK_TOL, NORM_TOL, BlockDecomposition,
                             NormEstimateReport, _invariance_bounds, _verify_blocks,
                             block_decomposition, check_norm_estimates, check_phi_isometry,
                             commutant_basis, concrete_algebra, induction_map,
                             morita_reduction_data, prim_partition,
                             verify_spectrum_decomposition)


def _regular_support(G, x, dec):
    """The blocks in the regular representation at x, decomposed from its
    traces on the arrow deltas."""
    traces = [np.trace(regular_rep(G, x, ArrowFunction(G, {g: 1.0})).matrix) for g in G.arrows]
    (multiplicities,) = dec.multiplicities_of_columns(np.array(traces)[:, None])
    return {label for label, m in multiplicities.items() if m > 0}


def test_concrete_algebra_shapes():
    alg = concrete_algebra(pair3())
    assert alg.dim == 3  # one regular representation of the single orbit
    alg = concrete_algebra(z3_groupoid())
    assert alg.dim == 3
    alg = concrete_algebra(disjoint_pair_z2())
    assert alg.dim == 2 + 2


def test_wedderburn_pair_groupoid_single_full_block():
    dec = block_decomposition(pair3(), seed=1)
    assert [(b.dim, b.multiplicity) for b in dec.blocks] == [(3, 1)]


def test_wedderburn_z3_matches_discrete_fourier_characters():
    dec = block_decomposition(z3_groupoid(), seed=1)
    assert [b.dim for b in dec.blocks] == [1, 1, 1]
    omega = np.exp(2j * np.pi / 3)
    expected = {tuple(np.round([omega ** (j * k) for k in range(3)], 9))
                for j in range(3)}
    got = {tuple(np.round(b.traces, 9)) for b in dec.blocks}
    assert got == expected


def test_wedderburn_swap_action_single_two_dim_block():
    dec = block_decomposition(swap_action(), seed=1)
    assert [b.dim for b in dec.blocks] == [2]


def test_wedderburn_klein_four_has_four_characters():
    dec = block_decomposition(group_groupoid(FiniteGroup.klein_four()), seed=1)
    assert [b.dim for b in dec.blocks] == [1, 1, 1, 1]


def test_block_labels_are_seed_independent():
    G = disjoint_union([pair_groupoid(["1", "2"]),
                        group_groupoid(FiniteGroup.cyclic(3), unit="3")])
    dec1 = block_decomposition(G, seed=1)
    dec2 = block_decomposition(G, seed=99)
    assert dec1.labels == dec2.labels
    for b1, b2 in zip(dec1.blocks, dec2.blocks):
        assert b1.dim == b2.dim and b1.multiplicity == b2.multiplicity
        assert np.max(np.abs(np.array(b1.traces) - np.array(b2.traces))) < 1e-8


def test_commutant_dimension_equals_total_isotropy():
    rng = rng_from_seed(20)
    groupoids = [random_groupoid(rng, max_arrows=40) for _ in range(15)]
    # non-abelian isotropy tells right translations y h from h y
    groupoids += [group_groupoid(symmetric_group_3()), pair3_s3()]
    for G in groupoids:
        alg = concrete_algebra(G)
        basis = commutant_basis(alg)
        expected = sum(len(isotropy(G, min(orb, key=G.units.index)))
                       for orb in orbits(G))
        assert len(basis) == expected
        # every basis element genuinely commutes with every generator
        generators = [alg.generator_matrix(g) for g in G.arrows]
        for rows, cols in basis:
            B = np.zeros((alg.dim, alg.dim))
            B[rows, cols] = 1.0
            for A in generators:
                assert np.array_equal(A @ B, B @ A)
        # supports are pairwise disjoint
        cells = [cell for rows, cols in basis for cell in zip(rows, cols)]
        assert len(set(cells)) == len(cells)


def conjugacy_class_count(G, x):
    """The number of conjugacy classes of the isotropy group at unit index x,
    gathering g h g^-1 from the product and inverse tables."""
    T = G.table
    H = np.flatnonzero((T.dom == x) & (T.ran == x))
    conjugates = T.product[T.product[H[:, None], H], T.inverse[H][:, None]]
    return len({frozenset(conjugates[:, j].tolist()) for j in range(len(H))})


def test_block_census_on_random_groupoids():
    rng = rng_from_seed(21)
    groupoids = [random_groupoid(rng, max_arrows=40) for _ in range(10)]
    groupoids += [pair3_s3(), direct_product(pair_groupoid(["1", "2"]),
                                             group_groupoid(dihedral_group_4()))]
    for G in groupoids:
        dec = block_decomposition(G, seed=3)
        assert sum(b.dim ** 2 for b in dec.blocks) == G.n_arrows()
        assert sum(b.dim * b.multiplicity for b in dec.blocks) == dec.algebra.dim
        # canonical labels: by dimension, then by the rounded traces as
        # (re, im) pairs, compared as Python tuples
        keys = [(b.dim, tuple((round(t.real, 6), round(t.imag, 6)) for t in b.traces))
                for b in dec.blocks]
        assert keys == sorted(keys)
        # exact census: each orbit carries one block per conjugacy class of
        # its isotropy group (G|_O is equivalent to that group)
        alive = np.abs(dec.character_matrix[G.table.unit]) > 0.5  # units x blocks
        assert alive.any(axis=0).all()
        for orb in orbits(G):
            on_orbit = np.array([u in orb for u in G.units])
            inside = alive[on_orbit].any(axis=0)
            assert not (inside & alive[~on_orbit].any(axis=0)).any()
            x = G.units.index(min(orb, key=G.units.index))
            assert np.count_nonzero(inside) == conjugacy_class_count(G, x)


def symmetric_group_3():
    elements = list(itertools.permutations(range(3)))
    table = {(a, b): tuple(a[b[i]] for i in range(3))
             for a in elements for b in elements}
    return FiniteGroup.from_table(elements, table, (0, 1, 2))


def pair3_s3():
    return direct_product(pair_groupoid(["1", "2", "3"]),
                          group_groupoid(symmetric_group_3()))


def test_block_images_match_dense_definition():
    rng = rng_from_seed(29)
    groupoids = [random_groupoid(rng, max_arrows=40) for _ in range(6)]
    groupoids.append(pair3_s3())
    for G in groupoids:
        dec = block_decomposition(G, seed=11)
        alg = dec.algebra
        for b in dec.blocks:
            Q = b.isometry
            dense = np.stack([Q.conj().T @ alg.generator_matrix(g) @ Q
                              for g in G.arrows])
            assert np.max(np.abs(alg.images(Q) - dense)) < 1e-12
            assert np.max(np.abs(np.array(b.traces)
                                 - np.trace(dense, axis1=1, axis2=2))) < 1e-12
    # non-abelian isotropy: S3 has irreducibles of dimension 1, 1 and 2
    assert [b.dim for b in dec.blocks] == [3, 3, 6]


def dihedral_group_4():
    """The symmetries of a square, closed from a rotation and a reflection."""
    r, s = (1, 2, 3, 0), (0, 3, 2, 1)
    elements = {(0, 1, 2, 3)}
    frontier = list(elements)
    while frontier:
        a = frontier.pop()
        for b in (tuple(a[r[i]] for i in range(4)), tuple(a[s[i]] for i in range(4))):
            if b not in elements:
                elements.add(b)
                frontier.append(b)
    elements = sorted(elements)
    table = {(a, b): tuple(a[b[i]] for i in range(4))
             for a in elements for b in elements}
    return FiniteGroup.from_table(elements, table, (0, 1, 2, 3))


def per_trace_key(b):
    """The ordering key as one Python round() per numpy trace part."""
    return (b.dim, tuple((round(t.real, 6), round(t.imag, 6))
                         for t in np.asarray(b.traces)))


def test_block_labels_follow_the_per_trace_rounding_key():
    rng = rng_from_seed(32)
    pair2_d4 = direct_product(pair_groupoid(["1", "2"]),
                              group_groupoid(dihedral_group_4()))
    groupoids = [pair3_s3(), pair2_d4]
    groupoids += [random_groupoid(rng, max_arrows=40) for _ in range(10)]
    for G in groupoids:
        dec = block_decomposition(G, seed=13)
        ordered = sorted(dec.blocks, key=per_trace_key)
        assert dec.labels == tuple(f"B{i}" for i in range(len(ordered)))
        assert ([(b.label, b.dim, b.multiplicity) for b in dec.blocks]
                == [(f"B{i}", b.dim, b.multiplicity) for i, b in enumerate(ordered)])
        if G is pair2_d4:  # D4 has irreducibles of dimension 1, 1, 1, 1 and 2
            assert [(b.dim, b.multiplicity) for b in dec.blocks] == [(2, 1)] * 4 + [(4, 2)]


def dense_arrow_norms(dec, b, idx=slice(None)):
    """||Q* A_g Q||_2 from the dense generator matrices of the arrows idx."""
    alg, Q = dec.algebra, b.isometry
    return np.array([np.linalg.norm(Q.conj().T @ alg.generator_matrix(g) @ Q, 2)
                     for g in np.array(alg.groupoid.arrows)[idx]])


def test_annihilation_from_unit_traces_matches_dense_norms():
    # random draws, non-abelian isotropy, and abelian isotropy over several
    # orbits (many one-dimensional blocks)
    rng = rng_from_seed(33)
    groupoids = [random_groupoid(rng, max_arrows=40) for _ in range(30)]
    groupoids += [pair3_s3(),
                  direct_product(pair_groupoid(["1", "2"]),
                                 group_groupoid(dihedral_group_4())),
                  disjoint_union([group_groupoid(FiniteGroup.cyclic(5), unit="a"),
                                  group_groupoid(FiniteGroup.klein_four(), unit="b"),
                                  pair_groupoid(["c", "d"])])]
    decisions = np.zeros(2, dtype=int)  # (killed, kept) block/arrow pairs
    for G in groupoids:
        dec = block_decomposition(G, seed=14)
        T = G.table
        for b in dec.blocks:
            norms = dense_arrow_norms(dec, b)
            # phi(g)* phi(g) is a projection, so every norm is 0 or 1
            assert np.all(np.minimum(norms, np.abs(norms - 1)) < 1e-12)
            unit_traces = np.abs(np.asarray(b.traces)[T.unit[T.dom]])
            killed = unit_traces < ANNIHILATION_TOL
            assert np.array_equal(killed, norms < ANNIHILATION_TOL)
            decisions += [np.count_nonzero(killed), np.count_nonzero(~killed)]
    assert np.all(decisions > 1000)


def reference_prim_partition(dec, U):
    """The annihilator partition over the arrows of reduction(G, U), from the
    dense spectral norms of the block images."""
    G = dec.algebra.groupoid
    idx = G.table.positions(reduction(G, U).arrows)
    inside = frozenset(b.label for b in dec.blocks
                       if np.max(dense_arrow_norms(dec, b, idx), initial=0.0)
                       < ANNIHILATION_TOL)
    return inside, frozenset(dec.labels) - inside


def test_prim_partition_matches_the_reduction_reference():
    rng = rng_from_seed(34)
    split = 0  # partitions with blocks on both sides
    for _ in range(8):
        G = random_groupoid(rng, max_arrows=40)
        dec = block_decomposition(G, seed=15)
        subsets = [frozenset(), frozenset(G.units)]
        subsets += [random_subset(rng, G, nonempty=False) for _ in range(4)]
        for U in subsets:
            inside, outside = prim_partition(dec, U)
            assert (inside, outside) == reference_prim_partition(dec, U)
            split += bool(inside) and bool(outside)
    assert split >= 5
    dec = block_decomposition(pair3_s3(), seed=15)
    for U in ([], [("1", "*")], [("1", "*"), ("3", "*")]):
        assert prim_partition(dec, U) == reference_prim_partition(dec, U)


def test_prim_partition_refuses_stray_units():
    dec = block_decomposition(disjoint_pair_z2(), seed=1)
    with pytest.raises(InputError, match="not units"):
        prim_partition(dec, {"1", "nowhere"})


def test_character_matrix_is_built_once_per_decomposition():
    G = disjoint_pair_z2()
    dec = block_decomposition(G, seed=1)
    X = dec.character_matrix
    assert dec.character_matrix is X and not X.flags.writeable
    assert np.array_equal(X, np.array([b.traces for b in dec.blocks]).T)
    # the regular representation at a unit of each orbit, through the cache
    assert _regular_support(G, "1", dec) | _regular_support(G, "3", dec) == set(dec.labels)
    assert dec.character_matrix is X


def test_block_images_are_built_once_per_decomposition(monkeypatch):
    from gcstar.spectrum import ConcreteAlgebra
    G = pair3_s3()
    dec = block_decomposition(G, seed=2)
    images, calls = ConcreteAlgebra.images, []

    def counted(alg, Q):
        calls.append(Q.shape)
        return images(alg, Q)

    monkeypatch.setattr(ConcreteAlgebra, "images", counted)
    rng = rng_from_seed(31)
    norms = [dec.block_norms(random_arrow_function(rng, G)) for _ in range(3)]
    assert len(calls) == len(dec.blocks) and all(len(n) == len(dec.blocks) for n in norms)
    X = dec.arrow_images
    assert dec.arrow_images is X and not any(x.flags.writeable for x in X)
    for b, x in zip(dec.blocks, X):
        assert np.array_equal(x, images(dec.algebra, b.isometry))
    # the spectrum decomposition reads no block images, so holds none
    monkeypatch.setattr(BlockDecomposition, "arrow_images",
                        property(lambda dec: pytest.fail("block images formed")))
    assert verify_spectrum_decomposition(G, [{G.units[0]}], seed=2).ok


def test_block_apply_matches_dense_definition():
    rng = rng_from_seed(30)
    groupoids = [random_groupoid(rng, max_arrows=40) for _ in range(3)]
    groupoids.append(pair3_s3())
    for G in groupoids:
        dec = block_decomposition(G, seed=11)
        alg = dec.algebra
        GU = reduction(G, {G.units[0]})
        full = random_arrow_function(rng, G)
        sub = random_arrow_function(rng, GU)
        for f in (full, sub):
            dense = sum(v * alg.generator_matrix(g) for g, v in f.values.items())
            images = dec.apply(f)
            for b in dec.blocks:
                Q = b.isometry
                assert np.max(np.abs(images[b.label] - Q.conj().T @ dense @ Q)) < 1e-12
    # a function with an arrow the algebra does not have fails loudly
    dec_red = block_decomposition(GU, seed=11)
    with pytest.raises(InputError, match="outside the algebra"):
        dec_red.apply(full)


@pytest.mark.parametrize("G, parts", [
    # two inequivalent characters of Z3 posing as one block: reducible
    # within one orbit, so the character norm is 2 |d^-1(x)|
    pytest.param(z3_groupoid(), (0, 1), id="same-orbit"),
    # the pair block of disjoint_pair_z2 (B2) plus a character of the other
    # orbit: invariant, but spread over two orbits (norm 4 + 2, |d^-1(x)| = 2)
    pytest.param(disjoint_pair_z2(), (2, 0), id="cross-orbit"),
])
def test_verify_blocks_rejects_a_reducible_block(G, parts):
    dec = block_decomposition(G, seed=1)
    parts = [dec.blocks[i] for i in parts]
    Q = np.hstack([b.isometry for b in parts])
    # the fake keeps the first part's traces: the check must read the traces
    # of the isometry it is handed, not Block.traces
    fake = BlockDecomposition(dec.algebra,
                              (replace(parts[0], dim=Q.shape[1], isometry=Q),))
    # invariant, so an invariance bound of 0 is honest: only irreducibility fails
    assert np.max(invariance_residuals(dec.algebra, Q)) < 1e-12
    with pytest.raises(AmbiguityError, match="not irreducible"):
        _verify_blocks(fake, [np.einsum("kii->k", X) for X in fake.arrow_images], [0.0])


def tamper_eigh(monkeypatch, edit):
    """Pass each eigen-decomposition (w, V) through edit, which changes w or
    V in place, before the splitting code reads it."""
    eigh = np.linalg.eigh

    def tampered(T):
        w, V = eigh(T)
        edit(w, V)
        return w, V

    monkeypatch.setattr(np.linalg, "eigh", tampered)


def columns_of(V, Q):
    """The columns of V that span the range of the isometry Q."""
    return np.flatnonzero(np.linalg.norm(Q.conj().T @ V, axis=0) > 0.5)


def rotate(V, i, j, theta):
    """Turn column i of V toward column j by theta; V stays unitary."""
    c, s = np.cos(theta), np.sin(theta)
    V[:, [i, j]] = V[:, [i, j]] @ np.array([[c, -s], [s, c]])


def pair_block_and_characters(dec):
    """The two-dimensional block of disjoint_pair_z2 and the isometry (4 x 2)
    of its two characters, which lives on the fiber of the other orbit."""
    pair = next(b for b in dec.blocks if b.dim == 2)
    P = np.hstack([b.isometry for b in dec.blocks if b.dim == 1])
    assert np.max(np.abs(P.conj().T @ pair.isometry)) < 1e-12
    return pair, P


def test_verify_blocks_rejects_a_subspace_rotated_off_its_orbit(monkeypatch):
    G = disjoint_pair_z2()
    pair, P = pair_block_and_characters(block_decomposition(G, seed=1))

    def edit(w, V):
        rotate(V, columns_of(V, pair.isometry)[0], columns_of(V, P)[0], 1e-6)

    tamper_eigh(monkeypatch, edit)
    with pytest.raises(AmbiguityError, match="not certified invariant"):
        block_decomposition(G, seed=1)


@pytest.mark.parametrize("tamper, message", [
    # every image of the pair block scaled by 4, as Q* Q = 4I
    (lambda Q, P: (2 * Q, P), "not an isometry"),
    # the pair block turned halfway onto the characters: the image of the
    # unit at 1 is halved, self-adjoint but no longer idempotent
    (lambda Q, P: ((Q + P) / np.sqrt(2), (P - Q) / np.sqrt(2)), "not certified invariant"),
])
def test_verify_blocks_rejects_tampered_images(monkeypatch, tamper, message):
    G = disjoint_pair_z2()
    dec = block_decomposition(G, seed=1)
    pair, P = pair_block_and_characters(dec)
    Q, _ = tamper(pair.isometry, P)
    X = dec.algebra.images(Q)
    u = G.arrows.index(G.unit_arrow["1"])
    assert np.max(np.abs(X[u] - X[u].conj().T)) < 1e-12
    assert np.max(np.abs(X[u] @ X[u] - X[u])) > 0.1

    def edit(w, V):
        q, p = columns_of(V, pair.isometry), columns_of(V, P)
        V[:, q], V[:, p] = tamper(V[:, q], V[:, p])

    tamper_eigh(monkeypatch, edit)
    with pytest.raises(AmbiguityError, match=message):
        block_decomposition(G, seed=1)


def test_wedderburn_rejects_eigenvalues_that_are_not_the_vectors_own(monkeypatch):
    G = disjoint_pair_z2()
    _, P = pair_block_and_characters(block_decomposition(G, seed=1))

    def edit(w, V):
        w[columns_of(V, P)[0]] += 1e-6  # far above BLOCK_TOL, far below the gaps

    tamper_eigh(monkeypatch, edit)
    with pytest.raises(AmbiguityError, match="not certified invariant"):
        block_decomposition(G, seed=1)


def test_verify_blocks_rejects_a_nonzero_product_outside_the_table(monkeypatch):
    G = disjoint_pair_z2()
    dec = block_decomposition(G, seed=1)
    pair, P = pair_block_and_characters(dec)
    # the trivial character of the group part turned halfway into one column
    # of the pair block: still an isometry, but the products across the two
    # orbits are no longer killed
    trivial = max((b for b in dec.blocks if b.dim == 1),
                  key=lambda b: sum(b.traces).real).isometry
    Q = pair.isometry.copy()
    Q[:, 1] = (Q[:, 1] + trivial[:, 0]) / np.sqrt(2)
    X = dict(zip(G.arrows, dec.algebra.images(Q)))
    across = max(np.max(np.abs(X[a] @ X[b]))
                 for a, b in itertools.product(G.arrows, repeat=2)
                 if (a, b) not in G.compose_table)
    assert across > 0.1

    def edit(w, V):
        rotate(V, columns_of(V, pair.isometry)[1], columns_of(V, trivial)[0], np.pi / 4)

    tamper_eigh(monkeypatch, edit)
    with pytest.raises(AmbiguityError, match="not certified invariant"):
        block_decomposition(G, seed=1)


def test_wedderburn_refuses_an_eigenvector_rotated_into_its_neighbouring_cluster(monkeypatch):
    rng = rng_from_seed(40)
    groupoids = [random_groupoid(rng, max_arrows=40) for _ in range(6)]
    groupoids += [pair3_s3(), direct_product(pair_groupoid(["1", "2"]),
                                             group_groupoid(dihedral_group_4()))]

    def edit(w, V):
        hi = np.flatnonzero(np.diff(w) > 1e-9)[0] + 1  # end of the first cluster
        rotate(V, hi - 1, hi, 1e-6)

    tamper_eigh(monkeypatch, edit)
    for G in groupoids:
        with pytest.raises(AmbiguityError, match="not certified invariant"):
            block_decomposition(G, seed=4)


def test_wedderburn_refuses_a_wrong_commutant_or_matches_the_right_one(monkeypatch):
    import gcstar.spectrum as spectrum

    def rolled(alg):
        # each element's column coordinates rolled by one: no longer a commutant
        return [(rows, np.roll(cols, 1)) for rows, cols in commutant_basis(alg)]

    rng = rng_from_seed(41)
    groupoids = [random_groupoid(rng, max_arrows=40) for _ in range(20)]
    groupoids += [pair3_s3(), group_groupoid(symmetric_group_3())]
    refused = 0
    for G in groupoids:
        cover = random_admissible_cover(rng, G)
        good = block_decomposition(G, seed=2)
        census = [(b.label, b.dim, b.multiplicity) for b in good.blocks]
        verdict = verify_spectrum_decomposition(G, cover, seed=2, dec=good)
        with monkeypatch.context() as m:
            m.setattr(spectrum, "commutant_basis", rolled)
            try:
                dec = block_decomposition(G, seed=2)
            except AmbiguityError:
                refused += 1
                continue
            rep = verify_spectrum_decomposition(G, cover, seed=2, dec=dec)
        assert [(b.label, b.dim, b.multiplicity) for b in dec.blocks] == census
        assert (rep.ok, rep.images) == (verdict.ok, verdict.images)
    assert refused >= len(groupoids) - 2


def test_concrete_algebra_rejects_a_table_without_the_adjoint_law(monkeypatch):
    import gcstar.spectrum as spectrum

    G = pair3()
    concrete_algebra(G)
    g, h = G.hom("1", "2")[0], G.hom("1", "3")[0]

    class Swapped(spectrum.ConcreteAlgebra):
        # the generators of g and h trade places: supports stay disjoint and
        # nonzero, but A_{g^-1} is no longer the transpose of A_g
        def __init__(self, *args):
            super().__init__(*args)
            k, m = G.arrows.index(g), G.arrows.index(h)
            for table in (self._entry_row, self._entry_col):
                table[[k, m]] = table[[m, k]]

    monkeypatch.setattr(spectrum, "ConcreteAlgebra", Swapped)
    with pytest.raises(AmbiguityError, match="adjoint law"):
        concrete_algebra(G)


def pairwise_product_error(alg, Q):
    """The dense all-pairs multiplicativity check of the block map
    phi(g) = Q* A_g Q: the largest entry of phi(a) phi(b) - phi(ab) over all
    pairs of arrows, with phi(ab) = 0 when a and b do not compose."""
    G = alg.groupoid
    X = {g: Q.conj().T @ alg.generator_matrix(g) @ Q for g in G.arrows}
    worst = 0.0
    for a in G.arrows:
        for b in G.arrows:
            ab = G.compose_table.get((a, b))
            target = X[ab] if ab is not None else 0.0
            worst = max(worst, np.max(np.abs(X[a] @ X[b] - target)))
    return worst


def invariance_residuals(alg, Q):
    """r_g = ||A_g Q - Q Q* A_g Q||_F for every arrow, from dense generators."""
    return np.array([np.linalg.norm(A @ Q - Q @ (Q.conj().T @ A @ Q))
                     for A in map(alg.generator_matrix, alg.groupoid.arrows)])


def test_invariance_residuals_bound_the_all_pairs_product_check():
    # Both sides are evaluated in extended precision: for a computed block
    # they are ~1e-15, the size of the rounding of a double-precision product.
    rng = rng_from_seed(31)
    groupoids = [random_groupoid(rng, max_arrows=40) for _ in range(6)]
    groupoids.append(pair3_s3())
    for G in groupoids:
        dec = block_decomposition(G, seed=12)
        alg = dec.algebra
        for b in dec.blocks:
            Q = b.isometry.astype(np.clongdouble)
            pairwise = pairwise_product_error(alg, Q)
            residual = np.max(invariance_residuals(alg, Q))
            assert pairwise <= residual < 1e-8
            # off the invariant subspace both grow, and the bound still holds
            if alg.dim < 2 * b.dim:
                continue
            P = rng.standard_normal(Q.shape) + 1j * rng.standard_normal(Q.shape)
            P, _ = np.linalg.qr(P - b.isometry @ (b.isometry.conj().T @ P))
            R = np.cos(1e-3) * Q + np.sin(1e-3) * P.astype(np.clongdouble)
            pairwise = pairwise_product_error(alg, R)
            residual = np.max(invariance_residuals(alg, R))
            assert 1e-8 < pairwise <= residual


def test_invariance_bound_dominates_the_dense_residuals(monkeypatch):
    # The certificate _verify_blocks compares with BLOCK_TOL is the sin-theta
    # bound plus the isometry defect; at the rounding floor (~1e-16) a block's
    # own defect, not its angle, can set the dense residual.
    import gcstar.spectrum as spectrum

    seen, verify = [], spectrum._verify_blocks

    def recorded(dec, images, bounds):
        seen.extend(zip(dec.blocks, bounds, itertools.repeat(dec.algebra)))
        return verify(dec, images, bounds)

    monkeypatch.setattr(spectrum, "_verify_blocks", recorded)
    rng = rng_from_seed(31)
    groupoids = [random_groupoid(rng, max_arrows=40) for _ in range(6)]
    groupoids.append(pair3_s3())
    for G in groupoids:
        block_decomposition(G, seed=12)
    assert len(seen) >= 30
    for b, bound, alg in seen:
        Q = b.isometry
        certificate = bound + np.linalg.norm(Q.conj().T @ Q - np.eye(b.dim))
        residual = np.max(invariance_residuals(alg, Q.astype(np.clongdouble)))
        assert residual <= certificate < BLOCK_TOL


def test_invariance_bound_holds_for_an_inexact_eigenbasis():
    # T = diag(0, g, 1).  The first vector leans toward e1 by alpha; the other
    # two are turned toward each other by phi, so their Rayleigh values lie
    # far from g: the computed gap overstates T's own, and only the Weyl
    # slack (the residual of the bad vectors) takes that back.
    g, alpha, phi = 0.1, 1e-3, 0.7
    T = np.diag([0.0, g, 1.0]).astype(complex)
    V = np.eye(3, dtype=complex)
    rotate(V, 0, 1, alpha)
    rotate(V, 1, 2, phi)
    w = np.einsum("ij,ik,kj->j", V.conj(), T, V).real
    assert np.all(np.diff(w) > 0.1)
    A = np.diag([1.0, -1.0, 1.0])  # commutes with T, and ||A|| = 1
    Q = V[:, :1]
    residual = np.linalg.norm(A @ Q - Q @ (Q.conj().T @ A @ Q))
    (bound,) = _invariance_bounds(T, w, V, [(0, 1)])
    assert residual > 1e-3 and bound >= residual


def test_prim_partition_examples():
    dec = block_decomposition(pair3(), seed=1)
    inside, outside = prim_partition(dec, {"1"})
    assert inside == frozenset() and len(outside) == 1

    D = disjoint_pair_z2()
    dec = block_decomposition(D, seed=1)
    inside, outside = prim_partition(dec, {"3"})
    assert len(inside) == 1 and len(outside) == 2
    pair_block = next(b for b in dec.blocks if b.dim == 2)
    assert inside == {pair_block.label}

    inside, _ = prim_partition(dec, set(D.units))
    assert inside == frozenset()


def test_induction_examples():
    # the one-point corner of the full matrix block
    assert induction_map(pair3(), {"1"}, seed=1).mapping["B0"] == "B0"

    # the group part of a disjoint union induces to itself
    D = disjoint_pair_z2()
    ind = induction_map(D, {"3"}, seed=1)
    dec_labels = {b.label: b.dim for b in ind.dec.blocks}
    assert all(dec_labels[v] == 1 for v in ind.mapping.values())
    assert len(set(ind.mapping.values())) == 2

    # the full subset induces the identity on blocks
    ind = induction_map(D, set(D.units), seed=1)
    dims_red = {b.label: b.dim for b in ind.dec_red.blocks}
    dims = {b.label: b.dim for b in ind.dec.blocks}
    for j, B in ind.mapping.items():
        assert dims_red[j] == dims[B]
    assert frozenset(ind.mapping.values()) == frozenset(ind.dec.labels)


def test_induction_is_bijective_onto_complement():
    rng = rng_from_seed(22)
    for _ in range(10):
        G = random_groupoid(rng, max_arrows=40)
        U = random_subset(rng, G)
        ind = induction_map(G, U, seed=4)
        assert ind.ok
        assert len(set(ind.mapping.values())) == len(ind.mapping)
        assert frozenset(ind.mapping.values()) == ind.prim_outside


def test_invariant_subset_splits_the_spectrum():
    rng = rng_from_seed(23)
    for _ in range(10):
        G = random_groupoid(rng, max_arrows=40)
        orbs = orbits(G)
        V = frozenset().union(*(o for i, o in enumerate(orbs) if i % 2 == 0))
        if not V or V == set(G.units):
            continue
        dec = block_decomposition(G, seed=5)
        inside, outside = prim_partition(dec, V)
        ind = induction_map(G, V, seed=5, dec=dec)
        assert frozenset(ind.mapping.values()) == outside
        assert inside | outside == frozenset(dec.labels)
        assert not (inside & outside)


def test_phi_isometry_examples():
    rep = check_phi_isometry(pair2(), {"1"}, "1")
    assert rep.ok and rep.fiber_dim == 2

    G = pair3()
    rep = check_phi_isometry(G, set(G.units), "2")
    assert (rep.isometric, rep.intertwining, rep.onto) == (True, True, True)

    rep = check_phi_isometry(disjoint_pair_z2(), {"3"}, "3")
    assert rep.ok


@pytest.mark.parametrize("U, x, flags", [
    ({"1", "2"}, "1", (False, False, False)),
    ({"1"}, "1", (False, False, True)),
    ({"2", "3"}, "2", (True, True, True)),
    ({"2", "3"}, "3", (True, True, True)),
])
def test_phi_isometry_reads_false_on_a_broken_table(U, x, flags):
    # one product of pair3 redirected to a wrong arrow: the unitary check
    # reads each flag off the table, so the broken entry shows where U sees it
    rep = check_phi_isometry(broken_pair3(), U, x)
    assert (rep.isometric, rep.intertwining, rep.onto) == flags
    assert rep.ok == all(flags)


def test_phi_isometry_requires_membership():
    with pytest.raises(Exception):
        check_phi_isometry(pair2(), {"1"}, "2")


def test_norm_estimate_examples():
    # single deltas have norm one in both models
    G = pair3()
    dec = block_decomposition(G, seed=1)
    U = {"1", "2"}
    GU = reduction(G, U)
    dec_red = block_decomposition(GU, seed=1)
    for g in GU.arrows:
        f_red = ArrowFunction(GU, {g: 1.0})
        assert abs(max(dec_red.block_norms(f_red).values()) - 1.0) < 1e-9
        assert abs(max(dec.block_norms(f_red.extend_to(G)).values()) - 1.0) < 1e-9

    # the group character oracle: delta_e + delta_s has norm two
    D = disjoint_pair_z2()
    decD = block_decomposition(D, seed=1)
    GU = reduction(D, {"3"})
    dec_red = block_decomposition(GU, seed=1)
    f = ArrowFunction(GU, {g: 1.0 for g in GU.arrows})
    assert abs(max(dec_red.block_norms(f).values()) - 2.0) < 1e-9
    assert abs(max(decD.block_norms(f.extend_to(D)).values()) - 2.0) < 1e-9

    rep = check_norm_estimates(G, U, trials=30, seed=6)
    assert rep.ok


@pytest.mark.parametrize("trials", [0, -2])
def test_norm_estimates_refuse_to_draw_no_function(trials):
    with pytest.raises(InputError, match="trials must be positive"):
        check_norm_estimates(pair3(), {"1"}, trials=trials)


@pytest.mark.parametrize("residuals", [(2 * NORM_TOL, 0.0, 0.0), (0.0, -2 * NORM_TOL, 0.0),
                                       (0.0, 0.0, 2 * NORM_TOL)])
def test_norm_report_fails_on_each_residual_past_the_tolerance(residuals):
    # gap, slack and regular consistency: criterion 4 and the CLI read all three
    assert NormEstimateReport(0.0, 0.0, 0.0).ok
    assert not NormEstimateReport(*residuals).ok


def test_norm_estimates_randomized():
    rng = rng_from_seed(24)
    for _ in range(8):
        G = random_groupoid(rng, max_units=7, max_arrows=30)
        U = random_subset(rng, G)
        rep = check_norm_estimates(G, U, trials=5, seed=7)
        assert rep.max_equality_gap < 1e-9
        assert rep.min_induction_slack > -1e-9
        assert rep.max_regular_consistency < 1e-9


def test_spectrum_decomposition_examples():
    D = disjoint_pair_z2()
    rep = verify_spectrum_decomposition(D, [{"1", "2"}, {"3"}], seed=1)
    assert rep.ok
    assert len(rep.prim_all) == 3
    assert sorted(len(i) for i in rep.images) == [1, 2]

    P = pair3()
    rep = verify_spectrum_decomposition(P, [{"1"}, {"2"}], seed=1)
    assert rep.ok and len(rep.prim_all) == 1

    rep = verify_spectrum_decomposition(P, [set(P.units)], seed=1)
    assert rep.ok and rep.images == (rep.prim_all,)


def test_spectrum_decomposition_induces_each_distinct_cover_set_once(monkeypatch):
    from gcstar import spectrum
    calls = []

    def counted(G, U, **kwargs):
        calls.append(frozenset(U))
        return induction_map(G, U, **kwargs)

    D = disjoint_pair_z2()
    cover = [{"1", "2"}, {"3"}, {"2", "1"}, {"3"}]
    expected = verify_spectrum_decomposition(D, cover, seed=1)
    monkeypatch.setattr(spectrum, "induction_map", counted)
    rep = verify_spectrum_decomposition(D, cover, seed=1)
    assert calls == [frozenset({"1", "2"}), frozenset({"3"})]
    assert rep == expected and len(rep.images) == 4
    assert rep.images[0] == rep.images[2] and rep.images[1] == rep.images[3]


def test_spectrum_decomposition_requires_admissible_cover():
    D = disjoint_pair_z2()
    with pytest.raises(CoverPreconditionError):
        verify_spectrum_decomposition(D, [{"1"}], seed=1)


def test_spectrum_decomposition_randomized():
    rng = rng_from_seed(25)
    from gcstar.randgen import random_admissible_cover
    for _ in range(10):
        G = random_groupoid(rng, max_arrows=40)
        cover = random_admissible_cover(rng, G)
        rep = verify_spectrum_decomposition(G, cover, seed=8)
        assert rep.ok


def test_induced_support_contains_induced_supports():
    # the support of an induced regular representation, computed upstairs,
    # contains the induced image of the support computed downstairs
    rng = rng_from_seed(28)
    for _ in range(10):
        G = random_groupoid(rng, max_arrows=36)
        U = random_subset(rng, G)
        x = sorted(U, key=G.units.index)[0]
        ind = induction_map(G, U, seed=10)
        down = _regular_support(reduction(G, U), x, ind.dec_red)
        lifted = {ind.mapping[j] for j in down}
        up = _regular_support(G, x, ind.dec)
        assert lifted <= up


def test_regular_rep_support_is_full_spectrum_per_orbit():
    G = disjoint_pair_z2()
    dec = block_decomposition(G, seed=1)
    supp_pair = _regular_support(G, "1", dec)
    supp_group = _regular_support(G, "3", dec)
    assert supp_pair | supp_group == set(dec.labels)
    assert not (supp_pair & supp_group)


def test_morita_examples():
    rep = morita_reduction_data(pair3(), {"1"})
    assert rep.ok and rep.saturation == {"1", "2", "3"}
    rep = morita_reduction_data(disjoint_pair_z2(), {"3"})
    assert rep.ok and rep.saturation == {"3"}


def test_quotient_check_reads_false_when_moves_are_not_one_move_wide():
    from gcstar.spectrum import _quotient_bijects
    Z, one_label = np.arange(3), np.zeros(3, dtype=int)
    closed = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    assert _quotient_bijects(Z, closed, one_label, np.array([True]))
    # 0 -> 1 -> 2 closes to one class with one label, but no move joins 0 and 2
    chain = np.array([[0, 1], [1, 2], [2, -1]])
    assert not _quotient_bijects(Z, chain, one_label, np.array([True]))
    # 0 -> 1 joins elements of different labels, which each map alone to a
    # target unit: only the one-move check sees that the move crosses labels
    cross = np.array([[0, 1], [1, -1], [2, -1]])
    assert not _quotient_bijects(Z, cross, np.arange(3), np.ones(3, dtype=bool))


def test_morita_randomized():
    rng = rng_from_seed(27)
    for _ in range(15):
        G = random_groupoid(rng, max_arrows=40)
        U = random_subset(rng, G)
        assert morita_reduction_data(G, U).ok


def test_wedderburn_rejects_non_groupoid():
    with pytest.raises(InputError, match="groupoid fails validation"):
        block_decomposition(broken_pair3())


def test_spectrum_decomposition_validates_its_groupoid_once(monkeypatch):
    # G enters through block_decomposition; the cover reductions are
    # groupoids by construction and are not validated again
    import gcstar.groupoid as groupoid
    import gcstar.spectrum as spectrum

    calls, validate = [], groupoid.validate

    def counted(G):
        calls.append(G)
        return validate(G)

    for module in (spectrum, groupoid):
        monkeypatch.setattr(module, "validate", counted)
    G = disjoint_pair_z2()
    cover = [{"1", "3"}, {"2", "3"}, {"1", "2", "3"}]
    assert verify_spectrum_decomposition(G, cover, seed=1).ok
    assert calls == [G]


def test_induction_map_refuses_a_decomposition_of_another_groupoid():
    # an equal groupoid is still another object: its validation says
    # nothing about G, which here breaks associativity
    dec = block_decomposition(pair3(), seed=1)
    assert induction_map(dec.algebra.groupoid, {"1"}, seed=1, dec=dec).ok
    for G in (pair3(), broken_pair3()):
        with pytest.raises(InputError, match="another groupoid"):
            induction_map(G, {"1"}, seed=1, dec=dec)
        with pytest.raises(InputError, match="another groupoid"):
            verify_spectrum_decomposition(G, [{"1"}], seed=1, dec=dec)
        with pytest.raises(InputError, match="another groupoid"):
            check_norm_estimates(G, {"1"}, trials=1, seed=1, dec=dec)


@pytest.mark.parametrize("budget", [1, None], ids=["one-arrow-per-gather", "default"])
def test_cluster_traces_match_the_images_they_replace(monkeypatch, budget):
    # with a budget of one entry every gather holds one arrow's row, so each
    # cluster's traces are stacked from as many gathers as there are arrows
    import gcstar.spectrum as spectrum

    if budget is not None:
        monkeypatch.setattr(spectrum, "TRACE_BATCH", budget)
    rng = rng_from_seed(53)
    groupoids = [random_groupoid(rng, max_arrows=40) for _ in range(8)]
    groupoids += [pair3_s3(), group_groupoid(symmetric_group_3())]
    for G in groupoids:
        dec = block_decomposition(G, seed=7)
        for b in dec.blocks:
            images = np.einsum("kii->k", dec.algebra.images(b.isometry))
            assert np.max(np.abs(np.array(b.traces) - images)) < 1e-12
    assert max(b.dim for b in dec.blocks) == 2  # S3's two-dimensional irreducible


def test_block_decomposition_memory_stays_within_the_trace_budget():
    # Z96 has 96 one-dimensional clusters and a 96 x 96 entry table: one
    # gather of every arrow's row would peak at 28 MB; in runs of at most
    # TRACE_BATCH entries (here 7 arrows, 1 MB) it adds about 1.3 MB to the
    # 2.5 MB of the tables, the validation and the split
    G = group_groupoid(FiniteGroup.cyclic(96))
    tracemalloc.start()
    try:
        assert len(block_decomposition(G, seed=1).blocks) == 96
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5 << 20


def test_empty_cover_member_contributes_nothing():
    D = disjoint_pair_z2()
    rep = verify_spectrum_decomposition(D, [{"1", "2"}, {"3"}, set()], seed=1)
    assert rep.ok
    assert rep.images[2] == frozenset()


def test_wedderburn_cluster_ambiguity_is_loud(monkeypatch):
    from gcstar import spectrum
    from gcstar.errors import AmbiguityError
    alg = concrete_algebra(z3_groupoid())
    # an absurd clustering tolerance merges inequivalent blocks; the exact
    # dimension census catches it instead of reporting a wrong decomposition
    monkeypatch.setattr(spectrum, "CLUSTER_TOL", 100.0)
    with pytest.raises(AmbiguityError):
        spectrum.wedderburn(alg, seed=1)


def test_block_norms_and_batched_multiplicities_match_the_old_definitions():
    rng = rng_from_seed(51)
    for _ in range(8):
        G = random_groupoid(rng, max_arrows=30)
        dec = block_decomposition(G, seed=5)
        fs = [random_arrow_function(rng, G),
              random_arrow_function(rng, G, [a for a in G.arrows if rng.random() < 0.6]),
              random_arrow_function(rng, reduction(G, random_subset(rng, G))).extend_to(G)]
        for f in fs:
            assert dec.block_norms(f) == {label: float(np.linalg.norm(image, 2))
                                          for label, image in dec.apply(f).items()}
        traces = dec.character_matrix[:, ::-1]
        assert (dec.multiplicities_of_columns(traces)
                == [dec.multiplicities_of_columns(t[:, None])[0] for t in traces.T])
