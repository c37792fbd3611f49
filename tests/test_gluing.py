import pytest

from gcstar.errors import AmbiguityError, GluingConditionError, InputError
from gcstar.fixtures import (bmodel_family, disjoint_cover_family,
                             faulty_family, nested_family, pair3, unliftable_family)
from gcstar import gluing
from gcstar.gluing import (GluingFamily, GluingReport, check_weak_gluing,
                           family_from_reductions, glue)
from gcstar.groupoid import (FiniteGroup, direct_product,
                             group_groupoid, isotropy, orbits, pair_groupoid,
                             reduction, validate)
from gcstar.isosearch import groupoid_isomorphism
from gcstar.randgen import (random_admissible_cover, random_groupoid,
                            random_subset, rng_from_seed)


def test_identity_overlaps_are_clean():
    assert check_weak_gluing(nested_family()).ok


def test_unit_swap_fault_is_reported_as_cocycle_failure():
    report = check_weak_gluing(faulty_family())
    assert not report.ok
    assert report.cocycle_failures
    assert report.unit_pinning
    assert any("cocycle" in line for line in report.lines())


def test_split_pair_cover_fails_lifting():
    report = check_weak_gluing(unliftable_family())
    assert not report.ok
    # (2->1 of piece 0, 3->2 of piece 1) and (2->3 of piece 1, 1->2 of piece 0):
    # 3->1 and 1->3 exist in neither piece, and each direction is reported
    assert report.lifting_failures == ((0, 1, 1, 5), (1, 0, 7, 3))
    assert not report.cocycle_failures


def test_glue_refuses_dirty_families():
    with pytest.raises(GluingConditionError):
        glue(faulty_family())
    with pytest.raises(GluingConditionError):
        glue(unliftable_family())


def test_glue_raises_ambiguity_when_charts_disagree(monkeypatch):
    # with the weak-gluing check bypassed, the unit swap of the faulty family
    # identifies arrows whose endpoints differ
    monkeypatch.setattr(gluing, "check_weak_gluing", lambda family: GluingReport((), (), ()))
    with pytest.raises(AmbiguityError, match="charts disagree"):
        glue(faulty_family())


def test_glue_refuses_presentations_that_disagree_about_a_class(monkeypatch):
    # three copies of Z3 over one unit: the maps 0-1 and 1-2 are identities but
    # 0-2 inverts, so arrow 1 of piece 1 is presented by arrow 1 of piece 2
    # while arrow 1 of piece 0, which it presents, is presented by arrow 2
    Z3 = group_groupoid(FiniteGroup.cyclic(3), unit="z")
    same, twist = {0: 0, 1: 1, 2: 2}, {0: 0, 1: 2, 2: 1}
    fam = GluingFamily([{"z"}] * 3, [Z3] * 3,
                       {(0, 1): same, (1, 0): same, (1, 2): same, (2, 1): same,
                        (0, 2): twist, (2, 0): twist})
    assert check_weak_gluing(fam).cocycle_failures
    monkeypatch.setattr(gluing, "check_weak_gluing", lambda family: GluingReport((), (), ()))
    with pytest.raises(AmbiguityError, match="charts disagree about the class"):
        glue(fam)


def test_glue_and_replay_on_random_families():
    outcomes = {"glued": 0, "refused": 0}
    for seed in range(40):
        rng = rng_from_seed(seed)
        G = random_groupoid(rng, max_arrows=30)
        cover = random_admissible_cover(rng, G) + [random_subset(rng, G)]
        fam = family_from_reductions(G, cover)
        report = check_weak_gluing(fam)
        if not report.ok:
            # reductions of one groupoid pin units and satisfy the cocycle laws
            assert report.lifting_failures
            assert not (report.unit_pinning or report.cocycle_failures)
            with pytest.raises(GluingConditionError):
                glue(fam)
            outcomes["refused"] += 1
            continue
        glued = glue(fam)
        assert validate(glued).ok
        for U, piece in zip(fam.cover, fam.pieces):
            assert groupoid_isomorphism(reduction(glued, U), piece) is not None
        outcomes["glued"] += 1
    assert outcomes["glued"] and outcomes["refused"]


def test_glue_single_piece_is_the_piece():
    G = pair_groupoid(["1", "2", "3"])
    fam = family_from_reductions(G, [set(G.units)])
    glued = glue(fam)
    assert glued.n_arrows() == G.n_arrows()
    assert groupoid_isomorphism(glued, G) is not None


def test_glue_nested_cover_recovers_the_groupoid():
    # each class is numbered where its first presentation falls in (piece, id)
    # order; the first piece is all of pair3, so its tables come back unchanged
    glued, G = glue(nested_family()), pair3()
    assert validate(glued).ok
    assert glued.units == G.units and glued.arrows == G.arrows
    assert glued.dom == G.dom and glued.ran == G.ran
    assert glued.inverse == G.inverse and glued.unit_arrow == G.unit_arrow
    assert glued.compose_table == G.compose_table


def test_glue_disjoint_cover_gives_disjoint_union():
    fam = disjoint_cover_family()
    glued = glue(fam)
    assert validate(glued).ok
    assert glued.n_arrows() == sum(p.n_arrows() for p in fam.pieces)
    assert len(orbits(glued)) == 2


def test_glue_boundary_model_family():
    fam = bmodel_family()
    assert check_weak_gluing(fam).ok
    glued = glue(fam)
    assert validate(glued).ok
    assert glued.n_arrows() == 11
    assert {frozenset(o) for o in orbits(glued)} == \
        {frozenset({"b"}), frozenset({"i1", "i2", "i3"})}
    assert len(isotropy(glued, "b")) == 2
    for U, piece in zip(fam.cover, fam.pieces):
        assert groupoid_isomorphism(reduction(glued, U), piece) is not None


def test_glue_is_order_independent_up_to_isomorphism():
    fam = bmodel_family()
    swapped = GluingFamily(
        cover=(fam.cover[1], fam.cover[0]),
        pieces=(fam.pieces[1], fam.pieces[0]),
        maps={(1, 0): fam.isos[(0, 1)].arrow_map, (0, 1): fam.isos[(1, 0)].arrow_map},
    )
    assert groupoid_isomorphism(glue(fam), glue(swapped)) is not None


def _product_ids(A, B):
    """Encode/decode helpers for direct_product's arrow id layout."""
    a_ids = list(A.arrows)
    b_ids = list(B.arrows)
    a_idx = {g: i for i, g in enumerate(a_ids)}
    b_idx = {h: i for i, h in enumerate(b_ids)}
    nb = len(b_ids)

    def encode(g, h):
        return a_idx[g] * nb + b_idx[h]

    def decode(pid):
        q, r = divmod(pid, nb)
        return a_ids[q], b_ids[r]

    return encode, decode


def test_product_of_gluings_is_gluing_of_products():
    fam1 = nested_family()
    fam2 = disjoint_cover_family()
    cover, pieces, codecs = [], [], []
    pairs = [(i, j) for i in range(len(fam1.pieces)) for j in range(len(fam2.pieces))]
    for (i, j) in pairs:
        cover.append(frozenset((x, y) for x in fam1.cover[i] for y in fam2.cover[j]))
        pieces.append(direct_product(fam1.pieces[i], fam2.pieces[j]))
        codecs.append(_product_ids(fam1.pieces[i], fam2.pieces[j]))
    maps = {}
    for a, (i, j) in enumerate(pairs):
        for b, (k, l) in enumerate(pairs):
            if a == b:
                continue
            overlap = cover[a] & cover[b]
            if not overlap:
                continue
            _, decode_a = codecs[a]
            encode_b, _ = codecs[b]
            maps[(a, b)] = {}
            for pid in reduction(pieces[a], overlap).arrows:
                g, h = decode_a(pid)
                maps[(a, b)][pid] = encode_b(fam1.presentations[i, g][k],
                                             fam2.presentations[j, h][l])
    prod_family = GluingFamily(cover, pieces, maps)
    assert check_weak_gluing(prod_family).ok
    lhs = glue(prod_family)
    rhs = direct_product(glue(fam1), glue(fam2))
    assert lhs.n_arrows() == rhs.n_arrows()
    assert groupoid_isomorphism(lhs, rhs) is not None


def test_family_constructor_rejects_mismatched_overlap_maps():
    G = pair_groupoid(["1", "2", "3"])
    fam = family_from_reductions(G, [{"1", "2", "3"}, {"2", "3"}])
    maps = {pair: phi.arrow_map for pair, phi in fam.isos.items()}
    maps[(0, 1)] = {g: g for g in reduction(G, {"3"}).arrows}
    with pytest.raises(InputError, match="is not an isomorphism"):
        GluingFamily(fam.cover, fam.pieces, maps)


def test_family_constructor_requires_both_directions():
    G = pair_groupoid(["1", "2", "3"])
    fam = family_from_reductions(G, [{"1", "2", "3"}, {"2", "3"}])
    maps = {(0, 1): fam.isos[(0, 1)].arrow_map}
    with pytest.raises(InputError, match="missing"):
        GluingFamily(fam.cover, fam.pieces, maps)


def test_family_constructor_rejects_non_isomorphisms():
    G = pair_groupoid(["1", "2", "3"])
    fam = family_from_reductions(G, [{"1", "2", "3"}, {"2", "3"}])
    overlap = reduction(G, {"2", "3"})
    maps = {pair: phi.arrow_map for pair, phi in fam.isos.items()}
    maps[(0, 1)] = {g: overlap.unit_arrow["2"] for g in overlap.arrows}
    with pytest.raises(InputError, match="is not an isomorphism"):
        GluingFamily(fam.cover, fam.pieces, maps)


def test_family_constructor_rejects_unit_arrows_sent_off_the_units():
    G = pair_groupoid(["1", "2", "3"])
    fam = family_from_reductions(G, [{"1", "2", "3"}, {"2", "3"}])
    overlap = reduction(G, {"2", "3"})
    u2, (g32,) = overlap.unit_arrow["2"], overlap.hom("3", "2")
    maps = {pair: phi.arrow_map for pair, phi in fam.isos.items()}
    maps[(0, 1)] = {g: g32 if g == u2 else img for g, img in maps[(0, 1)].items()}
    with pytest.raises(InputError, match="is not an isomorphism"):
        GluingFamily(fam.cover, fam.pieces, maps)


def test_glue_with_isotropy_overlap():
    # two charts both seeing the full group piece; overlap maps may twist
    Z3 = group_groupoid(FiniteGroup.cyclic(3), unit="z")
    G = pair_groupoid(["1", "2"])
    from gcstar.groupoid import disjoint_union
    big = disjoint_union([G, Z3])
    fam = family_from_reductions(big, [{"1", "2", "z"}, {"z"}])
    assert check_weak_gluing(fam).ok
    glued = glue(fam)
    assert validate(glued).ok
    assert glued.n_arrows() == big.n_arrows()
    assert groupoid_isomorphism(glued, big) is not None
