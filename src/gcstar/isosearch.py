"""Isomorphism search for finite groupoids.

Over each orbit a finite groupoid splits into a pair-groupoid part and the
isotropy group at a base unit: fixing connecting arrows tau_x from the base
to every unit of the orbit, the arrow g : x -> y factors as
tau_y * gamma * tau_x^{-1} with gamma in the isotropy.  Two groupoids are
therefore isomorphic iff their orbits can be matched with equal sizes and
isomorphic isotropy groups, and an explicit isomorphism is assembled from
the transversals and a group isomorphism found by backtracking.

The search is deterministic: the components of each groupoid are taken in
orbit order, and candidate matches are tried in that order.
"""

from __future__ import annotations

from .errors import InputError
from .groupoid import GroupoidMorphism, isotropy, orbits


def group_isomorphism(A, B):
    """A group isomorphism A -> B as a dict, or None.

    Backtracking over element images with closure propagation; images are
    pruned by element order.
    """
    if len(A) != len(B) or A.order_profile() != B.order_profile():
        return None
    a_order = {a: A.element_order(a) for a in A.elements}
    b_by_order = {}
    for b in B.elements:
        b_by_order.setdefault(B.element_order(b), []).append(b)

    def close(mapping):
        # Force f(xy) = f(x)f(y) for all known pairs; None on conflict.
        queue = list(mapping)
        while queue:
            x = queue.pop()
            for y in list(mapping):
                for p, q in ((x, y), (y, x)):
                    pq = A.mul(p, q)
                    img = B.mul(mapping[p], mapping[q])
                    if pq in mapping:
                        if mapping[pq] != img:
                            return None
                    else:
                        mapping[pq] = img
                        queue.append(pq)
        return mapping

    def extend(mapping, used):
        if len(mapping) == len(A.elements):  # injective: every trial is checked
            return mapping
        a = next(a for a in A.elements if a not in mapping)
        for b in b_by_order[a_order[a]]:
            if b in used:
                continue
            trial = close(dict(mapping) | {a: b})
            if trial is None:
                continue
            if len(set(trial.values())) != len(trial):
                continue
            result = extend(trial, set(trial.values()))
            if result is not None:
                return result
        return None

    return extend({A.identity: B.identity}, {B.identity})


def _components(G):
    """Per-orbit data: (units in G order, base unit, isotropy group)."""
    out = []
    for orb in orbits(G):
        members = tuple(x for x in G.units if x in orb)
        base = members[0]
        out.append((members, base, isotropy(G, base)))
    return out


def _component_signature(comp):
    members, _, iso = comp
    return (len(members), iso.order_profile())


def _transversal(G, base, members):
    """Connecting arrows tau_x : base -> x, the smallest arrow id each."""
    tau = {}
    for x in members:
        hom = G.hom(base, x)
        if not hom:
            raise InputError("orbit members are not connected")
        tau[x] = hom[0]
    return tau


def _component_isomorphism(G, H, comp_g, comp_h):
    """Isomorphism of transitive components, or None."""
    members_g, base_g, iso_g = comp_g
    members_h, base_h, iso_h = comp_h
    if len(members_g) != len(members_h):
        return None
    psi = group_isomorphism(iso_g, iso_h)
    if psi is None:
        return None
    unit_map = dict(zip(members_g, members_h))
    tau_g = _transversal(G, base_g, members_g)
    tau_h = _transversal(H, base_h, members_h)
    arrow_map = {}
    for x in members_g:
        for g in G.fiber(x):
            y = G.ran[g]
            if y not in unit_map:
                continue
            gamma = G.compose(G.inv(tau_g[y]), G.compose(g, tau_g[x]))
            img = H.compose(tau_h[unit_map[y]],
                            H.compose(psi[gamma], H.inv(tau_h[unit_map[x]])))
            arrow_map[g] = img
    return unit_map, arrow_map


def groupoid_isomorphism(G, H):
    """An isomorphism G -> H as a GroupoidMorphism, or None.

    The returned morphism is replay-checked before being handed back.
    """
    comps_g = _components(G)
    comps_h = _components(H)
    if len(comps_g) != len(comps_h) or G.n_arrows() != H.n_arrows():
        return None
    sigs_g = sorted(_component_signature(c) for c in comps_g)
    sigs_h = sorted(_component_signature(c) for c in comps_h)
    if sigs_g != sigs_h:
        return None

    def assign(i, taken, unit_map, arrow_map):
        if i == len(comps_g):
            return unit_map, arrow_map
        cg = comps_g[i]
        for j, ch in enumerate(comps_h):
            if j in taken:
                continue
            if _component_signature(cg) != _component_signature(ch):
                continue
            piece = _component_isomorphism(G, H, cg, ch)
            if piece is None:
                continue
            um, am = piece
            result = assign(i + 1, taken | {j}, unit_map | um, arrow_map | am)
            if result is not None:
                return result
        return None

    found = assign(0, frozenset(), {}, {})
    if found is None:
        return None
    phi = GroupoidMorphism(G, H, found[0], found[1])
    if not phi.is_isomorphism():
        raise AssertionError("assembled morphism failed replay check")
    return phi

