"""Block decomposition and induced representations of finite groupoid algebras.

The algebra of a finite groupoid is modelled faithfully by the direct sum of
one regular representation per orbit.  Its simple (Wedderburn) blocks are
extracted numerically:

1. write down the commutant in closed form: on each orbit's fiber the
   generators act by left translation, so the commutant is spanned by the
   right translations by the isotropy group at the orbit's base unit;
2. sample a random self-adjoint element of the commutant (seeded) and split
   the representation space along its eigenvalue clusters;
3. compute the arrow images Q* A_g Q of each cluster once; group equivalent
   sub-blocks by their traces and keep one representative per class, whose
   images are checked, not recomputed: its range must be invariant under
   every generator (hence multiplicative) and its character must have the
   norm of an irreducible.  Annihilators need no images: a block kills
   delta_g exactly when its trace on the unit arrow at dom g (a rank) is 0.

Every block corresponds to one irreducible representation, hence to one
primitive ideal (its kernel).  Induction from the algebra of a reduction is
realised through corner restriction: the functions supported on the
reduction form the corner cut out by the projection summing the unit deltas
over the subset, and a block of the big algebra induces from block j exactly
when j appears in the decomposition of its corner restriction.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .convolution import ArrowFunction, operator_norm, reduced_norm
from .errors import AmbiguityError, CoverPreconditionError, InputError
from .groupoid import (UnionFind, _check_subset, orbit_bases, reduction, saturation,
                       validate)

CLUSTER_TOL = 1e-9
# Gaps between genuinely degenerate eigenvalues sit at the noise floor
# (~1e-13 at desk scale), one decade under the clustering tolerance is a
# safe ambiguity band; gaps above it are real and split cleanly.
CLUSTER_GRAY_ZONE = 1e-8
# Floors of the two below: rounding of ~D*d*u ~ 1e-13 at D = 48, d = 12, plus
# the eigenvector error u*||T||/gap of the split; the largest invariance
# residual over the spectrum-ladder benchmark (seed 101) is 4.8e-13.  The
# character-norm defect read <= 3.0e-15 over 2598 blocks (that ladder and 300
# random groupoids); a reducible block misses by >= 1/|d^-1(x)| (1/12 there).
TRACE_TOL = 1e-8   # trace distance between equivalent clusters
BLOCK_TOL = 1e-8   # isometry defect, invariance residuals, character norm
# Floors: a unit trace is a projection's rank; over the 2920 blocks of the
# spectrum-ladder (seeds 101, 7) and 400 random groupoids it read exactly 0.0
# or at least 1 - 3.1e-15.  There, the traces on the cover reductions gave
# |m - round(m)| <= 1.1e-14 and a relative residual <= 3.5e-15.
ANNIHILATION_TOL = 1e-9
MULTIPLICITY_TOL = 1e-6


# -- the concrete algebra ---------------------------------------------------


class ConcreteAlgebra:
    """A faithful matrix model: one regular representation per orbit, summed.

    The coordinates are the fiber arrows y of the base units (``coordinate``
    numbers them by arrow position, -1 elsewhere); A_g is the partial
    permutation e_y -> e_(g y) on those with ran(y) = dom(g), held as the row
    and column of each entry, one table row per arrow in arrow order, padded
    with the index dim (a zero row in ``images``).
    """

    def __init__(self, groupoid, bases, coordinate, entry_row, entry_col):
        self.groupoid = groupoid
        self.bases = bases  # unit index of each orbit's base unit
        self.coordinate = coordinate
        self.dim = int(np.count_nonzero(coordinate >= 0))
        self._entry_row = entry_row
        self._entry_col = entry_col

    def images(self, Q):
        """Q* A_g Q for all arrows g, as an (n_arrows, d, d) array; gathers
        the rows of the isometry Q (D x d), so no D x D generator is formed."""
        Qz = np.vstack([Q, np.zeros((1, Q.shape[1]))])
        return Qz[self._entry_row].conj().transpose(0, 2, 1) @ Qz[self._entry_col]

    def translates(self, Q):
        """A_g Q for all arrows g, as an (n_arrows, D, d) array; scatters the
        rows of Q, so no D x D generator is formed."""
        Qz = np.vstack([Q, np.zeros((1, Q.shape[1]))])
        out = np.zeros((len(self._entry_row),) + Qz.shape, dtype=Q.dtype)
        out[np.arange(len(out))[:, None], self._entry_row] = Qz[self._entry_col]
        return out[:, :-1]

    def generator_matrix(self, g):
        k = self.groupoid.table.position[g]
        M = np.zeros((self.dim + 1, self.dim + 1))
        M[self._entry_row[k], self._entry_col[k]] = 1.0
        return M[:-1, :-1]


def concrete_algebra(G):
    """Build the orbit-summed regular representation model of the algebra.

    Requires a clean :func:`validate` report, which makes the model faithful
    by construction: every arrow g composes with some fiber arrow of its
    orbit's base unit, so no generator vanishes, and g y = g' y forces
    g = g', so no two generators share a cell.  Verifies, exactly, the
    adjoint law A_{g^-1} = A_g^T that makes every block map *-preserving.
    """
    report = validate(G)
    if not report.ok:
        raise InputError("groupoid fails validation: " + report.lines()[0])
    T = G.table
    bases = list(orbit_bases(G))
    fiber_arrows = np.flatnonzero(np.isin(T.dom, bases))
    fiber_arrows = fiber_arrows[np.argsort(T.dom[fiber_arrows], kind="stable")]
    dim = len(fiber_arrows)
    # entry (g y, y) of A_g for every fiber arrow y that g composes with,
    # listed per arrow in coordinate order: live cells first, padding after
    products = T.product[:, fiber_arrows]
    live = products >= 0
    width = int(live.sum(axis=1).max(initial=0))
    order = np.argsort(~live, axis=1, kind="stable")[:, :width]
    filled = np.take_along_axis(live, order, axis=1)
    coordinate = np.full(G.n_arrows(), -1)
    coordinate[fiber_arrows] = np.arange(dim)
    alg = ConcreteAlgebra(
        G, bases, coordinate,
        np.where(filled, coordinate[np.take_along_axis(products, order, axis=1)], dim),
        np.where(filled, order, dim))

    stride = alg.dim + 1  # cell row * stride + col; the padding cell is symmetric
    cells = alg._entry_row * stride + alg._entry_col
    transposed = alg._entry_col * stride + alg._entry_row
    wrong = np.any(np.sort(cells[T.inverse], axis=1) != np.sort(transposed, axis=1), axis=1)
    if wrong.any():
        raise AmbiguityError(f"generator of the inverse of arrow "
                             f"{G.arrows[np.argmax(wrong)]} is not its "
                             f"transpose; the adjoint law fails")
    return alg


# -- exact commutant --------------------------------------------------------


def commutant_basis(alg):
    """A basis of {M : M A_g = A_g M for all g}, as (rows, cols) index pairs.

    Each element is a 0/1 matrix given by the positions of its entries.  On
    the fiber d^{-1}(x) of a base unit the generators act by left
    translation, so the commutant of this left regular representation is
    spanned exactly by the right translations e_y -> e_(y h) by the
    isotropy arrows h at x (Renault, LNM 793); regular representations of
    different orbits are disjoint, so nothing couples them.  One element per
    base unit and isotropy arrow, in ascending id order.

    The blocks split along this commutant are still checked independently:
    a wrong commutant splits along subspaces that are not invariant or not
    irreducible, which the dimension census, the invariance and character-norm
    checks of :func:`_verify_blocks` or the multiplicity decompositions catch.
    """
    T, coordinate = alg.groupoid.table, alg.coordinate
    basis = []
    for x in alg.bases:
        fiber = np.flatnonzero(T.dom == x)
        for h in np.flatnonzero((T.dom == x) & (T.ran == x)):
            basis.append((coordinate[T.product[fiber, h]], coordinate[fiber]))
    return basis


# -- blocks -----------------------------------------------------------------


@dataclass(frozen=True)
class Block:
    """One simple summand: an irreducible quotient of the algebra."""

    label: str
    dim: int
    multiplicity: int
    isometry: np.ndarray = field(repr=False, compare=False)  # D x dim
    traces: tuple  # tr on each arrow delta, in arrow order


@dataclass(frozen=True)
class BlockDecomposition:
    algebra: ConcreteAlgebra
    blocks: tuple

    @property
    def labels(self):
        return tuple(b.label for b in self.blocks)

    def block(self, label):
        for b in self.blocks:
            if b.label == label:
                return b
        raise InputError(f"no block labelled {label!r}")

    @functools.cached_property
    def arrow_images(self):
        """Q* A_g Q for every arrow g, one (n_arrows, d, d) stack per block in
        block order.  Built once per decomposition and read-only."""
        stacks = tuple(self.algebra.images(b.isometry) for b in self.blocks)
        for X in stacks:
            X.flags.writeable = False
        return stacks

    def apply(self, f):
        """The block images sum_g f(g) Q* A_g Q, by label, of a function on
        the algebra's groupoid or on a reduction of it (read through
        ``extend_to``)."""
        vec = f.extend_to(self.algebra.groupoid).vec
        return {b.label: np.tensordot(vec, X, axes=1)
                for b, X in zip(self.blocks, self.arrow_images)}

    def block_norms(self, f):
        """The operator norm of f's image in each block, by label."""
        return {label: operator_norm(image) for label, image in self.apply(f).items()}

    def block_norm(self, f):
        """The C*-norm of f computed in the block model."""
        return max(self.block_norms(f).values(), default=0.0)

    @functools.cached_property
    def character_matrix(self):
        """Traces of all blocks on all arrow deltas; rows follow arrow order.
        Built once per decomposition and read-only."""
        arrows = self.algebra.groupoid.arrows
        X = np.zeros((len(arrows), len(self.blocks)), dtype=complex)
        for j, b in enumerate(self.blocks):
            X[:, j] = b.traces
        X.flags.writeable = False
        return X

    def multiplicities_of(self, trace_vector):
        """Decompose a representation, given its traces on the arrow deltas.

        Returns a dict label -> nonnegative integer multiplicity.  The
        characters of inequivalent blocks are linearly independent, so a
        least-squares solve followed by integer rounding is exact up to
        numerical noise; a large residual raises AmbiguityError.
        """
        return self.multiplicities_of_columns(np.asarray(trace_vector, dtype=complex)[:, None])[0]

    def multiplicities_of_columns(self, traces):
        """:meth:`multiplicities_of` for each column of ``traces``, from one
        least-squares solve; a list in column order."""
        X = self.character_matrix
        t = np.asarray(traces, dtype=complex)
        m, *_ = np.linalg.lstsq(X, t, rcond=None)
        rounded = np.round(m.real)
        if np.any((np.max(np.abs(m - rounded), axis=0, initial=0.0) > MULTIPLICITY_TOL)
                  | (np.min(rounded, axis=0, initial=0.0) < -0.5)
                  | (np.linalg.norm(X @ rounded - t, axis=0)
                     > MULTIPLICITY_TOL * np.maximum(1.0, np.linalg.norm(t, axis=0)))):
            raise AmbiguityError("representation does not decompose integrally "
                                 "into the computed blocks")
        return [{b.label: int(r) for b, r in zip(self.blocks, column)} for column in rounded.T]

    def support_of(self, trace_vector):
        mult = self.multiplicities_of(trace_vector)
        return frozenset(label for label, m in mult.items() if m > 0)


def _cluster_eigenvalues(eigenvalues, tol, gray):
    """Split a sorted eigenvalue array at gaps > tol; gray-zone gaps error out."""
    gaps = np.diff(eigenvalues)
    unsure = gaps[(gaps > tol) & (gaps < gray)]
    if unsure.size:
        raise AmbiguityError(f"eigenvalue gap {unsure[0]:.3e} falls between the cluster "
                             f"tolerance and its safety margin; re-run with a "
                             f"different seed")
    splits = [0, *(np.flatnonzero(gaps > tol) + 1).tolist(), len(eigenvalues)]
    return list(zip(splits[:-1], splits[1:]))


def wedderburn(alg, seed=0, cluster_tol=CLUSTER_TOL):
    """Split the concrete algebra into its simple blocks.

    Deterministic given (algebra, seed).  Block labels are canonical: they
    depend only on the block dimensions and trace vectors, not on the seed.
    """
    if alg.dim == 0:
        return BlockDecomposition(alg, ())
    rng = np.random.default_rng(seed)
    basis = commutant_basis(alg)
    coeffs = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
    T = np.zeros((alg.dim, alg.dim), dtype=complex)
    for c, (rows, cols) in zip(coeffs, basis):
        T[rows, cols] = c
    T = (T + T.conj().T) / 2.0
    eigenvalues, vectors = np.linalg.eigh(T)
    clusters = _cluster_eigenvalues(eigenvalues, cluster_tol, CLUSTER_GRAY_ZONE)

    groups = []
    for (lo, hi) in clusters:
        Q, n = vectors[:, lo:hi], hi - lo
        images = alg.images(Q)
        traces = np.einsum("kii->k", images)
        for grp in groups:
            if grp["dim"] == n and np.max(np.abs(grp["traces"] - traces)) < TRACE_TOL:
                grp["count"] += 1
                break
        else:
            groups.append({"dim": n, "traces": traces, "count": 1, "isometry": Q,
                           "images": images})

    if sum(grp["dim"] ** 2 for grp in groups) != alg.groupoid.n_arrows():
        raise AmbiguityError(
            "block dimension census fails the exact count; eigenvalue "
            "clustering was unreliable -- re-run with a different seed")

    def sort_key(grp):
        # one rounding of the whole vector: on numpy float64 parts,
        # round(x, 6) is np.round, so the keys match it bit for bit
        r = np.round(grp["traces"], 6)
        return (grp["dim"], tuple(zip(r.real.tolist(), r.imag.tolist())))

    groups.sort(key=sort_key)
    dec = BlockDecomposition(alg, tuple(
        Block(label=f"B{i}", dim=grp["dim"], multiplicity=grp["count"],
              isometry=grp["isometry"], traces=tuple(grp["traces"]))
        for i, grp in enumerate(groups)))
    _verify_blocks(dec, [grp["images"] for grp in groups])
    return dec


def _verify_blocks(dec, images):
    """Integrity checks: each block map phi(g) = Q* A_g Q, stacked in
    ``images`` as :func:`wedderburn` formed them for the traces, is an
    irreducible *-homomorphism.  Per block: Q* Q = I; every residual
    r_g = ||A_g Q - Q phi(g)||_F is at most BLOCK_TOL, and
    r_g^2 = ||(I - QQ*) A_g Q||^2 + ||Q* A_g Q - phi(g)||^2 for an isometry.
    As ||A_a|| <= 1, phi(a) phi(b) - phi(ab) = -Q* A_a (I - QQ*) A_b Q has
    norm at most r_b: invariance implies multiplicativity on every product,
    the zero products across orbits included.  The adjoint law is checked
    once in :func:`concrete_algebra`.  Schur orthogonality gives
    sum_g |tr phi(g)|^2 = sum_O |O| |H_O| sum m_rho^2 (orbits O, isotropy H_O,
    multiplicities m_rho of its irreducibles) and |d^-1(x)| = |O_x| |H_x|: at
    the unit x of largest |tr phi| their ratio is 1 exactly for one irreducible
    on one orbit, and misses by >= 1 within one orbit, by >= 1/|d^-1(x)| across two.
    """
    alg, T = dec.algebra, dec.algebra.groupoid.table
    for b, X in zip(dec.blocks, images, strict=True):
        Q = b.isometry
        if np.max(np.abs(Q.conj().T @ Q - np.eye(b.dim))) > BLOCK_TOL:
            raise AmbiguityError(f"block {b.label} is not an isometry")
        R = alg.translates(Q)
        R -= Q @ X  # the residuals A_g Q - Q phi(g), in place
        r2 = (np.einsum("kij,kij->k", R.real, R.real)
              + np.einsum("kij,kij->k", R.imag, R.imag))  # r_g^2, no temporaries
        if np.max(r2, initial=0.0) > BLOCK_TOL ** 2:
            raise AmbiguityError(f"block {b.label} is not invariant under "
                                 f"the generators; its map fails multiplicativity")
        chi2 = np.abs(np.einsum("kii->k", X)) ** 2
        x = np.argmax(chi2[T.unit])
        if abs(chi2.sum() / np.count_nonzero(T.dom == x) - 1.0) > BLOCK_TOL:
            raise AmbiguityError(f"block {b.label} is not irreducible; "
                                 f"re-run with a different seed")


def block_decomposition(G, seed=0):
    return wedderburn(concrete_algebra(G), seed=seed)


# -- primitive spectrum over subsets ----------------------------------------


def prim_partition(dec, U):
    """(Prim over U, its complement): blocks killing every delta over G|_U.

    As phi is a *-homomorphism, phi(g)* phi(g) = phi(u(dom g)) is a
    projection, so phi(g) = 0 exactly when that projection's trace (its rank)
    is 0: a block kills G|_U when its trace on every unit arrow over U does.
    :func:`concrete_algebra` (adjoint law) and :func:`_verify_blocks`
    (invariance) certify the *-homomorphism before :func:`wedderburn` returns.
    The character norm certifies each block as one irreducible on one orbit,
    of nonzero trace at every unit of it, so U and its saturation (the ideal
    the corner generates) give the same partition by construction.
    """
    G = dec.algebra.groupoid
    U = _check_subset(G, U)
    traces = np.abs(dec.character_matrix[G.table.unit])  # unit arrows x blocks
    alive = np.any(traces[[x in U for x in G.units]] >= ANNIHILATION_TOL, axis=0)
    return (frozenset(b.label for b, a in zip(dec.blocks, alive) if not a),
            frozenset(b.label for b, a in zip(dec.blocks, alive) if a))


# -- induction ---------------------------------------------------------------


@dataclass(frozen=True)
class InductionResult:
    subset: frozenset
    mapping: dict          # block label of the reduction -> block label upstairs
    prim_inside: frozenset   # blocks annihilating the corner
    prim_outside: frozenset  # their complement; equals the image of ``mapping``
    dec: BlockDecomposition
    dec_red: BlockDecomposition

    @property
    def ok(self):
        return (frozenset(self.mapping.values()) == self.prim_outside
                and len(set(self.mapping.values())) == len(self.mapping))


def induction_map(G, U, seed=0, dec=None, dec_red=None):
    """The induced-block bijection Prim of the reduction -> Prim outside U.

    For every block B of the big algebra that does not annihilate the corner,
    its restriction to the corner is decomposed through block characters; by
    uniqueness each reduction block j appears in exactly one such B, and
    j -> B is the induction map.  Ties or misses raise AmbiguityError.
    """
    U = frozenset(U)
    if dec is None:
        dec = block_decomposition(G, seed=seed)
    if dec_red is None:
        dec_red = block_decomposition(reduction(G, U), seed=seed)
    GU = dec_red.algebra.groupoid
    inside, outside = prim_partition(dec, U)

    # the outside blocks' traces on the reduction's arrows, one column each
    outside_blocks = [k for k, b in enumerate(dec.blocks) if b.label not in inside]
    traces = dec.character_matrix[G.table.positions(GU.arrows)][:, outside_blocks]
    candidates = {}  # reduction label -> list of upstairs labels
    for k, mult in zip(outside_blocks, dec_red.multiplicities_of_columns(traces)):
        for j, m in mult.items():
            if m > 0:
                candidates.setdefault(j, []).append(dec.blocks[k].label)

    mapping = {}
    for j in dec_red.labels:
        found = candidates.get(j, [])
        if len(found) != 1:
            raise AmbiguityError(
                f"reduction block {j} appears in {len(found)} blocks outside "
                f"the subset; a unique one is guaranteed, so this is a "
                f"numerical failure upstream")
        mapping[j] = found[0]

    result = InductionResult(U, mapping, inside, outside, dec, dec_red)
    if not result.ok:
        raise AmbiguityError("induced blocks do not exhaust the complement of "
                             "the annihilator; numerical failure upstream")
    return result


def induce(G, U, j, seed=0, dec=None, dec_red=None):
    """The block of the big algebra induced from block j of the reduction."""
    return induction_map(G, U, seed=seed, dec=dec, dec_red=dec_red).mapping[j]


# -- the tensor-model isometry check ------------------------------------------


@dataclass(frozen=True)
class PhiIsometryReport:
    subset: frozenset
    unit: object
    tensor_count: int
    fiber_dim: int
    gram_residual: float
    intertwining_residual: float
    surjective: bool

    @property
    def ok(self):
        return (self.surjective and self.gram_residual < 1e-8
                and self.intertwining_residual < 1e-8)

    def max_residual(self):
        return max(self.gram_residual, self.intertwining_residual)


def check_phi_isometry(G, U, x, seed=0, samples=8):
    """Verify that f (x) xi -> f * xi is a unitary intertwiner.

    The tensor space is spanned by delta(a) (x) e_b with a ranging over
    arrows with domain in U and b over the fiber of the reduction at x; its
    inner product is <f (x) xi, g (x) eta> = <pi(g* f) xi, eta> computed in
    the reduction.  On the spanning tensors both Gram forms are 0/1-valued
    sparse arrays whose supports are compared exactly; random-coefficient
    combinations exercise the floating-point path and feed the reported
    residuals.
    """
    U = frozenset(U)
    if x not in U:
        raise InputError("the unit must belong to the subset")
    T, P = G.table, G.table.product
    in_U = np.array([y in U for y in G.units], dtype=bool)
    arrows_U = np.flatnonzero(in_U[T.dom])       # functions on d^{-1}(U)
    fiber_full = np.flatnonzero(T.dom == G.units.index(x))  # fiber of G at x
    fiber_red = fiber_full[in_U[T.ran[fiber_full]]]        # of the reduction at x
    # tensor t = (a, b) = (arrows_U[t // nb], fiber_red[t % nb]); its image is a b
    nb, nt = len(fiber_red), len(arrows_U) * len(fiber_red)
    image = P[arrows_U[:, None], fiber_red].ravel()

    # Nonzeros of the inner-product Gram form: <(a, b), (c, d)> = 1 exactly
    # when r(a) = r(c) and (c^{-1} a) b = d, computed in the reduction.
    ia, ic = np.nonzero(T.ran[arrows_U][:, None] == T.ran[arrows_U][None, :])
    d = P[P[T.inverse[arrows_U[ic]], arrows_U[ia]][:, None], fiber_red]
    pair, ib = np.nonzero(d >= 0)
    codes = np.unique((ia[pair] * nb + ib) * nt
                      + ic[pair] * nb + np.searchsorted(fiber_red, d[pair, ib]))
    rows, cols = np.divmod(codes, nt)
    # It must equal the image Gram form: tensors sharing a nonzero image pair
    # up, so the pairs above must share images and be as many as those.
    hit = image >= 0
    gram_exact = (np.all(image[rows] == image[cols]) and np.all(image[rows] >= 0)
                  and codes.size == np.sum(np.bincount(image[hit]) ** 2))

    # Random-coefficient Gram comparisons (the floating-point path).
    rng = np.random.default_rng(seed)
    gram_residual = 0.0 if gram_exact else 1.0
    img_row = np.searchsorted(fiber_full, image[hit])
    for _ in range(samples):
        c1 = rng.standard_normal(nt) + 1j * rng.standard_normal(nt)
        c2 = rng.standard_normal(nt) + 1j * rng.standard_normal(nt)
        lhs = np.sum(np.conj(c2[cols]) * c1[rows]) if nt else 0j
        v1, v2 = np.zeros((2, len(fiber_full)), dtype=complex)
        np.add.at(v1, img_row, c1[hit])
        np.add.at(v2, img_row, c2[hit])
        rhs = np.vdot(v2, v1)
        gram_residual = max(gram_residual, abs(lhs - rhs))

    # Surjectivity: every fiber arrow g arises (namely as delta(g) * e_{u(x)}).
    surjective = np.array_equal(np.unique(image[hit]), fiber_full)

    # Intertwining: acting by an arrow h upstairs before or after the map
    # yields the same fiber arrow (or jointly none); dom(h a) = dom(a) lies
    # in U, so (h a, b) is again a tensor.
    intertwining = 0.0 if all(
        np.array_equal(np.where(ha[:, None] >= 0, P[ha[:, None], fiber_red], -1).ravel(),
                       np.where(hit, P[h, image], -1))
        for h, ha in enumerate(P[:, arrows_U])) else 1.0

    return PhiIsometryReport(
        subset=U, unit=x, tensor_count=nt, fiber_dim=len(fiber_full),
        gram_residual=float(gram_residual),
        intertwining_residual=float(intertwining),
        surjective=bool(surjective),
    )


# -- norm estimates ------------------------------------------------------------


@dataclass(frozen=True)
class NormEstimateReport:
    subset: frozenset
    trials: int
    max_equality_gap: float       # | norm in the reduction - norm upstairs |
    min_induction_slack: float    # min over blocks of (induced norm - block norm)
    max_regular_consistency: float  # block-model norm vs sup of regular reps

    @property
    def ok(self):
        return (self.max_equality_gap < 1e-9
                and self.min_induction_slack > -1e-9
                and self.max_regular_consistency < 1e-9)


def check_norm_estimates(G, U, trials=20, seed=0, dec=None, dec_red=None):
    """Isometric inclusion of the reduction algebra, and the induced-norm bound.

    For random functions supported on the reduction: (a) the C*-norm computed
    in the block model of the reduction equals the norm computed upstairs;
    (b) each reduction block's norm is dominated by the norm in the block it
    induces.  The block-model norm is cross-checked against the supremum of
    regular-representation norms.
    """
    U = frozenset(U)
    ind = induction_map(G, U, seed=seed, dec=dec, dec_red=dec_red)
    dec, dec_red = ind.dec, ind.dec_red
    GU = dec_red.algebra.groupoid
    rng = np.random.default_rng(seed)

    max_gap = 0.0
    min_slack = np.inf
    max_reg = 0.0
    for _ in range(trials):
        coeffs = rng.standard_normal(GU.n_arrows()) + 1j * rng.standard_normal(GU.n_arrows())
        f_red = ArrowFunction.from_vector(GU, coeffs)
        f_up = f_red.extend_to(G)
        norms_red = dec_red.block_norms(f_red)
        norms_up = dec.block_norms(f_up)
        n_red = max(norms_red.values(), default=0.0)
        n_up = max(norms_up.values(), default=0.0)
        max_gap = max(max_gap, abs(n_red - n_up))
        max_reg = max(max_reg,
                      abs(n_red - reduced_norm(GU, f_red)),
                      abs(n_up - reduced_norm(G, f_up)))
        for j, nj in norms_red.items():
            min_slack = min(min_slack, norms_up[ind.mapping[j]] - nj)
    if not np.isfinite(min_slack):
        min_slack = 0.0
    return NormEstimateReport(U, trials, float(max_gap), float(min_slack),
                              float(max_reg))


# -- the spectrum decomposition over a cover -----------------------------------


@dataclass(frozen=True)
class SpectrumDecompositionReport:
    cover: tuple
    prim_all: frozenset
    images: tuple              # per cover set: frozenset of induced labels
    union_equals_prim: bool

    @property
    def ok(self):
        # each image equals Prim outside its cover set: induction_map raises otherwise
        return self.union_equals_prim


def verify_spectrum_decomposition(G, cover, seed=0, dec=None):
    """Check that the primitive spectrum is the union of the induced spectra.

    Preconditions: the saturations of the cover sets must cover the unit
    space (CoverPreconditionError otherwise -- a refusal, not a
    counterexample).
    """
    cover = [frozenset(U) for U in cover]
    covered = frozenset().union(*(saturation(G, U) for U in cover)) if cover else frozenset()
    missing = set(G.units) - set(covered)
    if missing:
        raise CoverPreconditionError(missing)

    if dec is None:
        dec = block_decomposition(G, seed=seed)
    # equal cover sets induce from the same reduction: decompose it once
    induced = {U: induction_map(G, U, seed=seed, dec=dec) for U in dict.fromkeys(cover)}
    images = [frozenset(induced[U].mapping.values()) for U in cover]
    prim_all = frozenset(dec.labels)
    union = frozenset().union(*images) if images else frozenset()
    return SpectrumDecompositionReport(
        cover=tuple(cover),
        prim_all=prim_all,
        images=tuple(images),
        union_equals_prim=(union == prim_all),
    )


# -- families of representations ------------------------------------------------


@dataclass(frozen=True)
class FamiliesReport:
    members: tuple             # (subset, labels, faithful downstairs)
    induced_supports: tuple    # per member: induced labels upstairs
    all_faithful_downstairs: bool
    induced_family_faithful: bool
    corollary_holds: bool      # faithful pieces over an admissible cover induce a faithful family

    @property
    def ok(self):
        return self.corollary_holds


def check_families(G, family, seed=0, dec=None):
    """Faithfulness / exhaustiveness bookkeeping for induced families.

    ``family`` lists pairs (subset U_i, selected block labels of the
    reduction's algebra).  On a finite unit space closures are trivial, so a
    family is faithful exactly when it is exhaustive: the supports must
    exhaust the spectrum.  The report records the downstairs verdicts, the
    induced supports, and whether the induction corollary (faithful pieces
    induce a faithful family) held on this instance.
    """
    if dec is None:
        dec = block_decomposition(G, seed=seed)
    members, induced = [], []
    union_upstairs = set()
    for U, labels in family:
        U = frozenset(U)
        ind = induction_map(G, U, seed=seed, dec=dec)
        labels = frozenset(labels)
        unknown = labels - set(ind.dec_red.labels)
        if unknown:
            raise InputError(f"unknown reduction block labels {sorted(unknown)}")
        faithful = labels == frozenset(ind.dec_red.labels)
        img = frozenset(ind.mapping[j] for j in labels)
        union_upstairs |= img
        members.append((U, labels, faithful))
        induced.append(img)

    all_faithful = all(m[2] for m in members)
    induced_faithful = union_upstairs == set(dec.labels)

    # The corollary only promises the implication when the saturations cover.
    covered = frozenset().union(*(saturation(G, U) for U, _, _ in members)) \
        if members else frozenset()
    admissible = set(G.units) <= set(covered)
    corollary = (not (all_faithful and admissible)) or induced_faithful

    return FamiliesReport(tuple(members), tuple(induced), all_faithful,
                          induced_faithful, corollary)


def regular_support(G, x, dec):
    """Support (set of block labels) of the regular representation at x."""
    fiber = np.flatnonzero(G.table.dom == G.units.index(x))
    # the trace of delta(g) counts the fiber arrows y with g y = y
    return dec.support_of(np.sum(G.table.product[:, fiber] == fiber, axis=1))


def check_regular_family_faithful(G, seed=0, dec=None):
    """One regular representation per orbit exhausts the spectrum."""
    if dec is None:
        dec = block_decomposition(G, seed=seed)
    return set().union(*(regular_support(G, G.units[x], dec)
                         for x in orbit_bases(G))) == set(dec.labels)


# -- the linking-space data over a subset ---------------------------------------


@dataclass(frozen=True)
class MoritaReport:
    subset: frozenset
    saturation: frozenset
    left_free: bool
    right_free: bool
    actions_commute: bool
    left_quotient_bijects_units: bool
    right_quotient_bijects_saturation: bool

    @property
    def ok(self):
        return (self.left_free and self.right_free and self.actions_commute
                and self.left_quotient_bijects_units
                and self.right_quotient_bijects_saturation)


def morita_reduction_data(G, U):
    """Verify the linking data between a reduction and its saturation.

    The arrows with domain in U carry a left action of the groupoid over the
    saturation W and a right action of the reduction to U.  Both actions are
    free and commute; the domain map identifies the left quotient with U and
    the range map identifies the right quotient with W.  Everything is
    checked by enumeration.
    """
    U = frozenset(U)
    W = saturation(G, U)
    T = G.table
    in_U, in_W = (np.array([x in S for x in G.units], dtype=bool) for S in (U, W))
    Z = np.flatnonzero(in_U[T.dom])                  # arrows with domain in U
    GW = np.flatnonzero(in_W[T.dom] & in_W[T.ran])   # arrows of G|_W
    GU = np.flatnonzero(in_U[T.dom] & in_U[T.ran])   # arrows of G|_U
    left = T.product[GW[None, :], Z[:, None]]        # left[i, a] = GW[a] Z[i]
    right = T.product[Z[:, None], GU]                # right[i, b] = Z[i] GU[b]
    not_unit = ~np.isin(np.arange(G.n_arrows()), T.unit)

    left_free = not np.any((left == Z[:, None]) & not_unit[GW])
    right_free = not np.any((right == Z[:, None]) & not_unit[GU])
    # (g z) h = g (z h) for every composable g, z, h: one gather per z
    commute = all(
        np.array_equal(T.product[gz[gz >= 0][:, None], GU[zh >= 0]],
                       T.product[GW[gz >= 0][:, None], zh[zh >= 0]])
        for gz, zh in zip(left, right))
    left_ok = _quotient_bijects(Z, left, T.dom, in_U)
    right_ok = _quotient_bijects(Z, right, T.ran, in_W)
    return MoritaReport(U, W, left_free, right_free, commute, left_ok, right_ok)


def _quotient_bijects(Z, moves, label, target):
    """Whether the classes of Z under z ~ moves[i] (for z = Z[i]; -1 is no
    move) are the fibers of ``label`` over the units flagged in ``target``."""
    i, j = np.nonzero(moves >= 0)
    classes = UnionFind(Z.tolist())
    for z, w in zip(Z[i].tolist(), moves[i, j].tolist()):
        classes.union(z, w)
    labels = np.unique(label[Z])
    return (np.array_equal(label[moves[i, j]], label[Z[i]])  # one label per class
            and len({classes.find(z) for z in Z.tolist()}) == len(labels)
            and np.array_equal(labels, np.flatnonzero(target)))
