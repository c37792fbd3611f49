"""Block decomposition and induced representations of finite groupoid algebras.

The algebra of a finite groupoid is modelled faithfully by the direct sum of
one regular representation per orbit.  Its simple (Wedderburn) blocks are
extracted numerically:

1. write down the commutant in closed form: on each orbit's fiber the
   generators act by left translation, so the commutant is spanned by the
   right translations by the isotropy group at the orbit's base unit;
2. sample a random self-adjoint element of the commutant (seeded) and split
   the representation space along its eigenvalue clusters;
3. read the traces tr Q* A_g Q of all clusters in one pass; group equivalent
   sub-blocks by their traces and keep one representative per class, whose
   range the eigen-gap of the split certifies invariant under every
   generator (hence multiplicative; Davis-Kahan) and whose character must
   have the norm of an irreducible.  Annihilators need no images: a block
   kills delta_g exactly when its trace on the unit arrow at dom g is 0.

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
from .groupoid import _check_subset, orbit_bases, reduction, saturation, validate

CLUSTER_TOL = 1e-9
# Gaps between genuinely degenerate eigenvalues sit at the noise floor
# (~1e-13 at desk scale), one decade under the clustering tolerance is a
# safe ambiguity band; gaps above it are real and split cleanly.
CLUSTER_GRAY_ZONE = 1e-8
# Floors of the two below: the invariance bound plus isometry defect read
# <= 1.4e-12 over the 709 blocks kept on the spectrum-ladder (seed 101;
# smallest gap 2.1e-3) and <= 2.0e-10 over 300 random_groupoid(max_arrows=60)
# draws (smallest gap 1.2e-5).  The character-norm defect read <= 3.0e-15
# over 2598 blocks (that ladder and 300 random groupoids); a reducible block
# misses by >= 1/|d^-1(x)| (1/12 there).
TRACE_TOL = 1e-8   # trace distance between equivalent clusters
BLOCK_TOL = 1e-8   # isometry defect plus invariance bound; character norm
# Floors: a unit trace is a projection's rank; over the 2920 blocks of the
# spectrum-ladder (seeds 101, 7) and 400 random groupoids it read exactly 0.0
# or at least 1 - 3.1e-15.  There, the traces on the cover reductions gave
# |m - round(m)| <= 1.1e-14 and a relative residual <= 3.5e-15.
ANNIHILATION_TOL = 1e-9
MULTIPLICITY_TOL = 1e-6
# Entries per gather of ConcreteAlgebra.cluster_traces (1 MB), or one arrow's row;
# at 2^14 the spectrum-ladder median rose from 3.18 to 3.39 ms on a 2-vCPU VM.
TRACE_BATCH = 1 << 16


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

    def cluster_traces(self, V, starts):
        """tr Q* A_g Q = sum_j sum_cells conj(V[g y, j]) V[y, j] (clusters x arrows) for
        Q = V[:, lo:hi], lo in ``starts``; whole rows of V gathered TRACE_BATCH at a time."""
        Vz = np.vstack([V, np.zeros((1, V.shape[1]))])
        Vc, step = Vz.conj(), max(1, TRACE_BATCH // (self._entry_row.shape[1] * V.shape[1]))
        arrows = [(Vc[self._entry_row[s:s + step]] * Vz[self._entry_col[s:s + step]]).sum(axis=1)
                  for s in range(0, len(self._entry_row), step)]
        return np.add.reduceat(np.vstack(arrows), starts, axis=1).T

    def generator_matrix(self, g):
        k = self.groupoid.table.position[g]
        M = np.zeros((self.dim + 1, self.dim + 1))
        M[self._entry_row[k], self._entry_col[k]] = 1.0
        return M[:-1, :-1]


def concrete_algebra(G):
    """Build the orbit-summed regular representation model of the algebra.

    G must pass :func:`validate`, as :func:`block_decomposition` checks, which
    makes the model faithful by construction: every arrow g composes with
    some fiber arrow of its orbit's base unit, so no generator vanishes, and
    g y = g' y forces g = g', so no two generators share a cell.  Verifies,
    exactly, the adjoint law A_{g^-1} = A_g^T that makes every block map
    *-preserving.
    """
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

    The invariance bound of :func:`_verify_blocks` assumes this commutant; a
    wrong one is refused by the dimension census, the character norm or the
    multiplicity decompositions.
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

    def multiplicities_of_columns(self, traces):
        """Decompose representations, given their traces on the arrow deltas,
        one per column of ``traces``.

        Returns a list, in column order, of dicts label -> nonnegative
        integer multiplicity.  The characters of inequivalent blocks are
        linearly independent, so one least-squares solve followed by integer
        rounding is exact up to numerical noise; a large residual raises
        AmbiguityError.
        """
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


def wedderburn(alg, seed=0):
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
    clusters = _cluster_eigenvalues(eigenvalues, CLUSTER_TOL, CLUSTER_GRAY_ZONE)

    traces = alg.cluster_traces(vectors, [lo for lo, _ in clusters])
    dims = [hi - lo for lo, hi in clusters]
    firsts, count = {}, [0] * len(clusters)  # dimension -> each group's first cluster
    for i, n in enumerate(dims):
        same = firsts.setdefault(n, [])
        near = np.flatnonzero(np.max(np.abs(traces[same] - traces[i]), axis=1) < TRACE_TOL)
        first = same[near[0]] if near.size else i
        count[first] += 1
        if first == i:
            same.append(i)
    groups = [i for i, c in enumerate(count) if c]

    if sum(dims[i] ** 2 for i in groups) != alg.groupoid.n_arrows():
        raise AmbiguityError(
            "block dimension census fails the exact count; eigenvalue "
            "clustering was unreliable -- re-run with a different seed")

    # canonical order, stable: by dimension, then by the rounded traces, the
    # real and imaginary part of each arrow in turn (lexsort's last key leads)
    parts = np.round(traces[groups], 6).view(float)
    groups = [groups[k] for k in np.lexsort(np.vstack([parts.T[::-1], np.take(dims, groups)]))]
    dec = BlockDecomposition(alg, tuple(
        Block(label=f"B{k}", dim=dims[i], multiplicity=count[i],
              isometry=vectors[:, slice(*clusters[i])], traces=tuple(traces[i]))
        for k, i in enumerate(groups)))
    bounds = _invariance_bounds(T, eigenvalues, vectors, [clusters[i] for i in groups])
    _verify_blocks(dec, traces[groups], bounds)
    return dec


def _invariance_bounds(T, eigenvalues, vectors, clusters):
    """The sin-Theta bound of :func:`_verify_blocks` for each cluster [lo, hi)
    of T V = V diag(w): 2 ||R[:, lo:hi]||_F / delta, or inf if delta <= 0."""
    R = T @ vectors - vectors * eigenvalues
    slack = np.linalg.norm(R)  # Frobenius: at least the spectral norm
    w = np.concatenate(([-np.inf], eigenvalues, [np.inf]))
    deltas = [min(w[lo + 1] - w[lo], w[hi + 1] - w[hi]) - 2 * slack for lo, hi in clusters]
    return [2 * np.linalg.norm(R[:, lo:hi]) / delta if delta > 0 else np.inf
            for (lo, hi), delta in zip(clusters, deltas)]


def _verify_blocks(dec, traces, bounds):
    """Integrity checks: each block map phi(g) = Q* A_g Q, whose traces on
    the arrows are a row of ``traces`` as :func:`wedderburn` read them off
    Q, is an irreducible *-homomorphism.  Per block: Q* Q = I, and its bound in
    ``bounds`` plus that isometry defect is at most BLOCK_TOL.  The splitting
    element T combines right translations, so it commutes exactly with every
    A_g (associativity), hence with T's spectral projector P near the cluster
    Q = V[:, lo:hi].  With R = T V - V diag(w), Weyl's theorem puts T's
    spectrum within eps = ||R|| of w, the rest of it lies delta = gap - 2 eps
    from the cluster, and the sin-Theta theorem gives ||sin Theta(Q, P)||_F <=
    ||R[:, lo:hi]||_F / delta (Davis and Kahan, SIAM J. Numer. Anal. 7, 1970;
    Stewart and Sun, Matrix Perturbation Theory, 1990, V.3).  As ||A_g|| <= 1,
    (I - QQ*) A_g Q = (I - QQ*) (P A_g P Q + A_g (I - P) Q) is at most twice
    that for every g at once, and phi(a) phi(b) - phi(ab) =
    -Q* A_a (I - QQ*) A_b Q: invariance implies multiplicativity on every
    product, the zero products across orbits included.  The adjoint law is
    checked once in :func:`concrete_algebra`.  Schur orthogonality gives
    sum_g |tr phi(g)|^2 = sum_O |O| |H_O| sum m_rho^2 (orbits O, isotropy H_O,
    multiplicities m_rho of its irreducibles) and |d^-1(x)| = |O_x| |H_x|: at
    the unit x of largest |tr phi| their ratio is 1 exactly for one irreducible
    on one orbit, and misses by >= 1 within one orbit, by >= 1/|d^-1(x)| across two.
    """
    table = dec.algebra.groupoid.table
    for b, chi2, bound in zip(dec.blocks, np.abs(traces) ** 2, bounds, strict=True):
        Q = b.isometry
        defect = np.linalg.norm(Q.conj().T @ Q - np.eye(b.dim))
        if defect > BLOCK_TOL:
            raise AmbiguityError(f"block {b.label} is not an isometry")
        if not bound + defect <= BLOCK_TOL:
            raise AmbiguityError(f"block {b.label} is not certified invariant (bound "
                                 f"{bound:.1e}); re-run with a different seed")
        x = np.argmax(chi2[table.unit])
        if abs(chi2.sum() / np.count_nonzero(table.dom == x) - 1.0) > BLOCK_TOL:
            raise AmbiguityError(f"block {b.label} is not irreducible; "
                                 f"re-run with a different seed")


def block_decomposition(G, seed=0):
    """The blocks of G's algebra; G enters here, so here it is validated."""
    if not (report := validate(G)).ok:
        raise InputError("groupoid fails validation: " + report.lines()[0])
    return wedderburn(concrete_algebra(G), seed=seed)


# -- primitive spectrum over subsets ----------------------------------------


def prim_partition(dec, U):
    """(Prim over U, its complement): blocks killing every delta over G|_U.

    As phi is a *-homomorphism, phi(g)* phi(g) = phi(u(dom g)) is a
    projection, so phi(g) = 0 exactly when that projection's trace (its rank)
    is 0: a block kills G|_U when its trace on every unit arrow over U does.
    :func:`concrete_algebra` (adjoint law) and :func:`_verify_blocks` (the
    invariance bound) certify the *-homomorphism before :func:`wedderburn` returns.
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
    mapping: dict          # block label of the reduction -> block label upstairs
    prim_outside: frozenset  # blocks not annihilating the corner; the image of ``mapping``
    dec: BlockDecomposition
    dec_red: BlockDecomposition

    @property
    def ok(self):
        return (frozenset(self.mapping.values()) == self.prim_outside
                and len(set(self.mapping.values())) == len(self.mapping))


def induction_map(G, U, seed=0, dec=None):
    """The induced-block bijection Prim of the reduction -> Prim outside U.

    For every block B of the big algebra that does not annihilate the corner,
    its restriction to the corner is decomposed through block characters; by
    uniqueness each reduction block j appears in exactly one such B, and
    j -> B is the induction map.  Ties or misses raise AmbiguityError.
    A given ``dec`` must decompose G itself, whose validation it stands for.
    """
    U = frozenset(U)
    if dec is None:
        dec = block_decomposition(G, seed=seed)
    elif dec.algebra.groupoid is not G:
        raise InputError("dec decomposes another groupoid than G")
    dec_red = wedderburn(concrete_algebra(reduction(G, U)), seed=seed)
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

    result = InductionResult(mapping, outside, dec, dec_red)
    if not result.ok:
        raise AmbiguityError("induced blocks do not exhaust the complement of "
                             "the annihilator; numerical failure upstream")
    return result


# -- the tensor-model isometry check ------------------------------------------


@dataclass(frozen=True)
class PhiIsometryReport:
    fiber_dim: int
    isometric: bool
    intertwining: bool
    onto: bool

    @property
    def ok(self):
        return self.isometric and self.intertwining and self.onto


def check_phi_isometry(G, U, x):
    """Verify that f (x) xi -> f * xi is a unitary intertwiner, exactly.

    The tensor space is spanned by delta(a) (x) e_b with a ranging over
    arrows with domain in U and b over the fiber of the reduction at x; its
    inner product is <f (x) xi, g (x) eta> = <pi(g* f) xi, eta> computed in
    the reduction.  On the spanning tensors both Gram forms are 0/1-valued
    sparse arrays, and the map is isometric exactly when their supports
    agree; by sesquilinearity that settles every combination.
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
    isometric = (np.all(image[rows] == image[cols]) and np.all(image[rows] >= 0)
                 and codes.size == np.sum(np.bincount(image[hit]) ** 2))

    # Onto: every fiber arrow g arises (namely as delta(g) * e_{u(x)}).
    onto = np.array_equal(np.unique(image[hit]), fiber_full)

    # Intertwining: acting by an arrow h upstairs before or after the map
    # yields the same fiber arrow (or jointly none); dom(h a) = dom(a) lies
    # in U, so (h a, b) is again a tensor.
    intertwining = all(
        np.array_equal(np.where(ha[:, None] >= 0, P[ha[:, None], fiber_red], -1).ravel(),
                       np.where(hit, P[h, image], -1))
        for h, ha in enumerate(P[:, arrows_U]))

    return PhiIsometryReport(len(fiber_full), bool(isometric),
                             bool(intertwining), bool(onto))


# -- norm estimates ------------------------------------------------------------


# Each norm residual compares two norms that are exactly equal (the gap and the
# regular consistency) or ordered (the slack), computed two ways.  Rounding
# floor: the largest residual measured was 9.8e-15 over criterion 4 at suite
# seeds 0 and 101 (20 subsets x 5 functions each) and 8.9e-16 over the
# singletons and fixture subsets of the groupoid fixtures.
NORM_TOL = 1e-9


@dataclass(frozen=True)
class NormEstimateReport:
    max_equality_gap: float       # | norm in the reduction - norm upstairs |
    min_induction_slack: float    # min over blocks of (induced norm - block norm)
    max_regular_consistency: float  # block-model norm vs sup of regular reps

    @property
    def ok(self):
        return (self.max_equality_gap < NORM_TOL
                and self.min_induction_slack > -NORM_TOL
                and self.max_regular_consistency < NORM_TOL)


def check_norm_estimates(G, U, trials=20, seed=0, dec=None):
    """Isometric inclusion of the reduction algebra, and the induced-norm bound.

    For random functions supported on the reduction: (a) the C*-norm computed
    in the block model of the reduction equals the norm computed upstairs;
    (b) each reduction block's norm is dominated by the norm in the block it
    induces.  The block-model norm is cross-checked against the supremum of
    regular-representation norms.
    """
    if trials <= 0:
        raise InputError("trials must be positive")
    U = frozenset(U)
    ind = induction_map(G, U, seed=seed, dec=dec)
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
    return NormEstimateReport(float(max_gap), float(min_slack), float(max_reg))


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


# -- the linking-space data over a subset ---------------------------------------


@dataclass(frozen=True)
class MoritaReport:
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
    return MoritaReport(W, left_free, right_free, commute, left_ok, right_ok)


def _quotient_bijects(Z, moves, label, target):
    """Whether the classes of Z under z ~ moves[i] (for z = Z[i]; -1 is no
    move) are the fibers of ``label`` over the units flagged in ``target``.
    An orbit of a groupoid action is one move wide, so one pass labels each
    class by its least member, as :func:`orbits` labels orbits; a move that
    joins two such labels is no action's, and the check reads false."""
    i, j = np.nonzero(moves >= 0)
    least = np.arange(len(label))
    np.minimum.at(least, Z[i], moves[i, j])
    classes = np.unique(least[Z])
    return (np.array_equal(least[moves[i, j]], least[Z[i]])  # one move wide
            and np.array_equal(label[least[Z]], label[Z])  # one label per class
            and np.array_equal(np.sort(label[classes]), np.flatnonzero(target)))
