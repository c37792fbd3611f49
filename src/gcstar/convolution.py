"""The convolution *-algebra of a finite groupoid and its regular representations.

With counting measure on every fiber, the convolution of two functions on
arrows reads

    (f * g)(x) = sum over y with dom(y) = dom(x) of f(x y^{-1}) g(y),

the involution is f*(g) = conj(f(g^{-1})), and the regular representation at
a unit x acts on the finite-dimensional fiber space spanned by d^{-1}(x) via
left convolution.  The reduced norm is the largest operator norm over units
(one unit per orbit suffices); for finite groupoids it is the unique C*-norm
on the algebra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .groupoid import orbits


class ArrowFunction:
    """A complex-valued function on the arrows of a fixed groupoid.

    Missing arrows read as zero; exact zeros are dropped from the table.
    """

    __slots__ = ("parent", "values")

    def __init__(self, parent, values=()):
        self.parent = parent
        table = dict(values)
        stray = set(table) - set(parent.arrows)
        if stray:
            raise InputError(f"values on unknown arrows {sorted(stray)}")
        self.values = {g: complex(v) for g, v in table.items() if v != 0}

    @classmethod
    def delta(cls, parent, arrow, value=1.0):
        return cls(parent, {arrow: value})

    @classmethod
    def zero(cls, parent):
        return cls(parent)

    def __call__(self, arrow):
        return self.values.get(arrow, 0j)

    def __add__(self, other):
        self._same_parent(other)
        table = dict(self.values)
        for g, v in other.values.items():
            table[g] = table.get(g, 0j) + v
        return ArrowFunction(self.parent, table)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __mul__(self, scalar):
        return ArrowFunction(self.parent,
                             {g: scalar * v for g, v in self.values.items()})

    __rmul__ = __mul__

    def __neg__(self):
        return (-1.0) * self

    def star(self):
        """The involution f*(g) = conj(f(g^{-1}))."""
        G = self.parent
        return ArrowFunction(G, {G.inverse[g]: np.conj(v)
                                 for g, v in self.values.items()})

    def support(self):
        return frozenset(self.values)

    def extend_to(self, parent):
        """The same table read over a larger groupoid containing these ids."""
        return ArrowFunction(parent, self.values)

    def max_abs_difference(self, other):
        self._same_parent(other)
        keys = set(self.values) | set(other.values)
        if not keys:
            return 0.0
        return max(abs(self(g) - other(g)) for g in keys)

    def _same_parent(self, other):
        if self.parent.arrows != other.parent.arrows:  # sorted and distinct
            raise InputError("arrow functions live on different groupoids")

    def __repr__(self):
        return f"ArrowFunction({len(self.values)} nonzero of {self.parent.n_arrows()})"


def convolve(f, g):
    """Convolution product with counting measure on the fibers."""
    f._same_parent(g)
    G, T = f.parent, f.parent.table
    # x = z y for z with dom(z) = ran(y); then x y^{-1} = z.  Terms run y
    # outer, z inner; each x sums its terms, and is listed, in that order.
    products = T.product[T.positions(f.values), T.positions(g.values)[:, None]]
    y, z = np.nonzero(products >= 0)
    xs = products[y, z]
    fv, gv = _parts(f), _parts(g)
    # Python's complex product, spelled out so every term rounds the same way
    re = np.bincount(xs, fv.real[z] * gv.real[y] - fv.imag[z] * gv.imag[y], G.n_arrows())
    im = np.bincount(xs, fv.real[z] * gv.imag[y] + fv.imag[z] * gv.real[y], G.n_arrows())
    _, first = np.unique(xs, return_index=True)
    return ArrowFunction(G, {G.arrows[x]: complex(re[x], im[x])
                             for x in xs[np.sort(first)].tolist()})


def _parts(f):
    return np.fromiter(f.values.values(), complex, len(f.values))


def involution(f):
    return f.star()


@dataclass(frozen=True)
class RepMatrix:
    """A regular-representation matrix on the ordered fiber basis."""

    basis: tuple
    matrix: np.ndarray

    def norm(self):
        if self.matrix.size == 0:
            return 0.0
        return float(np.linalg.norm(self.matrix, 2))


def regular_rep(G, x, f):
    """The matrix of xi -> f * xi on the fiber d^{-1}(x).

    Entry (g, y) equals f(g y^{-1}); both indices run over the fiber in
    ascending arrow-id order.
    """
    if x not in G.units:
        raise InputError(f"{x!r} is not a unit")
    basis, T = G.fiber(x), G.table
    fiber = T.positions(basis)
    # f(g y^{-1}) with g = z y: cell (z y, y) gets f(z); z y = z' y forces z = z'
    products = T.product[T.positions(f.values)[:, None], fiber]
    z, y = np.nonzero(products >= 0)
    M = np.zeros((len(basis), len(basis)), dtype=complex)
    M[np.searchsorted(fiber, products[z, y]), y] += _parts(f)[z]
    return RepMatrix(basis, M)


def reduced_norm(G, f):
    """sup over units of the operator norm of the regular representation.

    Regular representations at units of one orbit are unitarily equivalent,
    so one unit per orbit, the first in unit order, is visited.
    """
    best = 0.0
    for orb in orbits(G):
        best = max(best, regular_rep(G, min(orb, key=G.units.index), f).norm())
    return best


def unit_projection(G, A):
    """The corner projection: the sum of unit deltas over A.

    Convolving by it on both sides cuts a function down to the reduction
    over A.
    """
    stray = set(A) - set(G.units)
    if stray:
        raise InputError(f"subset members {sorted(map(str, stray))} are not units")
    return ArrowFunction(G, {G.unit_arrow[x]: 1.0 for x in A})


def scale_by_unit_function(phi, f):
    """The pointwise product (phi o ran) . f for phi a function on units."""
    G = f.parent
    return ArrowFunction(G, {g: phi.get(G.ran[g], 0j) * v
                             for g, v in f.values.items()})
