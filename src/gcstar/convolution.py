"""The convolution *-algebra of a finite groupoid and its regular representations.

With counting measure on every fiber, the convolution of two functions on
arrows reads

    (f * g)(x) = sum over y with dom(y) = dom(x) of f(x y^{-1}) g(y),

the involution is f*(g) = conj(f(g^{-1})), and the regular representation at
a unit x acts on the finite-dimensional fiber space spanned by d^{-1}(x) via
left convolution.  The reduced norm is the largest operator norm over units
(one unit per orbit suffices); for finite groupoids it is the unique C*-norm
on the algebra.

A function is one complex vector over the arrow positions of ``G.table``,
so the involution gathers through ``inverse``, and convolution and the
regular representations read the composable pairs ``(left, right,
composite)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import InputError
from .groupoid import orbit_bases


class ArrowFunction:
    """A complex-valued function on the arrows of a fixed groupoid.

    ``vec[i]`` is the value on ``parent.arrows[i]``; the constructor takes an
    ``{id: value}`` mapping, :meth:`from_vector` the vector itself.
    """

    __slots__ = ("parent", "vec")

    def __init__(self, parent, values=()):
        table = dict(values)
        self.parent, self.vec = parent, np.zeros(parent.n_arrows(), dtype=complex)
        self.vec[parent.table.positions(table)] = list(table.values())

    @classmethod
    def from_vector(cls, parent, vec):
        """The function with values ``vec`` over ``parent.arrows``, not copied."""
        f = cls.__new__(cls)
        f.parent, f.vec = parent, np.asarray(vec, dtype=complex)
        return f

    @property
    def values(self):
        """The nonzero values, a read-only ``{id: value}`` view in arrow order."""
        arrows, nonzero = self.parent.arrows, np.flatnonzero(self.vec).tolist()
        return MappingProxyType({arrows[i]: v for i, v in zip(nonzero, self.vec[nonzero].tolist())})

    def __call__(self, arrow):
        i = self.parent.table.position.get(arrow)
        return 0j if i is None else complex(self.vec[i])

    def __add__(self, other):
        self._same_parent(other)
        return ArrowFunction.from_vector(self.parent, self.vec + other.vec)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __mul__(self, scalar):
        return ArrowFunction.from_vector(self.parent, scalar * self.vec)

    __rmul__ = __mul__

    def __neg__(self):
        return (-1.0) * self

    def star(self):
        """The involution f*(g) = conj(f(g^{-1}))."""
        return ArrowFunction.from_vector(self.parent, np.conj(self.vec[self.parent.table.inverse]))

    def extend_to(self, parent):
        """The same function read over a larger groupoid containing these arrows."""
        if parent is self.parent:
            return self
        vec = np.zeros(parent.n_arrows(), dtype=complex)
        vec[parent.table.positions(self.parent.arrows)] = self.vec
        return ArrowFunction.from_vector(parent, vec)

    def max_abs_difference(self, other):
        self._same_parent(other)
        return float(np.abs(self.vec - other.vec).max(initial=0.0))

    def _same_parent(self, other):
        if self.parent.arrows != other.parent.arrows:  # sorted and distinct
            raise InputError("arrow functions live on different groupoids")

    def __repr__(self):
        return f"ArrowFunction({np.count_nonzero(self.vec)} nonzero of {self.parent.n_arrows()})"


def convolve(f, g):
    """Convolution product with counting measure on the fibers."""
    f._same_parent(g)
    # x = z y for z with dom(z) = ran(y); then x y^{-1} = z.  Terms run y
    # outer, z inner, over the supports in arrow order (the order of
    # pairs_by_right); each x sums its terms in that order, the real part in
    # bin 2x and the imaginary in 2x + 1.
    z, y, x = f.parent.table.pairs_by_right
    live = (f.vec[z] != 0) & (g.vec[y] != 0)
    terms = _product(f.vec[z[live]], g.vec[y[live]]).view(float)
    bins = (2 * x[live][:, None] + [0, 1]).ravel()
    return ArrowFunction.from_vector(f.parent,
                                     np.bincount(bins, terms, 2 * len(f.vec)).view(complex))


def _product(a, b):
    """a * b, spelled out as Python's complex product so that every term
    rounds the same way."""
    out = np.empty(len(a), dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def involution(f):
    return f.star()


@dataclass(frozen=True)
class RepMatrix:
    """A regular-representation matrix on an ordered basis of arrows."""

    basis: tuple
    matrix: np.ndarray


def operator_norm(M):
    """The largest singular value of M, 0 for an empty M: what
    ``np.linalg.norm(M, 2)`` computes, without its wrapper."""
    return float(np.linalg.svd(M, compute_uv=False).max()) if M.size else 0.0


def regular_rep(G, x, f):
    """The matrix of xi -> f * xi on the fiber d^{-1}(x).

    Entry (g, y) equals f(g y^{-1}); both indices run over the fiber in
    ascending arrow-id order.
    """
    if x not in G.units:
        raise InputError(f"{x!r} is not a unit")
    fiber = np.flatnonzero(G.table.dom == G.units.index(x))
    return RepMatrix(tuple(map(G.arrows.__getitem__, fiber.tolist())),
                     _left_translates(G.table, f.vec, fiber))


def left_regular_rep(G, f):
    """The matrix of xi -> f * xi on l^2(G), over all arrows in id order.

    It is the direct sum of the fiber representations of :func:`regular_rep`:
    entries between arrows of different fibers are exact zeros.
    """
    return RepMatrix(G.arrows, _left_translates(G.table, f.vec, np.arange(G.n_arrows())))


def _left_translates(T, vec, basis):
    """Left convolution by ``vec`` on the span of ``basis``: ascending arrow
    positions that make up whole fibers."""
    # f(g y^{-1}) with g = z y: cell (z y, y) gets f(z); z y = z' y forces z = z'
    at = np.full(len(T.arrows), -1)
    at[basis] = np.arange(len(basis))
    live = (at[T.right] >= 0) & (vec[T.left] != 0)
    M = np.zeros((len(basis), len(basis)), dtype=complex)
    M[at[T.composite[live]], at[T.right[live]]] += vec[T.left[live]]
    return M


def reduced_norm(G, f):
    """sup over units of the operator norm of the regular representation.

    Regular representations at units of one orbit are unitarily equivalent,
    so one unit per orbit, its base unit, is visited.
    """
    T = G.table
    return max((operator_norm(_left_translates(T, f.vec, np.flatnonzero(T.dom == x)))
                for x in orbit_bases(G)), default=0.0)

