"""Discretized boundary models: cylinder, cusp, and scattering vector fields.

Each geometry carries a model vector field on the half line that degenerates
at the boundary x = 0:

    b           x d/dx          substitution t = -log(x)
    cusp (r>1)  x^r d/dx        substitution t = x^(1-r) / (r-1)
    scattering  x^2 d/dx        substitution t = 1/x

In every case the substitution sends the vector field to -d/dt and the
boundary to t = +infinity, so constant-coefficient polynomials in the field
become translation-invariant after the change of variables; the cusp family
with exponent r = 1 is the cylinder case.  On a uniform t-grid of step h,
second-order central differences give the stencils

    even power 2q:    the q-th power of the positive lattice Laplacian
                      [-1, 2, -1] / h^2   (symbol (2 - 2 cos theta)/h^2),
    odd power 2q+1:   one antisymmetric first difference [+1, 0, -1] / (2h)
                      (symbol i sin(theta)/h) times the even stencil.

Even powers are discretized as powers of the positive Laplacian because the
square of the model field acts as the (geometric, nonnegative) Laplacian of
the flattened metric; with that sign the shifted operator "field^2 + 1" has
boundary symbol bounded below by 1, while the unshifted one touches zero.

The interior end of the grid does not belong to the model; it is windowed
into the core by cutting the couplings across the bond at -n ("grid size"
n), a finite-rank modification that leaves both limit symbols untouched.

The asymptotically hyperbolic model, whose action is
(x1, ..., xn) . (t, xi2, ..., xin) = (t x1, x2 + x1 xi2, ..., xn + x1 xin),
is not discretized here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bandops import BandOperator, Diagonal, LaurentSymbol
from .errors import InputError

GEOMETRIES = ("b", "cusp", "scattering")
# The numeric fields of a spec, and their types, as files and flags give them.
MODEL_PARAMETERS = (("r", float), ("n", int), ("h", float))


@dataclass(frozen=True)
class ModelOperatorSpec:
    """A constant-coefficient polynomial in one model vector field.

    ``coefficients[m]`` multiplies the m-th power of the field; ``n`` is the
    extent of the interior window; ``h`` the grid step; ``r`` the cusp
    exponent (ignored unless geometry == 'cusp').
    """

    geometry: str
    coefficients: tuple
    r: float = 2.0
    n: int = 64
    h: float = 0.1

    def __post_init__(self):
        object.__setattr__(self, "coefficients",
                           tuple(complex(c) for c in self.coefficients))
        if self.geometry not in GEOMETRIES:
            raise InputError(f"unknown geometry {self.geometry!r}")
        if self.geometry == "cusp" and not 1 <= self.r < float("inf"):
            raise InputError("cusp exponent must be finite and at least 1")
        if self.n < 16:
            raise InputError("grid size must be at least 16")
        if not 0 < self.h < float("inf"):
            raise InputError("grid step must be finite and positive")
        if not self.coefficients:
            raise InputError("at least one coefficient is required")


def model_stencil(coefficients, h):
    """The translation-invariant stencil of the polynomial, as {offset: value}."""
    laplace = LaurentSymbol(((-1, -1.0 / h ** 2), (0, 2.0 / h ** 2), (1, -1.0 / h ** 2)))
    first = LaurentSymbol(((-1, -1.0 / (2.0 * h)), (1, 1.0 / (2.0 * h))))
    total = {}
    for m, a_m in enumerate(coefficients):
        if a_m == 0:
            continue
        stencil = LaurentSymbol(((0, 1.0),))
        for _ in range(m // 2):
            stencil = stencil.product(laplace)
        if m % 2:
            stencil = stencil.product(first)
        for k, v in stencil.coefficients:
            total[k] = total.get(k, 0j) + a_m * v
    return {k: v for k, v in total.items() if v != 0}


def boundary_symbol(spec):
    """The limit symbol at the boundary end, in closed form."""
    return LaurentSymbol(tuple(model_stencil(spec.coefficients, spec.h).items()))


def discretize_model(spec):
    """The band operator of the model on the flattened grid.

    The boundary sits at +infinity.  Couplings that cross the bond between
    sites -n-1 and -n are zeroed out (an interior wall), so the interior end
    is a finite core perturbation and both limits carry the model stencil.
    """
    stencil = model_stencil(spec.coefficients, spec.h)
    wall = -int(spec.n)
    diagonals = {}
    for k, c in stencil.items():
        core = {}
        if k > 0:
            # entry (i, i-k) crosses the wall when i-k < wall <= i
            for i in range(wall, wall + k):
                core[i] = 0.0
        elif k < 0:
            for i in range(wall + k, wall):
                core[i] = 0.0
        diagonals[k] = Diagonal(c, c, tuple(core.items()))
    return BandOperator(diagonals)
