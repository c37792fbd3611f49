import numpy as np
import pytest

from gcstar.bandops import fredholm_verdict, limit_operator, symbol_invertible
from gcstar.errors import InputError
from gcstar.fixtures import (b_model_spec, cusp_model_spec,
                             scattering_model_spec)
from gcstar.models import (ModelOperatorSpec, boundary_symbol,
                           discretize_model, model_stencil)


def test_stencil_of_shifted_square_field():
    h = 0.1
    stencil = model_stencil((1.0, 0.0, 1.0), h)
    theta = np.linspace(0, 2 * np.pi, 23)
    sym = sum(c * np.exp(1j * k * theta) for k, c in stencil.items())
    closed = (2 - 2 * np.cos(theta)) / h ** 2 + 1.0
    assert np.allclose(sym, closed, atol=1e-9)


def test_stencil_first_difference_is_antisymmetric():
    stencil = model_stencil((0.0, 1.0), 0.5)
    assert stencil[1] == -stencil[-1]
    assert 0 not in stencil


def test_boundary_verdicts_of_the_cylinder_model():
    shifted = discretize_model(b_model_spec(shift=1.0))
    chk = symbol_invertible(limit_operator(shifted, "plus"), grid=8192)
    assert chk.invertible
    assert abs(chk.min_modulus - 1.0) < 1e-12
    assert chk.margin >= 0.9

    critical = discretize_model(b_model_spec(shift=0.0))
    chk0 = symbol_invertible(limit_operator(critical, "plus"), grid=8192)
    assert not chk0.invertible
    assert chk0.min_modulus < 1e-12


def test_cusp_and_scattering_substitutions_reproduce_the_cylinder_symbol():
    base = boundary_symbol(b_model_spec(shift=1.0))
    for spec in (cusp_model_spec(shift=1.0, r=2.0),
                 cusp_model_spec(shift=1.0, r=3.0),
                 scattering_model_spec(shift=1.0)):
        assert boundary_symbol(spec).max_abs_difference(base) < 1e-10
        discrete = limit_operator(discretize_model(spec), "plus")
        assert discrete.max_abs_difference(base) < 1e-10


def test_wall_is_a_finite_core_perturbation():
    spec = b_model_spec(shift=1.0, n=20)
    A = discretize_model(spec)
    lo, hi = A.core_window()
    assert lo >= -21 and hi <= -19
    # entry (i, j) is the coefficient of diagonal i - j at row i
    assert A.coefficient(1, -20) == 0 and A.coefficient(-1, -21) == 0
    assert A.coefficient(-1, 0) != 0
    assert fredholm_verdict(A, grid=8192).fredholm


def test_invalid_specs_are_rejected():
    with pytest.raises(InputError):
        ModelOperatorSpec("b", coefficients=(1.0,), n=4)
    with pytest.raises(InputError):
        ModelOperatorSpec("cusp", coefficients=(1.0,), r=0.5)
    with pytest.raises(InputError):
        ModelOperatorSpec("wedge", coefficients=(1.0,))
    with pytest.raises(InputError):
        ModelOperatorSpec("b", coefficients=())
    with pytest.raises(InputError):
        ModelOperatorSpec("b", coefficients=(1.0,), h=0.0)


def test_higher_order_models_and_odd_terms():
    spec = ModelOperatorSpec("b", coefficients=(2.0, 0.5, 0.0, 0.0, 1.0), h=0.2)
    stencil = model_stencil(spec.coefficients, spec.h)
    theta = np.linspace(0, 2 * np.pi, 31)
    sym = sum(c * np.exp(1j * k * theta) for k, c in stencil.items())
    ell = (2 - 2 * np.cos(theta)) / spec.h ** 2
    closed = 2.0 + 0.5 * (1j * np.sin(theta) / spec.h) + ell ** 2
    assert np.allclose(sym, closed, atol=1e-9)
    A = discretize_model(spec)
    assert A.bandwidth == 2
