"""Cubic B-spline basis: independent oracle, calculus, and fitting checks."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.interpolate import BSpline

from rwtkit.bspline import CubicSplineBasis
from rwtkit.errors import InvalidParam


def _reference_bump(t: np.ndarray) -> np.ndarray:
    """The cardinal cubic B-spline on support [0, 4], every piece evaluated."""
    return np.select(
        [
            (t >= 0.0) & (t < 1.0),
            (t >= 1.0) & (t < 2.0),
            (t >= 2.0) & (t < 3.0),
            (t >= 3.0) & (t <= 4.0),
        ],
        [
            t**3 / 6.0,
            (-3.0 * t**3 + 12.0 * t**2 - 12.0 * t + 4.0) / 6.0,
            (3.0 * t**3 - 24.0 * t**2 + 60.0 * t - 44.0) / 6.0,
            (4.0 - t) ** 3 / 6.0,
        ],
        default=0.0,
    )


def _reference_bump_derivative(t: np.ndarray) -> np.ndarray:
    return np.select(
        [
            (t >= 0.0) & (t < 1.0),
            (t >= 1.0) & (t < 2.0),
            (t >= 2.0) & (t < 3.0),
            (t >= 3.0) & (t <= 4.0),
        ],
        [
            t**2 / 2.0,
            (-3.0 * t**2 + 8.0 * t - 4.0) / 2.0,
            (3.0 * t**2 - 16.0 * t + 20.0) / 2.0,
            -((4.0 - t) ** 2) / 2.0,
        ],
        default=0.0,
    )


def dense_reference(basis: CubicSplineBasis, u) -> tuple[np.ndarray, np.ndarray]:
    """Values and derivatives with every bump evaluated at every point.

    Column j sees ``t = (u - lo) / step + 3 - j``; a dense ``np.select`` over
    the four pieces picks the polynomial.  This is the straightforward form
    the local-support kernel must reproduce bit for bit.
    """
    u = np.asarray(u, dtype=float)
    s = (u[..., np.newaxis] - basis.lo) / basis.step
    t = s + 3.0 - np.arange(basis.n_basis)
    values = np.zeros(t.shape)
    derivs = np.zeros(t.shape)
    active = (t >= 0.0) & (t <= 4.0)
    values[active] = _reference_bump(t[active])
    derivs[active] = _reference_bump_derivative(t[active])
    return values, derivs / basis.step


def _oracle_points(basis: CubicSplineBasis, rng) -> np.ndarray:
    """Every knot (two ways), both ends, points around and beyond the span,
    the non-finite values, and a random cloud long enough for vector loops."""
    span = basis.hi - basis.lo
    knots = basis.lo + np.arange(-3, basis.grid_size + 4) * basis.step
    return np.concatenate(
        [
            knots,
            np.linspace(basis.lo, basis.hi, basis.grid_size + 1),
            np.nextafter(knots, np.inf),
            np.nextafter(knots, -np.inf),
            [basis.lo, basis.hi, basis.lo - 5 * span, basis.hi + 5 * span, -1e300, 1e300],
            [np.inf, -np.inf, np.nan],
            rng.uniform(basis.lo - 0.4 * span, basis.hi + 0.4 * span, size=1001),
        ]
    )


def scipy_basis(basis: CubicSplineBasis, u: np.ndarray) -> np.ndarray:
    """The same basis built from scipy's B-spline elements.

    Basis function ``j`` lives on the five uniform knots starting at
    ``lo + (j - 3) * step``; scipy evaluates the standard cardinal cubic
    B-spline on those knots directly.
    """
    u = np.asarray(u, dtype=float)
    out = np.zeros(u.shape + (basis.n_basis,))
    for j in range(basis.n_basis):
        knots = basis.lo + (np.arange(j - 3, j + 2)) * basis.step
        element = BSpline.basis_element(knots, extrapolate=False)
        vals = element(u)
        out[..., j] = np.nan_to_num(vals, nan=0.0)
    return out


@pytest.mark.parametrize("grid_size", [4, 5, 8, 16])
def test_matches_scipy_elements(grid_size):
    basis = CubicSplineBasis(grid_size)
    u = np.linspace(0.0, 1.0, 257)
    ours = basis.evaluate(u)
    reference = scipy_basis(basis, u)
    assert np.allclose(ours, reference, atol=1e-12)


def test_matches_scipy_on_shifted_interval():
    basis = CubicSplineBasis(6, lo=-2.0, hi=3.0)
    u = np.linspace(-2.0, 3.0, 101)
    assert np.allclose(basis.evaluate(u), scipy_basis(basis, u), atol=1e-12)


@given(
    u=st.floats(min_value=0.0, max_value=1.0),
    grid_size=st.integers(min_value=4, max_value=20),
)
def test_partition_of_unity(u, grid_size):
    basis = CubicSplineBasis(grid_size)
    total = basis.evaluate(np.array([u])).sum()
    assert abs(total - 1.0) < 1e-12


def test_derivative_sums_to_zero():
    basis = CubicSplineBasis(8)
    u = np.linspace(0.0, 1.0, 101)
    assert np.abs(basis.derivative(u).sum(axis=-1)).max() < 1e-10


def test_derivative_matches_finite_differences():
    basis = CubicSplineBasis(8)
    u = np.linspace(0.01, 0.99, 100)
    h = 1e-6
    fd = (basis.evaluate(u + h) - basis.evaluate(u - h)) / (2.0 * h)
    assert np.abs(basis.derivative(u) - fd).max() < 1e-6


def test_evaluate_with_derivative_is_exactly_both():
    basis = CubicSplineBasis(11)
    u = np.random.default_rng(0).uniform(-0.2, 1.2, size=300)
    values, derivs = basis.evaluate_with_derivative(u)
    assert np.array_equal(values, basis.evaluate(u))
    assert np.array_equal(derivs, basis.derivative(u))


def test_local_support():
    basis = CubicSplineBasis(10)
    u = np.linspace(0.0, 1.0, 401)
    b = basis.evaluate(u)
    for j in range(basis.n_basis):
        lo = basis.lo + (j - 3) * basis.step
        hi = lo + 4 * basis.step
        outside = (u < lo - 1e-12) | (u > hi + 1e-12)
        assert np.all(b[outside, j] == 0.0)


def test_outside_domain_is_zero_not_error():
    basis = CubicSplineBasis(5)
    far = np.array([-10.0, 10.0])
    assert np.all(basis.evaluate(far) == 0.0)
    assert np.all(basis.derivative(far) == 0.0)


def test_fit_reproduces_cubics_exactly():
    # Splines of order 4 span all cubic polynomials on the interior.
    basis = CubicSplineBasis(6)
    u = np.linspace(0.0, 1.0, 120)
    target = 2.0 - u + 3.0 * u**2 - 0.5 * u**3
    coefs = basis.fit(u, target)
    recon = basis.evaluate(u) @ coefs
    assert np.abs(recon - target).max() < 1e-9


def test_fit_smooth_function():
    basis = CubicSplineBasis(12)
    u = np.linspace(0.0, 1.0, 200)
    target = np.sin(2.0 * np.pi * u)
    recon = basis.evaluate(u) @ basis.fit(u, target)
    assert np.abs(recon - target).max() < 1e-3


def test_shapes():
    basis = CubicSplineBasis(7)
    assert basis.n_basis == 10
    assert basis.evaluate(0.5).shape == (10,)
    assert basis.evaluate(np.zeros((4, 3))).shape == (4, 3, 10)


@pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-2.0, 3.0), (0.1, 0.7), (-1e3, -999.5)])
@pytest.mark.parametrize("grid_size", range(4, 21))
def test_local_kernel_bitwise_matches_dense_reference(grid_size, lo, hi):
    basis = CubicSplineBasis(grid_size, lo=lo, hi=hi)
    u = _oracle_points(basis, np.random.default_rng(grid_size))
    with np.errstate(invalid="ignore", over="ignore"):
        ref_values, ref_derivs = dense_reference(basis, u)
    values, derivs = basis.evaluate_with_derivative(u)
    assert values.tobytes() == ref_values.tobytes()
    assert basis.evaluate(u).tobytes() == ref_values.tobytes()
    # Only the sign of zero may differ: the dense form writes -0.0 where
    # the last piece ends (t = 4) and the local form skips that entry.
    assert np.array_equal(derivs, ref_derivs)
    assert np.array_equal(basis.derivative(u), ref_derivs)


@pytest.mark.parametrize("u", [0.5, 0.0, 1.0, -0.25, np.zeros((4, 3)),
                               np.linspace(-0.2, 1.2, 12).reshape(4, 3)])
def test_local_kernel_bitwise_on_scalars_and_grids(u):
    basis = CubicSplineBasis(8)
    ref_values, ref_derivs = dense_reference(basis, u)
    values, derivs = basis.evaluate_with_derivative(u)
    assert values.shape == derivs.shape == np.shape(u) + (basis.n_basis,)
    assert values.tobytes() == ref_values.tobytes()
    assert np.array_equal(derivs, ref_derivs)


def test_rejects_bad_construction():
    with pytest.raises(InvalidParam):
        CubicSplineBasis(3)
    with pytest.raises(InvalidParam):
        CubicSplineBasis(8, lo=1.0, hi=1.0)
