"""Cubic B-spline basis on a uniform grid.

The basis spans ``[lo, hi]`` with ``grid_size`` equal intervals and carries
``grid_size + 3`` cardinal cubic bumps, the outer ones centred beyond the
ends so every point of the span sees four active functions.  On the span
the functions sum to one exactly (partition of unity) and every basis
function is C^2; outside the span they decay to zero smoothly, so an
edge backed by this basis degenerates to whatever its linear bypass does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParam

__all__ = ["CubicSplineBasis"]


#: The cardinal cubic B-spline on support [0, 4], one polynomial per unit
#: piece: piece m covers [m, m + 1).  Both it and its slope vanish at t = 4.
_VALUE_PIECES = (
    lambda t: t**3 / 6.0,
    lambda t: (-3.0 * t**3 + 12.0 * t**2 - 12.0 * t + 4.0) / 6.0,
    lambda t: (3.0 * t**3 - 24.0 * t**2 + 60.0 * t - 44.0) / 6.0,
    lambda t: (4.0 - t) ** 3 / 6.0,
)
#: Its derivative with respect to t, piece by piece.
_SLOPE_PIECES = (
    lambda t: t**2 / 2.0,
    lambda t: (-3.0 * t**2 + 8.0 * t - 4.0) / 2.0,
    lambda t: (3.0 * t**2 - 16.0 * t + 20.0) / 2.0,
    lambda t: -((4.0 - t) ** 2) / 2.0,
)


@dataclass(frozen=True)
class CubicSplineBasis:
    """Uniform cubic B-spline basis over ``[lo, hi]``.

    ``grid_size`` counts the intervals; at least 4 are required so the
    interior is wider than one bump's support.
    """

    grid_size: int
    lo: float = 0.0
    hi: float = 1.0

    def __post_init__(self) -> None:
        if self.grid_size < 4:
            raise InvalidParam(f"grid_size must be >= 4, got {self.grid_size}")
        if not self.hi > self.lo:
            raise InvalidParam(f"need hi > lo, got ({self.lo}, {self.hi})")

    @property
    def n_basis(self) -> int:
        return self.grid_size + 3

    @property
    def step(self) -> float:
        return (self.hi - self.lo) / self.grid_size

    def _local(self, u, *families) -> list[np.ndarray]:
        """Dense ``u.shape + (n_basis,)`` tensors, one per piece family.

        At ``w = (u - lo) / step + 3`` an entry lies in piece m of bump
        ``j = floor(w) - m`` at ``t = w - j``, so it evaluates one polynomial
        per piece and scatters it into column j.  A j outside the basis (far
        beyond the span, infinities, NaN) writes to one discard slot.
        """
        u = np.asarray(u, dtype=float)
        k = self.n_basis
        w = ((u - self.lo) / self.step + 3.0).ravel()
        cell = np.floor(np.clip(w, -1.0, k + 4.0))  # finite except NaN; t uses w itself
        rows = np.arange(w.size) * k
        out = [np.zeros(w.size * k + 1) for _ in families]
        with np.errstate(over="ignore", invalid="ignore"):
            for m in range(4):
                j = cell - m
                slot = np.where((j >= 0.0) & (j < k), rows + j, w.size * k).astype(np.intp)
                t = w - j
                for dense, pieces in zip(out, families):
                    dense[slot] = pieces[m](t)
        return [dense[:-1].reshape(u.shape + (k,)) for dense in out]

    def evaluate(self, u) -> np.ndarray:
        """Basis matrix with shape ``u.shape + (n_basis,)``."""
        return self._local(u, _VALUE_PIECES)[0]

    def derivative(self, u) -> np.ndarray:
        """Derivative of each basis function, same shape as :meth:`evaluate`."""
        return self._local(u, _SLOPE_PIECES)[0] / self.step

    def evaluate_with_derivative(self, u) -> tuple[np.ndarray, np.ndarray]:
        """Values and derivatives in one pass (:meth:`evaluate`, :meth:`derivative`)."""
        values, slopes = self._local(u, _VALUE_PIECES, _SLOPE_PIECES)
        return values, slopes / self.step

    def fit(self, u, targets) -> np.ndarray:
        """Least-squares coefficients reproducing ``targets`` at ``u``."""
        b = self.evaluate(np.asarray(u, dtype=float).ravel())
        coefs, *_ = np.linalg.lstsq(b, np.asarray(targets, dtype=float).ravel(), rcond=None)
        return coefs
