"""Mahler expansion in the Gaussian-binomial basis, with norm diagnostics.

Coefficients are extracted by forward substitution against the values at
0..M: the basis matrix {i choose n} is lower-triangular with unit diagonal,
so the solve is definitionally exact at working precision.  The matrix is
read off the two-parameter Pascal triangle (`binomial_triangle`).
Sup-norms over Z_p are approximated by grid maxima at a configurable depth
(ultrametric continuity makes grid maxima exact for the polynomial-type
functions used here once the grid is deep enough).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from .calculus import RhoQParams, binomial_triangle, rhoq_binomial, vp_factorial
from .integration import IntegrableFunction, mahler_function, values
from .measures import lipschitz_estimate
from .padic import PadicNumber
from .sequences import gap_norm


@dataclass
class MahlerSeries:
    """A finite expansion sum a_n {x choose n} in the deformed binomial basis."""

    params: RhoQParams
    coefficients: list[PadicNumber]

    @property
    def basis(self) -> str:
        return "classical" if self.params.is_classical else "gaussian"

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def norms(self) -> list[Fraction]:
        """|a_n| per coefficient (zero at working precision counts as 0)."""
        return [gap_norm(c) for c in self.coefficients]

    def decay_index(self) -> int:
        """Smallest index from which the coefficient norms are non-increasing."""
        ns = self.norms()
        idx = len(ns) - 1
        while idx > 0 and ns[idx - 1] >= ns[idx]:
            idx -= 1
        return idx

    def tail_norm(self, m: int) -> Fraction:
        """sup of |a_n| over n >= m (0 when the tail is empty)."""
        tail = self.norms()[m:]
        return max(tail) if tail else Fraction(0)

    def describe(self) -> dict:
        return {
            "basis": self.basis,
            "order": self.order,
            "coefficients": [c.digit_string() for c in self.coefficients],
            "norms": [str(n) for n in self.norms()],
            "decay_index": self.decay_index(),
        }


def mahler_coefficients(
    f: IntegrableFunction,
    order: int,
    params: RhoQParams,
    *,
    digits: int | None = None,
) -> MahlerSeries:
    """Solve sum a_n {i choose n} = f(i), i = 0..order, by forward substitution."""
    if order < 0:
        raise ValueError("order must be >= 0")
    p = params.prime
    d = digits if digits is not None else params.precision
    w = d + vp_factorial(order, p) + 2
    rows = binomial_triangle(order, params, w)
    coeffs: list[PadicNumber] = []
    for i, acc in enumerate(values(f, params, range(order + 1), w)):
        for n_idx in range(i):
            c = coeffs[n_idx]
            if c.is_exact_zero:
                continue
            b = rows[i][n_idx]
            acc = acc - c * (b if b is not None else rhoq_binomial(i, n_idx, params, w))
        coeffs.append(acc)
    return MahlerSeries(params, coeffs)


def truncation_polynomial(series: MahlerSeries, m: int) -> IntegrableFunction:
    """The order-m head of the series as an integrable polynomial-type function."""
    if m > series.order:
        raise ValueError("truncation order exceeds series length")
    return mahler_function(
        tuple(series.coefficients[: m + 1]), label="mahler truncation (order %d)" % m
    )


# ---------------------------------------------------------------------------
# grid norms
# ---------------------------------------------------------------------------


def _grid_values(
    f: IntegrableFunction, params: RhoQParams, level: int, digits: int | None
) -> list[PadicNumber]:
    d = digits if digits is not None else params.precision
    return values(f, params, range(params.prime**level), d)


def sup_norm_grid(
    f: IntegrableFunction, params: RhoQParams, level: int, *, digits: int | None = None
) -> Fraction:
    """max |f(x)| over the level-deep residue grid."""
    return max(map(gap_norm, _grid_values(f, params, level, digits)))


def difference_quotient_norm_grid(
    f: IntegrableFunction, params: RhoQParams, level: int, *, digits: int | None = None
) -> Fraction:
    """max |f(x)-f(y)|/|x-y| over the grid (the difference-quotient sup)."""
    grid = _grid_values(f, params, level, digits)
    return lipschitz_estimate(grid.__getitem__, params.prime, level)


def lipschitz_norm_grid(
    f: IntegrableFunction, params: RhoQParams, level: int, *, digits: int | None = None
) -> Fraction:
    """||f||_1 = ||f||_inf  v  ||difference quotient||_inf, both on one grid of values."""
    grid = _grid_values(f, params, level, digits)
    return max(max(map(gap_norm, grid)), lipschitz_estimate(grid.__getitem__, params.prime, level))
