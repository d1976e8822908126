"""Mahler expansion in the Gaussian-binomial basis, with norm diagnostics.

Coefficients are extracted by forward substitution against the values at
0..M: the basis matrix {i choose n} is lower-triangular with unit diagonal,
so the solve is definitionally exact at working precision.  Row i of the
two-parameter Pascal triangle (`pascal_rows`) is made when a_i is solved, as
one integer sum (`sum_terms`): O(M) residues held, no number per product.
Sup-norms over Z_p are approximated by grid maxima at a configurable depth
(ultrametric continuity makes grid maxima exact for the polynomial-type
functions used here once the grid is deep enough).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter
from typing import Iterator

from .calculus import RhoQParams, pascal_rows, rhoq_binomial, vp_factorial
from .integration import IntegrableFunction, mahler_function, values
from .measures import lipschitz_estimate
from .padic import PadicNumber, sum_terms
from .sequences import gap_norm

#: The largest order a solve takes: O(order^2) products at ν_p(order!) guard digits, so on a
#: 2-core machine `rhoq mahler --order` takes 0.5 s at 500 and 3-6 s at 1000 (p = 7, 5, 3).
MAX_ORDER = 1000
_fields = attrgetter("val", "unit", "digits")


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

    def decay_index(self, norms: list[Fraction] | None = None) -> int:
        """Smallest index from which the norms (default `norms()`) are non-increasing."""
        ns = norms or self.norms()
        idx = len(ns) - 1
        while idx > 0 and ns[idx - 1] >= ns[idx]:
            idx -= 1
        return idx

    def tail_norm(self, m: int) -> Fraction:
        """sup of |a_n| over n >= m (0 when the tail is empty)."""
        tail = self.norms()[m:]
        return max(tail) if tail else Fraction(0)

    def describe(self) -> dict:
        ns = self.norms()
        return {
            "basis": self.basis,
            "order": self.order,
            "coefficients": [c.digit_string() for c in self.coefficients],
            "norms": [str(n) for n in ns],
            "decay_index": self.decay_index(ns),
        }


def mahler_coefficients(
    f: IntegrableFunction,
    order: int,
    params: RhoQParams,
    *,
    digits: int | None = None,
) -> MahlerSeries:
    """Solve sum a_n {i choose n} = f(i), i = 0..order, by forward substitution:
    a_i is field for field the fold acc = acc - a_n * {i choose n} from
    acc = f(i) over the nonzero a_n, n < i, as one `sum_terms` sum."""
    if order < 0:
        raise ValueError("order must be >= 0")
    if order > MAX_ORDER:
        raise ValueError("order must be <= %d: a solve takes O(order^2) products" % MAX_ORDER)
    p = params.prime
    d = digits if digits is not None else params.precision
    w = d + vp_factorial(order, p) + 2
    fs = values(f, params, range(order + 1), w)
    coeffs: list[PadicNumber] = []
    for i, row in enumerate(pascal_rows(order, params, w)):
        coeffs.append(sum_terms(p, _terms(fs[i], coeffs, row, i, params, w)))
    return MahlerSeries(params, coeffs)


def _terms(
    fi: PadicNumber, coeffs: list[PadicNumber], row: list, i: int, params: RhoQParams, w: int
) -> Iterator[tuple[int, int, int]]:
    """The terms of f(i) * 1 - sum_{n<i} a_n {i choose n} for `sum_terms`; an
    entry `pascal_rows` leaves out is rhoq_binomial's."""
    if fi.val is not None:
        yield fi.val, fi.unit, fi.val + fi.digits
    for n, c in enumerate(coeffs):
        if c.val is not None:  # an exact zero adds nothing
            bv, bu, br = row[n] or _fields(rhoq_binomial(i, n, params, w))
            v = c.val + bv
            yield v, -c.unit * bu, v + (c.digits if c.digits < br else br)


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
