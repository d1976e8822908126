"""Approximant sequences: the limit machinery behind every N -> infinity.

A sequence carries its terms, the ultrametric Cauchy rates |A_{N+1} - A_N|,
and (when a certificate fires) a declared limit.  Raw declaration follows the
standard ultrametric criterion: agreement of two consecutive terms modulo
p^target bounds all later gaps.  When the gap norms decrease strictly, a
geometric-tail (Aitken) refinement is also tried; its limit is declared only
if the extrapolants of the two most recent sliding windows agree modulo
p^target, and both the raw terms and the extrapolants stay in the record so a
verdict can be re-derived from the report alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import inf

from .padic import PadicNumber, PrecisionError, div


def gap_norm(d: PadicNumber) -> Fraction:
    """|d| as a rational; zero-residues count as 0 (zero at working precision)."""
    if d.is_zero_residue:
        return Fraction(0)
    return d.norm()


def _aitken(a2: PadicNumber, d1: PadicNumber, d2: PadicNumber) -> PadicNumber | None:
    """a2 - d2^2 / (d2 - d1) for terms a0, a1, a2 with gaps d1 = a1 - a0 and
    d2 = a2 - a1, or None when the second difference carries no digits."""
    dd = d2 - d1
    if dd.is_zero_residue:
        return None
    try:
        return a2 - div(d2 * d2, dd)
    except PrecisionError:
        return None


def default_target(digits: int) -> int:
    """The target exponent of a sequence at `digits` working digits, when its
    caller names none."""
    return max(2, digits - 2)


@dataclass
class ApproximantSequence:
    """Indexed approximants A_N with Cauchy-rate estimates."""

    prime: int
    terms: list[tuple[int, PadicNumber]]
    # per gap, e with |A_{N+1} - A_N| = p^-e: inf when the gap is zero at
    # working precision, else its valuation
    rate_exponents: list[int | float] = field(default_factory=list)
    gap_exponents: list[int | float] = field(default_factory=list)
    target_exponent: int | None = None
    converged_at: int | None = None
    declared_limit: PadicNumber | None = None
    certified_exponent: int | float | None = None
    method: str = ""
    extrapolants: list[PadicNumber] = field(default_factory=list)
    best_estimate: PadicNumber | None = None
    best_certified: int | float | None = None
    best_method: str = ""
    note: str = ""

    @classmethod
    def build(
        cls,
        prime: int,
        terms: list[tuple[int, PadicNumber]],
        target_exponent: int,
        note: str = "",
    ) -> "ApproximantSequence":
        seq = cls(prime=prime, terms=list(terms), target_exponent=target_exponent, note=note)
        values = [t[1] for t in seq.terms]
        gaps = [values[i + 1] - values[i] for i in range(len(values) - 1)]
        seq.rate_exponents = [inf if d.is_zero_residue else d.val for d in gaps]
        seq.gap_exponents = [d.valuation for d in gaps]
        seq._declare(values, gaps)
        return seq

    # -- declaration ----------------------------------------------------------

    def _declare(self, values: list[PadicNumber], gaps: list[PadicNumber]) -> None:
        t = self.target_exponent
        raw_cert: int | float | None = None
        # the last-gap certificate needs the observed decay to be monotone,
        # otherwise "later gaps are no larger" has no observational support
        if self.gap_exponents and self._rates_non_increasing_tail():
            raw_cert = self.gap_exponents[-1]

        aitken_cert: int | float | None = None
        aitken_limit: PadicNumber | None = None
        if len(values) >= 4 and self._gaps_strictly_decreasing():
            e_prev = _aitken(values[-2], gaps[-3], gaps[-2])
            e_last = _aitken(values[-1], gaps[-2], gaps[-1])
            if e_prev is not None and e_last is not None:
                self.extrapolants = [e_prev, e_last]
                aitken_cert = (e_last - e_prev).valuation
                aitken_limit = e_last

        # best-certified estimate, kept even when it misses the target
        if raw_cert is not None and (aitken_cert is None or raw_cert >= aitken_cert):
            self.best_estimate = values[-1]
            self.best_certified = raw_cert
            self.best_method = "constant" if self.rate_exponents[-1] == inf else "cauchy"
        elif aitken_cert is not None:
            self.best_estimate = aitken_limit
            self.best_certified = aitken_cert
            self.best_method = "accelerated"

        if self.best_certified is not None and self.best_certified >= t:
            self.declared_limit = self.best_estimate
            self.converged_at = self.terms[-1][0]
            self.certified_exponent = self.best_certified
            self.method = self.best_method

    def _gaps_strictly_decreasing(self) -> bool:
        tail = self.rate_exponents[-3:]
        return len(tail) == 3 and tail[0] < tail[1] < tail[2] < inf

    def _rates_non_increasing_tail(self) -> bool:
        tail = self.rate_exponents[-3:]
        return all(tail[i] <= tail[i + 1] for i in range(len(tail) - 1))

    # -- accessors -------------------------------------------------------------

    @property
    def cauchy_rates(self) -> list[Fraction]:
        """The rates |A_{N+1} - A_N| as rationals, 0 for a gap that is zero."""
        p = Fraction(self.prime)
        return [Fraction(0) if e == inf else p**-e for e in self.rate_exponents]

    @property
    def converged(self) -> bool:
        return self.declared_limit is not None

    def last_term(self) -> PadicNumber:
        return self.terms[-1][1]

    def limit_estimate(self) -> PadicNumber:
        """The best-certified estimate (declared or not), else the last term.

        The certificate lives in best_certified / best_method; declaration
        only records whether it cleared the target.
        """
        if self.best_estimate is not None:
            return self.best_estimate
        return self.last_term()

    def describe(self) -> dict:
        return {
            "levels": [n for n, _ in self.terms],
            "approximants": [v.digit_string() for _, v in self.terms],
            "cauchy_rates": [str(r) for r in self.cauchy_rates],
            "gap_exponents": [_exp_str(e) for e in self.gap_exponents],
            "target_exponent": self.target_exponent,
            "converged_at": self.converged_at,
            "method": self.method,
            "certified_exponent": _exp_str(self.certified_exponent),
            "declared_limit": (
                self.declared_limit.digit_string() if self.declared_limit is not None else None
            ),
            "best_estimate": (
                self.best_estimate.digit_string() if self.best_estimate is not None else None
            ),
            "best_certified": _exp_str(self.best_certified),
            "best_method": self.best_method,
            "extrapolants": [e.digit_string() for e in self.extrapolants],
            "note": self.note,
        }


def _exp_str(e: int | float | None) -> str | int | None:
    if e is None:
        return None
    return "inf" if e == inf else int(e)
