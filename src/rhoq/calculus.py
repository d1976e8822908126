"""Two-parameter deformed number system over Z_p.

Deformed integers [n] = (rho^n - q^n)/(rho - q) are never evaluated through
the quotient: binary splitting with [2m] = [m](rho^m + q^m) and
[m+1] = rho^m + q[m] takes O(log n) products and no division, so rho = q is
not a degenerate case and no division precision is lost.  The bracket
[p^N] that normalises every Haar ball value is rhoq_integer(p**N), about
N log2(p) products; nothing here is memoized.  Powers rho^x for
p-adic exponents x are defined by continuity: the result mod p^m only
depends on x mod p^m (one digit of slack against the sharp p^(m-1) bound,
which keeps the reduction rule trivial to state and test).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate
from typing import Iterator

from .padic import (
    DomainError,
    PadicNumber,
    PrecisionError,
    div,
    is_odd_prime,
    vp,
)


@dataclass(frozen=True, slots=True)
class RhoQParams:
    """The deformation pair (rho, q), both restricted to 1 + pZ_p.

    The pair is stored as exact rational bases raised to one shared p-power
    tower (rho = rho_base^(p^tower), q = q_base^(p^tower)): lifting raises
    both together, so lifted parameters compose exactly and any working
    precision can be re-derived on demand.  ``known_digits`` caps the
    usable precision when the parameters were given as finite digit strings
    rather than exact rationals.
    """

    prime: int
    rho_base: Fraction
    q_base: Fraction
    tower: int = 0
    precision: int = 12
    known_digits: int | None = None

    def __post_init__(self) -> None:
        if not is_odd_prime(self.prime):
            raise ValueError("prime must be an odd prime >= 3, got %r" % (self.prime,))
        if self.precision < 1:
            raise ValueError("precision must be >= 1")
        for name, base in (("rho", self.rho_base), ("q", self.q_base)):
            if base.denominator % self.prime == 0:
                raise DomainError("%s must be a p-adic unit" % name)
            delta = base - 1
            if delta != 0 and vp(delta.numerator, self.prime) < 1:
                raise DomainError("%s must lie in 1 + pZ_p" % name)

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_units(
        cls, p: int, rho: Fraction | int, q: Fraction | int, precision: int = 12
    ) -> "RhoQParams":
        return cls(p, Fraction(rho), Fraction(q), precision=precision)

    @classmethod
    def from_offsets(cls, p: int, rho_k: int, q_k: int, precision: int = 12) -> "RhoQParams":
        """rho = 1 + rho_k * p, q = 1 + q_k * p."""
        return cls.from_units(p, 1 + rho_k * p, 1 + q_k * p, precision)

    @classmethod
    def classical(cls, p: int, precision: int = 12) -> "RhoQParams":
        """rho = q = 1: everything degenerates to the classical objects."""
        return cls.from_units(p, 1, 1, precision)

    @classmethod
    def from_residues(
        cls, p: int, rho_residue: int, q_residue: int, precision: int
    ) -> "RhoQParams":
        """Parameters known only as residues mod p^precision (digit strings)."""
        rho, q = Fraction(rho_residue), Fraction(q_residue)
        return cls(p, rho, q, precision=precision, known_digits=precision)

    # -- residues ------------------------------------------------------------

    def require_digits(self, w: int) -> None:
        """Raise PrecisionError when the parameters are known to fewer than w digits."""
        if self.known_digits is not None and w > self.known_digits:
            raise PrecisionError(
                "parameters only known to %d digits; %d requested"
                % (self.known_digits, w)
            )

    def _unit_residue(self, base: Fraction, w: int) -> int:
        self.require_digits(w)
        mod = self.prime**w
        res = base.numerator % mod * pow(base.denominator % mod, -1, mod) % mod
        if self.tower:
            res = pow(res, self.prime**self.tower, mod)
        return res

    def rho_residue(self, w: int) -> int:
        return self._unit_residue(self.rho_base, w)

    def q_residue(self, w: int) -> int:
        return self._unit_residue(self.q_base, w)

    def ratio_residue(self, w: int) -> int:
        """(q / rho) mod p^w."""
        mod = self.prime**w
        return self.q_residue(w) * pow(self.rho_residue(w), -1, mod) % mod

    @property
    def rho(self) -> PadicNumber:
        return PadicNumber(self.prime, 0, self.rho_residue(self.precision), self.precision)

    @property
    def q(self) -> PadicNumber:
        return PadicNumber(self.prime, 0, self.q_residue(self.precision), self.precision)

    @property
    def is_classical(self) -> bool:
        return self.rho_base == 1 and self.q_base == 1

    @property
    def is_symmetric_point(self) -> bool:
        """True when rho and q coincide (as exact specifications)."""
        return self.rho_base == self.q_base

    def lifted(self, n: int) -> "RhoQParams":
        """The pair (rho^(p^n), q^(p^n)), used by the restriction identity."""
        if n < 0:
            raise ValueError("lift exponent must be >= 0")
        return replace(self, tower=self.tower + n)

    def describe(self) -> dict:
        tower = "^(p^%d)" % self.tower if self.tower else ""
        return {
            "p": self.prime,
            "rho": str(self.rho_base) + tower,
            "q": str(self.q_base) + tower,
            "precision": self.precision,
        }


# ---------------------------------------------------------------------------
# deformed integers / factorials / binomials
# ---------------------------------------------------------------------------


def _bracket_residue(rho: int, q: int, n: int, mod: int) -> int:
    """[n] for the residues rho, q, mod `mod`, by binary splitting over the bits of n."""
    acc, rho_m, q_m = 0, 1, 1  # [m], rho^m, q^m for the prefix m of n's bits
    for bit in bin(n)[2:]:
        acc = acc * (rho_m + q_m) % mod
        rho_m = rho_m * rho_m % mod
        q_m = q_m * q_m % mod
        if bit == "1":
            acc = (rho_m + q * acc) % mod
            rho_m = rho_m * rho % mod
            q_m = q_m * q % mod
    return acc


def rhoq_integer(n: int, params: RhoQParams, digits: int | None = None) -> PadicNumber:
    """[n] for a nonnegative integer n (exact at ρ = q)."""
    if n < 0:
        raise ValueError("deformed integer defined for n >= 0")
    p = params.prime
    w = digits if digits is not None else params.precision
    if n == 0:
        return PadicNumber.exact_zero(p)
    res = _bracket_residue(params.rho_residue(w), params.q_residue(w), n, p**w)
    return PadicNumber.from_integer(res, p, w) if res else PadicNumber.bounded_zero(p, w)


def rhoq_factorial(n: int, params: RhoQParams, digits: int | None = None) -> PadicNumber:
    """[n]! = [1][2]...[n]."""
    if n < 0:
        raise ValueError("factorial defined for n >= 0")
    w = digits if digits is not None else params.precision
    acc = PadicNumber.one(params.prime, w)
    for j in range(1, n + 1):
        acc = acc * rhoq_integer(j, params, w)
    return acc


def vp_factorial(n: int, p: int) -> int:
    """ν_p(n!) (Legendre); equals ν_p([n]!) for parameters in 1 + pZ_p."""
    v, q = 0, p
    while q <= n:
        v += n // q
        q *= p
    return v


def rhoq_binomial(n: int, k: int, params: RhoQParams, digits: int | None = None) -> PadicNumber:
    """Gaussian binomial [n]! / ([n-k]! [k]!); zero for k > n (Mahler truncation).

    Computed as a falling product over [k]! with enough head-room that the
    factorial division costs no digits against the requested precision.
    """
    p = params.prime
    target = digits if digits is not None else params.precision
    if k < 0 or k > n:
        return PadicNumber.exact_zero(p)
    if k == 0 or k == n:
        return PadicNumber.one(p, target)
    loss = vp_factorial(k, p)
    head = max((vp(n - j, p) for j in range(k) if n != j), default=0)
    w = target + loss + head
    if params.known_digits is not None:
        w = min(w, params.known_digits)
    num = PadicNumber.one(p, w)
    for j in range(k):
        num = num * rhoq_integer(n - j, params, w)
    return div(num, rhoq_factorial(k, params, w))


def pascal_rows(
    order: int, params: RhoQParams, digits: int | None = None
) -> Iterator[list[tuple[int, int, int] | None]]:
    """Rows n = 0..order of the Gaussian binomials, each made from the row before
    when it is read: entry k is (v, u, r) for rhoq_binomial(n, k, params, digits)
    = p^v * u with r unit digits, the unit u known mod p^r but not reduced.

    The residues come from the Pascal rule
    {n choose k} = rho^(n-k) {n-1 choose k-1} + q^k {n-1 choose k}:
    O(order^2) products mod one power of p, no factorial division.  Each
    entry is then cut to the precision rhoq_binomial reports, so the two are
    interchangeable digit for digit: valuation ν_p(n!) - ν_p(k!) - ν_p((n-k)!),
    unit digits w - head with head = max_{j<k} ν_p(n-j) and
    w = digits + ν_p(k!) + head (capped at the known parameter digits).  The
    factorial [k]! loses no more than head: the k consecutive integers
    n-k+1..n hold a multiple of every p^e <= k.  An entry is None where the
    cap leaves a factor of the falling product indistinguishable from zero;
    rhoq_binomial then decides what it is.
    """
    p = params.prime
    target = digits if digits is not None else params.precision
    known = params.known_digits
    vps = [0] + [vp(m, p) for m in range(1, order + 1)]
    vpf = list(accumulate(vps))
    # An entry's absolute precision is at most its w: the valuation is the
    # number of carries in k + (n-k) (Kummer), and the highest carry is <= head.
    W = target + vpf[order] + max(vps)
    if known is not None:
        W = min(W, known)
    mod = p**W
    rho, q = params.rho_residue(W), params.q_residue(W)
    rho_pow, q_pow = [1], [1]
    for _ in range(order):
        rho_pow.append(rho_pow[-1] * rho % mod)
        q_pow.append(q_pow[-1] * q % mod)
    one = (0, 1, target)
    res: list[int] = []  # row n - 1 of the triangle, as residues mod p^W
    for n in range(order + 1):
        res = [1] + [
            (rho_pow[n - k] * res[k - 1] + q_pow[k] * res[k]) % mod for k in range(1, n)
        ] + ([1] if n else [])
        row: list[tuple[int, int, int] | None] = [one]
        head = 0
        for k in range(1, n):
            v = vpf[n] - vpf[k] - vpf[n - k]
            r = target + vpf[k]  # w - head
            if known is not None:
                head = max(head, vps[n - k + 1])
                r = min(r + head, known) - head
                if r < 1:  # a factor vanishes at the capped precision
                    row.append(None)
                    continue
            row.append((v, res[k] // p**v, r))
        yield row + [one] if n else row


def binomial_triangle(
    order: int, params: RhoQParams, digits: int | None = None
) -> list[list[PadicNumber | None]]:
    """rows[n][k] = rhoq_binomial(n, k, params, digits) for 0 <= k <= n <= order,
    or None where `pascal_rows` leaves the entry to rhoq_binomial."""
    p, rows = params.prime, pascal_rows(order, params, digits)
    return [[e and PadicNumber(p, e[0], e[1] % p ** e[2], e[2]) for e in row] for row in rows]


def rhoq_power(
    base: PadicNumber, exponent: PadicNumber | int, abs_prec: int | None = None
) -> PadicNumber:
    """base^exponent for base in 1 + pZ_p and a p-adic integer exponent.

    Defined by continuity: since base^(p^M) ≡ 1 (mod p^(M+1)), the result
    mod p^m depends only on the exponent mod p^m, so the exponent is reduced
    there and the power is taken by square-and-multiply.
    """
    p = base.prime
    if base.is_zero_residue or base.val != 0 or base.unit % p != 1:
        raise DomainError("rhoq_power requires base in 1 + pZ_p")
    m = base.digits if abs_prec is None else min(abs_prec, base.digits)
    if isinstance(exponent, PadicNumber):
        if exponent.is_exact_zero:
            return PadicNumber.one(p, m)
        if exponent.val is not None and exponent.val < 0:
            raise DomainError("exponent must lie in Z_p")
        m = min(m, int(exponent.abs_precision))
        e = exponent.residue(m)
    else:
        e = exponent % p**m
    mod = p**m
    return PadicNumber(p, 0, pow(base.residue(m), e, mod), m)
