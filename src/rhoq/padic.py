"""Finite-precision arithmetic in Q_p.

A value is stored as p^v * u where the unit u is known modulo p^r; the
absolute precision (the power of p modulo which the *value* is known) is
v + r.  All reductions are by powers of p on plain integers; nothing here
touches floating point.

Zero comes in two flavours.  An *exact* zero is a distinguished value (the
limits in this library genuinely hit 0).  A *bounded* zero O(p^a) is what a
subtraction produces when everything cancels at working precision: all we
know is that the value is divisible by p^a.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import inf
from typing import Sequence


class PadicError(Exception):
    """Base class for p-adic arithmetic errors."""


class DomainError(PadicError):
    """Operand outside the mathematical domain of an operation."""


class PrecisionError(PadicError):
    """A result would carry no digits at working precision."""


def is_odd_prime(p: int) -> bool:
    if not isinstance(p, int) or p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def vp(n: int, p: int) -> int:
    """Exponent of p in a nonzero integer."""
    if n == 0:
        raise ValueError("valuation of integer 0 is undefined; use the exact zero")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# ---------------------------------------------------------------------------
# PadicNumber
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class PadicNumber:
    """An element of Q_p at finite precision.

    Nonzero: value = prime^val * unit with gcd(unit, prime) = 1 and
    0 < unit < prime^digits; the value is known modulo prime^(val+digits).
    Bounded zero: unit == 0, digits == 0, val = a, meaning value ≡ 0 (mod p^a).
    Exact zero: unit == 0, digits == 0, val is None.

    Instances are immutable; all operations are pure.
    """

    prime: int
    val: int | None
    unit: int
    digits: int

    # -- constructors -------------------------------------------------------

    @classmethod
    def exact_zero(cls, p: int) -> "PadicNumber":
        _check_prime(p)
        return cls(p, None, 0, 0)

    @classmethod
    def bounded_zero(cls, p: int, abs_prec: int) -> "PadicNumber":
        """The ball O(p^abs_prec): a value known only to vanish mod p^abs_prec."""
        _check_prime(p)
        if abs_prec <= 0:
            raise PrecisionError("bounded zero O(p^%d) carries no information" % abs_prec)
        return cls(p, abs_prec, 0, 0)

    @classmethod
    def from_integer(cls, n: int, p: int, abs_prec: int) -> "PadicNumber":
        """Canonical (valuation, unit) form of an integer, known mod p^abs_prec."""
        _check_prime(p)
        if abs_prec < 1:
            raise ValueError("absolute precision must be >= 1, got %d" % abs_prec)
        if n == 0:
            return cls.exact_zero(p)
        v = vp(n, p)
        if v >= abs_prec:
            return cls.bounded_zero(p, abs_prec)
        r = abs_prec - v
        return _new(p, v, (n // p**v) % p**r, r)

    @classmethod
    def from_fraction(cls, x: Fraction | int, p: int, abs_prec: int) -> "PadicNumber":
        """A rational reduced into Q_p at absolute precision abs_prec."""
        if isinstance(x, int):
            return cls.from_integer(x, p, abs_prec)
        _check_prime(p)
        if abs_prec < 1:
            raise ValueError("absolute precision must be >= 1, got %d" % abs_prec)
        if x == 0:
            return cls.exact_zero(p)
        vn = vp(x.numerator, p)
        vd = vp(x.denominator, p)
        v = vn - vd
        if v >= abs_prec:
            return cls.bounded_zero(p, abs_prec)
        r = abs_prec - v
        mod = p**r
        num_unit = (x.numerator // p**vn) % mod
        den_unit = (x.denominator // p**vd) % mod
        u = num_unit * pow(den_unit, -1, mod) % mod
        return cls(p, v, u, r)

    @classmethod
    def one(cls, p: int, digits: int) -> "PadicNumber":
        return cls.from_integer(1, p, digits)

    # -- predicates / accessors ---------------------------------------------

    @property
    def is_exact_zero(self) -> bool:
        return self.unit == 0 and self.val is None

    @property
    def is_zero_residue(self) -> bool:
        """True for both zero flavours: nothing distinguishes this value from 0."""
        return self.unit == 0

    @property
    def abs_precision(self) -> int | float:
        """The value is known modulo prime^abs_precision (inf for exact zero)."""
        if self.is_exact_zero:
            return inf
        return self.val + self.digits

    @property
    def valuation(self) -> int | float:
        """ν_p of the value; +inf for the exact zero.

        For a bounded zero O(p^a) only the lower bound a is known and that
        bound is returned: callers compare norms, and p^-a is the honest
        worst case at working precision.
        """
        if self.is_exact_zero:
            return inf
        return self.val

    def norm(self) -> Fraction:
        """|x|_p = p^-ν_p(x); 0 for the exact zero (upper bound for a bounded zero)."""
        if self.is_exact_zero:
            return Fraction(0)
        v = self.val
        return Fraction(1, self.prime**v) if v >= 0 else Fraction(self.prime ** (-v))

    def residue(self, abs_prec: int) -> int:
        """The value mod p^abs_prec as a plain integer (requires valuation >= 0).

        Raises PrecisionError when more digits are requested than are known.
        """
        if self.is_exact_zero:
            return 0
        if abs_prec > self.abs_precision:
            raise PrecisionError(
                "residue mod %d^%d requested but value only known mod %d^%s"
                % (self.prime, abs_prec, self.prime, self.abs_precision)
            )
        if self.unit == 0:
            return 0
        if self.val < 0:
            raise DomainError("residue of a value with negative valuation")
        return self.unit * self.prime**self.val % self.prime**abs_prec

    def agrees(self, other: "PadicNumber", abs_prec: int | None = None) -> bool:
        """True when x ≡ y modulo p^t, t = min of the known precisions (and abs_prec).

        Comparison is vacuously true when no digit of either value is known
        modulo p (t <= 0).
        """
        _common_prime(self, other)
        t = min(self.abs_precision, other.abs_precision, inf if abs_prec is None else abs_prec)
        # t <= 0 first: values known to no digit that cancel have no difference
        return t <= 0 or (self - other).valuation >= t

    # -- canonicalization ----------------------------------------------------

    def canonical(self) -> "PadicNumber":
        """Re-normalize; idempotent (returns an equal value)."""
        if self.unit == 0:
            return self
        mod = self.prime**self.digits
        u = self.unit % mod
        if u % self.prime == 0:
            raise DomainError("unit residue divisible by p; malformed value")
        return PadicNumber(self.prime, self.val, u, self.digits)

    def reduce_abs(self, abs_prec: int) -> "PadicNumber":
        """Forget digits: the same value known only mod p^abs_prec."""
        if self.is_exact_zero:
            return self
        if abs_prec >= self.abs_precision:
            return self
        if self.unit == 0 or self.val >= abs_prec:
            return PadicNumber.bounded_zero(self.prime, abs_prec)
        r = abs_prec - self.val
        return _new(self.prime, self.val, self.unit % self.prime**r, r)

    # -- arithmetic ----------------------------------------------------------

    def __neg__(self) -> "PadicNumber":
        if self.unit == 0:
            return self
        return _new(self.prime, self.val, (-self.unit) % self.prime**self.digits, self.digits)

    def __add__(self, other: "PadicNumber") -> "PadicNumber":
        return _add(self, other, other.unit)

    def __sub__(self, other: "PadicNumber") -> "PadicNumber":
        return _add(self, other, -other.unit)

    def __mul__(self, other: "PadicNumber") -> "PadicNumber":
        p = self.prime if self.prime == other.prime else _common_prime(self, other)
        if self.unit == 0 or other.unit == 0:
            if self.val is None or other.val is None:
                return PadicNumber.exact_zero(p)
            return PadicNumber.bounded_zero(p, self.val + other.val)
        r = min(self.digits, other.digits)
        return _new(p, self.val + other.val, self.unit * other.unit % p**r, r)

    def __truediv__(self, other: "PadicNumber") -> "PadicNumber":
        return div(self, other)

    def __pow__(self, n: int) -> "PadicNumber":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return div(PadicNumber.one(self.prime, self.digits or 1), self) ** (-n)
        if n == 0:
            return PadicNumber.one(self.prime, self.digits or 1)
        if self.is_exact_zero:
            return self
        if self.unit == 0:
            return PadicNumber.bounded_zero(self.prime, self.val * n)
        mod = self.prime**self.digits
        return PadicNumber(self.prime, self.val * n, pow(self.unit, n, mod), self.digits)

    # -- rendering -----------------------------------------------------------

    def digit_string(self) -> str:
        """Canonical text form (documented, bit-exact; used in JSON output).

        exact zero           -> "0"
        bounded zero O(p^a)  -> "O(p^a): 0"
        unit value           -> "O(p^A): d0 + d1*p + d2*p^2 + ..."
        shifted value        -> "O(p^A): p^v * (d0 + d1*p + ...)"

        A is the absolute precision, digits run least-significant first and
        zero digits are written out.
        """
        p = self.prime
        if self.is_exact_zero:
            return "0"
        if self.unit == 0:
            return "O(%d^%d): 0" % (p, self.val)
        parts = []
        u = self.unit
        for k in range(self.digits):
            u, d = divmod(u, p)
            if k == 0:
                parts.append(str(d))
            elif k == 1:
                parts.append("%d*%d" % (d, p))
            else:
                parts.append("%d*%d^%d" % (d, p, k))
        body = " + ".join(parts)
        head = "O(%d^%d): " % (p, self.abs_precision)
        if self.val == 0:
            return head + body
        return head + "%d^%d * (%s)" % (p, self.val, body)

    def __str__(self) -> str:
        return self.digit_string()

    def __repr__(self) -> str:
        if self.is_exact_zero:
            return "PadicNumber(p=%d, 0 exact)" % self.prime
        return "PadicNumber(p=%d, val=%s, unit=%d, digits=%d)" % (
            self.prime,
            self.val,
            self.unit,
            self.digits,
        )


def _check_prime(p: int) -> None:
    if not is_odd_prime(p):
        raise ValueError("prime must be an odd prime >= 3, got %r" % (p,))


def _common_prime(x: PadicNumber, y: PadicNumber) -> int:
    if x.prime != y.prime:
        raise DomainError("prime mismatch: %d vs %d" % (x.prime, y.prime))
    return x.prime


_alloc = object.__new__
_set_prime, _set_val, _set_unit, _set_digits = (
    PadicNumber.__dict__[name].__set__ for name in ("prime", "val", "unit", "digits")
)


def _new(p: int, v: int, u: int, r: int) -> PadicNumber:
    """PadicNumber(p, v, u, r) for normal-form fields, past the frozen __init__."""
    x = _alloc(PadicNumber)
    _set_prime(x, p)
    _set_val(x, v)
    _set_unit(x, u)
    _set_digits(x, r)
    return x


def _add(x: PadicNumber, y: PadicNumber, y_unit: int) -> PadicNumber:
    """x + y with y's unit replaced by y_unit: y.unit for +, -y.unit for -."""
    p = x.prime if x.prime == y.prime else _common_prime(x, y)
    if y.val is None:  # exact zero
        return x
    if x.val is None:
        return y if y_unit == y.unit else -y
    xv, xu, yv = x.val, x.unit, y.val
    a = min(xv + x.digits, yv + y.digits)
    if xu == 0 or y_unit == 0:  # a zero residue only lowers the other's precision
        if xu == 0 and y_unit == 0:
            return PadicNumber.bounded_zero(p, a)
        return x.reduce_abs(a) if y_unit == 0 else (y if y_unit == y.unit else -y).reduce_abs(a)
    v0 = min(xv, yv)
    k = a - v0  # >= 1: both operands are nonzero
    s = (xu * p ** (xv - v0) + y_unit * p ** (yv - v0)) % p**k
    if s == 0:
        return PadicNumber.bounded_zero(p, a)
    if s % p:
        return _new(p, v0, s, k)
    w = vp(s, p)
    return _new(p, v0 + w, s // p**w, k - w)


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------


def padic_from_integer(n: int, p: int, abs_prec: int) -> PadicNumber:
    return PadicNumber.from_integer(n, p, abs_prec)


def padic_from_fraction(x: Fraction | int, p: int, abs_prec: int) -> PadicNumber:
    return PadicNumber.from_fraction(x, p, abs_prec)


def valuation(x: PadicNumber) -> int | float:
    return x.valuation


def norm(x: PadicNumber) -> Fraction:
    return x.norm()


def div(x: PadicNumber, y: PadicNumber) -> PadicNumber:
    """x / y, its unit known to min(x.digits, y.digits) digits."""
    p = x.prime if x.prime == y.prime else _common_prime(x, y)
    if y.unit == 0:
        if y.val is None:
            raise ZeroDivisionError("division by exact p-adic zero")
        raise PrecisionError(
            "divisor is indistinguishable from zero at working precision O(%d^%d)"
            % (p, y.val)
        )
    if x.unit == 0:
        if x.val is None:
            return x
        a = x.val - y.val
        if a <= 0:
            raise PrecisionError("quotient of bounded zero carries no digits")
        return PadicNumber.bounded_zero(p, a)
    r = min(x.digits, y.digits)
    mod = p**r
    return _new(p, x.val - y.val, x.unit * pow(y.unit, -1, mod) % mod, r)


def dot(xs: Sequence[PadicNumber], ys: Sequence[PadicNumber]) -> PadicNumber:
    """Σ x_i * y_i, field for field the fold ``acc = acc + x * y`` from the exact zero,
    as one integer sum reduced once mod p^A, A the least absolute precision of the
    products.  The fold knows its partial sum S_i mod p^A_i (A_i: the same over the
    first i products); like it, this raises PrecisionError at a zero-residue product
    of valuation <= 0 and at S_i ≡ 0 mod p^A_i with A_i <= 0.  xs must be nonempty.
    """
    p = xs[0].prime
    s, v0, a = 0, None, inf  # the partial sum is p^v0 * s, known mod p^a
    for x, y in zip(xs, ys, strict=True):
        if x.prime != p or y.prime != p:
            raise DomainError("prime mismatch in a dot product over Q_%d" % p)
        if x.val is None or y.val is None:
            continue  # an exact zero adds nothing
        v = x.val + y.val
        if not (x.unit and y.unit):
            if v <= 0:
                raise PrecisionError("zero-residue product O(%d^%d) carries no digits" % (p, v))
            a = v if v < a else a
            continue
        b = v + (x.digits if x.digits < y.digits else y.digits)  # the product's precision
        a = b if b < a else a
        if v0 is None or v < v0:
            s, v0 = s * p ** (v0 - v) if s else 0, v
        s += x.unit * y.unit * p ** (v - v0)
        if a <= 0 and s % p ** (a - v0) == 0:  # a <= 0 at a nonzero product: v0 < a
            raise PrecisionError("partial sum is zero at working precision O(%d^%d)" % (p, a))
    if a == inf:
        return PadicNumber.exact_zero(p)
    s = s % p ** (a - v0) if v0 is not None and a > v0 else 0
    if s == 0:
        return PadicNumber.bounded_zero(p, a)
    w = vp(s, p)
    return _new(p, v0 + w, s // p**w, a - v0 - w)


def padic_log(x: PadicNumber) -> PadicNumber:
    """log on 1 + pZ_p via the alternating series in (x - 1).

    The series is truncated once every remaining term is 0 modulo the input's
    absolute precision; the result has valuation >= 1.
    """
    p = x.prime
    if not x.is_zero_residue and x.val == 0 and x.unit == 1:
        # residue exactly 1 is read as the constant 1: log hits exact zero
        return PadicNumber.exact_zero(p)
    one = PadicNumber.one(p, max(x.digits, 1))
    t = x - one
    if t.is_exact_zero:
        return PadicNumber.exact_zero(p)
    if t.unit == 0:
        return PadicNumber.bounded_zero(p, t.val)
    if t.val < 1:
        raise DomainError("padic_log requires x in 1 + pZ_p")
    target = int(t.abs_precision)
    vt = t.val
    # Term n has valuation n*vt - ν_p(n) >= n*vt - floor(log_p n), a bound
    # nondecreasing in n for vt >= 1; stop at the first n where it clears the
    # target, since every later term then also vanishes mod p^target.
    acc = PadicNumber.exact_zero(p)
    power = t
    n = 1
    while n * vt - _max_vp_at_most(n, p) < target:
        denom = PadicNumber.from_integer(n, p, target + vp(n, p))
        term = div(power, denom)
        acc = acc + (-term if n % 2 == 0 else term)
        n += 1
        power = power * t
    return acc.reduce_abs(target)


def _max_vp_at_most(n: int, p: int) -> int:
    """floor(log_p n): an upper bound for ν_p(k) over k <= n."""
    b = 0
    while p ** (b + 1) <= n:
        b += 1
    return b
