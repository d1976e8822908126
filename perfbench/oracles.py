"""Independent oracles for the benchmark's correctness checks.

Nothing here imports rhoq.  Values come from exact rational arithmetic and
classical closed forms, reduced modulo powers of p only at the end:

- exponential polynomials f(x) = sum c * x^k * b^x, which cover 1, x^k, c^x,
  (q/rho)^x, [x]^n, rho^(a x)[x]^n, products, linear combinations and
  Gaussian-binomial (Mahler) heads;
- level values rho^(p^N)/[p^N] * sum_{x<p^N} f(x) (q/rho)^x by geometric-series
  closed forms (Faulhaber sums where the ratio is 1);
- limits by the classical Volkenborn integral: the integral of x^k w^x is
  sum_{m>=k} B_m s^(m-k)/(m-k)! with s = log w (so x^n -> B_n and
  t^x -> log t/(t-1)), scaled by kappa = (rho-q)/log(rho/q), or rho at rho = q;
- Haar ball values, rescaled Haar values, Gaussian binomials from the
  definition, and the classical Mahler coefficients (t-1)^n and n! S(k,n).

`selftest` checks the closed forms against brute-force Fraction sums.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial


def vp(x: Fraction | int, p: int) -> int:
    """p-adic valuation of a nonzero rational."""
    x = Fraction(x)
    if x == 0:
        raise ValueError("valuation of 0")
    v, n, d = 0, x.numerator, x.denominator
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


class Approx:
    """A p-adic number known modulo p^prec: x ≡ val (mod p^prec).

    val is a rational kept reduced to a short representative; prec is the
    absolute precision and may be negative for values with poles.
    """

    __slots__ = ("p", "val", "prec")

    def __init__(self, p: int, val: Fraction | int, prec: int):
        self.p, self.prec = p, prec
        self.val = _reduce(Fraction(val), p, prec)

    def low_val(self) -> int:
        """A lower bound for the valuation (exact when below prec)."""
        return self.prec if self.val == 0 else min(vp(self.val, self.p), self.prec)

    def __add__(self, o: "Approx") -> "Approx":
        return Approx(self.p, self.val + o.val, min(self.prec, o.prec))

    def __sub__(self, o: "Approx") -> "Approx":
        return Approx(self.p, self.val - o.val, min(self.prec, o.prec))

    def __mul__(self, o: "Approx") -> "Approx":
        prec = min(self.prec + o.low_val(), o.prec + self.low_val())
        return Approx(self.p, self.val * o.val, prec)

    def scale(self, c: Fraction | int) -> "Approx":
        """Multiply by an exact rational."""
        c = Fraction(c)
        if c == 0:
            return Approx(self.p, 0, 10**9)
        return Approx(self.p, self.val * c, self.prec + vp(c, self.p))

    def __truediv__(self, o: "Approx") -> "Approx":
        vo = vp(o.val, self.p) if o.val else o.prec
        if vo >= o.prec:
            raise ZeroDivisionError("divisor indistinguishable from 0")
        prec = min(self.prec - vo, self.low_val() + o.prec - 2 * vo)
        return Approx(self.p, self.val / o.val, prec)

    def agreement(self, other: "Approx") -> int:
        """Digits to which the two agree, capped by what both know."""
        cap = min(self.prec, other.prec)
        d = self.val - other.val
        return cap if d == 0 else min(cap, vp(d, self.p))


def _reduce(x: Fraction, p: int, prec: int) -> Fraction:
    if x == 0 or prec >= 10**8:
        return x
    v = vp(x, p)
    if v >= prec:
        return Fraction(0)
    mod = p ** (prec - v)
    unit = x / Fraction(p) ** v
    u = unit.numerator % mod * pow(unit.denominator % mod, -1, mod) % mod
    return Fraction(u) * Fraction(p) ** v


def unit_power(p: int, base: Fraction, e: int, prec: int) -> Approx:
    """base^e for a p-adic unit base, e >= 0 possibly huge."""
    mod = p**prec
    r = base.numerator % mod * pow(base.denominator % mod, -1, mod) % mod
    return Approx(p, pow(r, e, mod), prec)


# ---------------------------------------------------------------------------
# parameters, brackets, Bernoulli numbers, logarithm
# ---------------------------------------------------------------------------


def bracket(n: int, rho: Fraction, q: Fraction) -> Fraction:
    """[n] = sum_{i<n} rho^i q^(n-1-i), straight from the definition."""
    return sum((rho**i * q ** (n - 1 - i) for i in range(n)), Fraction(0))


def bracket_factorial(n: int, rho: Fraction, q: Fraction) -> Fraction:
    out = Fraction(1)
    for j in range(1, n + 1):
        out *= bracket(j, rho, q)
    return out


def gauss_binomial(n: int, k: int, rho: Fraction, q: Fraction) -> Fraction:
    """{n choose k} = [n][n-1]...[n-k+1] / [k]!, from the definition."""
    if k < 0 or k > n:
        return Fraction(0)
    num = Fraction(1)
    for j in range(k):
        num *= bracket(n - j, rho, q)
    return num / bracket_factorial(k, rho, q)


@lru_cache(maxsize=None)
def bernoulli(m: int) -> Fraction:
    """B_m with B_1 = -1/2 (the classical Volkenborn integral of x^m)."""
    if m == 0:
        return Fraction(1)
    return -sum((comb(m + 1, j) * bernoulli(j) for j in range(m)), Fraction(0)) / (m + 1)


def padic_log(p: int, w: Fraction, prec: int) -> Approx:
    """log w for w in 1 + pZ_p by the series in (w - 1), known mod p^prec."""
    t = Fraction(w) - 1
    if t == 0:
        return Approx(p, 0, prec)
    vt = vp(t, p)
    if vt < 1:
        raise ValueError("log needs w in 1 + pZ_p")
    acc = Approx(p, 0, prec)
    tn = Approx(p, 1, prec + 2)
    tA = Approx(p, t, prec + 2)
    n = 1
    while True:
        tn = tn * tA
        acc = acc + tn.scale(Fraction((-1) ** (n + 1), n))
        n += 1
        # every later term has valuation >= n vt - log_p(n)
        if n * vt - _floor_log(n, p) >= prec:
            break
    return Approx(p, acc.val, min(acc.prec, prec))


def _floor_log(n: int, p: int) -> int:
    b = 0
    while p ** (b + 1) <= n:
        b += 1
    return b


def log_ratio(p: int, t: Fraction, prec: int) -> Approx:
    """The classical Volkenborn integral of t^x: log t / (t - 1)."""
    t = Fraction(t)
    if t == 1:
        return Approx(p, 1, prec)
    return padic_log(p, t, prec + vp(t - 1, p)).scale(1 / (t - 1))


# ---------------------------------------------------------------------------
# exponential polynomials
# ---------------------------------------------------------------------------

ExpPoly = dict  # {(k, base): coeff} meaning sum coeff * x^k * base^x


def ep_mul(f: ExpPoly, g: ExpPoly) -> ExpPoly:
    out: ExpPoly = {}
    for (k1, b1), c1 in f.items():
        for (k2, b2), c2 in g.items():
            key = (k1 + k2, b1 * b2)
            out[key] = out.get(key, 0) + c1 * c2
    return {k: c for k, c in out.items() if c != 0}


def ep_add(f: ExpPoly, g: ExpPoly, a: Fraction = Fraction(1), b: Fraction = Fraction(1)) -> ExpPoly:
    out: ExpPoly = {}
    for h, s in ((f, a), (g, b)):
        for key, c in h.items():
            out[key] = out.get(key, 0) + s * c
    return {k: c for k, c in out.items() if c != 0}


def ep_pow(f: ExpPoly, n: int) -> ExpPoly:
    out: ExpPoly = {(0, Fraction(1)): Fraction(1)}
    for _ in range(n):
        out = ep_mul(out, f)
    return out


def ep_eval(f: ExpPoly, x: int) -> Fraction:
    return sum((c * Fraction(x) ** k * b**x for (k, b), c in f.items()), Fraction(0))


def ep_bracket_shift(j: int, rho: Fraction, q: Fraction) -> ExpPoly:
    """[x - j] as an exponential polynomial in x."""
    if rho != q:
        d = rho - q
        return ep_add({(0, rho): rho**-j / d}, {(0, q): -(q**-j) / d})
    # rho = q: [x - j] = (x - j) rho^(x - j - 1)
    s = rho ** (-j - 1)
    return {k: c for k, c in {(1, rho): s, (0, rho): -j * s}.items() if c != 0}


def integrand(spec: tuple, rho: Fraction, q: Fraction) -> ExpPoly:
    """The oracle's own reading of an integrand spec (see workloads.SPECS)."""
    kind = spec[0]
    one = Fraction(1)
    if kind == "const":
        return {(0, one): Fraction(spec[1])}
    if kind == "xpow":
        return {(spec[1], one): one}
    if kind == "bracket":
        return ep_pow(ep_bracket_shift(0, rho, q), spec[1])
    if kind == "exp":
        return {(0, Fraction(spec[1])): one}
    if kind == "qrho":
        return {(0, q / rho): one}
    if kind == "mixed":  # rho^(a x) [x]^n
        return ep_mul({(0, rho ** spec[1]): one}, integrand(("bracket", spec[2]), rho, q))
    if kind == "product":
        out = {(0, one): one}
        for part in spec[1]:
            out = ep_mul(out, integrand(part, rho, q))
        return out
    if kind == "sum":
        out: ExpPoly = {}
        for c, part in zip(spec[1], spec[2]):
            out = ep_add(out, integrand(part, rho, q), one, Fraction(c))
        return out
    if kind == "mahler":  # sum c_m {x choose m}
        out = {}
        for m, c in enumerate(spec[1]):
            head = {(0, one): 1 / bracket_factorial(m, rho, q)}
            for j in range(m):
                head = ep_mul(head, ep_bracket_shift(j, rho, q))
            out = ep_add(out, head, one, Fraction(c))
        return out
    raise ValueError("unknown spec %r" % (spec,))


def geometric_moment(p: int, k: int, w: Fraction, K: int, prec: int) -> Approx:
    """sum_{x<K} x^k w^x for w in 1 + pZ_p, by closed forms.

    w = 1: Faulhaber through Bernoulli numbers.  Otherwise the recursion
    (w - 1) G_k = (K-1)^k w^K - (-1)^k + sum_{j<k} C(k,j) (-1)^(k-j) G_j,
    each division costing nu(w - 1) digits (the guard is added up front).
    """
    if w == 1:
        s = sum((comb(k + 1, j) * bernoulli(j) * Fraction(K) ** (k + 1 - j) for j in range(k + 1)), Fraction(0))
        return Approx(p, s / (k + 1), prec)
    d = w - 1
    work = prec + (k + 1) * vp(d, p)
    wK = unit_power(p, w, K, work)
    gs: list[Approx] = []
    for kk in range(k + 1):
        acc = wK.scale(Fraction(K - 1) ** kk) - Approx(p, (-1) ** kk, work)
        for j in range(kk):
            acc = acc + gs[j].scale(comb(kk, j) * (-1) ** (kk - j))
        gs.append(acc.scale(1 / d))
    return gs[k]


def _p_power_bracket(p: int, N: int, rho: Fraction, q: Fraction, prec: int) -> Approx:
    """[p^N] known mod p^prec (its valuation is N)."""
    K = p**N
    if rho == q:
        return unit_power(p, rho, K - 1, prec).scale(K)
    d = rho - q
    work = prec + vp(d, p)
    return (unit_power(p, rho, K, work) - unit_power(p, q, K, work)).scale(1 / d)


def level_value(f: ExpPoly, p: int, N: int, rho: Fraction, q: Fraction, prec: int) -> Approx:
    """A_N = rho^(p^N)/[p^N] * sum_{x<p^N} f(x) (q/rho)^x, known mod p^prec."""
    K = p**N
    t = q / rho
    guard = max((-vp(c, p) for c in f.values()), default=0) + 2 * N + 2
    work = prec + max(guard, 0)
    s = Approx(p, 0, work)
    for (k, b), c in f.items():
        s = s + geometric_moment(p, k, b * t, K, work).scale(c)
    out = unit_power(p, rho, K, work) * s / _p_power_bracket(p, N, rho, q, work)
    return Approx(p, out.val, min(out.prec, prec))


def classical_moment(p: int, k: int, w: Fraction, prec: int) -> Approx:
    """Classical Volkenborn integral of x^k w^x: sum_{m>=k} B_m s^(m-k)/(m-k)!."""
    if w == 1:
        return Approx(p, bernoulli(k), prec)
    vs = vp(w - 1, p)
    work = prec + 4
    s = padic_log(p, w, work)
    acc = Approx(p, 0, work)
    power = Approx(p, 1, work)
    j = 0
    while True:
        acc = acc + power.scale(bernoulli(k + j) / factorial(j))
        j += 1
        power = power * s
        # later terms: nu >= j vs - nu(j!) - 1 (von Staudt: nu(B_m) >= -1),
        # and nu(j!) <= (j - 1)/(p - 1) makes the bound increase with j
        if j * vs - (j - 1) // (p - 1) - 1 >= prec + 2:
            break
    return Approx(p, acc.val, min(acc.prec, prec))


def limit_value(f: ExpPoly, p: int, rho: Fraction, q: Fraction, prec: int) -> Approx:
    """The integral itself: kappa * sum c * (classical integral of x^k (b q/rho)^x)."""
    t = q / rho
    guard = max((-vp(c, p) for c in f.values()), default=0) + 4
    work = prec + max(guard, 0)
    if rho == q:
        kappa = Approx(p, rho, work)
    else:
        d = rho - q
        kappa = Approx(p, d, work + 4) / padic_log(p, rho / q, work + 2 * vp(d, p) + 4)
    acc = Approx(p, 0, work)
    for (k, b), c in f.items():
        acc = acc + classical_moment(p, k, b * t, work).scale(c)
    out = kappa * acc
    return Approx(p, out.val, min(out.prec, prec))


# ---------------------------------------------------------------------------
# measures and Mahler coefficients
# ---------------------------------------------------------------------------


def haar_ball(p: int, a: int, N: int, rho: Fraction, q: Fraction, prec: int) -> Approx:
    """mu(a + p^N Z_p) = rho^(p^N)/[p^N] * (q/rho)^a."""
    work = prec + 2 * N + 2
    num = unit_power(p, rho, p**N, work) * unit_power(p, q / rho, a, work)
    out = num / _p_power_bracket(p, N, rho, q, work)
    return Approx(p, out.val, min(out.prec, prec))


def rescaled_haar(p: int, x: int, N: int, rho: Fraction, q: Fraction, prec: int) -> Approx:
    """[p^N] mu(x mod p^N + p^N Z_p) = rho^(p^N) (q/rho)^(x mod p^N)."""
    return unit_power(p, rho, p**N, prec) * unit_power(p, q / rho, x % p**N, prec)


def stirling2(k: int, n: int) -> int:
    if k == n:
        return 1
    if n == 0 or n > k:
        return 0
    return n * stirling2(k - 1, n) + stirling2(k - 1, n - 1)


def classical_mahler(spec: tuple, n: int) -> Fraction:
    """Classical Mahler coefficient a_n: (t-1)^n for t^x, n! S(k,n) for x^k."""
    if spec[0] == "exp":
        return (Fraction(spec[1]) - 1) ** n
    if spec[0] == "xpow":
        return factorial(n) * stirling2(spec[1], n)
    raise ValueError("no classical Mahler closed form for %r" % (spec,))


# ---------------------------------------------------------------------------
# reading the program's output
# ---------------------------------------------------------------------------

_HEAD = re.compile(r"^O\((\d+)\^(-?\d+)\): (.*)$")
_SHIFT = re.compile(r"^(\d+)\^(-?\d+) \* \((.*)\)$")


def parse_digits(text: str, p: int) -> Approx:
    """Read the canonical digit string ("0", "O(p^a): 0", "O(p^A): d0 + d1*p ...")."""
    if text == "0":
        return Approx(p, 0, 10**9)
    m = _HEAD.match(text)
    if not m or int(m.group(1)) != p:
        raise ValueError("not a digit string: %r" % text)
    prec, body = int(m.group(2)), m.group(3)
    if body == "0":
        return Approx(p, 0, prec)
    shift = 0
    sm = _SHIFT.match(body)
    if sm:
        shift, body = int(sm.group(2)), sm.group(3)
    unit = 0
    for i, term in enumerate(body.split(" + ")):
        unit += int(term.split("*")[0]) * p**i
    return Approx(p, Fraction(unit) * Fraction(p) ** shift, prec)


# ---------------------------------------------------------------------------
# self-test against brute-force Fraction sums
# ---------------------------------------------------------------------------


def _brute_level(f: ExpPoly, p: int, N: int, rho: Fraction, q: Fraction) -> Fraction:
    K = p**N
    t = q / rho
    s = sum((ep_eval(f, x) * t**x for x in range(K)), Fraction(0))
    return rho**K / bracket(K, rho, q) * s


def selftest(p: int = 5) -> list[str]:
    """Cross-check every closed form against definitions; returns failures."""
    bad: list[str] = []
    regimes = {
        "deformed": (Fraction(1 + 3 * p), Fraction(1 + 7 * p)),
        "classical": (Fraction(1), Fraction(1)),
        "symmetric": (Fraction(1 + 2 * p), Fraction(1 + 2 * p)),
    }
    specs = [
        ("const", 1), ("xpow", 1), ("xpow", 3), ("bracket", 1), ("bracket", 3),
        ("qrho",), ("exp", 1 + 4 * p), ("mixed", 2, 2),
        ("product", (("xpow", 1), ("qrho",))),
        ("sum", (3, Fraction(1, 2)), (("xpow", 1), ("bracket", 2))),
        ("mahler", tuple(Fraction(p) ** m for m in range(5))),
    ]
    prec = 14
    for name, (rho, q) in regimes.items():
        for spec in specs:
            f = integrand(spec, rho, q)
            for x in range(4):  # the expansion reproduces the pointwise definition
                if ep_eval(f, x) != _pointwise(spec, x, rho, q):
                    bad.append("pointwise %s %s x=%d" % (name, spec, x))
            for N in (1, 2):
                want = _brute_level(f, p, N, rho, q)
                got = level_value(f, p, N, rho, q, prec)
                if got.agreement(Approx(p, want, prec)) < prec:
                    bad.append("level %s %s N=%d" % (name, spec, N))
            # the limit is what deep levels converge to
            lim = limit_value(f, p, rho, q, prec)
            deep = level_value(f, p, 30, rho, q, prec)
            if lim.agreement(deep) < prec - 4:
                bad.append("limit %s %s" % (name, spec))
        for a, N in ((2, 1), (7, 2)):  # reps below p^N
            want = rho ** (p**N) / bracket(p**N, rho, q) * (q / rho) ** a
            if haar_ball(p, a, N, rho, q, prec).agreement(Approx(p, want, prec)) < prec:
                bad.append("haar %s" % name)
            kids = sum((rho ** (p ** (N + 1)) / bracket(p ** (N + 1), rho, q) * (q / rho) ** (a + i * p**N) for i in range(p)), Fraction(0))
            if kids != want:
                bad.append("haar additivity %s" % name)
            if rescaled_haar(p, a, N, rho, q, prec).agreement(
                Approx(p, want * bracket(p**N, rho, q), prec)
            ) < prec:
                bad.append("rescaled haar %s" % name)
        for n in range(6):
            for k in range(n + 1):
                pascal = (
                    q**k * gauss_binomial(n - 1, k, rho, q)
                    + rho ** (n - k) * gauss_binomial(n - 1, k - 1, rho, q)
                    if n
                    else Fraction(1)
                )
                if gauss_binomial(n, k, rho, q) != pascal:
                    bad.append("gauss binomial %s (%d,%d)" % (name, n, k))
    if [bernoulli(m) for m in range(7)] != [1, Fraction(-1, 2), Fraction(1, 6), 0, Fraction(-1, 30), 0, Fraction(1, 42)]:
        bad.append("bernoulli numbers")
    t = Fraction(1 + 4 * p, 1 + 2 * p)
    if log_ratio(p, t, prec).agreement(classical_moment(p, 0, t, prec)) < prec:
        bad.append("log t/(t-1)")
    for spec in (("exp", t), ("xpow", 3)):
        diffs = [ep_eval(integrand(spec, Fraction(1), Fraction(1)), x) for x in range(6)]
        for n in range(6):
            if diffs[0] != classical_mahler(spec, n):
                bad.append("classical mahler %s n=%d" % (spec, n))
            diffs = [diffs[i + 1] - diffs[i] for i in range(len(diffs) - 1)]
    return bad


def _pointwise(spec: tuple, x: int, rho: Fraction, q: Fraction) -> Fraction:
    """Integrands evaluated straight from their definitions (brackets by summation)."""
    kind = spec[0]
    if kind == "const":
        return Fraction(spec[1])
    if kind == "xpow":
        return Fraction(x) ** spec[1]
    if kind == "bracket":
        return bracket(x, rho, q) ** spec[1]
    if kind == "exp":
        return Fraction(spec[1]) ** x
    if kind == "qrho":
        return (q / rho) ** x
    if kind == "mixed":
        return rho ** (spec[1] * x) * bracket(x, rho, q) ** spec[2]
    if kind == "product":
        out = Fraction(1)
        for part in spec[1]:
            out *= _pointwise(part, x, rho, q)
        return out
    if kind == "sum":
        return sum((Fraction(c) * _pointwise(part, x, rho, q) for c, part in zip(spec[1], spec[2])), Fraction(0))
    if kind == "mahler":
        return sum((Fraction(c) * gauss_binomial(x, m, rho, q) for m, c in enumerate(spec[1])), Fraction(0))
    raise ValueError(spec)
