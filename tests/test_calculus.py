from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rhoq.calculus import (
    RhoQParams,
    rhoq_binomial,
    rhoq_factorial,
    rhoq_integer,
    rhoq_power,
    vp_factorial,
)
from rhoq.padic import DomainError, PadicNumber, padic_from_integer

from .oracles import bracket, bracket_sum, bracket_sum_mod, gauss_binomial_pascal, rat_mod


def params(p=5, rho_k=1, q_k=2, prec=12):
    return RhoQParams.from_offsets(p, rho_k, q_k, prec)


class TestParams:
    def test_validates_disc(self):
        with pytest.raises(DomainError):
            RhoQParams.from_units(5, 2, 1)  # 2 is not in 1 + 5Z_5

    def test_units_required(self):
        with pytest.raises(DomainError):
            RhoQParams.from_units(5, Fraction(1, 5), 1)

    def test_lift_composes(self):
        pr = params()
        assert pr.lifted(2).lifted(3) == pr.lifted(5)

    def test_lifted_residue_is_tower_power(self):
        pr = params()
        w = 8
        mod = 5**w
        assert pr.lifted(2).rho_residue(w) == pow(pr.rho_residue(w), 5**2, mod)

    def test_finite_digit_params_cap_headroom(self):
        pr = RhoQParams.from_residues(5, 6, 11, precision=6)
        from rhoq.padic import PrecisionError

        with pytest.raises(PrecisionError):
            pr.rho_residue(9)


class TestQNumber:
    """The q-number [n]_q = (1 - q^n)/(1 - q) is [n] at rho = 1."""

    def test_limit_q_to_one(self):
        assert rhoq_integer(5, RhoQParams.classical(5, 8), 8).residue(8) == 5

    def test_zero(self):
        assert rhoq_integer(0, RhoQParams.from_units(5, 1, 6, 8), 8).is_exact_zero

    def test_closed_form_sum(self):
        pr = RhoQParams.from_units(5, 1, 6, 4)
        assert rhoq_integer(3, pr, 4).residue(4) == (1 + 6 + 36) % 5**4  # = 43


class TestDeformedInteger:
    def test_classical_limit(self):
        pr = RhoQParams.classical(5, 8)
        for n in (0, 1, 2, 17, 125):
            x = rhoq_integer(n, pr)
            if n == 0:
                assert x.is_exact_zero
            else:
                assert x.residue(8) == n % 5**8

    def test_rho_side_sum(self):
        pr = RhoQParams.from_units(5, 6, 1, 8)
        assert rhoq_integer(3, pr).residue(8) == 36 + 6 + 1

    @settings(max_examples=40)
    @given(
        st.integers(min_value=0, max_value=200),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=6),
    )
    def test_symmetry(self, n, i, j):
        a = RhoQParams.from_offsets(5, i, j, 10)
        b = RhoQParams.from_offsets(5, j, i, 10)
        assert rhoq_integer(n, a).agrees(rhoq_integer(n, b))

    @settings(max_examples=40)
    @given(st.integers(min_value=0, max_value=60), st.integers(min_value=0, max_value=60))
    def test_splitting_identity(self, m, n):
        # [m+n] = q^n [m] + rho^m [n]
        pr = params(prec=10)
        lhs = rhoq_integer(m + n, pr)
        q_n = rhoq_power(pr.q, n)
        rho_m = rhoq_power(pr.rho, m)
        rhs = q_n * rhoq_integer(m, pr) + rho_m * rhoq_integer(n, pr)
        assert lhs.agrees(rhs)

    def test_matches_exact_rational_oracle(self):
        pr = params(prec=10)
        for n in (1, 2, 3, 7, 26):
            expected = rat_mod(bracket_sum(n, Fraction(6), Fraction(11)), 5, 10)
            assert rhoq_integer(n, pr).residue(10) == expected

    @pytest.mark.parametrize("p,maxN", [(3, 5), (5, 4), (7, 3)])
    def test_p_power_valuation(self, p, maxN):
        pr = RhoQParams.from_offsets(p, 1, 2, maxN + 6)
        for N in range(1, maxN + 1):
            assert rhoq_integer(p**N, pr).valuation == N

    @pytest.mark.parametrize("N", [0, 1, 2, 3])
    def test_tower_identity(self, N):
        # [p^(N+1)] = [p] at lifted parameters times [p^N]
        pr = params(prec=12)
        lhs = rhoq_integer(5 ** (N + 1), pr)
        rhs = rhoq_integer(5, pr.lifted(N)) * rhoq_integer(5**N, pr)
        assert lhs.agrees(rhs)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_lifted_p_power_matches_definition(self, p):
        # [p^N] at (rho^(p^t), q^(p^t)), the bracket the restriction identity
        # divides by, against the exact rational [p^N] reduced mod p^w
        pairs = [
            (Fraction(1 + p), Fraction(1 + 2 * p, 1 + p)),  # deformed
            (Fraction(1), Fraction(1)),  # classical
            (Fraction(1 + 3 * p), Fraction(1 + 3 * p)),  # rho = q
            (Fraction(1 + p), Fraction(1 + p + p**3)),  # ν(rho - q) = 3
        ]
        for rho, q in pairs:
            pr = RhoQParams.from_units(p, rho, q, 12)
            for t in range(3):
                for N in range(5):
                    exact = bracket(p**N, rho ** (p**t), q ** (p**t))
                    for w in sorted({1, N, N + 1, 8} - {0}):
                        got = rhoq_integer(p**N, pr.lifted(t), w)
                        if w <= N:  # ν([p^N]) = N: nothing but a bounded zero is known
                            assert got.is_zero_residue and not got.is_exact_zero
                            assert got.abs_precision == w
                        else:
                            assert got.valuation == N
                            assert got.residue(w) == rat_mod(exact, p, w)


class TestBinarySplitting:
    @settings(max_examples=60)
    @given(
        st.integers(min_value=0, max_value=4999),
        st.sampled_from([3, 5, 7]),
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=0, max_value=40),
        st.booleans(),
        st.integers(min_value=1, max_value=16),
    )
    def test_matches_summation_definition(self, n, p, rho_k, q_k, symmetric, prec):
        # O(log n) binary splitting against the O(n) sum rho^i q^(n-1-i)
        rho, q = Fraction(1 + rho_k * p), Fraction(1 + q_k * p, 1 + p)
        if symmetric:
            q = rho
        pr = RhoQParams.from_units(p, rho, q, prec)
        got = rhoq_integer(n, pr)
        if n == 0:
            assert got.is_exact_zero
        else:
            assert got.residue(prec) == bracket_sum_mod(n, rho, q, p, prec)


class TestMemoTables:
    def test_factorial_has_no_recursion_cliff(self):
        pr = RhoQParams.from_offsets(5, 1, 2)
        f = rhoq_factorial(3000, pr)
        assert f.valuation == vp_factorial(3000, 5)
        assert f.digits == 12 - 4  # 5^4 = 625 is the deepest factor
        assert f.agrees(rhoq_factorial(2999, pr) * rhoq_integer(3000, pr))

    def test_tables_are_bounded(self):
        from rhoq import integration

        tables = [integration._moment_table, integration._level_factors]
        assert all(t.cache_info().maxsize == integration.MEMO_SIZE for t in tables)
        f = integration.coordinate()
        for k in range(integration.MEMO_SIZE + 10):
            integration.progression_sums(f, RhoQParams.from_offsets(5, k, 1, 4), 1, 0, 1, 4)
        assert integration._moment_table.cache_info().currsize == integration.MEMO_SIZE


class TestFactorialBinomial:
    def test_classical_binomial(self):
        pr = RhoQParams.classical(5, 10)
        assert rhoq_binomial(4, 2, pr).residue(10) == 6

    def test_k_zero(self):
        pr = params()
        for n in (0, 1, 9):
            assert rhoq_binomial(n, 0, pr).residue(8) == 1

    def test_k_above_n_is_zero(self):
        pr = params()
        assert rhoq_binomial(3, 5, pr).is_exact_zero

    def test_q_pascal_oracle(self):
        # rho = 1 reduces to the q-binomial; check against the Pascal recurrence
        q = Fraction(11)
        pr = RhoQParams.from_units(5, 1, q, 10)
        for n in range(0, 9):
            for k in range(0, n + 1):
                expected = rat_mod(gauss_binomial_pascal(n, k, q), 5, 8)
                assert rhoq_binomial(n, k, pr).residue(8) == expected

    def test_integrality(self):
        # Gaussian binomials stay p-adically integral on 1 + pZ_p
        pr = params(prec=10)
        for n in range(0, 26, 5):
            for k in range(0, n + 1, 3):
                b = rhoq_binomial(n, k, pr)
                if not b.is_zero_residue:
                    assert b.valuation >= 0

    def test_factorial_cached_consistent(self):
        pr = params(prec=10)
        f5 = rhoq_factorial(5, pr)
        prod = PadicNumber.one(5, 10)
        for j in range(1, 6):
            prod = prod * rhoq_integer(j, pr)
        assert f5.agrees(prod)


class TestPower:
    def test_power_zero(self):
        pr = params()
        assert rhoq_power(pr.rho, 0).residue(8) == 1

    def test_small_integer_matches_mul(self):
        pr = params()
        b = pr.rho
        acc = PadicNumber.one(5, 12)
        for n in range(1, 6):
            acc = acc * b
            assert rhoq_power(b, n).agrees(acc)

    def test_negative_exponent_is_inverse(self):
        b = padic_from_integer(6, 5, 3)
        r = rhoq_power(b, -1)
        assert r.residue(3) * 6 % 125 == 1

    def test_exponent_reduction_well_defined(self):
        b = padic_from_integer(6, 5, 6)
        m = 6
        for x in (3, 17, 121):
            a = rhoq_power(b, x, m)
            bb = rhoq_power(b, x + 5**m * 7, m)
            assert a.agrees(bb, m)

    def test_reduction_rule_has_one_digit_of_slack(self):
        # the sharp rule reduces exponents mod p^(m-1); we reduce mod p^m
        b = padic_from_integer(6, 5, 8)
        m = 6
        for x in (0, 3, 44):
            sharp = rhoq_power(b, x + 5 ** (m - 1), m)
            assert rhoq_power(b, x, m).agrees(sharp, m)

    def test_padic_exponent(self):
        b = padic_from_integer(6, 5, 6)
        e = padic_from_integer(13, 5, 6)
        assert rhoq_power(b, e).agrees(rhoq_power(b, 13))

    def test_base_outside_disc(self):
        with pytest.raises(DomainError):
            rhoq_power(padic_from_integer(2, 5, 4), 3)
