"""Tests for the closed-form prediction module.

Frozen reference values were produced by independent oracles:

* poisson_tail / density evolution: 40-digit mpmath evaluation of the
  literal series 1 - exp(-lam) * sum(lam^i / i!) and of the recursion,
* error floor: exact Fraction / big-integer arithmetic,
* Q^{-1}: bisection against mpmath quadrature of the Gaussian tail.

All inputs are binary-exact floats so the frozen values are stable.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from gpcdec.bch import ComponentCodeSpec
from gpcdec.analysis import (
    DeModel,
    FloorModel,
    de_crossing_p,
    de_product_model,
    de_staircase_model,
    density_evolution,
    error_floor,
    error_floor_log10,
    miscorrection_probability,
    ncg,
    poisson_tail,
    pp_floor_model,
    qfunc_inv,
    stall_floor_model,
)


class TestPoissonTail:
    FROZEN = [
        (2, 1.0, 0.264241117657115357),
        (1, 0.7, 0.503414696208590463),
        (3, 2.5, 0.456186884116670482),
        (4, 0.03125, 3.87558394334980921e-8),
    ]

    def test_frozen_values(self):
        for t, lam, want in self.FROZEN:
            assert poisson_tail(t, lam) == pytest.approx(want, rel=1e-12)

    def test_zero_lambda(self):
        for t in range(1, 5):
            assert poisson_tail(t, 0.0) == 0.0

    def test_t1_closed_form(self):
        for lam in (0.25, 1.0, 3.5):
            assert poisson_tail(1, lam) == pytest.approx(-math.expm1(-lam),
                                                         rel=1e-14)

    def test_tiny_lambda_keeps_precision(self):
        # the literal series cancels catastrophically here; the gamma form
        # must not
        assert poisson_tail(2, 1e-9) == pytest.approx(4.99999999666666729e-19,
                                                      rel=1e-9)

    def test_monotonicity(self):
        grid = np.linspace(0.0, 6.0, 25)
        vals = [poisson_tail(2, g) for g in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        for lam in (0.5, 2.0):
            assert poisson_tail(3, lam) < poisson_tail(2, lam)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            poisson_tail(0, 1.0)
        with pytest.raises(ValueError):
            poisson_tail(2, -0.1)
        with pytest.raises(ValueError, match="lambda"):
            poisson_tail(2, math.nan)

    def test_integer_t_only(self):
        # P(X >= 2.5) is P(X >= 3), not the incomplete gamma at shape 2.5,
        # so a float t is refused rather than read as a shape
        for t in (2.5, 3.0):
            with pytest.raises(TypeError):
                poisson_tail(t, 1.0)
        assert poisson_tail(3, 1.0) == pytest.approx(1 - 2.5 / math.e, rel=1e-12)
        assert poisson_tail(np.int64(3), 1.0) == poisson_tail(3, 1.0)
        # a DeModel refuses the float t at construction, before any run
        with pytest.raises(TypeError):
            DeModel(2, np.array([[0, 1], [1, 0]]), np.array([[0, 1], [1, 0]]),
                    ((1,), (2,)), 128, 2.5)


class TestDeModels:
    def test_product_model(self):
        m = de_product_model(ComponentCodeSpec(7, 2, 1, 0))
        assert m.num_types == 2
        assert np.array_equal(m.eta, [[0, 1], [1, 0]])
        assert np.array_equal(m.coupling, m.eta)
        assert m.schedule == ((1,), (2,))
        assert (m.n, m.t) == (128, 2)

    def test_staircase_model_tridiagonal(self):
        m = de_staircase_model(ComponentCodeSpec(4, 2, 1, 0), 6)
        want = np.zeros((6, 6))
        for i in range(5):
            want[i, i + 1] = want[i + 1, i] = 1
        assert np.array_equal(m.eta, want)
        assert np.array_equal(m.coupling, want / 2)
        assert m.schedule == ((1,), (2,), (3,), (4,), (5,), (6,))

    def test_model_validation(self):
        with pytest.raises(ValueError):
            de_staircase_model(ComponentCodeSpec(4, 2, 1, 0), 1)
        eta = np.array([[0.0, 1.0], [0.0, 0.0]])  # asymmetric
        with pytest.raises(ValueError):
            DeModel(2, eta, eta, ((1,),), 15, 2)
        eta2 = np.eye(2)  # nonzero diagonal
        with pytest.raises(ValueError):
            DeModel(2, eta2, eta2, ((1,),), 15, 2)
        eta3 = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            DeModel(2, eta3, eta3, ((3,),), 15, 2)

    def test_coupling_must_match_the_types(self):
        eta = np.array([[0.0, 1.0], [1.0, 0.0]])
        for coupling in (np.ones((3, 3)), np.ones(2), np.ones((2, 3))):
            with pytest.raises(ValueError, match="coupling must be L x L"):
                DeModel(2, eta, coupling, ((1,), (2,)), 15, 2)

    def test_n_and_t_must_be_positive_integers(self):
        eta = np.array([[0.0, 1.0], [1.0, 0.0]])
        for n, t in ((15.0, 2), (15, 2.5), (15, 2.0)):
            with pytest.raises(TypeError):
                DeModel(2, eta, eta, ((1,), (2,)), n, t)
        for n, t, what in ((0, 2, "n"), (-15, 2, "n"), (15, 0, "t"), (15, -1, "t")):
            with pytest.raises(ValueError, match=f"{what} must be >= 1"):
                DeModel(2, eta, eta, ((1,), (2,)), n, t)
        m = DeModel(2, eta, eta, ((1,), (2,)), np.int64(128), np.int64(2))
        assert density_evolution(m, 0.0262, 10) == density_evolution(
            de_product_model(ComponentCodeSpec(7, 2, 1, 0)), 0.0262, 10)


class TestDensityEvolution:
    def test_p_zero(self):
        m = de_product_model(ComponentCodeSpec(7, 2, 1, 0))
        assert density_evolution(m, 0.0, 5) == 0.0

    def test_frozen_product_points(self):
        m = de_product_model(ComponentCodeSpec(7, 2, 1, 0))
        assert density_evolution(m, 0.0262, 10) == pytest.approx(
            0.0092020831127502967, rel=1e-9)
        assert density_evolution(m, 0.03, 10) == pytest.approx(
            0.020375981428465232, rel=1e-9)
        m3 = de_product_model(ComponentCodeSpec(8, 3, 1, 0))
        assert density_evolution(m3, 0.05, 6) == pytest.approx(
            0.049973500564216155, rel=1e-9)

    def test_frozen_chain_points(self):
        m = de_staircase_model(ComponentCodeSpec(4, 2, 1, 0), 6)
        assert density_evolution(m, 0.05, 4) == pytest.approx(
            1.1203994536012723e-36, rel=1e-6)
        assert density_evolution(m, 0.12, 4) == pytest.approx(
            1.1337530106273921e-13, rel=1e-6)

    def test_monotone_in_p(self):
        m = de_product_model(ComponentCodeSpec(7, 2, 1, 0))
        grid = np.linspace(0.001, 0.2, 30)
        vals = [density_evolution(m, float(p), 4) for p in grid]
        assert all(b >= a - 1e-300 for a, b in zip(vals, vals[1:]))

    def test_more_iterations_never_hurt(self):
        m = de_product_model(ComponentCodeSpec(7, 2, 1, 0))
        for p in (0.02, 0.0262, 0.04):
            assert density_evolution(m, p, 12) <= density_evolution(m, p, 3) + 1e-300

    def test_crossing_search(self):
        m = de_product_model(ComponentCodeSpec(7, 2, 1, 0))
        p = de_crossing_p(m, 10, 1e-3)
        assert 0.02 < p < 0.03
        assert density_evolution(m, p, 10) == pytest.approx(1e-3, rel=0.02)
        with pytest.raises(ValueError):
            de_crossing_p(m, 10, 1e-3, p_hi=0.01)

    def test_crossing_refuses_a_target_outside_the_unit_interval(self):
        m = de_product_model(ComponentCodeSpec(7, 2, 1, 0))
        for target in (math.nan, 0.0, 1.0, -1e-3, math.inf):
            with pytest.raises(ValueError, match="target BER must be in"):
                de_crossing_p(m, 10, target)

    def test_crossing_refuses_a_tolerance_it_cannot_meet(self):
        m = de_product_model(ComponentCodeSpec(7, 2, 1, 0))
        for tol in (0.0, -1e-7, math.nan, math.inf):
            with pytest.raises(ValueError, match="tol must be finite"):
                de_crossing_p(m, 10, 1e-3, tol=tol)

    def test_crossing_stops_at_adjacent_floats(self):
        # a tol below the float spacing at p* cannot be met; bisection
        # ends when no midpoint is left between lo and hi
        m = de_product_model(ComponentCodeSpec(7, 2, 1, 0))
        coarse = de_crossing_p(m, 10, 1e-3)
        for tol in (1e-300, 5e-324):
            p = de_crossing_p(m, 10, 1e-3, tol=tol)
            assert abs(p - coarse) < 1e-7
            assert density_evolution(m, p, 10) == pytest.approx(1e-3, rel=1e-6)

    def test_domain_errors(self):
        m = de_product_model(ComponentCodeSpec(7, 2, 1, 0))
        with pytest.raises(ValueError):
            density_evolution(m, -0.1, 5)
        with pytest.raises(ValueError):
            density_evolution(m, 0.01, 0)


def reference_density_evolution(model, p, ell):
    """density_evolution without its stop at a fixed point: every one of
    the ell iterations runs."""
    x = np.ones(model.num_types)
    for _ in range(ell):
        for active in model.schedule:
            lam = p * model.n * (model.coupling @ x)
            for i in active:
                x[i - 1] = poisson_tail(model.t, lam[i - 1])
    return p * float(x @ model.eta @ x) / float(model.eta.sum())


class TestDensityEvolutionFixedPoint:
    """density_evolution stops once an iteration leaves x bit-identical,
    which changes no output."""

    MODELS = {
        "product": lambda: de_product_model(ComponentCodeSpec(7, 2, 1, 0)),
        "staircase": lambda: de_staircase_model(ComponentCodeSpec(7, 2, 1, 0), 11),
    }

    @pytest.mark.parametrize("kind", sorted(MODELS))
    def test_equals_every_iteration_run(self, kind):
        m = self.MODELS[kind]()
        for p in (0.01, 0.02, 0.0262, 0.05, 0.3):
            for ell in (1, 2, 5, 70):
                assert density_evolution(m, p, ell) == reference_density_evolution(m, p, ell)

    @pytest.mark.parametrize("kind", sorted(MODELS))
    def test_huge_ell_returns_the_fixed_point(self, kind, monkeypatch):
        import gpcdec.analysis

        m = self.MODELS[kind]()
        calls = []
        tail = gpcdec.analysis.poisson_tail
        monkeypatch.setattr(gpcdec.analysis, "poisson_tail",
                            lambda t, lam: calls.append(1) or tail(t, lam))
        for p in (0.01, 0.02, 0.0262, 0.05, 0.3):
            assert density_evolution(m, p, 10**8) == density_evolution(m, p, 1000)
        # at most 100 iterations per call, each one poisson_tail per type
        assert len(calls) <= 10 * 100 * m.num_types

    def test_ell_must_be_an_integer(self):
        m = self.MODELS["product"]()
        for ell in (2.0, 2.5):
            with pytest.raises(TypeError):
                density_evolution(m, 0.02, ell)
        assert density_evolution(m, 0.02, np.int64(4)) == density_evolution(m, 0.02, 4)


class TestErrorFloor:
    def test_base_model_counts(self):
        fm = stall_floor_model(128, 2)
        assert fm.s_min == 9
        assert fm.multiplicity == math.comb(128, 3) ** 2
        assert math.comb(128, 3) == 341376

    def test_twelve_digit_agreement_with_exact_oracle(self):
        fm = stall_floor_model(128, 2)
        got = error_floor(fm, 1e-2)
        oracle = Fraction(9, 128 * 128) * 341376**2 * Fraction(1, 10**2) ** 9
        want = oracle.numerator / oracle.denominator
        assert abs(got - want) / want < 1e-12
        assert got == pytest.approx(6.4016001e-11, rel=1e-7)

    def test_loglog_slope_equals_s_min(self):
        fm = stall_floor_model(128, 2)
        lg1 = error_floor_log10(fm, 1e-3)
        lg2 = error_floor_log10(fm, 2e-3)
        slope = (lg2 - lg1) / (math.log10(2e-3) - math.log10(1e-3))
        assert abs(slope - 9) < 1e-6

    def test_pp_model(self):
        fm = pp_floor_model(195)
        assert fm.s_min == 18
        assert fm.multiplicity == 1483704816877571204933120000
        assert fm.multiplicity == 297200 * math.comb(195, 6) ** 2
        assert error_floor(fm, 1e-2) == pytest.approx(7.023454754450041e-13,
                                                      rel=1e-12)
        lg1 = error_floor_log10(fm, 1e-3)
        lg2 = error_floor_log10(fm, 1e-2)
        assert (lg2 - lg1) == pytest.approx(18.0, abs=1e-9)

    def test_log_space_survives_underflow(self):
        fm = stall_floor_model(128, 2)
        assert error_floor(fm, 1e-40) == 0.0  # honest double underflow
        lg = error_floor_log10(fm, 1e-40)
        assert lg == pytest.approx(error_floor_log10(fm, 1e-2) - 9 * 38, rel=1e-12)

    def test_domain(self):
        fm = stall_floor_model(128, 2)
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                error_floor(fm, bad)

    def test_floor_model_fields_checked_at_construction(self):
        assert FloorModel(128, 2, 9, 1).s_min == 9
        for field in range(4):
            for bad, exc in ((0, ValueError), (-1, ValueError), (2.5, TypeError),
                             (3.0, TypeError)):
                args = [128, 2, 9, 1]
                args[field] = bad
                with pytest.raises(exc):
                    FloorModel(*args)

    def test_grid_larger_than_the_code_refused(self):
        # a (t+1) x (t+1) grid needs t + 1 rows; comb(n, t+1) would be 0
        for n, t in ((3, 5), (0, 2), (2, 2)):
            with pytest.raises(ValueError, match=r"t \+ 1 <= n"):
                stall_floor_model(n, t)
        for n, t in ((128, 0), (128, -1)):
            with pytest.raises(ValueError, match="t must be >= 1"):
                stall_floor_model(n, t)
        assert stall_floor_model(3, 2).multiplicity == 1
        assert error_floor_log10(stall_floor_model(3, 2), 0.1) == pytest.approx(-9.0)
        with pytest.raises(ValueError, match="n >= 6"):
            pp_floor_model(5)
        assert pp_floor_model(6).multiplicity == 297200


class TestMiscorrectionProbability:
    def test_exact_values(self):
        assert miscorrection_probability(ComponentCodeSpec(7, 2, 0, 0)) == \
            Fraction(8129, 16384)
        assert miscorrection_probability(ComponentCodeSpec(4, 2, 0, 0)) == \
            Fraction(121, 256)

    def test_matches_exhaustive_decodable_count(self):
        # the numerator is exactly the number of decodable syndromes,
        # which can be counted by brute force for the (15, 7) code
        # through the dense decode table and through the algebraic solver
        code = ComponentCodeSpec(4, 2, 0, 0)
        mp = miscorrection_probability(code)
        for decode in (code.decode_packed, code._decode_algebraic):
            decodable = sum(decode(s, 2) is not None for s in range(2**8))
            assert mp == Fraction(decodable, 2**8), decode.__name__

    def test_extension_halves_probability(self):
        base = miscorrection_probability(ComponentCodeSpec(7, 2, 0, 0))
        ext1 = miscorrection_probability(ComponentCodeSpec(7, 2, 1, 0))
        ext2 = miscorrection_probability(ComponentCodeSpec(7, 2, 2, 0))
        num127 = sum(math.comb(127, i) for i in range(3))
        num128 = sum(math.comb(128, i) for i in range(3))
        num129 = sum(math.comb(129, i) for i in range(3))
        assert ext1 / base == Fraction(num128, 2 * num127)
        assert ext2 / ext1 == Fraction(num129, 2 * num128)
        # the numerator drift is tiny, so the net effect is ~1/2 per bit
        assert 0.49 < float(ext1 / base) < 0.52
        assert 0.49 < float(ext2 / ext1) < 0.52

    def test_shortening_uses_short_length_only_in_numerator(self):
        short = miscorrection_probability(ComponentCodeSpec(8, 2, 1, 61))
        num = sum(math.comb(195, i) for i in range(3))
        assert short == Fraction(num, 2**17)

    def test_asymptotic_inverse_factorial(self):
        for nu in (8, 10):
            val = float(miscorrection_probability(ComponentCodeSpec(nu, 3, 0, 0)))
            assert abs(val - 1 / 6) / (1 / 6) < 0.05


class TestNcg:
    def test_frozen_oracle_values(self):
        assert ncg(0.78, 1.31e-2, 1e-8) == pytest.approx(6.96359622257, rel=1e-9)
        assert ncg(0.78, 1.69e-2, 1e-8) == pytest.approx(7.3665534371, rel=1e-9)

    def test_published_operating_points(self):
        assert abs(ncg(0.78, 1.31e-2, 1e-8) - 6.96) < 0.02
        assert abs(ncg(0.78, 1.69e-2, 1e-8) - 7.37) < 0.02
        gain = ncg(0.78, 1.69e-2, 1e-8) - ncg(0.78, 1.31e-2, 1e-8)
        assert abs(gain - 0.4) < 0.01

    def test_equal_rates_leave_rate_penalty(self):
        assert ncg(0.78, 0.01, 0.01) == pytest.approx(10 * math.log10(0.78),
                                                      rel=1e-12)
        assert ncg(0.78, 0.01, 0.01) < 0

    def test_qinv_frozen_quadrature_points(self):
        for y, want in [(1e-8, 5.61200124417479), (0.0131, 2.22323437551185),
                        (0.0169, 2.12244960934103), (0.25, 0.674489750196082)]:
            assert qfunc_inv(y) == pytest.approx(want, rel=1e-9)

    def test_qinv_against_quadrature_grid(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 25
        ys = np.logspace(-12, math.log10(0.4), 50)
        for y in ys:
            x = qfunc_inv(float(y))
            q = mp.quad(lambda u: mp.e ** (-u * u / 2) / mp.sqrt(2 * mp.pi),
                        [x, mp.inf])
            assert abs(float(q) - y) / y < 1e-8

    def test_domain_errors(self):
        for args in [(0.0, 0.01, 1e-8), (1.0, 0.01, 1e-8),
                     (0.78, 0.6, 1e-8), (0.78, 0.01, 0.02),
                     (0.78, 0.01, 0.0)]:
            with pytest.raises(ValueError):
                ncg(*args)
        with pytest.raises(ValueError):
            qfunc_inv(0.0)
        with pytest.raises(ValueError):
            qfunc_inv(1.0)


class TestCrossings:
    def test_floor_crosses_waterfall(self):
        # the floor estimate overtakes the waterfall prediction somewhere
        # in the transition region and only there
        m = de_product_model(ComponentCodeSpec(7, 2, 1, 0))
        fm = stall_floor_model(128, 2)
        lo, hi = 0.005, 0.04
        assert density_evolution(m, lo, 10) < error_floor(fm, lo)
        assert density_evolution(m, hi, 10) > error_floor(fm, hi)
