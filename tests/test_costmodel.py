"""Time-cost models: closed forms, double-sum agreement, scaling claims."""

import math
import sys
import threading
from fractions import Fraction

import pytest

from spinqft import costmodel


class TestCouplingIdentity:
    @pytest.mark.parametrize("n", range(1, 21))
    def test_exact_rational_identity(self, n):
        # sum_{j=0}^{n-1} sum_{k=j+1}^{n} 2^{j-k} = n - 1 + 2^{-n}, exactly
        assert costmodel.coupling_sum_exact(n) == Fraction(n - 1) + Fraction(1, 2 ** n)

    @pytest.mark.parametrize("n", range(1, 31))
    def test_closed_form_vs_double_sum(self, n):
        p = costmodel.LiquidParams()
        closed = costmodel.t_serial_liquid(n, p).coupling_term
        direct = p.kappa * sum(2.0 ** (j - k) for j in range(n) for k in range(j + 1, n + 1))
        assert abs(closed - direct) <= 1e-12 * closed


def j_major_double_sum(n):
    return sum(2.0 ** (j - k) for j in range(n) for k in range(j + 1, n + 1))


class TestDirectSums:
    """The column-by-column direct sums behind every closed-form check."""

    def test_match_the_literal_double_sum(self, monkeypatch):
        monkeypatch.setattr(costmodel, "_direct_sums", [0.0])
        for n in range(1, 401):
            literal = j_major_double_sum(n)
            assert abs(costmodel._direct_sum(n) - literal) <= 1e-15 * literal, n

    def test_a_poisoned_sum_fails_the_check_from_its_n_up(self, monkeypatch):
        sums = [0.0]
        monkeypatch.setattr(costmodel, "_direct_sums", sums)
        liquid = costmodel.LiquidParams()
        solid = costmodel.SolidParams(delta=1e-8, d=2e7, Delta=1e-7)
        costmodel.sweep("liquid", liquid, range(1, 11))
        sums[10] *= 1 + 1e-9
        costmodel.t_serial_liquid(9, liquid)
        costmodel.t_serial_solid(9, solid)
        for fn, params in ((costmodel.t_serial_liquid, liquid),
                           (costmodel.t_serial_solid, solid)):
            for n in (10, 11, 30):
                with pytest.raises(ArithmeticError, match=f"n={n}"):
                    fn(n, params)

    def test_concurrent_sweeps_build_the_same_sums(self, monkeypatch):
        monkeypatch.setattr(costmodel, "_direct_sums", [0.0])
        p = costmodel.LiquidParams()
        errors = []

        def work(top):
            try:
                for n in range(1, top + 1):
                    costmodel.t_serial_liquid(n, p)
            except ArithmeticError as exc:
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(150 + 7 * i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        built = costmodel._direct_sums
        monkeypatch.setattr(costmodel, "_direct_sums", [0.0])
        costmodel._direct_sum(len(built) - 1)
        assert built == costmodel._direct_sums


class TestLiquid:
    def test_n2_reference_values(self):
        p = costmodel.LiquidParams(delta=10e-6, J=215.0)
        row = costmodel.t_serial_liquid(2, p)
        # double sum at n=2: 1/2 + 1/4 + 1/2 = 5/4
        assert row.coupling_term == pytest.approx((math.pi / 215.0) * 1.25, rel=1e-12)
        assert row.coupling_term == pytest.approx(18.265e-3, abs=1e-5)
        assert row.pulse_term == pytest.approx(20e-6, rel=1e-12)
        assert row.total == pytest.approx(18.285e-3, abs=1e-5)

    def test_n1_keeps_half_kappa(self):
        # closed form at n=1 gives kappa/2 even though one qubit needs no coupling
        p = costmodel.LiquidParams()
        assert costmodel.t_serial_liquid(1, p).coupling_term == pytest.approx(p.kappa / 2)

    def test_per_qubit_cost_approaches_delta_plus_kappa(self):
        # total/n = delta + kappa*(1 - (1 - 2**-n)/n): bounded by delta+kappa
        # and increasing toward it
        p = costmodel.LiquidParams()
        per_qubit = [costmodel.t_serial_liquid(n, p).total / n for n in range(2, 31)]
        assert all(b > a for a, b in zip(per_qubit, per_qubit[1:]))
        assert all(t < p.delta + p.kappa for t in per_qubit)
        assert per_qubit[-1] == pytest.approx(p.delta + p.kappa, rel=0.04)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            costmodel.LiquidParams(J=0.0)
        with pytest.raises(ValueError):
            costmodel.LiquidParams(delta=-1e-6)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameters_rejected(self, bad):
        for make in (lambda: costmodel.LiquidParams(J=bad),
                     lambda: costmodel.LiquidParams(delta=bad),
                     lambda: costmodel.SolidParams(delta=bad, d=2e7, Delta=1e-7),
                     lambda: costmodel.SolidParams(delta=1e-8, d=2e7, Delta=bad)):
            with pytest.raises(ValueError, match="finite"):
                make()

    def test_coupling_too_weak_for_a_finite_kappa_rejected(self):
        with pytest.raises(ValueError, match="not finite"):
            costmodel.LiquidParams(J=1e-320)

    def test_overflowing_coupling_time_rejected(self):
        p = costmodel.LiquidParams(J=1e-307)  # kappa about 3e307
        costmodel.t_serial_liquid(2, p)
        with pytest.raises(ValueError, match="overflows at n=7"):
            costmodel.sweep("liquid", p, range(1, 11))

    def test_overflowing_pulse_term_rejected(self):
        with pytest.raises(ValueError, match="not finite"):
            costmodel.t_serial_liquid(2, costmodel.LiquidParams(delta=1e308))


class TestParallel:
    def test_n2_equals_kappa(self):
        p = costmodel.LiquidParams(J=215.0)
        row = costmodel.t_parallel(2, p)
        assert row.total == pytest.approx(math.pi / 215.0, rel=1e-12)
        assert row.total == pytest.approx(14.61e-3, abs=1e-5)
        assert row.pulse_term == 0.0 and row.swap_term == 0.0

    def test_n4_is_two_kappa(self):
        p = costmodel.LiquidParams()
        assert costmodel.t_parallel(4, p).total == pytest.approx(2 * p.kappa, rel=1e-15)

    def test_coupling_ratio_converges_to_two(self):
        # ratio = 2 - 2*(1 - 2**-n)/n: monotone increasing toward 2,
        # within 10% by n = 10 and within 1% once n reaches the hundreds
        p = costmodel.LiquidParams()
        ratios = [costmodel.t_serial_liquid(n, p).coupling_term
                  / costmodel.t_parallel(n, p).coupling_term for n in range(2, 41)]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        assert all(r < 2.0 for r in ratios)
        assert abs(ratios[8] - 2.0) < 0.2  # n = 10
        big = (costmodel.t_serial_liquid(400, p).coupling_term
               / costmodel.t_parallel(400, p).coupling_term)
        assert abs(big - 2.0) < 0.02


class TestSolid:
    def test_swap_term_linear(self):
        p = costmodel.SolidParams(delta=10e-9, d=1e7, Delta=100e-9)
        for n in (1, 2, 5):
            assert costmodel.t_serial_solid(2 * n, p).swap_term == pytest.approx(
                2 * costmodel.t_serial_solid(n, p).swap_term, rel=1e-15)

    def test_zero_swap_reduces_to_liquid_structure(self):
        p = costmodel.SolidParams(delta=10e-9, d=1e7, Delta=0.0)
        row = costmodel.t_serial_solid(3, p)
        assert row.swap_term == 0.0
        assert row.coupling_term == pytest.approx(
            (math.pi / 1e7) * (3 - 1 + 2.0 ** -3), rel=1e-12)

    def test_n3_reference_value(self):
        # independent spreadsheet-style evaluation of the closed form
        p = costmodel.SolidParams(delta=10e-9, d=1e7, Delta=100e-9)
        expected = 3 * 10e-9 + 2 * 3 * 100e-9 + (math.pi / 1e7) * (2 + 0.125)
        assert costmodel.t_serial_solid(3, p).total == pytest.approx(expected, rel=1e-12)


class TestMonotonicity:
    def test_increasing_in_n(self):
        p = costmodel.LiquidParams()
        ps = costmodel.SolidParams(delta=10e-9, d=1e7, Delta=100e-9)
        for fn, prm in ((costmodel.t_serial_liquid, p), (costmodel.t_parallel, p),
                        (costmodel.t_serial_solid, ps)):
            totals = [fn(n, prm).total for n in range(1, 15)]
            assert all(b > a for a, b in zip(totals, totals[1:]))

    def test_increasing_in_delta_and_Delta(self):
        lo = costmodel.t_serial_solid(4, costmodel.SolidParams(delta=1e-9, d=1e7, Delta=1e-8))
        hi_d = costmodel.t_serial_solid(4, costmodel.SolidParams(delta=2e-9, d=1e7, Delta=1e-8))
        hi_D = costmodel.t_serial_solid(4, costmodel.SolidParams(delta=1e-9, d=1e7, Delta=2e-8))
        assert hi_d.total > lo.total and hi_D.total > lo.total

    def test_decreasing_in_coupling(self):
        weak = costmodel.t_serial_liquid(4, costmodel.LiquidParams(J=100.0))
        strong = costmodel.t_serial_liquid(4, costmodel.LiquidParams(J=400.0))
        assert strong.total < weak.total

    def test_serial_never_beats_parallel(self):
        p = costmodel.LiquidParams()
        for n in range(1, 31):
            assert costmodel.t_serial_liquid(n, p).coupling_term >= \
                costmodel.t_parallel(n, p).coupling_term - 1e-18


class TestSweep:
    def test_csv_header_and_rows(self):
        rows = costmodel.sweep("parallel", costmodel.LiquidParams(), range(1, 11))
        text = costmodel.sweep_to_csv(rows)
        lines = text.strip().splitlines()
        assert lines[0] == "n,pulse_term,coupling_term,swap_term,total"
        assert len(lines) == 11
        # last parallel row is 5*kappa
        total = float(lines[-1].split(",")[-1])
        assert total == pytest.approx(5 * costmodel.LiquidParams().kappa, rel=1e-10)

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            costmodel.sweep("liquid", costmodel.LiquidParams(), [])

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            costmodel.sweep("quantum", costmodel.LiquidParams(), [1])

    def test_breakdown_total_consistency(self):
        with pytest.raises(ValueError):
            costmodel.CostBreakdown(1, "x", 1.0, 1.0, 0.0, 3.0)

    @pytest.mark.parametrize("terms", [
        (1.0, 1.0, math.inf, math.inf),
        (math.inf, 1.0, 0.0, math.inf),
        (1.0, math.nan, 0.0, math.nan),
    ])
    def test_breakdown_rejects_non_finite_terms(self, terms):
        with pytest.raises(ValueError, match="not finite"):
            costmodel.CostBreakdown(1, "x", *terms)
