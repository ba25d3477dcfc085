"""Pulse elements, the fixed calibration, the sequence DSL, preparation and noise."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (random_traceless_hermitian, refocused, sequence_unitary, serial_program_text,
                      z_template)

from spinqft import core, costmodel, nmr

SX = np.array([[0, 1], [1, 0]], dtype=complex)


class TestSpinPulse:
    def test_pi_x_is_minus_i_sigma_x(self):
        u = nmr.element_unitary(nmr.SpinPulse((1,), math.pi, nmr.PHASE_X), 1)
        np.testing.assert_allclose(u.entries, -1j * SX, atol=1e-15)

    def test_zero_angle_exact_identity(self):
        u = nmr.element_unitary(nmr.SpinPulse((1,), 0.0, nmr.PHASE_Y), 1)
        assert np.array_equal(u.entries, np.eye(2))

    def test_90y_on_zero_gives_plus(self):
        u = nmr.element_unitary(nmr.SpinPulse((1,), math.pi / 2, nmr.PHASE_Y), 1)
        np.testing.assert_allclose(u.entries @ [1, 0], [1 / np.sqrt(2), 1 / np.sqrt(2)],
                                   atol=1e-15)

    def test_pulse_pair_makes_hadamard(self):
        # 90y then 180x is the Hadamard up to a global phase
        u1 = nmr.element_unitary(nmr.SpinPulse((1,), math.pi / 2, nmr.PHASE_Y), 1).entries
        u2 = nmr.element_unitary(nmr.SpinPulse((1,), math.pi, nmr.PHASE_X), 1).entries
        ok, _ = core.equal_up_to_global_phase(u2 @ u1, core.HADAMARD, 1e-12)
        assert ok

    def test_disjoint_pulses_commute(self):
        a = nmr.element_unitary(nmr.SpinPulse((1, 3), 0.7, nmr.PHASE_X), 4).entries
        b = nmr.element_unitary(nmr.SpinPulse((2, 4), 1.1, nmr.PHASE_MINUS_Y), 4).entries
        np.testing.assert_allclose(a @ b, b @ a, atol=1e-13)

    def test_spin_out_of_range(self):
        with pytest.raises(ValueError):
            nmr.element_unitary(nmr.SpinPulse((3,), 1.0, 0.0), 2)

    def test_no_spin_is_refused(self):
        with pytest.raises(ValueError, match="^pulse must address at least one spin$"):
            nmr.SpinPulse((), 1.0, 0.0)


class TestTransitionPulse:
    def test_pi_pulse_swaps_upper_pair(self):
        u = nmr.element_unitary(nmr.TransitionPulse(3, 4, math.pi, nmr.PHASE_X), 2).entries
        np.testing.assert_allclose(u[:2, :2], np.eye(2), atol=1e-15)
        np.testing.assert_allclose(u[2:, 2:], -1j * SX, atol=1e-15)

    def test_invalid_transition(self):
        with pytest.raises(ValueError):
            nmr.element_unitary(nmr.TransitionPulse(1, 4, math.pi, 0.0), 2)

    def test_equal_endpoints_are_refused(self):
        e = nmr.TransitionPulse(3, 3, math.pi / 2, nmr.PHASE_X)
        refusal = "^transition endpoints must differ$"
        with pytest.raises(ValueError, match=refusal):
            nmr.element_unitary(e, 2)
        for noise in (None, nmr.NoiseModel.uniform(2, 5.0)):
            with pytest.raises(ValueError, match=refusal):
                nmr.run(nmr.PulseSequence("equal", 2, (e,)), 2,
                        nmr.pseudopure_projector_deviation(2), noise)

    def test_disjoint_transitions_commute(self):
        a = nmr.element_unitary(nmr.TransitionPulse(5, 7, 1.0, 0.0), 3).entries
        b = nmr.element_unitary(nmr.TransitionPulse(3, 4, 0.5, nmr.PHASE_Y), 3).entries
        np.testing.assert_allclose(a @ b, b @ a, atol=1e-14)


class TestCouplingDelay:
    def test_half_j_matrix_under_uncalibrated_sign(self):
        # 180x pulses on spin 1 around a 1/(2J) delay run it under the
        # exponent exp(-i 2 pi J t IzIz): diag(q, q*, q*, q) for
        # q = e^{-i pi/4}, times the -1 of (-i sigma_x)**2
        seq = nmr.parse_sequence("n: 2\n180x@s1 delay:1/(2*J12) 180x@s1\n")
        u = sequence_unitary(seq).entries
        q = np.exp(-1j * np.pi / 4)
        np.testing.assert_allclose(u, -np.diag([q, q.conjugate(), q.conjugate(), q]), atol=1e-15)

    def test_calibrated_sign_is_conjugate(self):
        # the refocused delay is the plain one under the opposite sign: its
        # conjugate, up to a global phase, whichever spin is refocused
        for m in (1, 2, 4, 8):
            plain = nmr.element_unitary(nmr.CouplingDelay(((1, 2, m),)), 2).entries
            for spin in (1, 2):
                seq = nmr.parse_sequence(f"n: 2\n180x@s{spin} delay:1/({m}*J12) 180x@s{spin}\n")
                ok, _ = core.equal_up_to_global_phase(sequence_unitary(seq),
                                                      plain.conj(), 1e-14)
                assert ok, (m, spin)

    def test_no_pair_is_refused(self):
        with pytest.raises(ValueError, match="^delay must list at least one coupling pair$"):
            nmr.CouplingDelay(())

    def test_largest_denominator_lasts_zero_seconds(self):
        # no delay is shorter: 1/(m*J) rounds to 0.0, the phases 2*pi/m to almost nothing
        delay = nmr.CouplingDelay(((1, 2, int(1.7976931348623157e308)),))
        assert nmr.element_seconds(delay) == 0.0
        u = nmr.element_unitary(delay, 2).entries
        np.testing.assert_allclose(u, np.eye(4), rtol=0, atol=1e-300)

    @pytest.mark.parametrize("m", [0, -4, 2.5, 4.0, "4", None])
    def test_denominator_must_be_an_integer_at_least_one(self, m):
        with pytest.raises(ValueError, match="denominator"):
            nmr.CouplingDelay(((1, 2, m),))

    @pytest.mark.parametrize("j,k", [(1, 4), (0, 1), (3, 7)])
    def test_pair_outside_the_spins_raises_value_error(self, j, k):
        # worded as for a pulse on a spin outside the program
        delay = nmr.CouplingDelay(((1, 2, 4), (j, k, 8)))
        with pytest.raises(ValueError, match=rf"^qubit labels \[{j}, {k}\] outside 1\.\.3$"):
            nmr.element_unitary(delay, 3)


class TestCompositeZ:
    def test_default_expansion_is_plus_z_rotation(self):
        u = nmr.element_unitary(nmr.CompositeZ(1, math.pi / 4), 1).entries
        np.testing.assert_allclose(u, np.diag([np.exp(-1j * np.pi / 8),
                                               np.exp(1j * np.pi / 8)]), atol=1e-15)

    def test_negative_angle_inverts(self):
        plus = nmr.element_unitary(nmr.CompositeZ(1, 0.9), 1).entries
        minus = nmr.element_unitary(nmr.CompositeZ(1, -0.9), 1).entries
        np.testing.assert_allclose(plus @ minus, np.eye(2), atol=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_diagonal_z_equals_its_rf_sandwich(self, n):
        angles = [0.0, math.pi, -math.pi, -0.7, *np.random.default_rng(n).uniform(-7, 7, 4)]
        for spin in range(1, n + 1):
            for angle in angles:
                z = nmr.element_unitary(nmr.CompositeZ(spin, angle), n).entries
                np.testing.assert_allclose(z, rf_sandwich(spin, angle, n),
                                           rtol=0, atol=1e-14)
                assert not z[~np.eye(2 ** n, dtype=bool)].any()  # exactly diagonal
        # a noisy run equals a program that carries the product as one 30 us
        # element, with a z pulse on every spin between pulses that mix
        rng = np.random.default_rng(10 + n)
        elements = []
        for spin in range(1, n + 1):
            angle = float(rng.uniform(-7, 7))
            elements += [nmr.SpinPulse((spin,), 0.9, nmr.PHASE_Y), nmr.CompositeZ(spin, angle),
                         nmr.SpinPulse(tuple(range(1, n + 1)), 0.4, nmr.PHASE_X)]
        rates = (40.0,) * n
        rho = random_traceless_hermitian(n, rng)
        state = rho.entries
        for e in elements:
            u = (rf_sandwich(e.spin, e.angle, n) if isinstance(e, nmr.CompositeZ)
                 else nmr.element_unitary(e, n).entries)
            state = dephased(u @ state @ u.conj().T, rates, nmr.element_seconds(e))
        got = nmr.run(nmr.PulseSequence("z", n, elements), n, rho, nmr.NoiseModel(rates)).entries
        np.testing.assert_allclose(got, state, rtol=0, atol=1e-14)


def rf_sandwich(spin, angle, n):
    """Product of the rf pulses {90_-x}{theta_y}{90_x} on one spin, in time
    order; the middle pulse turns about -y by |theta| for a negative theta."""
    mid = nmr.PHASE_Y if angle >= 0 else nmr.PHASE_MINUS_Y
    pulses = [nmr.SpinPulse((spin,), math.pi / 2, nmr.PHASE_MINUS_X),
              nmr.SpinPulse((spin,), abs(angle), mid),
              nmr.SpinPulse((spin,), math.pi / 2, nmr.PHASE_X)]
    u = np.eye(2 ** n, dtype=complex)
    for p in pulses:
        u = nmr.element_unitary(p, n).entries @ u
    return u


class TestElementUnitarity:
    def test_random_elements_are_unitary(self):
        # UnitaryMatrix construction enforces the 1e-10 check; sweep random
        # parameters through every element kind
        rng = np.random.default_rng(31)
        for _ in range(50):
            angle = rng.uniform(0, 2 * math.pi)
            phase = rng.choice([nmr.PHASE_X, nmr.PHASE_Y, nmr.PHASE_MINUS_X,
                                nmr.PHASE_MINUS_Y])
            spins = tuple(rng.choice([1, 2, 3], size=rng.integers(1, 4), replace=False))
            nmr.element_unitary(nmr.SpinPulse(spins, angle, phase), 3)
            nmr.element_unitary(nmr.CompositeZ(int(rng.integers(1, 4)),
                                               rng.uniform(-math.pi, math.pi)), 3)
            nmr.element_unitary(nmr.TransitionPulse(3, 4, angle, phase), 3)
            delay = nmr.CouplingDelay(((1, 2, int(rng.integers(1, 13))),
                                       (2, 3, int(rng.integers(1, 9)))))
            nmr.element_unitary(delay, 3)


def serial_program(n):
    return nmr.parse_sequence(serial_program_text(n))


def bundled_and_serial_programs(sizes):
    for name in nmr.SEQUENCE_LIBRARY:
        yield pytest.param(nmr.library_sequence(name), id=name)
    for seq in nmr.pseudopure_cycle_sequences():
        yield pytest.param(seq, id=seq.name)
    for n in sizes:
        yield pytest.param(serial_program(n), id=f"serial-{n}")


class TestSequenceEvaluation:
    def test_empty_sequence_is_identity(self):
        seq = nmr.PulseSequence("empty", 2, ())
        u = sequence_unitary(seq)
        assert np.array_equal(u.entries, np.eye(4))

    @pytest.mark.parametrize("seq", list(bundled_and_serial_programs(range(1, 7))))
    def test_noiseless_run_matches_dense_conjugation(self, seq):
        rho = nmr.pseudopure_input(seq.n)
        u = sequence_unitary(seq).entries
        np.testing.assert_allclose(nmr.run(seq, seq.n, rho).entries,
                                   u @ rho.entries @ u.conj().T, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("rate", [0.0, 5.0], ids=["noiseless", "t2"])
    @pytest.mark.parametrize("seq", [nmr.library_sequence("parallel-n3"),
                                     nmr.library_sequence("selective-n3"), serial_program(6)],
                             ids=["parallel-n3", "selective-n3", "serial-6"])
    def test_run_checks_each_element_once_on_its_own_spins(self, seq, rate, monkeypatch):
        calls = []
        build = nmr.element_unitary

        def counting(e, n):
            calls.append(n)
            return build(e, n)

        monkeypatch.setattr(nmr, "element_unitary", counting)
        noise = nmr.NoiseModel.uniform(seq.n, rate) if rate else None
        nmr.run(seq, seq.n, nmr.pseudopure_input(seq.n), noise)
        # a pulse or a z pulse on one spin, a delay on the spins of its legs
        own = [len({s for j, k, _ in e.legs for s in (j, k)})
               if isinstance(e, nmr.CouplingDelay) else 1 for e in seq.elements]
        assert calls == own

    @pytest.mark.parametrize("call", [
        lambda e: nmr.element_unitary(e, 2),
        lambda e: nmr.run(nmr.PulseSequence("odd", 2, (e,)), 2,
                          nmr.pseudopure_projector_deviation(2)),
        nmr.element_seconds,
    ], ids=["element_unitary", "run", "element_seconds"])
    def test_an_unknown_element_is_a_type_error(self, call):
        with pytest.raises(TypeError, match=r"^unknown pulse element \('90x', 1\)$"):
            call(("90x", 1))

    @pytest.mark.parametrize("rate", [0.0, 9.0], ids=["noiseless", "t2"])
    @pytest.mark.parametrize("seq", list(bundled_and_serial_programs([7, 8])))
    def test_run_returns_an_exactly_hermitian_state(self, seq, rate):
        noise = nmr.NoiseModel.uniform(seq.n, rate) if rate else None
        rho = nmr.run(seq, seq.n, nmr.pseudopure_input(seq.n), noise).entries
        assert np.array_equal(rho, rho.conj().T)

    @pytest.mark.parametrize("q", [2, 64, 256])
    def test_hermitian_part_is_the_mean_with_the_adjoint_tile_by_tile(self, q):
        rng = np.random.default_rng(q)
        a = rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))
        state = a.copy()
        nmr._hermitian_part(state)
        assert np.array_equal(state, (a + a.conj().T) / 2.0)

    def test_zero_rate_noise_identical_to_noiseless(self):
        seq = nmr.library_sequence("parallel-n2")
        rho = nmr.pseudopure_projector_deviation(2)
        quiet = nmr.run(seq, 2, rho, nmr.NoiseModel.uniform(2, 0.0))
        np.testing.assert_allclose(quiet.entries, nmr.run(seq, 2, rho).entries, atol=0)


def local_conjugation_cases():
    for n in range(1, 6):
        yield pytest.param(n, (nmr.SpinPulse(tuple(range(1, n + 1)), 1.3, 0.7),),
                           id=f"n{n}-all-spins")
        yield pytest.param(n, (nmr.SpinPulse((n,), 2.2, nmr.PHASE_MINUS_Y),),
                           id=f"n{n}-last-spin")
        if n >= 3:
            yield pytest.param(n, (nmr.SpinPulse((1, 3), 0.4, nmr.PHASE_Y),),
                               id=f"n{n}-spins-1-3")
        for a in range(2 ** n):
            b = a ^ (1 << (a % n))  # flip one bit: a single-quantum transition
            pulse = nmr.TransitionPulse(a + 1, b + 1, 0.9 + a,
                                        nmr.PHASE_X if a % 2 else nmr.PHASE_MINUS_Y)
            yield pytest.param(n, (pulse,), id=f"n{n}-t{a + 1}-{b + 1}")
        if n >= 2:
            legs = [(1, n, 4), (1, 2, 3)]
            if n >= 3:
                legs += [(2, 3, 8), (2, n, 12), (1, 3, 1)]
            yield pytest.param(n, (nmr.CouplingDelay(tuple(legs)),), id=f"n{n}-delay-sign-1")
            # every leg ends on spin 1, so refocusing spin 1 flips every leg's sign
            star = nmr.CouplingDelay(tuple((1, k, (1, 3, 4, 12)[k - 2])
                                           for k in range(2, n + 1)))
            yield pytest.param(n, (star,), id=f"n{n}-delay-star")
            yield pytest.param(n, refocused(star, (1,)), id=f"n{n}-delay-sign+1")
        for template in ("literal_xx", "xy_minus", "minus_xy"):
            for angle in (0.8, -2.1):
                yield pytest.param(n, z_template(n, angle, template),
                                   id=f"n{n}-z{angle:+}-{template}")
        for angle in (0.0, -0.3, math.pi, 5.9):
            yield pytest.param(n, (nmr.CompositeZ(n, angle),), id=f"n{n}-z{angle:+.4g}")


@pytest.mark.parametrize("n,program", list(local_conjugation_cases()))
def test_local_conjugation_equals_dense_conjugation(n, program):
    rho = random_traceless_hermitian(n, np.random.default_rng(n))
    want = rho.entries
    for e in program:
        u = nmr.element_unitary(e, n).entries
        want = u @ want @ u.conj().T
    got = nmr.run(nmr.PulseSequence("case", n, program), n, rho).entries
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


def dephased(state, rates, seconds):
    """``state`` after ``seconds`` of dephasing by its definition: entry
    (r, c) times exp(-rate_j * seconds) for every spin j where r and c
    differ, one spin at a time."""
    n = len(rates)
    differ = np.arange(2 ** n)[:, None] ^ np.arange(2 ** n)
    for j, rate in enumerate(rates, start=1):
        state = state * np.where(differ >> (n - j) & 1, math.exp(-rate * seconds), 1.0)
    return state


def dense_reference(seq, rho, rates=None):
    """Each element's dense unitary as u rho u^H, then, with ``rates``, its
    dephasing by definition (``dephased``).  No fusing."""
    state = rho.entries
    for e in seq.elements:
        u = nmr.element_unitary(e, seq.n).entries
        state = u @ state @ u.conj().T
        if rates:
            state = dephased(state, rates, nmr.element_seconds(e))
    return state


PHASES = st.sampled_from([nmr.PHASE_X, nmr.PHASE_Y, nmr.PHASE_MINUS_X, nmr.PHASE_MINUS_Y])


@st.composite
def program_elements(draw, n):
    """Up to 12 pieces in time order: pulses on overlapping spin sets, runs of
    pulses on one spin, single and braced delays, z pulses of either sign and
    single-quantum transitions."""
    spin = st.integers(1, n)
    pulse = st.builds(nmr.SpinPulse, st.lists(spin, min_size=1, max_size=n).map(tuple),
                      st.floats(0.0, 2 * math.pi), PHASES)
    one_spin_run = st.tuples(spin, st.lists(st.tuples(st.floats(0.0, 2 * math.pi), PHASES),
                                            min_size=2, max_size=4)).map(
        lambda d: [nmr.SpinPulse((d[0],), a, p) for a, p in d[1]])
    z = st.builds(nmr.CompositeZ, spin, st.floats(-7.0, 7.0))
    transition = st.tuples(st.integers(0, 2 ** n - 1), st.integers(0, n - 1), st.floats(0.0, 7.0),
                           PHASES).map(  # basis states a and a with one bit flipped
        lambda d: nmr.TransitionPulse(d[0] + 1, (d[0] ^ 1 << d[1]) + 1, d[2], d[3]))
    pieces = [pulse.map(lambda e: [e]), one_spin_run, z.map(lambda e: [e]),
              transition.map(lambda e: [e])]
    if n >= 2:
        pair = st.lists(spin, min_size=2, max_size=2, unique=True)
        delay = st.lists(st.tuples(pair, st.integers(1, 12)), min_size=1, max_size=3).map(
            lambda legs: nmr.CouplingDelay(tuple((*p, m) for p, m in legs)))
        pieces.append(delay.map(lambda e: [e]))
    drawn = draw(st.lists(st.one_of(pieces), min_size=1, max_size=12))
    return tuple(e for piece in drawn for e in piece)


def counted_steps(monkeypatch) -> dict:
    """Record each ``apply_channel`` (its spin) and ``_apply_schur`` that
    ``run`` calls, and still call it."""
    calls = {"apply_channel": [], "_apply_schur": []}
    for name, key in (("apply_channel", lambda args: args[1]),
                      ("_apply_schur", lambda args: None)):
        def counting(*args, build=getattr(nmr, name), name=name, key=key):
            calls[name].append(key(args))
            return build(*args)

        monkeypatch.setattr(nmr, name, counting)
    return calls


class TestNoisyRun:
    @pytest.mark.parametrize("seq", list(bundled_and_serial_programs((4, 5, 6))))
    def test_matches_dense_reference_loop(self, seq):
        rho = nmr.pseudopure_input(seq.n)
        rates = tuple(3.0 + 2.0 * j for j in range(seq.n))
        np.testing.assert_allclose(nmr.run(seq, seq.n, rho, nmr.NoiseModel(rates)).entries,
                                   dense_reference(seq, rho, rates), rtol=0, atol=1e-14)

    def test_generated_n8_matches_dense_reference_with_unequal_rates(self):
        seq = serial_program(8)
        rho = nmr.pseudopure_input(8)
        rates = tuple(9.05 + 3.0 * j for j in range(8))  # 1/T2 near the benchmark's draw
        np.testing.assert_allclose(nmr.run(seq, 8, rho, nmr.NoiseModel(rates)).entries,
                                   dense_reference(seq, rho, rates), rtol=0, atol=1e-14)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_drawn_programs_match_dense_reference(self, data):
        n = data.draw(st.integers(1, 5), label="n")
        seq = nmr.PulseSequence("drawn", n, data.draw(program_elements(n), label="elements"))
        rates = data.draw(st.none() | st.lists(st.floats(0.0, 300.0), min_size=n, max_size=n),
                          label="rates")
        rho = random_traceless_hermitian(n, np.random.default_rng(data.draw(st.integers(0, 99))))
        rho = core.DensityMatrix(rho.entries / np.linalg.norm(rho.entries))  # a unit deviation
        got = nmr.run(seq, n, rho, rates and nmr.NoiseModel(rates)).entries
        np.testing.assert_allclose(got, dense_reference(seq, rho, rates), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("rate", [0.0, 5.0], ids=["noiseless", "t2"])
    def test_one_channel_per_pulsed_spin_per_run_one_schur_product_per_diagonal_element(
            self, rate, monkeypatch):
        seq = serial_program(4)
        calls = counted_steps(monkeypatch)
        noise = nmr.NoiseModel.uniform(4, rate) if rate else None
        nmr.run(seq, 4, nmr.pseudopure_projector_deviation(4), noise)
        runs = [(pulses, list(run)) for pulses, run in
                itertools.groupby(seq.elements, lambda e: isinstance(e, nmr.SpinPulse))]
        # each pulse run applies one channel per spin it pulses, in order of first pulse
        pulsed = [j for pulses, run in runs if pulses
                  for j in dict.fromkeys(s for e in run for s in e.spins)]
        assert len(pulsed) == 13
        # with noise, the end takes in what each spin owes: spins 1 and 2 in the
        # channels of the last pulse run, still open, and spins 3 and 4 in one each
        assert calls["apply_channel"] == pulsed + ([3, 4] if rate else [])
        # each delay or z pulse is one Schur product of its own, with or without noise
        assert len(calls["_apply_schur"]) == sum(
            isinstance(e, (nmr.CouplingDelay, nmr.CompositeZ)) for e in seq.elements) == 6

    def test_a_transition_first_takes_in_what_its_own_spin_owes(self, monkeypatch):
        seq = nmr.library_sequence("selective-n3")
        calls = counted_steps(monkeypatch)
        nmr.run(seq, 3, nmr.pseudopure_input(3), nmr.NoiseModel.uniform(3, 5.0))
        # the opening pulse run's channels on spins 1-3, where t6-8 takes in spin 2;
        # then a channel of its own on the spin each later transition moves (t5-7 on
        # spin 2, t7-8, t5-6 and t3-4 on spin 3); then one per spin at the end
        assert calls["apply_channel"] == [1, 2, 3, 2, 3, 3, 3, 1, 2, 3]
        assert len(calls["_apply_schur"]) == 2  # the two z pulses

    @pytest.mark.parametrize("rate", [0.0, 5.0])
    def test_a_rate_per_spin_of_the_program_or_refused(self, rate):
        # zero rates take the noiseless path, which must check the count as well
        seq = nmr.library_sequence("serial-n2")
        rho = nmr.pseudopure_projector_deviation(2)
        for count in (1, 3):
            with pytest.raises(ValueError, match=f"{count} rates"):
                nmr.run(seq, 2, rho, nmr.NoiseModel((rate,) * count))
        assert nmr.run(seq, 2, rho, nmr.NoiseModel((rate,) * 2)).n == 2

    @pytest.mark.parametrize("e", [
        nmr.SpinPulse((1,), math.nan, 0.0),
        nmr.TransitionPulse(3, 4, math.nan, 0.0),
        nmr.CompositeZ(2, math.nan),
    ], ids=["spin-pulse", "transition", "composite-z"])
    def test_non_finite_element_is_rejected(self, e):
        seq = nmr.PulseSequence("bad", 2, (e,))
        rho = nmr.pseudopure_projector_deviation(2)
        for noise in (None, nmr.NoiseModel.uniform(2, 5.0)):
            with pytest.raises(ValueError, match="unit"):
                nmr.run(seq, 2, rho, noise)


def out_of_range(e, n):
    """``e`` with one label moved past ``n`` spins: a pulse or a z pulse onto
    spin n + 1, a delay's first leg onto n + 1, a transition above 2**n."""
    if isinstance(e, nmr.SpinPulse):
        return nmr.SpinPulse(e.spins + (n + 1,), e.angle, e.phase)
    if isinstance(e, nmr.CompositeZ):
        return nmr.CompositeZ(n + 1, e.angle)
    if isinstance(e, nmr.CouplingDelay):
        (j, _, m), *rest = e.legs
        return nmr.CouplingDelay(((j, n + 1, m), *rest))
    return nmr.TransitionPulse(e.from_label, e.to_label + 2 ** n, e.angle, e.phase)


class TestLabels:
    @pytest.mark.parametrize("rate", [0.0, 5.0], ids=["noiseless", "t2"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_a_spin_pulse_past_the_last_spin_is_refused(self, n, rate):
        seq = nmr.PulseSequence("bad", n, (nmr.SpinPulse((n + 1,), math.pi / 2, nmr.PHASE_X),))
        noise = nmr.NoiseModel.uniform(n, rate) if rate else None
        with pytest.raises(ValueError, match=rf"^qubit labels \[{n + 1}\] outside 1\.\.{n}$"):
            nmr.run(seq, n, nmr.pseudopure_projector_deviation(n), noise)

    @pytest.mark.parametrize("rate", [0.0, 5.0], ids=["noiseless", "t2"])
    def test_every_element_is_checked_before_the_state_is_touched(self, rate, monkeypatch):
        # a program whose pulses and delays would all be applied before a bad
        # transition, followed by a bad pulse: the transition, first, is reported
        seq = serial_program(3)
        bad = (nmr.TransitionPulse(2 ** 3 + 1, 1, math.pi, nmr.PHASE_X),
               nmr.SpinPulse((4,), math.pi, nmr.PHASE_X))
        seq = nmr.PulseSequence("bad", 3, seq.elements + bad)
        applied = []
        for name in ("apply_channel", "_apply_schur"):
            monkeypatch.setattr(nmr, name, lambda *args, name=name: applied.append(name))
        noise = nmr.NoiseModel.uniform(3, rate) if rate else None
        with pytest.raises(ValueError, match=r"^transition label 9 out of range \[1, 8\]$"):
            nmr.run(seq, 3, nmr.pseudopure_projector_deviation(3), noise)
        assert applied == []

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_any_element_moved_out_of_range_is_refused(self, data):
        n = data.draw(st.integers(1, 4), label="n")
        elements = list(data.draw(program_elements(n), label="elements"))
        i = data.draw(st.integers(0, len(elements) - 1), label="position")
        elements[i] = out_of_range(elements[i], n)
        seq = nmr.PulseSequence("bad", n, tuple(elements))
        rho = nmr.pseudopure_projector_deviation(n)
        refusal = rf"outside 1\.\.{n}$|out of range \[1, {2 ** n}\]$"
        for noise in (None, nmr.NoiseModel.uniform(n, 7.0)):
            with pytest.raises(ValueError, match=refusal):
                nmr.run(seq, n, rho, noise)


class TestPseudopurePreparation:
    def test_unit_weights(self):
        rho = nmr.prepare_pseudopure_temporal_avg()
        target = nmr.pseudopure_projector_deviation(2).entries
        np.testing.assert_allclose(rho.entries, (4.0 / 3.0) * target, atol=1e-12)
        np.testing.assert_allclose(np.diag(rho.entries).real,
                                   [1, -1 / 3, -1 / 3, -1 / 3], atol=1e-12)

    @pytest.mark.parametrize("a,b", [(1.0, 1.0), (4.0, 1.0)])
    def test_any_positive_weights(self, a, b):
        rho = nmr.prepare_pseudopure_temporal_avg(a=a, b=b)
        target = nmr.pseudopure_projector_deviation(2).entries
        np.testing.assert_allclose(rho.entries, (2 * (a + b) / 3) * target, atol=1e-6)

    def test_zero_weights_give_zero(self):
        rho = nmr.prepare_pseudopure_temporal_avg(a=0.0, b=0.0)
        np.testing.assert_allclose(rho.entries, np.zeros((4, 4)), atol=1e-15)

    def test_traceless_and_rank_one_after_identity_shift(self):
        rho = nmr.prepare_pseudopure_temporal_avg()
        assert abs(np.trace(rho.entries)) < 1e-12
        shifted = rho.entries * (3.0 / 4.0) + np.eye(4) / 4.0
        eigs = np.sort(np.linalg.eigvalsh(shifted))
        np.testing.assert_allclose(eigs, [0, 0, 0, 1], atol=1e-6)

    def test_wrong_spin_count_rejected(self):
        with pytest.raises(ValueError):
            nmr.prepare_pseudopure_temporal_avg(3)

    def test_program_input_is_the_temporal_average_at_two_spins(self):
        np.testing.assert_array_equal(nmr.pseudopure_input(2).entries,
                                      nmr.prepare_pseudopure_temporal_avg().entries)

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_program_input_is_the_projector_deviation_otherwise(self, n):
        np.testing.assert_array_equal(nmr.pseudopure_input(n).entries,
                                      nmr.pseudopure_projector_deviation(n).entries)

    @pytest.mark.parametrize("n", [0, 13])
    def test_program_input_refuses_a_spin_count_outside_the_cap(self, n):
        with pytest.raises(ValueError, match="qubit count"):
            nmr.pseudopure_input(n)


class TestNoise:
    def test_purity_never_increases(self):
        seq = nmr.library_sequence("serial-n2")
        rho = nmr.pseudopure_projector_deviation(2)
        noise = nmr.NoiseModel.uniform(2, 20.0)
        out = nmr.run(seq, 2, rho, noise)
        assert core._trace_product(out.entries, out.entries) <= (
            core._trace_product(rho.entries, rho.entries) + 1e-12)

    def test_elements_that_move_no_spin_damp_each_coherence_by_their_time(self):
        # a delay and a z pulse only rephase, so |entry (r, c)| is damped by
        # exp(-rate_j * T) for each spin j where r and c differ, T their total time
        rates = (0.0, 3.0, 40.0)
        seq = nmr.parse_sequence("n: 3\ndelay:{1/(4*J12),1/(2*J23)}  z70@s2")
        seconds = sum(nmr.element_seconds(e) for e in seq.elements)
        rho = random_traceless_hermitian(3, np.random.default_rng(5)).entries
        out = nmr.run(seq, 3, core.DensityMatrix(rho), nmr.NoiseModel(rates)).entries
        for r, c in itertools.product(range(8), repeat=2):
            g = math.prod(math.exp(-rates[j - 1] * seconds) for j in (1, 2, 3)
                          if (r ^ c) >> (3 - j) & 1)
            assert abs(out[r, c]) == pytest.approx(abs(rho[r, c]) * g, rel=1e-13), (r, c)
        for r in range(4):  # spin 1's coherences, at zero rate, are undamped
            assert abs(out[r, r + 4]) == pytest.approx(abs(rho[r, r + 4]), rel=1e-13)

    def test_element_durations(self):
        assert nmr.element_seconds(nmr.SpinPulse((1,), 1.0, 0.0)) == 10e-6
        assert nmr.element_seconds(nmr.TransitionPulse(3, 4, 1.0, 0.0)) == 6.5e-3
        assert nmr.element_seconds(nmr.CompositeZ(1, 1.0)) == pytest.approx(30e-6)
        delay = nmr.CouplingDelay(((1, 2, 4),))
        assert nmr.element_seconds(delay) == pytest.approx(1 / (4 * 215.0))

    def test_a_delay_lasts_its_longest_leg(self):
        delay = nmr.CouplingDelay(((1, 2, 4), (2, 3, 8), (1, 3, 3), (3, 4, 12)))
        assert nmr.element_seconds(delay) == 1.0 / (3 * costmodel.CHLOROFORM_J_HZ)
        assert nmr.element_seconds(delay) == pytest.approx(1 / 645)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            nmr.NoiseModel((-1.0, 0.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_values_rejected(self, bad):
        for rates in ((bad, 0.0), (1.0, bad)):
            with pytest.raises(ValueError, match="finite"):
                nmr.NoiseModel(rates)

    @pytest.mark.parametrize("count", [0, 13, 40])
    def test_one_rate_per_spin_up_to_the_cap(self, count):
        # only the constructors: a state at 13+ spins would take 1 GiB or more
        with pytest.raises(ValueError, match=rf"\[1, {core.MAX_QUBITS}\], got {count}$"):
            nmr.NoiseModel((1.0,) * count)
        with pytest.raises(ValueError, match=rf"\[1, {core.MAX_QUBITS}\], got {count}$"):
            nmr.NoiseModel.uniform(count, 1.0)


DEGREES = st.integers(0, 12).flatmap(
    lambda places: st.decimals(0, 720, places=places)).map(lambda d: format(d, "f"))
SPIN = st.integers(1, 12)
PAIR_OF_12 = st.tuples(SPIN, SPIN).filter(lambda p: p[0] != p[1])
PHASE_OF = {("", "x"): nmr.PHASE_X, ("", "y"): nmr.PHASE_Y,
            ("-", "x"): nmr.PHASE_MINUS_X, ("-", "y"): nmr.PHASE_MINUS_Y}
PHASE_TEXT = st.sampled_from(sorted(PHASE_OF))


def spin_pulse_token(degrees, phase, spins):
    return (f"{degrees}{''.join(phase)}@" + ",".join(f"s{s}" for s in spins),
            nmr.SpinPulse(tuple(spins), math.radians(float(degrees)), PHASE_OF[phase]))


def transition_token(degrees, phase, r, s):
    return (f"{degrees}{''.join(phase)}@t{r}-{s}",
            nmr.TransitionPulse(r, s, math.radians(float(degrees)), PHASE_OF[phase]))


def z_token(sign, degrees, spin):
    return f"z{sign}{degrees}@s{spin}", nmr.CompositeZ(spin, math.radians(float(sign + degrees)))


def leg_text(m, pair, short):
    j, k = pair
    # the Jjk form only where both spins are single digits
    return f"1/({m}*J{j}{k})" if short and max(pair) <= 9 else f"1/({m}*J({j},{k}))"


def delay_token(legs):
    texts = [leg_text(*leg) for leg in legs]
    body = texts[0] if len(texts) == 1 else "{" + ",".join(texts) + "}"
    return f"delay:{body}", nmr.CouplingDelay(tuple((*pair, m) for m, pair, _ in legs))


# each drawn token with the element built from its own fields
DSL_TOKENS = st.one_of(
    st.builds(spin_pulse_token, DEGREES, PHASE_TEXT, st.lists(SPIN, min_size=1, max_size=3)),
    st.builds(transition_token, DEGREES, PHASE_TEXT, st.integers(1, 512), st.integers(1, 512)),
    st.builds(z_token, st.sampled_from(["", "-"]), DEGREES, SPIN),
    st.builds(delay_token, st.lists(st.tuples(st.integers(1, 64), PAIR_OF_12, st.booleans()),
                                    min_size=1, max_size=3)))


class TestDsl:
    def test_parse_spin_pulse(self):
        seq = nmr.parse_sequence("n: 2\n90y@s1,s2\n")
        (e,) = seq.elements
        assert isinstance(e, nmr.SpinPulse)
        assert e.spins == (1, 2)
        assert e.angle == pytest.approx(math.pi / 2)
        assert e.phase == pytest.approx(nmr.PHASE_Y)

    def test_parse_negative_phase_and_transition(self):
        seq = nmr.parse_sequence("n: 2\n180-x@s2 90x@t3-4\n")
        pulse, trans = seq.elements
        assert pulse.phase == pytest.approx(nmr.PHASE_MINUS_X)
        assert isinstance(trans, nmr.TransitionPulse)
        assert (trans.from_label, trans.to_label) == (3, 4)

    def test_parse_delays(self):
        seq = nmr.parse_sequence("n: 3\ndelay:1/(4*J12) delay:{1/(4*J12),1/(8*J13)}\n")
        single, braced = seq.elements
        assert single.legs == ((1, 2, 4),)
        assert braced.legs == ((1, 2, 4), (1, 3, 8))

    def test_parse_composite_z(self):
        seq = nmr.parse_sequence("n: 2\nz45@s1 z-90@s2\n")
        a, b = seq.elements
        assert a.angle == pytest.approx(math.pi / 4)
        assert b.angle == pytest.approx(-math.pi / 2)

    def test_comments_and_name(self):
        seq = nmr.parse_sequence("# header\nname: demo\nn: 2\n90y@s1 # trailing\n")
        assert seq.name == "demo" and len(seq.elements) == 1

    def test_error_carries_line_and_column(self):
        with pytest.raises(nmr.SequenceParseError) as err:
            nmr.parse_sequence("n: 2\n90y@s1 bogus@s2\n")
        assert err.value.line == 2
        assert err.value.column == 8

    def test_bad_pulse_target_is_named(self):
        with pytest.raises(nmr.SequenceParseError,
                           match=r"^line 2, column 3: bad pulse target 'q1'$"):
            nmr.parse_sequence("n: 2\n  90x@q1\n")

    def test_missing_spin_count(self):
        with pytest.raises(nmr.SequenceParseError):
            nmr.parse_sequence("90y@s1\n")

    def test_spins_above_9_need_the_pair_form(self):
        # J110 does not read as (1, 10): a spin above 9 is written J(j,k),
        # and single digits may keep the Jjk form
        (short,) = nmr.parse_sequence("n: 12\ndelay:1/(2*J19)\n").elements
        assert short == nmr.CouplingDelay(((1, 9, 2),))
        (long,) = nmr.parse_sequence("n: 12\ndelay:1/(2*J(1,10))\n").elements
        assert long == nmr.CouplingDelay(((1, 10, 2),))
        with pytest.raises(nmr.SequenceParseError):
            nmr.parse_sequence("n: 12\ndelay:1/(2*J110)\n")

    def test_pair_form_parses_at_twelve_spins(self):
        text = ("n: 12\ndelay:1/(4*J(10,11)) delay:{1/(8*J(1,12)),1/(2*J34),1/(16*J(9,10))} "
                "delay:1/(4*J(3,4))\n")
        seq = nmr.parse_sequence(text)
        assert [e.legs for e in seq.elements] == [
            ((10, 11, 4),), ((1, 12, 8), (3, 4, 2), (9, 10, 16)), ((3, 4, 4),)]
        assert [nmr.element_seconds(e) for e in seq.elements] == [
            1 / (4 * 215.0), 1 / (2 * 215.0), 1 / (4 * 215.0)]

    def test_parse_keeps_every_digit_of_an_angle(self):
        # 90/2**8 degrees: the 1-9 pulse of the generated n = 9 serial program
        (e,) = nmr.parse_sequence("n: 9\n0.3515625x@s1,s9").elements
        assert e == nmr.SpinPulse((1, 9), math.radians(0.3515625), nmr.PHASE_X)

    @settings(deadline=None)
    @given(st.lists(DSL_TOKENS, min_size=1, max_size=8))
    def test_each_token_parses_to_its_own_fields(self, drawn):
        texts, elements = zip(*drawn)
        seq = nmr.parse_sequence("n: 12\n" + " ".join(texts))
        assert (seq.n, seq.elements) == (12, elements)

    def test_unknown_library_name(self):
        with pytest.raises(KeyError):
            nmr.library_sequence("nonsense")

    def test_library_element_counts(self):
        assert len(nmr.library_sequence("serial-n2").elements) == 8
        transitions = [(e.from_label, e.to_label)
                       for e in nmr.library_sequence("selective-n3").elements
                       if isinstance(e, nmr.TransitionPulse)]
        assert transitions == [(6, 8), (5, 7), (7, 8), (5, 6), (3, 4)]
