"""Pulse elements, conventions, the sequence DSL, preparation and noise."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_traceless_hermitian

from spinqft import core, nmr

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def one_spin():
    return nmr.SpinSystem(1, ())


class TestSpinPulse:
    def test_pi_x_is_minus_i_sigma_x(self):
        u = nmr.element_unitary(nmr.SpinPulse((1,), math.pi, nmr.PHASE_X), one_spin())
        np.testing.assert_allclose(u.entries, -1j * SX, atol=1e-15)

    def test_zero_angle_exact_identity(self):
        u = nmr.element_unitary(nmr.SpinPulse((1,), 0.0, nmr.PHASE_Y), one_spin())
        assert np.array_equal(u.entries, np.eye(2))

    def test_90y_on_zero_gives_plus(self):
        u = nmr.element_unitary(nmr.SpinPulse((1,), math.pi / 2, nmr.PHASE_Y), one_spin())
        np.testing.assert_allclose(u.entries @ [1, 0], [1 / np.sqrt(2), 1 / np.sqrt(2)],
                                   atol=1e-15)

    def test_pulse_pair_makes_hadamard(self):
        # 90y then 180x is the Hadamard up to a global phase
        sys1 = one_spin()
        u1 = nmr.element_unitary(nmr.SpinPulse((1,), math.pi / 2, nmr.PHASE_Y), sys1).entries
        u2 = nmr.element_unitary(nmr.SpinPulse((1,), math.pi, nmr.PHASE_X), sys1).entries
        ok, _ = core.equal_up_to_global_phase(u2 @ u1, core.HADAMARD, 1e-12)
        assert ok

    def test_disjoint_pulses_commute(self):
        system = nmr.default_system(4)
        a = nmr.element_unitary(nmr.SpinPulse((1, 3), 0.7, nmr.PHASE_X), system).entries
        b = nmr.element_unitary(nmr.SpinPulse((2, 4), 1.1, nmr.PHASE_MINUS_Y), system).entries
        np.testing.assert_allclose(a @ b, b @ a, atol=1e-13)

    def test_spin_out_of_range(self):
        with pytest.raises(ValueError):
            nmr.element_unitary(nmr.SpinPulse((3,), 1.0, 0.0), nmr.chloroform())


class TestTransitionPulse:
    def test_pi_pulse_swaps_upper_pair(self):
        u = nmr.element_unitary(nmr.TransitionPulse(3, 4, math.pi, nmr.PHASE_X),
                                nmr.chloroform()).entries
        np.testing.assert_allclose(u[:2, :2], np.eye(2), atol=1e-15)
        np.testing.assert_allclose(u[2:, 2:], -1j * SX, atol=1e-15)

    def test_invalid_transition(self):
        with pytest.raises(ValueError):
            nmr.element_unitary(nmr.TransitionPulse(1, 4, math.pi, 0.0), nmr.chloroform())

    def test_disjoint_transitions_commute(self):
        system = nmr.default_system(3)
        a = nmr.element_unitary(nmr.TransitionPulse(5, 7, 1.0, 0.0), system).entries
        b = nmr.element_unitary(nmr.TransitionPulse(3, 4, 0.5, nmr.PHASE_Y), system).entries
        np.testing.assert_allclose(a @ b, b @ a, atol=1e-14)


class TestCouplingDelay:
    def test_half_j_matrix_under_uncalibrated_sign(self):
        # with the exponent exp(-i 2 pi J t IzIz), a 1/(2J) delay gives
        # diag(e^{-i pi/4}, e^{+i pi/4}, e^{+i pi/4}, e^{-i pi/4})
        conv = nmr.Conventions(coupling_sign=+1)
        delay = nmr.CouplingDelay(((1, 2, nmr.SymbolicDuration(2)),))
        u = nmr.element_unitary(delay, nmr.chloroform(), conv).entries
        q = np.exp(-1j * np.pi / 4)
        np.testing.assert_allclose(u, np.diag([q, q.conjugate(), q.conjugate(), q]), atol=1e-15)

    def test_calibrated_sign_is_conjugate(self):
        delay = nmr.CouplingDelay(((1, 2, nmr.SymbolicDuration(2)),))
        u_cal = nmr.element_unitary(delay, nmr.chloroform()).entries
        u_raw = nmr.element_unitary(delay, nmr.chloroform(),
                                    nmr.Conventions(coupling_sign=+1)).entries
        np.testing.assert_allclose(u_cal, u_raw.conj(), atol=1e-15)

    def test_zero_duration_exact_identity(self):
        delay = nmr.CouplingDelay(((1, 2, 0.0),))
        u = nmr.element_unitary(delay, nmr.chloroform()).entries
        assert np.array_equal(u, np.eye(4))

    def test_symbolic_needs_known_coupling(self):
        system = nmr.SpinSystem(3, ((1, 2, 215.0),))
        delay = nmr.CouplingDelay(((1, 3, nmr.SymbolicDuration(4)),))
        with pytest.raises(KeyError):
            nmr.element_unitary(delay, system)

    def test_offsets_advance_during_longest_leg(self):
        system = nmr.SpinSystem(2, ((1, 2, 215.0),), offsets=(100.0, 0.0))
        delay = nmr.CouplingDelay(((1, 2, 1e-3),))
        u = nmr.element_unitary(delay, system).entries
        on_res = nmr.element_unitary(delay, nmr.chloroform()).entries
        z_phase = np.exp(-1j * 2 * np.pi * 100.0 * 1e-3 * 0.5)
        expected = np.diag([z_phase, z_phase, z_phase.conjugate(), z_phase.conjugate()]) @ on_res
        np.testing.assert_allclose(u, expected, atol=1e-14)


class TestCompositeZ:
    def test_default_expansion_is_plus_z_rotation(self):
        u = nmr.element_unitary(nmr.CompositeZ(1, math.pi / 4), one_spin()).entries
        np.testing.assert_allclose(u, np.diag([np.exp(-1j * np.pi / 8),
                                               np.exp(1j * np.pi / 8)]), atol=1e-15)

    def test_negative_angle_inverts(self):
        plus = nmr.element_unitary(nmr.CompositeZ(1, 0.9), one_spin()).entries
        minus = nmr.element_unitary(nmr.CompositeZ(1, -0.9), one_spin()).entries
        np.testing.assert_allclose(plus @ minus, np.eye(2), atol=1e-14)

    def test_xy_minus_convention_flips_sense(self):
        conv = nmr.Conventions(composite_z=nmr.COMPOSITE_Z_XY_MINUS)
        u = nmr.element_unitary(nmr.CompositeZ(1, math.pi / 4), one_spin(), conv).entries
        np.testing.assert_allclose(u, np.diag([np.exp(1j * np.pi / 8),
                                               np.exp(-1j * np.pi / 8)]), atol=1e-15)

    def test_literal_expansion_is_not_a_z_rotation(self):
        conv = nmr.Conventions(composite_z=nmr.COMPOSITE_Z_LITERAL)
        u = nmr.element_unitary(nmr.CompositeZ(1, math.pi / 4), one_spin(), conv).entries
        assert np.max(np.abs(u - np.diag(np.diag(u)))) > 0.5  # large off-diagonal part

    def test_expansion_element_count(self):
        assert len(nmr.expand_composite_z(nmr.CompositeZ(2, 1.0))) == 3


class TestElementUnitarity:
    def test_random_elements_are_unitary(self):
        # UnitaryMatrix construction enforces the 1e-10 check; sweep random
        # parameters through every element kind
        rng = np.random.default_rng(31)
        system = nmr.default_system(3)
        for _ in range(50):
            angle = rng.uniform(0, 2 * math.pi)
            phase = rng.choice([nmr.PHASE_X, nmr.PHASE_Y, nmr.PHASE_MINUS_X,
                                nmr.PHASE_MINUS_Y])
            spins = tuple(rng.choice([1, 2, 3], size=rng.integers(1, 4), replace=False))
            nmr.element_unitary(nmr.SpinPulse(spins, angle, phase), system)
            nmr.element_unitary(nmr.CompositeZ(int(rng.integers(1, 4)),
                                               rng.uniform(-math.pi, math.pi)), system)
            nmr.element_unitary(nmr.TransitionPulse(3, 4, angle, phase), system)
            delay = nmr.CouplingDelay(((1, 2, rng.uniform(0, 5e-3)),
                                       (2, 3, nmr.SymbolicDuration(int(rng.integers(1, 9))))))
            nmr.element_unitary(delay, system)


class TestSequenceEvaluation:
    def test_empty_sequence_is_identity(self):
        seq = nmr.PulseSequence("empty", 2, ())
        u = nmr.sequence_unitary(seq, nmr.chloroform())
        assert np.array_equal(u.entries, np.eye(4))

    def test_all_library_sequences_are_unitary(self):
        for name in nmr.SEQUENCE_LIBRARY:
            seq = nmr.library_sequence(name)
            system = nmr.system_for_sequence(seq)
            u = nmr.sequence_unitary(seq, system)  # constructor checks unitarity
            assert u.n == seq.n

    def test_noiseless_run_equals_conjugation_exactly(self):
        seq = nmr.library_sequence("serial-n2")
        system = nmr.chloroform()
        rho = nmr.pseudopure_projector_deviation(2)
        direct = nmr.run(seq, system, rho)
        u = nmr.sequence_unitary(seq, system)
        np.testing.assert_allclose(direct.entries,
                                   u.entries @ rho.entries @ u.entries.conj().T, atol=0)

    def test_zero_rate_noise_identical_to_noiseless(self):
        seq = nmr.library_sequence("parallel-n2")
        system = nmr.chloroform()
        rho = nmr.pseudopure_projector_deviation(2)
        quiet = nmr.run(seq, system, rho, nmr.NoiseModel.uniform(2, 0.0))
        np.testing.assert_allclose(quiet.entries, nmr.run(seq, system, rho).entries, atol=0)


def local_conjugation_cases():
    default = nmr.DEFAULT_CONVENTIONS
    for n in range(1, 6):
        pairs = tuple((j, k, 40.0 * j + 7.0 * k)
                      for j in range(1, n + 1) for k in range(j + 1, n + 1))
        system = nmr.SpinSystem(n, pairs, offsets=(12.0, 0.0, -30.0, 4.5, 0.0)[:n])
        yield pytest.param(system, nmr.SpinPulse(tuple(range(1, n + 1)), 1.3, 0.7), default,
                           id=f"n{n}-all-spins")
        yield pytest.param(system, nmr.SpinPulse((n,), 2.2, nmr.PHASE_MINUS_Y), default,
                           id=f"n{n}-last-spin")
        if n >= 3:
            yield pytest.param(system, nmr.SpinPulse((1, 3), 0.4, nmr.PHASE_Y), default,
                               id=f"n{n}-spins-1-3")
        for a in range(2 ** n):
            b = a ^ (1 << (a % n))  # flip one bit: a single-quantum transition
            pulse = nmr.TransitionPulse(a + 1, b + 1, 0.9 + a,
                                        nmr.PHASE_X if a % 2 else nmr.PHASE_MINUS_Y)
            yield pytest.param(system, pulse, default, id=f"n{n}-t{a + 1}-{b + 1}")
        if n >= 2:
            legs = [(1, n, nmr.SymbolicDuration(4)), (1, 2, 1.3e-3)]
            if n >= 3:
                legs.append((2, 3, nmr.SymbolicDuration(8)))
            for sign in (1, -1):
                yield pytest.param(system, nmr.CouplingDelay(tuple(legs)),
                                   nmr.Conventions(coupling_sign=sign),
                                   id=f"n{n}-delay-sign{sign:+d}")
        for conv in (nmr.COMPOSITE_Z_LITERAL, nmr.COMPOSITE_Z_XY_MINUS, nmr.COMPOSITE_Z_MINUS_XY):
            for angle in (0.8, -2.1):
                yield pytest.param(system, nmr.CompositeZ(n, angle),
                                   nmr.Conventions(composite_z=conv), id=f"n{n}-z{angle:+}-{conv}")


@pytest.mark.parametrize("system,e,conv", list(local_conjugation_cases()))
def test_local_conjugation_equals_dense_conjugation(system, e, conv):
    rho = random_traceless_hermitian(system.n, np.random.default_rng(system.n)).entries
    u = nmr.element_unitary(e, system, conv).entries
    got = nmr._conjugate_element(rho, e, system, conv)
    np.testing.assert_allclose(got, u @ rho @ u.conj().T, rtol=0, atol=1e-14)


def serial_program(n):
    """The serial transform on ``n`` spins as DSL text: per spin m, a
    coupling interval and z-correction sandwich for each later spin k,
    then the composite Hadamard on m."""
    tokens = []
    for m in range(n, 0, -1):
        for k in range(n, m, -1):
            d = k - m
            tokens += [f"delay:1/({2 ** (d + 1)}*J{m}{k})", f"90y@s{m},s{k}",
                       f"{90.0 / 2 ** d:g}x@s{m},s{k}", f"90-y@s{m},s{k}"]
        tokens += [f"45y@s{m}", f"180x@s{m}", f"45-y@s{m}"]
    return nmr.parse_sequence(f"name: serial-{n}\nn: {n}\n" + " ".join(tokens) + "\n")


def noisy_programs():
    for name in nmr.SEQUENCE_LIBRARY:
        yield pytest.param(nmr.library_sequence(name), id=name)
    for seq in nmr.pseudopure_cycle_sequences():
        yield pytest.param(seq, id=seq.name)
    for n in (4, 5, 6):
        yield pytest.param(serial_program(n), id=f"serial-{n}")


class TestNoisyRun:
    @pytest.mark.parametrize("seq", list(noisy_programs()))
    def test_matches_dense_reference_loop(self, seq):
        system = nmr.system_for_sequence(seq)
        rho = (nmr.prepare_pseudopure_temporal_avg(system) if seq.n == 2
               else nmr.pseudopure_projector_deviation(seq.n))
        noise = nmr.NoiseModel(tuple(3.0 + 2.0 * j for j in range(seq.n)))
        state = rho.entries
        for e in seq.elements:  # dense unitary per element, then the channel
            u = nmr.element_unitary(e, system).entries
            d = noise.damping_matrix(seq.n, noise.element_seconds(e, system))
            state = (u @ state @ u.conj().T) * d
        np.testing.assert_allclose(nmr.run(seq, system, rho, noise).entries, state,
                                   rtol=0, atol=1e-14)

    def test_damping_built_once_per_distinct_element_time(self, monkeypatch):
        seq = serial_program(4)
        system = nmr.system_for_sequence(seq)
        noise = nmr.NoiseModel.uniform(4, 5.0)
        calls = []
        build = nmr.NoiseModel.damping_matrix

        def counting(self, n, seconds):
            calls.append(seconds)
            return build(self, n, seconds)

        monkeypatch.setattr(nmr.NoiseModel, "damping_matrix", counting)
        nmr.run(seq, system, nmr.pseudopure_projector_deviation(4), noise)
        times = [noise.element_seconds(e, system) for e in seq.elements]
        assert len(times) > len(set(times))
        assert sorted(calls) == sorted(set(times))

    @pytest.mark.parametrize("e,system", [
        (nmr.SpinPulse((1,), math.nan, 0.0), nmr.chloroform()),
        (nmr.TransitionPulse(3, 4, math.nan, 0.0), nmr.chloroform()),
        (nmr.CompositeZ(2, math.nan), nmr.chloroform()),
        pytest.param(nmr.CouplingDelay(((1, 2, 1e-3),)), nmr.SpinSystem(2, ((1, 2, math.inf),)),
                     marks=pytest.mark.filterwarnings("ignore::RuntimeWarning")),
    ], ids=["spin-pulse", "transition", "composite-z", "delay"])
    def test_non_finite_element_is_rejected(self, e, system):
        seq = nmr.PulseSequence("bad", 2, (e,))
        rho = nmr.pseudopure_projector_deviation(2)
        for noise in (None, nmr.NoiseModel.uniform(2, 5.0)):
            with pytest.raises(ValueError, match="unit"):
                nmr.run(seq, system, rho, noise)


class TestPseudopurePreparation:
    def test_unit_weights(self):
        rho = nmr.prepare_pseudopure_temporal_avg()
        target = nmr.pseudopure_projector_deviation(2).entries
        np.testing.assert_allclose(rho.entries, (4.0 / 3.0) * target, atol=1e-12)
        np.testing.assert_allclose(np.diag(rho.entries).real,
                                   [1, -1 / 3, -1 / 3, -1 / 3], atol=1e-12)

    @pytest.mark.parametrize("a,b", [(1.0, 1.0), (4.0, 1.0), (nmr.GAMMA_RATIO_H_TO_C, 1.0)])
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
            nmr.prepare_pseudopure_temporal_avg(nmr.default_system(3))


class TestNoise:
    def test_purity_never_increases(self):
        seq = nmr.library_sequence("serial-n2")
        system = nmr.chloroform()
        rho = nmr.pseudopure_projector_deviation(2)
        noise = nmr.NoiseModel.uniform(2, 20.0)
        out = nmr.run(seq, system, rho, noise)
        assert out.purity() <= rho.purity() + 1e-12

    def test_damping_hits_single_spin_coherence(self):
        noise = nmr.NoiseModel((10.0, 0.0))
        d = noise.damping_matrix(2, 0.01)
        g = math.exp(-0.1)
        assert d[0, 0] == 1.0
        assert d[0, 2] == pytest.approx(g)   # spin-1 coherence damped
        assert d[0, 1] == pytest.approx(1.0)  # spin-2 untouched at zero rate

    def test_element_durations(self):
        noise = nmr.NoiseModel.uniform(2, 1.0)
        system = nmr.chloroform()
        assert noise.element_seconds(nmr.SpinPulse((1,), 1.0, 0.0), system) == 10e-6
        assert noise.element_seconds(nmr.TransitionPulse(3, 4, 1.0, 0.0), system) == 6.5e-3
        assert noise.element_seconds(nmr.CompositeZ(1, 1.0), system) == pytest.approx(30e-6)
        delay = nmr.CouplingDelay(((1, 2, nmr.SymbolicDuration(4)),))
        assert noise.element_seconds(delay, system) == pytest.approx(1 / (4 * 215.0))

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            nmr.NoiseModel((-1.0, 0.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_values_rejected(self, bad):
        for make in (lambda: nmr.NoiseModel((bad, 0.0)),
                     lambda: nmr.NoiseModel((1.0, 0.0), spin_pulse_seconds=bad),
                     lambda: nmr.NoiseModel((1.0, 0.0), transition_pulse_seconds=bad)):
            with pytest.raises(ValueError, match="finite"):
                make()


DEGREES = st.integers(0, 12).flatmap(
    lambda places: st.decimals(0, 720, places=places)).map(lambda d: format(d, "f"))
SPIN = st.integers(1, 9)
DSL_TOKENS = st.one_of(
    st.builds("{}{}{}@s{}".format, DEGREES, st.sampled_from(["", "-"]),
              st.sampled_from("xy"), st.lists(SPIN, min_size=1, max_size=3).map(
                  lambda spins: ",s".join(map(str, spins)))),
    st.builds("{}{}{}@t{}-{}".format, DEGREES, st.sampled_from(["", "-"]),
              st.sampled_from("xy"), st.integers(1, 512), st.integers(1, 512)),
    st.builds("z{}{}@s{}".format, st.sampled_from(["", "-"]), DEGREES, SPIN),
    st.builds("delay:1/({}*J{}{})".format, st.integers(1, 64), SPIN, SPIN)
    .filter(lambda t: t[-3] != t[-2]))


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
        assert single.durations == ((1, 2, nmr.SymbolicDuration(4)),)
        assert braced.durations == ((1, 2, nmr.SymbolicDuration(4)),
                                    (1, 3, nmr.SymbolicDuration(8)))

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

    def test_missing_spin_count(self):
        with pytest.raises(nmr.SequenceParseError):
            nmr.parse_sequence("90y@s1\n")

    def test_format_roundtrip(self):
        for name in nmr.SEQUENCE_LIBRARY:
            seq = nmr.library_sequence(name)
            back = nmr.parse_sequence(nmr.format_sequence(seq))
            assert back.n == seq.n
            assert len(back.elements) == len(seq.elements)
            system = nmr.system_for_sequence(seq)
            np.testing.assert_allclose(nmr.sequence_unitary(back, system).entries,
                                       nmr.sequence_unitary(seq, system).entries, atol=1e-12)

    def test_format_refuses_delay_spins_it_cannot_parse(self):
        short = nmr.CouplingDelay(((1, 9, nmr.SymbolicDuration(2)),))
        assert nmr.parse_sequence("n: 9\n" + nmr.format_element(short)).elements == (short,)
        with pytest.raises(ValueError):
            nmr.format_element(nmr.CouplingDelay(((1, 10, nmr.SymbolicDuration(2)),)))

    def test_format_keeps_every_digit_of_an_angle(self):
        # 90/2**8 degrees: the 1-9 pulse of the generated n = 9 serial program
        token = "0.3515625x@s1,s9"
        (e,) = nmr.parse_sequence("n: 9\n" + token).elements
        assert nmr.format_element(e) == token

    @pytest.mark.parametrize("e", [
        nmr.SpinPulse((1,), math.pi / 2, 0.3),
        nmr.TransitionPulse(1, 2, math.pi / 2, nmr.PHASE_Y + 1e-9),
        nmr.SpinPulse((1,), -1.0, nmr.PHASE_X),
        nmr.TransitionPulse(1, 2, -math.pi, nmr.PHASE_Y),
        nmr.SpinPulse((1,), math.inf, nmr.PHASE_X),
        nmr.CompositeZ(1, math.nan),
    ], ids=["off-label-phase", "near-label-phase", "negative-pulse", "negative-transition",
            "infinite-pulse", "nan-z"])
    def test_format_refuses_what_it_cannot_write_back(self, e):
        with pytest.raises(ValueError):
            nmr.format_element(e)

    def test_format_writes_a_negative_z_angle_and_an_equivalent_phase(self):
        seq = nmr.PulseSequence("s", 1, (nmr.CompositeZ(1, -1.0),
                                         nmr.SpinPulse((1,), 1.0, -math.pi / 2)))
        back = nmr.parse_sequence(nmr.format_sequence(seq)).elements
        assert back[0] == seq.elements[0]
        assert back[1] == nmr.SpinPulse((1,), 1.0, nmr.PHASE_MINUS_Y)

    @settings(deadline=None)
    @given(st.lists(DSL_TOKENS, min_size=1, max_size=8))
    def test_parse_format_parse_gives_equal_elements(self, tokens):
        seq = nmr.parse_sequence("n: 9\n" + " ".join(tokens))
        back = nmr.parse_sequence(nmr.format_sequence(seq))
        assert (back.n, back.elements) == (seq.n, seq.elements)

    def test_unknown_library_name(self):
        with pytest.raises(KeyError):
            nmr.library_sequence("nonsense")

    def test_library_element_counts(self):
        assert len(nmr.library_sequence("serial-n2").elements) == 8
        transitions = [(e.from_label, e.to_label)
                       for e in nmr.library_sequence("selective-n3").elements
                       if isinstance(e, nmr.TransitionPulse)]
        assert transitions == [(6, 8), (5, 7), (7, 8), (5, 6), (3, 4)]
