"""End-to-end checks of the bundled pulse sequences against the transform.

This is the central verification of the pulse-level simulator: every
bundled sequence, run noiselessly from the pseudopure input, must
reproduce the relabeled-transform output, and its unitary must be the
map its header declares.  The sensitivity tests pin the calibration:
programs that mirror a wrong convention, and wrong correction angles,
fail it, so neither is decorative.
"""

import math
import re
from importlib import resources

import numpy as np
import pytest

from conftest import reversed_transform, sequence_fidelity, sequence_unitary, serial_program_text

from spinqft import core, nmr


class TestEndToEnd:
    @pytest.mark.parametrize("name", nmr.SEQUENCE_LIBRARY)
    def test_noiseless_fidelity(self, name):
        fid = sequence_fidelity(nmr.library_sequence(name))
        assert fid >= 0.999, f"{name}: fidelity {fid}"

    @pytest.mark.parametrize("name", nmr.SEQUENCE_LIBRARY)
    def test_fidelity_is_actually_exact(self, name):
        assert sequence_fidelity(nmr.library_sequence(name)) == pytest.approx(1.0, abs=1e-10)


def bundled_text(name: str) -> str:
    return resources.files("spinqft.sequences").joinpath(f"{name}.seq").read_text()


def with_replaced(name: str, old: str, new: str) -> nmr.PulseSequence:
    """Library sequence ``name`` with its one run of tokens ``old`` replaced by ``new``."""
    text = bundled_text(name)
    assert text.count(old) == 1
    return nmr.parse_sequence(text.replace(old, new))


def transform_maps(n: int) -> dict:
    """The two maps a program header may declare: P F, the transform then
    the reversal of the output bits (the ``simulate`` target), and F P, the
    reversal of the input bits then the transform."""
    return {"P F": reversed_transform(n),
            "F P": core.dft_oracle(n).entries @ core.bit_reversal_permutation(n).entries}


def is_map(seq: nmr.PulseSequence, target: np.ndarray) -> bool:
    return core.equal_up_to_global_phase(sequence_unitary(seq), target, 1e-12)[0]


class TestDeclaredMap:
    """Fidelity 1 from |0...0> cannot tell the transform from maps that
    agree on that one input, such as a layer of Hadamards; the whole
    unitary can."""

    @pytest.mark.parametrize("name", nmr.SEQUENCE_LIBRARY)
    def test_bundled_program_is_its_declared_map(self, name):
        (declared,) = re.findall(r"^# map: (P F|F P) ", bundled_text(name), re.M)
        seq = nmr.library_sequence(name)
        maps = transform_maps(seq.n)
        assert is_map(seq, maps.pop(declared))
        (other,) = maps.values()
        assert not is_map(seq, other)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_generated_serial_program_is_f_p(self, n):
        seq = nmr.parse_sequence(serial_program_text(n))
        maps = transform_maps(n)
        assert is_map(seq, maps["F P"]) and not is_map(seq, maps["P F"])

    @pytest.mark.parametrize("n", range(2, 10))
    def test_generated_coupling_angles_are_exact(self, n):
        # each {90_y}{theta_x}{90_-y} sandwich on spins m < k turns by 90/2**(k - m) degrees
        got = sorted((e.spins, e.angle) for e in nmr.parse_sequence(serial_program_text(n)).elements
                     if isinstance(e, nmr.SpinPulse) and len(e.spins) == 2
                     and e.phase == nmr.PHASE_X)
        assert got == [((m, k), math.radians(90 / 2 ** (k - m)))
                       for m in range(1, n) for k in range(m + 1, n + 1)]

    @pytest.mark.parametrize("n", [7, 8])
    @pytest.mark.parametrize("high", [False, True], ids=["a=1", "a=2**n-1"])
    def test_generated_serial_program_maps_a_to_column_rev_a(self, n, high):
        # too large for the dense unitary: run one basis state, |a><a| - I/2**n
        a = 2 ** n - 1 if high else 1
        dim = 2 ** n
        rho = -np.eye(dim, dtype=complex) / dim
        rho[a, a] += 1.0
        out = nmr.run(nmr.parse_sequence(serial_program_text(n)), n, core.DensityMatrix(rho))
        u = core.dft_oracle(n).entries[:, int(f"{a:0{n}b}"[::-1], 2)]
        expected = np.outer(u, u.conj()) - np.eye(dim) / dim
        assert np.max(np.abs(out.entries - expected)) <= 1e-14

    def test_hadamard_layer_fails_the_map_check(self):
        seq = nmr.parse_sequence("n: 3\n45y@s1,s2,s3 180x@s1,s2,s3 45-y@s1,s2,s3\n")
        assert sequence_fidelity(seq) == pytest.approx(1.0, abs=1e-12)
        assert not any(is_map(seq, m) for m in transform_maps(3).values())


class TestCalibrationIsLoadBearing:
    """The simulator has one calibration.  A program that physically
    mirrors another convention, or a wrong correction angle, must break
    the end-to-end check; otherwise the calibration would be untestable."""

    def test_coupling_sign_matters(self):
        # 180x pulses on either side of the delay refocus it, so serial-n2
        # runs as under the opposite coupling sign: each delay conjugated
        mirror = with_replaced("serial-n2", "delay:1/(4*J12)", "180x@s1 delay:1/(4*J12) 180x@s1")
        assert sequence_fidelity(mirror) == pytest.approx(1 / 3, abs=1e-9)
        flipped = np.eye(4)
        for e in nmr.library_sequence("serial-n2").elements:
            u = nmr.element_unitary(e, 2).entries
            flipped = (u.conj() if isinstance(e, nmr.CouplingDelay) else u) @ flipped
        ok, _ = core.equal_up_to_global_phase(sequence_unitary(mirror), flipped, 1e-12)
        assert ok

    def test_composite_z_sense_matters(self):
        # the z-correction turned the other way, as {90_x}{theta_y}{90_-x} would turn it
        mirror = with_replaced("selective-n2", "z45@s1", "z-45@s1")
        assert sequence_fidelity(mirror) == pytest.approx(1 / 3, abs=1e-9)

    def test_literal_sandwich_fails(self):
        # {90_x}{45_y}{90_x} read literally is no z rotation
        mirror = with_replaced("selective-n2", "z45@s1", "90x@s1 45y@s1 90x@s1")
        assert sequence_fidelity(mirror) == pytest.approx(1 / 3, abs=1e-9)

    def test_selective_n3_z_correction_angle(self):
        # the 67.5-degree z-correction on spin 1 is required; 90 degrees,
        # the angle of a program that is not the transform, falls short
        fid = sequence_fidelity(with_replaced("selective-n3", "z67.5@s1", "z90@s1"))
        assert 0.94 < fid < 0.999

    def test_parallel_n2_needs_post_delay_elements(self):
        # a sequence ending in a bare coupling interval cannot reach the
        # uniform-output state: the pre-delay state of spin-selective
        # pulses is a product state, and the coupling then either leaves
        # one spin in a z eigenstate or entangles the pair
        truncated = nmr.parse_sequence(
            "n: 2\n90y@s1,s2 180x@s1,s2 90y@s2 180x@s1,s2 delay:1/(4*J12)\n")
        fid = sequence_fidelity(truncated)
        assert fid == pytest.approx(0.2357, abs=1e-3)

    def test_echo_brackets_flip_the_coupling_sense(self):
        # bracketing a delay with 180-degree pulses inverts its effective
        # sign; under the global calibration the bracketed serial-n3
        # variant therefore fails hard
        bracketed = nmr.parse_sequence(
            "n: 3\n"
            "45y@s3 180x@s3 45-y@s3\n"
            "180x@s3 delay:1/(4*J23) 180-x@s3\n"
            "90y@s2,s3 45x@s2,s3 90-y@s2,s3\n"
            "45y@s2 180x@s2 45-y@s2\n"
            "180x@s1 delay:1/(8*J13) 180-x@s1\n"
            "90y@s1,s3 22.5x@s1,s3 90-y@s1,s3\n"
            "180x@s2 delay:1/(4*J12) 180x@s2\n"
            "90y@s1,s2 45x@s1,s2 90-y@s1,s2\n"
            "45y@s1 180x@s1 45-y@s1\n")
        assert sequence_fidelity(bracketed) < 0.1


class TestSpinCountDirective:
    @pytest.mark.parametrize("text,line,column", [
        ("n: abc\n90y@s1\n", 1, 1),
        ("# two spins\n  n: 0\n", 2, 3),
        ("90y@s1\nn: 13\n", 2, 1),
    ])
    def test_bad_count_reports_position(self, text, line, column):
        with pytest.raises(nmr.SequenceParseError, match="spin count") as exc:
            nmr.parse_sequence(text)
        assert (exc.value.line, exc.value.column) == (line, column)
        assert str(exc.value).startswith(f"line {line}, column {column}: ")


class TestDelayTokenErrors:
    @pytest.mark.parametrize("text,column,message", [
        ("n: 2\n90y@s1 delay:1/(0*J12)\n", 8, "denominator"),
        ("n: 2\n  delay:1/(2*J11)\n", 3, "differ"),
        ("n: 3\ndelay:{1/(4*J12),1/(8*J33)}\n", 1, "differ"),
    ], ids=["zero-denominator", "one-spin", "one-spin-in-list"])
    def test_bad_delay_reports_position(self, text, column, message):
        with pytest.raises(nmr.SequenceParseError, match=message) as exc:
            nmr.parse_sequence(text)
        assert (exc.value.line, exc.value.column) == (2, column)

    def test_delay_on_one_spin_is_refused(self):
        with pytest.raises(ValueError, match="differ"):
            nmr.CouplingDelay(((2, 2, 4),))


NINES = "9" * 400  # parses as an int, but as a float only to inf


class TestNumbersTooLargeForAFloat:
    @pytest.mark.parametrize("token,message", [
        (f"delay:1/({NINES}*J12)", "denominator"),
        (f"delay:{{1/(4*J12),1/({NINES}*J(1,2))}}", "denominator"),
        (f"{NINES}x@s1", "finite"),
        (f"{NINES}.5-y@t3-4", "finite"),
        (f"z{NINES}@s1", "finite"),
        (f"z-{NINES}@s2", "finite"),
    ], ids=["delay", "delay-in-list", "pulse", "transition", "z", "negative-z"])
    def test_number_too_large_for_a_float_reports_position(self, token, message):
        with pytest.raises(nmr.SequenceParseError, match=message) as exc:
            nmr.parse_sequence(f"n: 2\n90y@s1 {token}\n")
        assert (exc.value.line, exc.value.column) == (2, 8)

    def test_largest_float_denominator_is_a_zero_delay(self):
        m = int(1.7976931348623157e308)
        (e,) = nmr.parse_sequence(f"n: 2\ndelay:1/({m}*J12)\n").elements
        assert e.legs == ((1, 2, m),)
        assert nmr.element_seconds(e) == 0.0


LONG = "1" * 5000  # more digits than int() converts


class TestLabelsAboveTheCap:
    # a spin or pair label above MAX_QUBITS (12), or a transition label
    # above 2**12, is refused at its token, before int() reads its digits
    @pytest.mark.parametrize("token,message", [
        (f"90x@s{LONG}", "spin label above 12"),
        (f"90x@s1,s{'1' * 400}", "spin label above 12"),
        ("90x@s13", "spin label above 12"),
        (f"z45@s{'9' * 400}", "spin label above 12"),
        (f"delay:1/(4*J(1,{LONG}))", "spin label above 12"),
        (f"delay:{{1/(4*J12),1/(2*J({'7' * 400},2))}}", "spin label above 12"),
        (f"90x@t{LONG}-2", "transition label above 4096"),
        ("90-y@t1-4097", "transition label above 4096"),
    ], ids=["spin-5000-digits", "spin-400-digits", "spin-13", "z-spin", "pair-5000-digits",
            "pair-in-list", "transition-5000-digits", "transition-4097"])
    def test_label_above_the_cap_reports_position(self, token, message):
        with pytest.raises(nmr.SequenceParseError, match=message) as exc:
            nmr.parse_sequence(f"n: 2\n90y@s1 {token}\n")
        assert (exc.value.line, exc.value.column) == (2, 8)
        assert len(str(exc.value)) < 80

    def test_leading_zeros_are_not_digits(self):
        zeros = "0" * 5000
        text = (f"n: 12\n90x@s{zeros}12 z45@s{zeros}1 90x@t{zeros}4096-{zeros}4095 "
                f"delay:1/({zeros}4*J({zeros}1,{zeros}12))\n")
        pulse, z, transition, delay = nmr.parse_sequence(text).elements
        assert pulse.spins == (12,) and z.spin == 1
        assert (transition.from_label, transition.to_label) == (4096, 4095)
        assert delay.legs == ((1, 12, 4),)


class TestNoiseDegradation:
    @pytest.mark.parametrize("name", nmr.SEQUENCE_LIBRARY)
    def test_any_positive_rate_strictly_degrades(self, name):
        seq = nmr.library_sequence(name)
        noiseless = sequence_fidelity(seq)
        noisy = sequence_fidelity(seq, nmr.NoiseModel.uniform(seq.n, 5.0))
        assert noisy < noiseless

    @pytest.mark.parametrize("name", nmr.SEQUENCE_LIBRARY)
    def test_monotone_in_rate(self, name):
        seq = nmr.library_sequence(name)
        rates = [0.0, 2.0, 5.0, 10.0, 20.0]
        fids = [sequence_fidelity(seq, nmr.NoiseModel.uniform(seq.n, r) if r else None)
                for r in rates]
        assert all(b <= a + 1e-12 for a, b in zip(fids, fids[1:]))
