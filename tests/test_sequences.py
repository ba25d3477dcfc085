"""End-to-end checks of the bundled pulse sequences against the transform.

This is the central verification of the pulse-level simulator: every
bundled sequence, run noiselessly from the pseudopure input, must
reproduce the relabeled-transform output.  The sensitivity tests pin the
calibration: they show the convention toggles and the derived correction
angles are load-bearing, not decorative.
"""

import numpy as np
import pytest

from conftest import sequence_fidelity

from spinqft import nmr


class TestEndToEnd:
    @pytest.mark.parametrize("name", nmr.SEQUENCE_LIBRARY)
    def test_noiseless_fidelity(self, name):
        fid = sequence_fidelity(nmr.library_sequence(name))
        assert fid >= 0.999, f"{name}: fidelity {fid}"

    @pytest.mark.parametrize("name", nmr.SEQUENCE_LIBRARY)
    def test_fidelity_is_actually_exact(self, name):
        assert sequence_fidelity(nmr.library_sequence(name)) == pytest.approx(1.0, abs=1e-10)


class TestCalibrationIsLoadBearing:
    """Flipping any calibrated convention, or the derived correction
    angles, must break the end-to-end check; otherwise the calibration
    would be untestable."""

    def test_coupling_sign_matters(self):
        conv = nmr.Conventions(coupling_sign=+1)
        fid = sequence_fidelity(nmr.library_sequence("serial-n2"), conventions=conv)
        assert fid < 0.999

    def test_composite_z_sense_matters(self):
        conv = nmr.Conventions(composite_z=nmr.COMPOSITE_Z_XY_MINUS)
        fid = sequence_fidelity(nmr.library_sequence("selective-n2"), conventions=conv)
        assert fid < 0.999

    def test_literal_sandwich_fails(self):
        conv = nmr.Conventions(composite_z=nmr.COMPOSITE_Z_LITERAL)
        fid = sequence_fidelity(nmr.library_sequence("selective-n2"), conventions=conv)
        assert fid < 0.999

    def test_selective_n3_z_correction_angle(self):
        # the 90-degree z-correction on spin 1 is required; the 67.5-degree
        # variant (the angle a per-gate bookkeeping would suggest) falls short
        text = nmr.format_sequence(nmr.library_sequence("selective-n3"))
        degraded = text.replace("z90@s1", "z67.5@s1")
        fid = sequence_fidelity(nmr.parse_sequence(degraded))
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


class TestCouplingValueIndependence:
    def test_symbolic_delays_make_unitary_j_independent(self):
        seq = nmr.library_sequence("serial-n3")
        u_a = nmr.sequence_unitary(seq, nmr.default_system(3, 215.0)).entries
        u_b = nmr.sequence_unitary(seq, nmr.default_system(3, 50.0)).entries
        np.testing.assert_allclose(u_a, u_b, atol=1e-12)


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
