"""Core linear algebra: oracle values, unitarity, conjugation, phases."""

import cmath

import numpy as np
import pytest

from spinqft import core


class TestDftOracle:
    def test_n1_is_hadamard(self):
        u = core.dft_oracle(1)
        np.testing.assert_allclose(u.entries, core.HADAMARD, atol=1e-15)

    def test_n2_entry_3_3(self):
        # direct evaluation of exp(2*pi*i*9/4)/2 = i/2
        expected = cmath.exp(2j * cmath.pi * 9 / 4) / 2
        u = core.dft_oracle(2)
        assert abs(u.entries[3, 3] - expected) < 1e-15
        assert abs(u.entries[3, 3] - 0.5j) < 1e-15

    def test_uniform_on_zero_column(self):
        u = core.dft_oracle(2)
        np.testing.assert_allclose(u.entries[:, 0], np.full(4, 0.5), atol=1e-15)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_equals_the_per_entry_item_assignment_loop(self, n):
        # the oracle's former fill, kept as the reference for its row-by-row fill
        q = 2 ** n
        w = [cmath.exp(2j * cmath.pi * t / q) / cmath.sqrt(q) for t in range(q)]
        m = np.empty((q, q), dtype=complex)
        for c in range(q):
            for a in range(q):
                m[c, a] = w[a * c % q]
        assert np.array_equal(core.dft_oracle(n).entries, m)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_unitary_up_to_n10(self, n):
        u = core.dft_oracle(n).entries
        np.testing.assert_allclose(u @ u.conj().T, np.eye(2 ** n), atol=1e-10)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_columns_against_scalar_loop(self, n):
        # independent scalar evaluation of each column as roots of unity
        q = 2 ** n
        u = core.dft_oracle(n).entries
        for a in range(q):
            col = np.array([cmath.exp(2j * cmath.pi * a * c / q) for c in range(q)])
            np.testing.assert_allclose(u[:, a], col / np.sqrt(q), atol=1e-13)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_fft_reference_to_roundoff(self, n):
        # each entry is one exp of an exactly reduced argument below 2*pi
        q = 2 ** n
        reference = np.fft.ifft(np.eye(q), axis=0) * np.sqrt(q)
        assert np.max(np.abs(core.dft_oracle(n).entries - reference)) <= 1e-15

    @pytest.mark.parametrize("n", [0, -1, 13])
    def test_size_errors(self, n):
        with pytest.raises(ValueError):
            core.dft_oracle(n)


class TestApplyConjugate:
    def test_conjugate_uniform_projector(self):
        # the deviation |00><00| - I/4 goes to the uniform projector minus I/4
        rho = core.DensityMatrix(np.diag([0.75, -0.25, -0.25, -0.25]).astype(complex))
        out = core.conjugate(core.dft_oracle(2), rho)
        np.testing.assert_allclose(out.entries, np.full((4, 4), 0.25) - np.eye(4) / 4,
                                   atol=1e-15)

    def test_conjugate_preserves_trace_and_hermiticity(self):
        rng = np.random.default_rng(11)
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho = m + m.conj().T
        rho -= np.trace(rho) / 8 * np.eye(8)
        out = core.conjugate(core.dft_oracle(3), core.DensityMatrix(rho))
        assert abs(np.trace(out.entries)) < 1e-12
        np.testing.assert_allclose(out.entries, out.entries.conj().T, atol=1e-12)

    def test_dimension_mismatch(self):
        rho = core.DensityMatrix(np.diag([0.75, -0.25, -0.25, -0.25]).astype(complex))
        with pytest.raises(ValueError,
                           match="^dimension mismatch: operator on 1 qubits, state on 2$"):
            core.conjugate(core.dft_oracle(1), rho)


class TestGlobalPhase:
    def test_reflexive(self):
        a = core.dft_oracle(2)
        ok, gamma = core.equal_up_to_global_phase(a, a)
        assert ok and abs(gamma) < 1e-12

    def test_phase_extraction(self):
        a = core.dft_oracle(2).entries
        ok, gamma = core.equal_up_to_global_phase(1j * a, a)
        assert ok and abs(gamma - np.pi / 2) < 1e-12

    def test_perturbation_fails(self):
        a = core.dft_oracle(2).entries
        b = np.array(a)
        b[0, 0] += 1e-3
        ok, _ = core.equal_up_to_global_phase(b, a, tol=1e-6)
        assert not ok

    def test_shapes_that_differ_are_unequal_even_where_they_broadcast(self):
        assert core.equal_up_to_global_phase(np.ones((1, 1)), np.ones((2, 2))) == (False, 0.0)

    @pytest.mark.parametrize("scale,equal", [(1e-12, True), (1e-3, False)])
    def test_a_zero_reference_equals_what_is_within_tol_of_zero_at_phase_zero(self, scale, equal):
        a = 1j * scale * np.ones((2, 2))  # gamma stays 0.0, not the phase of a
        assert core.equal_up_to_global_phase(a, np.zeros((2, 2))) == (equal, 0.0)

    def test_equivalence_relation(self):
        # reflexive + symmetric + transitive at a third of the tolerance
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
        tol = 1e-9
        mats = [q, np.exp(0.7j) * q + 0, np.exp(-1.2j) * q]
        for m in mats:
            assert core.equal_up_to_global_phase(m, m, tol)[0]
        for x in mats:
            for y in mats:
                ok_xy, _ = core.equal_up_to_global_phase(x, y, tol / 3)
                ok_yx, _ = core.equal_up_to_global_phase(y, x, tol / 3)
                assert ok_xy == ok_yx
        for x in mats:
            for y in mats:
                for z in mats:
                    if core.equal_up_to_global_phase(x, y, tol / 3)[0] and \
                       core.equal_up_to_global_phase(y, z, tol / 3)[0]:
                        assert core.equal_up_to_global_phase(x, z, tol)[0]


class TestTensorAndBitReversal:
    def test_bit_reversal_n1_identity(self):
        np.testing.assert_allclose(core.bit_reversal_permutation(1).entries, np.eye(2))

    def test_bit_reversal_n2_swaps_middle(self):
        p = core.bit_reversal_permutation(2).entries
        assert p[2, 1] == 1 and p[1, 2] == 1 and p[0, 0] == 1 and p[3, 3] == 1

    @pytest.mark.parametrize("n", range(1, 9))
    def test_involution(self, n):
        p = core.bit_reversal_permutation(n).entries
        np.testing.assert_allclose(p @ p, np.eye(2 ** n), atol=0)


class TestTransitionLabels:
    def test_valid_single_quantum(self):
        assert core.transition_states(3, 4, 2) == (2, 3)
        assert core.transition_states(6, 8, 3) == (5, 7)

    def test_rejects_multi_bit(self):
        with pytest.raises(ValueError):
            core.transition_states(1, 4, 2)  # 00 -> 11 flips two bits

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            core.transition_states(3, 5, 2)

    @pytest.mark.parametrize("n,r", [(1, 1), (2, 3), (3, 8)])
    def test_rejects_equal_endpoints(self, n, r):
        # r ^ r == 0 passes the one-bit test, so only this refusal stops it
        with pytest.raises(ValueError, match=r"^transition endpoints must differ$"):
            core.transition_states(r, r, n)


class TestValidation:
    def test_non_hermitian_rejected(self):
        m = np.diag([0.5, -0.5]).astype(complex)
        m[0, 1] = 1.0
        with pytest.raises(ValueError, match="Hermitian"):
            core.DensityMatrix(m)

    def test_nonzero_trace_rejected(self):
        # every density matrix is a deviation matrix, so a trace-1 state is refused
        core.DensityMatrix(np.diag([0.5, -0.5]).astype(complex))
        for diag in ([1.0, 0.0], [1.5, -0.5 + 1e-6]):
            with pytest.raises(ValueError, match="traceless"):
                core.DensityMatrix(np.diag(diag).astype(complex))

    def test_trace_tolerance_scales_with_the_largest_entry(self):
        # 1e-9 times the largest magnitude, 1e3 here: 5e-7 is inside, 5e-6 is not
        core.DensityMatrix(np.diag([1e3, -1e3 + 5e-7]).astype(complex))
        with pytest.raises(ValueError, match="traceless"):
            core.DensityMatrix(np.diag([1e3, -1e3 + 5e-6]).astype(complex))

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            core.UnitaryMatrix(np.array([[1, 0], [0, 2.0]]))

    def test_unitarity_tolerance_is_1e_10(self):
        # m m^H misses the identity by 2e-6, then 2e-10, on the diagonal
        for scale in (1 + 1e-6, 1 + 1e-10):
            with pytest.raises(ValueError, match="not unitary"):
                core.UnitaryMatrix(np.eye(2) * scale)
        core.UnitaryMatrix(np.eye(2) * (1 + 1e-11))  # misses it by 2e-11

    def test_hermiticity_tolerance_is_1e_12(self):
        # at unit scale, m - m^H of 5e-13 is accepted and one of 2e-12 is refused
        core.DensityMatrix(np.array([[1.0, 5e-13], [0.0, -1.0]], dtype=complex))
        with pytest.raises(ValueError, match="not Hermitian"):
            core.DensityMatrix(np.array([[1.0, 2e-12], [0.0, -1.0]], dtype=complex))

    @pytest.mark.parametrize("make", [
        lambda m: core.UnitaryMatrix(m),
        lambda m: core.DensityMatrix(m),
    ], ids=["unitary", "density"])
    @pytest.mark.parametrize("bad", [np.nan, pytest.param(
        np.inf, marks=pytest.mark.filterwarnings("ignore::RuntimeWarning"))])
    def test_non_finite_entry_rejected(self, make, bad):
        with pytest.raises(ValueError):
            make(np.array([[bad, 0], [0, 1]], dtype=complex))
