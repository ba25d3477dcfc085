"""Core linear algebra: oracle values, unitarity, conjugation, phases."""

import cmath
import functools

import numpy as np
import pytest

from conftest import random_traceless_hermitian, reversed_transform

from spinqft import core, nmr


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

    @pytest.mark.parametrize("n", range(1, 7))
    def test_conjugate_equals_the_dense_product_on_random_states(self, n):
        rng = np.random.default_rng(40 + n)
        g = rng.normal(size=(2, 2 ** n, 2 ** n))
        u, _ = np.linalg.qr(g[0] + 1j * g[1])
        rho = random_traceless_hermitian(n, rng)
        np.testing.assert_allclose(core.conjugate(core.UnitaryMatrix(u), rho).entries,
                                   u @ rho.entries @ u.conj().T, rtol=0, atol=1e-15)

    def test_conjugate_equals_the_dense_product_on_the_temporal_average(self):
        u, rho = reversed_transform(2), nmr.prepare_pseudopure_temporal_avg()
        np.testing.assert_allclose(core.conjugate(core.UnitaryMatrix(u), rho).entries,
                                   u @ rho.entries @ u.conj().T, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n", range(3, 10))
    def test_conjugate_of_the_pseudopure_input_is_one_exact_outer_product(self, n):
        # rho - cI is |0><0| alone, so every entry off the diagonal is one
        # rounded product of two entries 2**(-n/2) of U's first column
        q = 2 ** n
        out = core.conjugate(core.UnitaryMatrix(reversed_transform(n)),
                             nmr.pseudopure_projector_deviation(n)).entries
        assert np.all(out.imag == 0.0)
        off = out[~np.eye(q, dtype=bool)].view(np.uint64).reshape(-1, 2)
        assert np.all(off == off[0])
        diag = out.diagonal().copy().view(np.uint64).reshape(-1, 2)
        assert np.all(diag == diag[0])
        np.testing.assert_allclose(out, np.full((q, q), 1.0 / q) - np.eye(q) / q,
                                   rtol=0, atol=1e-16)

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

    def test_row_blocks_through_a_row_index_give_the_whole_matrix_phase_and_deviation(self):
        # ties for the largest |B| in three row blocks, each of another phase:
        # gamma is taken at the first in row-major order, as np.argmax finds it
        rng = np.random.default_rng(8)
        q = 512
        b = rng.uniform(0.1, 1.0, (q, q)) * np.exp(2j * np.pi * rng.uniform(size=(q, q)))
        b[200, 9], b[300, 5], b[450, 0] = 2.0j, 2.0, -2.0
        rows = rng.permutation(q)
        a = np.empty_like(b)
        a[rows] = np.exp(0.4j) * b + 1e-12 * rng.normal(size=(q, q))
        am = a[rows]
        idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
        gamma = float(np.angle(am[idx]) - np.angle(b[idx]))
        dev = float(np.max(np.abs(am - np.exp(1j * gamma) * b)))
        assert core._phase_deviation(a, b, rows) == (dev, gamma)

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

    @pytest.mark.parametrize("j,n,match", [(3, 2, "outside"), (0, 2, "outside"), (70, 2, "outside"),
                                           (1, 0, "qubit count"), (1, 13, "qubit count")])
    def test_qubit_bits_refuses_a_label_outside_1_to_n_and_a_bad_count(self, j, n, match):
        with pytest.raises(ValueError, match=match):
            core.qubit_bits(j, n)


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

    @staticmethod
    def monomial(kind: str, v: np.ndarray) -> np.ndarray:
        """``v`` on the diagonal, or on the bit reversal's nonzeros."""
        q = len(v)
        m = np.zeros((q, q), dtype=complex)
        rev = np.nonzero(core.bit_reversal_permutation(q.bit_length() - 1).entries)[1]
        m[np.arange(q) if kind == "diagonal" else rev, np.arange(q)] = v
        return m

    @pytest.mark.parametrize("kind", ["diagonal", "permutation"])
    @pytest.mark.parametrize("excess,accepted", [(2e-10, False), (-2e-10, False),
                                                 (4.5e-11, True), (-4.5e-11, True)])
    def test_one_nonzero_per_row_and_column_is_checked_at_1e_10(self, kind, excess, accepted):
        # m m^H = diag(|v|**2): |v| = 1 +- 2e-10 misses 1 by about 4e-10, 1 +- 4.5e-11 by 9e-11
        v = np.exp(1j * np.arange(8.0))
        v[5] *= 1.0 + excess
        if accepted:
            core.UnitaryMatrix(self.monomial(kind, v))
        else:
            with pytest.raises(ValueError, match="not unitary"):
                core.UnitaryMatrix(self.monomial(kind, v))

    @pytest.mark.parametrize("kind", ["diagonal", "permutation"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, np.nan), complex(0.0, -np.inf)])
    def test_a_non_finite_nonzero_of_one_per_row_and_column_is_refused(self, kind, bad):
        v = np.exp(1j * np.arange(8.0))
        v[6] = bad
        with pytest.raises(ValueError, match="not unitary"):
            core.UnitaryMatrix(self.monomial(kind, v))

    @pytest.mark.parametrize("rows,cols", [([0, 1, 2, 3], [0, 0, 2, 3]),
                                           ([0, 0, 2, 3], [0, 1, 2, 3])],
                             ids=["two-in-a-column", "two-in-a-row"])
    def test_q_nonzeros_not_one_per_row_and_column_take_the_dense_check(self, rows, cols):
        m = np.zeros((4, 4), dtype=complex)
        m[rows, cols] = 1.0  # every |v| is 1, but m m^H is not I
        with pytest.raises(ValueError, match="not unitary"):
            core.UnitaryMatrix(m)

    @pytest.mark.parametrize("bad", ["nan", "norm"])
    def test_the_last_row_block_of_a_dense_unitary_is_checked(self, bad):
        # 512 x 512 is checked in four blocks of 128 rows
        m = functools.reduce(np.kron, [core.HADAMARD] * 9)
        core.UnitaryMatrix(m)
        if bad == "nan":
            m[500, 7] = np.nan
        else:
            m[511] *= 1.0 + 1e-6  # only m m^H's entry (511, 511) moves past 1e-10
        with pytest.raises(ValueError, match="not unitary"):
            core.UnitaryMatrix(m)

    @pytest.mark.parametrize("bad", [1e-3, np.nan])
    def test_the_last_row_block_of_a_density_matrix_is_checked(self, bad):
        m = np.zeros((512, 512), dtype=complex)
        core.DensityMatrix(m)
        m[500, 450] = bad  # its mirror (450, 500) stays 0: both rows are in the last block
        with pytest.raises(ValueError, match="not Hermitian"):
            core.DensityMatrix(m)

    @pytest.mark.parametrize("make", [
        lambda m: core.UnitaryMatrix(m),
        lambda m: core.DensityMatrix(m),
    ], ids=["unitary", "density"])
    @pytest.mark.parametrize("bad", [np.nan, pytest.param(
        np.inf, marks=pytest.mark.filterwarnings("ignore::RuntimeWarning"))])
    def test_non_finite_entry_rejected(self, make, bad):
        with pytest.raises(ValueError):
            make(np.array([[bad, 0], [0, 1]], dtype=complex))
