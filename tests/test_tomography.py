"""Simulated tomography: readout, linear inversion, fidelity measure."""

import numpy as np
import pytest

from conftest import random_traceless_hermitian

from spinqft import core, nmr, tomography


class TestReadout:
    def test_experiment_count(self):
        assert len(tomography.all_experiments(2)) == 9
        assert len(tomography.all_experiments(3)) == 27

    def test_observable_count(self):
        assert len(tomography.observables(2)) == 8   # 2 spins x (x, y) x 2 contexts
        assert len(tomography.observables(3)) == 24

    def test_maximally_mixed_reads_zero(self):
        rho = np.eye(4) / 4.0
        for e in tomography.all_experiments(2):
            np.testing.assert_allclose(tomography.measure(rho, e), 0.0, atol=1e-14)

    def test_rotated_pseudopure_shows_transverse_signal(self):
        rho = nmr.pseudopure_projector_deviation(2)
        values = tomography.measure(rho, tomography.ReadoutExperiment(("y", "i")))
        labels = [lbl for lbl, _ in tomography.observables(2)]
        ix1 = values[labels.index("Ix1")]
        assert abs(ix1) > 0.1

    def test_linearity(self):
        rng = np.random.default_rng(5)
        r1 = random_traceless_hermitian(2, rng)
        r2 = random_traceless_hermitian(2, rng)
        e = tomography.ReadoutExperiment(("x", "y"))
        combo = 0.3 * r1.entries + 1.7 * r2.entries
        one, two = tomography.measure(r1, e), tomography.measure(r2, e)
        np.testing.assert_allclose(tomography.measure(combo, e), 0.3 * one + 1.7 * two,
                                   atol=1e-12)
        stacked = tomography.measure(np.stack([r1.entries, r2.entries]), e)
        np.testing.assert_allclose(stacked, [one, two], atol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            tomography.measure(np.eye(4) / 4, tomography.ReadoutExperiment(("i",)))

    def test_stack_reads_each_state(self):
        rng = np.random.default_rng(11)
        states = [random_traceless_hermitian(3, rng).entries for _ in range(4)]
        stacked = tomography.measure_all(np.array(states))
        assert stacked.shape == (4, 3 * 2 ** 3 * 3 ** 3)
        np.testing.assert_allclose(stacked, [tomography.measure_all(m) for m in states],
                                   rtol=0, atol=1e-14)


def _design_reference(n):
    """Row (experiment, observable), column p: Re Tr(U_e W_p U_e^dag O_o),
    one dense trace per entry."""
    rows = []
    for e in tomography.all_experiments(n):
        u = tomography.readout_unitary(e)
        rotated = [u @ w @ u.conj().T for w in tomography._pauli_basis(n)]
        for _, o in tomography.observables(n):
            rows.append([np.real(np.trace(rw @ o)) for rw in rotated])
    return np.array(rows)


class TestReconstruction:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_design_matrix_matches_per_trace_reference(self, n):
        np.testing.assert_allclose(tomography.design_matrix(n), _design_reference(n),
                                   rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_design_matrix_rows_hit_one_pauli(self, n):
        # the readout pulses are Clifford: each rotated observable is +-one Pauli string
        a = tomography.design_matrix(n)
        nonzero = np.abs(a) > 1e-12
        assert (nonzero.sum(axis=1) == 1).all()
        np.testing.assert_allclose(np.abs(a[nonzero]), 2 ** (n - 1), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n", [2, 3])
    def test_design_matrix_full_rank(self, n):
        a = tomography.design_matrix(n)
        assert np.linalg.matrix_rank(a) == 4 ** n - 1

    def test_zero_maps_to_zero(self):
        rec = tomography.reconstruct(np.zeros(9 * 8), 2)
        np.testing.assert_allclose(rec.entries, 0.0, atol=1e-14)

    def test_pseudopure_roundtrip(self):
        rho = nmr.pseudopure_projector_deviation(2)
        rec = tomography.reconstruct(tomography.measure_all(rho), 2)
        np.testing.assert_allclose(rec.entries, rho.entries, atol=1e-8)

    @pytest.mark.parametrize("n,samples", [(2, 100), (3, 20)])
    def test_random_roundtrips(self, n, samples):
        rng = np.random.default_rng(42 + n)
        worst = 0.0
        for _ in range(samples):
            rho = random_traceless_hermitian(n, rng)
            rec = tomography.reconstruct(tomography.measure_all(rho), n)
            worst = max(worst, float(np.max(np.abs(rec.entries - rho.entries))))
        assert worst <= 1e-8

    @pytest.mark.parametrize("cached", [
        lambda: tomography.design_matrix(2),
        lambda: tomography._pauli_basis(2),
        lambda: tomography.observables(2)[0][1],
    ], ids=["design_matrix", "pauli_basis", "observable"])
    def test_cached_arrays_are_read_only(self, cached):
        with pytest.raises(ValueError):
            cached()[...] *= 2
        rho = nmr.pseudopure_projector_deviation(2)
        rec = tomography.reconstruct(tomography.measure_all(rho), 2)
        np.testing.assert_allclose(rec.entries, rho.entries, rtol=0, atol=1e-12)

    def test_incomplete_readout_rejected(self):
        with pytest.raises(ValueError):
            tomography.reconstruct(np.zeros(10), 2)
        with pytest.raises(ValueError):
            tomography.reconstruct(np.zeros((3, 10)), 2)

    @pytest.mark.parametrize("n", [2, 3])
    def test_stack_matches_one_vector_at_a_time(self, n):
        rng = np.random.default_rng(5 + n)
        states = [random_traceless_hermitian(n, rng) for _ in range(4)]
        readouts = tomography.measure_all(np.array([r.entries for r in states]))
        stacked = tomography.reconstruct(readouts, n)
        assert len(stacked) == len(states)
        for rec, values, rho in zip(stacked, readouts, states):
            assert isinstance(rec, core.DensityMatrix) and rec.traceless
            single = tomography.reconstruct(values, n)
            np.testing.assert_allclose(rec.entries, single.entries, rtol=0, atol=1e-14)
            np.testing.assert_allclose(rec.entries, rho.entries, rtol=0, atol=1e-12)

    def test_one_vector_gives_one_matrix_and_a_stack_a_list(self):
        rho = nmr.pseudopure_projector_deviation(2)
        values = tomography.measure_all(rho)
        single = tomography.reconstruct(values, 2)
        assert isinstance(single, core.DensityMatrix)
        (stacked,) = tomography.reconstruct(values[None, :], 2)
        np.testing.assert_allclose(stacked.entries, single.entries, rtol=0, atol=1e-14)


class TestFidelity:
    def test_self_fidelity_is_one(self):
        rho = nmr.pseudopure_projector_deviation(2)
        rep = tomography.fidelity(rho, rho, rho)
        assert rep.fidelity == pytest.approx(1.0, abs=1e-12)
        assert rep.correlation == pytest.approx(1.0, abs=1e-12)
        assert rep.signal_retention == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_gives_zero(self):
        z = core.DensityMatrix(1, np.diag([0.5, -0.5]).astype(complex), traceless=True)
        x = core.DensityMatrix(1, np.array([[0, 0.5], [0.5, 0]], dtype=complex), traceless=True)
        rep = tomography.fidelity(z, x, z)
        assert rep.correlation == pytest.approx(0.0, abs=1e-12)
        assert rep.fidelity == pytest.approx(0.0, abs=1e-12)

    def test_correlation_bounded_over_random_pairs(self):
        rng = np.random.default_rng(1234)
        for _ in range(1000):
            a = random_traceless_hermitian(2, rng)
            b = random_traceless_hermitian(2, rng)
            rep = tomography.fidelity(a, b, a)
            assert abs(rep.correlation) <= 1.0 + 1e-10

    def test_unitary_conjugation_invariance(self):
        rng = np.random.default_rng(77)
        a = random_traceless_hermitian(2, rng)
        b = random_traceless_hermitian(2, rng)
        c = random_traceless_hermitian(2, rng)
        base = tomography.fidelity(a, b, c)
        u = core.dft_oracle(2)
        rot = tomography.fidelity(core.conjugate(u, a), core.conjugate(u, b),
                                  core.conjugate(u, c))
        assert rot.fidelity == pytest.approx(base.fidelity, abs=1e-10)
        assert rot.correlation == pytest.approx(base.correlation, abs=1e-10)

    def test_zero_norm_reference_rejected(self):
        zero = core.DensityMatrix(1, np.zeros((2, 2), dtype=complex), traceless=True)
        z = core.DensityMatrix(1, np.diag([0.5, -0.5]).astype(complex), traceless=True)
        with pytest.raises(ValueError):
            tomography.fidelity(zero, z, z)
        with pytest.raises(ValueError):
            tomography.fidelity(z, z, zero)

    def test_retention_monotone_under_dephasing(self):
        seq = nmr.library_sequence("selective-n2")
        system = nmr.SpinSystem(2)
        rho0 = nmr.prepare_pseudopure_temporal_avg(system)
        target = core.conjugate(core.UnitaryMatrix(
            2, core.bit_reversal_permutation(2).entries @ core.dft_oracle(2).entries), rho0)
        retentions = []
        for rate in (0.0, 5.0, 15.0, 40.0):
            noise = nmr.NoiseModel.uniform(2, rate) if rate else None
            out = nmr.run(seq, system, rho0, noise)
            retentions.append(tomography.fidelity(target, out, rho0).signal_retention)
        assert all(b <= a + 1e-12 for a, b in zip(retentions, retentions[1:]))

    def test_reference_constants_are_documentation(self):
        # the hardware numbers are bookkeeping, far from the simulator's 1.0
        assert tomography.REFERENCE_EXPERIMENT_FIDELITIES["selective-n2"] == 0.85
        assert set(tomography.REFERENCE_EXPERIMENT_FIDELITIES) == {
            "serial-n2", "parallel-n2", "selective-n2"}


class TestBarChartExport:
    def test_rows_cover_all_pairs(self):
        rho = nmr.pseudopure_projector_deviation(2)
        rows = tomography.bar_chart_rows(rho)
        assert len(rows) == 16
        assert rows[0][:2] == ("00", "00")
        assert rows[0][2] == pytest.approx(0.75)

    def test_csv_header(self):
        text = tomography.bar_chart_csv(nmr.pseudopure_projector_deviation(2))
        assert text.splitlines()[0] == "row,col,re,im"
