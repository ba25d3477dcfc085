"""Simulated tomography: readout, linear inversion, fidelity measure.

The readout and inversion are checked against a dense reference built
here: readout unitaries from the pulse model on all n spins, observables
as Kronecker products, one trace per value and one ``lstsq`` fit."""

import math
import re
import time
from functools import lru_cache, reduce
from itertools import product

import numpy as np
import pytest

from conftest import ideal_output, random_traceless_hermitian

from spinqft import core, nmr, tomography


def _setting(e, n):
    """The pulse letters of readout setting e: e = sum_j 3**(n-j) * "ixy".index(p_j)."""
    return tuple("ixy"[e // 3 ** (n - j) % 3] for j in range(1, n + 1))


def _block(values, n, e):
    """Block e of a readout: the n * 2**n values read after setting e."""
    width = n * 2 ** n
    return values[..., e * width:(e + 1) * width]


class TestReadout:
    def test_experiment_count(self):
        for n in (1, 2, 3):
            assert tomography.measure_all(np.zeros((2 ** n, 2 ** n))).shape == (
                3 ** n * n * 2 ** n,)

    def test_observable_count(self):
        assert len(tomography.observables(2)) == 8   # 2 spins x (x, y) x 2 contexts
        assert len(tomography.observables(3)) == 24

    def test_maximally_mixed_reads_zero(self):
        for rho in (np.eye(4) / 4.0, np.zeros((4, 4))):  # the identity is never read
            values = tomography.measure_all(rho)
            for e in range(9):
                np.testing.assert_allclose(_block(values, 2, e), 0.0, atol=1e-14)

    def test_rotated_pseudopure_shows_transverse_signal(self):
        rho = nmr.pseudopure_projector_deviation(2)
        values = _block(tomography.measure_all(rho), 2, 6)  # setting ("y", "i")
        labels = [lbl for lbl, _ in tomography.observables(2)]
        ix1 = values[labels.index("Ix1")]
        assert abs(ix1) > 0.1

    def test_linearity(self):
        rng = np.random.default_rng(5)
        r1 = random_traceless_hermitian(2, rng)
        r2 = random_traceless_hermitian(2, rng)
        combo = 0.3 * r1.entries + 1.7 * r2.entries
        one, two = tomography.measure_all(r1), tomography.measure_all(r2)
        np.testing.assert_allclose(tomography.measure_all(combo), 0.3 * one + 1.7 * two,
                                   atol=1e-12)
        stacked = tomography.measure_all(np.stack([r1.entries, r2.entries]))
        np.testing.assert_allclose(stacked, [one, two], atol=1e-14)

    def test_dimension_mismatch(self):
        for shape in [(4, 2), (2, 4), (4,), (2, 2, 4, 4)]:
            with pytest.raises(ValueError, match=re.escape(str(shape))):
                tomography.measure_all(np.zeros(shape))

    def test_stack_reads_each_state(self):
        rng = np.random.default_rng(11)
        states = [random_traceless_hermitian(3, rng).entries for _ in range(4)]
        stacked = tomography.measure_all(np.array(states))
        assert stacked.shape == (4, 3 * 2 ** 3 * 3 ** 3)
        np.testing.assert_allclose(stacked, [tomography.measure_all(m) for m in states],
                                   rtol=0, atol=1e-14)


class _Unreadable:
    """A matrix by its shape alone: reading its entries fails the test, so
    refusing one shows that the shape was checked before any copy."""

    def __init__(self, shape):
        self.shape = shape

    def __array__(self, *args, **kwargs):
        raise AssertionError("entries read before the shape was checked")


# Shapes outside 2**n x 2**n with 1 <= n <= MAX_QUBITS, each passed as an
# _Unreadable (a complex 2**13 x 2**13 matrix would be 1 GiB).
BAD_SIZES = [(0, 0), (1, 1), (3, 3), (6, 6), (2, 4), (2 ** 13, 2 ** 13)]


def _size_id(shape):
    return "x".join(map(str, shape))


class TestSizeRule:
    """core's one shape rule, at each of its six users."""

    @pytest.mark.parametrize("shape", BAD_SIZES, ids=_size_id)
    def test_measure_all_refuses(self, shape):
        for stacked in (shape, (2,) + shape):
            with pytest.raises(ValueError, match=re.escape(str(stacked))):
                tomography.measure_all(_Unreadable(stacked))

    @pytest.mark.parametrize("shape", BAD_SIZES + [(2, 4, 4)], ids=_size_id)
    def test_bar_chart_refuses(self, shape):
        with pytest.raises(ValueError, match=re.escape(str(shape))):
            tomography.bar_chart_csv(_Unreadable(shape))

    @pytest.mark.parametrize("shape", BAD_SIZES, ids=_size_id)
    @pytest.mark.parametrize("make", [core.DensityMatrix, core.UnitaryMatrix],
                             ids=["density", "unitary"])
    def test_value_types_refuse(self, make, shape):
        with pytest.raises(ValueError, match=re.escape(str(shape))):
            make(_Unreadable(shape))

    # a kernel reads only axis 0, so (2, 4) is one qubit's operand to it
    @pytest.mark.parametrize("shape", [s for s in BAD_SIZES if s[0] != 2], ids=_size_id)
    @pytest.mark.parametrize("kernel", [lambda a: core.apply_local(a, {1: core.HADAMARD}),
                                        lambda a: core.apply_controlled(a, 1, 2, core.HADAMARD)],
                             ids=["apply_local", "apply_controlled"])
    def test_kernels_refuse(self, kernel, shape):
        with pytest.raises(ValueError, match=re.escape(str(shape))):
            kernel(_Unreadable(shape))

    @pytest.mark.parametrize("make", [core.DensityMatrix, core.UnitaryMatrix],
                             ids=["density", "unitary"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_n_is_read_from_the_shape(self, make, n):
        assert make(np.diag([1.0] * 2 ** (n - 1) + [-1.0] * 2 ** (n - 1))).n == n

    def test_element_unitary_refuses_a_spin_count_before_allocating(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="qubit count"):
            nmr.element_unitary(nmr.SpinPulse((1,), 1.0, 0.0), 40)
        assert time.perf_counter() - start < 1.0


# -- the dense readout, as the differential reference --------------------

def _dense_readout_unitary(pulses):
    """Product of the per-qubit 90-degree readout pulses on all n spins."""
    n = len(pulses)
    u = np.eye(2 ** n, dtype=complex)
    for j, p in enumerate(pulses, start=1):
        if p != "i":
            pulse = nmr.SpinPulse((j,), math.pi / 2.0, nmr.PHASE_X if p == "x" else nmr.PHASE_Y)
            u = nmr.element_unitary(pulse, n).entries @ u
    return u


def _dense_observables(n):
    """Each observable from its label alone: I_x^j or I_y^j (X/2, Y/2 on
    spin j) times 2I_z^k = Z for each ``Zk`` in the label."""
    out = []
    for label, _ in tomography.observables(n):
        factors = {int(label[2]): {"x": core.PAULI_X, "y": core.PAULI_Y}[label[1]] / 2.0,
                   **{int(k): core.PAULI_Z for k in label[4::2]}}
        out.append(reduce(np.kron, [factors.get(q, core.PAULI_I) for q in range(1, n + 1)]))
    return np.array(out)


def _dense_pauli_strings(n):
    """The 4**n - 1 non-identity Pauli strings, I < X < Y < Z, qubit 1 first."""
    paulis = (core.PAULI_I, core.PAULI_X, core.PAULI_Y, core.PAULI_Z)
    return np.array([reduce(np.kron, f) for f in product(paulis, repeat=n)][1:])


def _dense_measure(states, pulses):
    """Re Tr(U rho U^dag O) for a (k, 2**n, 2**n) stack: one trace per entry."""
    u = _dense_readout_unitary(pulses)
    rotated = u @ states @ u.conj().T
    return np.tensordot(rotated, _dense_observables(len(pulses)), axes=([1, 2], [2, 1])).real


def _dense_measure_all(states, n):
    return np.concatenate([_dense_measure(states, _setting(e, n)) for e in range(3 ** n)],
                          axis=1)


@lru_cache(maxsize=None)
def _dense_design(n):
    return _dense_measure_all(_dense_pauli_strings(n), n).T


def _dense_reconstruct(values, n):
    """Least-squares fit of the Pauli coefficients, one ``lstsq``."""
    coeffs, *_ = np.linalg.lstsq(_dense_design(n), np.atleast_2d(values).T, rcond=None)
    return np.tensordot(coeffs.T, _dense_pauli_strings(n), axes=1)


def _random_states(n, k, seed):
    rng = np.random.default_rng(seed)
    return np.array([random_traceless_hermitian(n, rng).entries for _ in range(k)])


class TestDenseReference:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_measure_matches(self, n):
        """Block e of ``measure_all`` is the dense readout of setting e."""
        states = _random_states(n, 3, 600 + n)
        stacked, single = tomography.measure_all(states), tomography.measure_all(states[0])
        for e, setting in enumerate(product("ixy", repeat=n)):
            assert _setting(e, n) == setting
            want = _dense_measure(states, setting)
            np.testing.assert_allclose(_block(stacked, n, e), want, rtol=0, atol=1e-13)
            np.testing.assert_allclose(_block(single, n, e), want[0], rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_measure_all_matches(self, n):
        states = _random_states(n, 3, 700 + n)
        want = _dense_measure_all(states, n)
        np.testing.assert_allclose(tomography.measure_all(states), want, rtol=0, atol=1e-13)
        np.testing.assert_allclose(tomography.measure_all(core.DensityMatrix(states[0])),
                                   want[0], rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_reconstruct_matches_lstsq(self, n):
        states = _random_states(n, 3, 800 + n)
        values = tomography.measure_all(states)
        want = _dense_reconstruct(values, n)
        np.testing.assert_allclose(tomography.reconstruct(values), want, rtol=0, atol=1e-13)
        np.testing.assert_allclose(tomography.reconstruct(values[0]), want[0],
                                   rtol=0, atol=1e-13)

    def test_observable_strings_match_their_labels(self):
        letters = dict(zip("IXYZ", (core.PAULI_I, core.PAULI_X, core.PAULI_Y, core.PAULI_Z)))
        for n in (1, 2, 3, 4):
            from_strings = [reduce(np.kron, [letters[c] for c in pauli]) / 2.0
                            for _, pauli in tomography.observables(n)]
            np.testing.assert_array_equal(from_strings, _dense_observables(n))


def _no_readout_map(n):
    raise AssertionError(f"built the n = {n} readout map")


def _scale_design_matrix():
    tomography.design_matrix(2)[...] *= 2


def _rewrite_observables():
    obs = tomography.observables(2)
    obs[0] = ("Ix1", "ZZ")
    obs.reverse()


class TestReconstruction:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_design_matrix_matches_per_trace_reference(self, n):
        np.testing.assert_allclose(tomography.design_matrix(n), _dense_design(n),
                                   rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_design_matrix_rows_hit_one_pauli(self, n):
        # the readout pulses are Clifford: each rotated observable is +-one Pauli string
        a = tomography.design_matrix(n)
        nonzero = np.abs(a) > 1e-12
        assert (nonzero.sum(axis=1) == 1).all()
        np.testing.assert_allclose(np.abs(a[nonzero]), 2 ** (n - 1), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_design_matrix_entries_are_exact(self, n):
        # no roundoff residue: every entry is exactly 0 or +-2**(n-1)
        a = tomography.design_matrix(n)
        assert set(np.unique(a).tolist()) == {0.0, 2.0 ** (n - 1), -(2.0 ** (n - 1))}

    @pytest.mark.parametrize("n", [2, 3])
    def test_design_matrix_full_rank(self, n):
        a = tomography.design_matrix(n)
        assert np.linalg.matrix_rank(a) == 4 ** n - 1

    def test_a_pulse_that_is_not_clifford_is_refused(self, monkeypatch):
        # a 45-degree pulse in place of the 90, then a readout phase off by 1e-6
        # rad, and by 1e-10 rad, which moves a rotated Pauli by 1e-10: between
        # roundoff and a bound 1e4 times looser than the one that holds
        for angle, shift in ((0.5, 0.0), (1.0, 1e-6), (1.0, 1e-10)):
            def perturbed(pulse, n, angle=angle, shift=shift):
                return nmr.element_unitary(nmr.SpinPulse(pulse.spins, pulse.angle * angle,
                                                         pulse.phase + shift), n)

            monkeypatch.setattr(tomography, "element_unitary", perturbed)
            with pytest.raises(ValueError, match="not Clifford"):
                tomography.measure_all(nmr.pseudopure_projector_deviation(2))

    def test_zero_maps_to_zero(self):
        rec = tomography.reconstruct(np.zeros(9 * 8))
        np.testing.assert_allclose(rec, 0.0, atol=1e-14)

    def test_pseudopure_roundtrip(self):
        rho = nmr.pseudopure_projector_deviation(2)
        rec = tomography.reconstruct(tomography.measure_all(rho))
        np.testing.assert_allclose(rec, rho.entries, atol=1e-8)

    @pytest.mark.parametrize("n,samples", [(2, 100), (3, 20)])
    def test_random_roundtrips(self, n, samples):
        rng = np.random.default_rng(42 + n)
        worst = 0.0
        for _ in range(samples):
            rho = random_traceless_hermitian(n, rng)
            rec = tomography.reconstruct(tomography.measure_all(rho))
            worst = max(worst, float(np.max(np.abs(rec - rho.entries))))
        assert worst <= 1e-8

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_random_roundtrips_are_exact_to_roundoff(self, n):
        states = _random_states(n, 50, 900 + n)
        recons = tomography.reconstruct(tomography.measure_all(states))
        assert float(np.max(np.abs(recons - states))) <= 2e-15

    @pytest.mark.parametrize("write", [_scale_design_matrix, _rewrite_observables],
                             ids=["design_matrix", "observable"])
    def test_cached_arrays_are_read_only(self, write):
        """Nothing is cached now (the name is from when these were read-only
        cached arrays); the property is the same: a write into a returned
        value reaches no later call."""
        rho = nmr.pseudopure_projector_deviation(2)
        values = tomography.measure_all(rho)
        before = tomography.reconstruct(values)
        design, obs = tomography.design_matrix(2).copy(), tomography.observables(2)
        write()
        np.testing.assert_array_equal(tomography.reconstruct(values), before)
        np.testing.assert_array_equal(tomography.measure_all(rho), values)
        np.testing.assert_array_equal(tomography.design_matrix(2), design)
        assert tomography.observables(2) == obs

    def test_incomplete_readout_rejected(self):
        with pytest.raises(ValueError):
            tomography.reconstruct(np.zeros(10))
        with pytest.raises(ValueError):
            tomography.reconstruct(np.zeros((3, 10)))

    @pytest.mark.parametrize("values", [np.zeros(0), np.zeros(1), np.zeros(73), np.zeros((2, 10))],
                             ids=["0", "1", "73", "2x10"])
    def test_a_length_no_n_reads_is_refused_at_once(self, values):
        # n * 6**n values fix n; no other length reaches the readout map
        start = time.perf_counter()
        with pytest.raises(ValueError, match=rf"n\*6\*\*n values.*not {values.shape[-1]}$"):
            tomography.reconstruct(values)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_the_readout_length_fixes_n(self, n):
        # one readout gives one matrix and a (k, m) stack a (k, 2**n, 2**n) stack
        readouts = tomography.measure_all(_random_states(n, 2, 1000 + n))
        assert readouts.shape[-1] == n * 6 ** n
        single = tomography.reconstruct(readouts[0])
        assert type(single) is np.ndarray and single.shape == (2 ** n, 2 ** n)
        assert tomography.reconstruct(readouts).shape == (2, 2 ** n, 2 ** n)
        (stacked,) = tomography.reconstruct(readouts[:1])
        np.testing.assert_allclose(stacked, single, rtol=0, atol=1e-14)

    def test_one_vector_gives_one_matrix_and_a_stack_a_list(self):
        # a stack of one unpacks to the one matrix its single readout gives
        values = tomography.measure_all(nmr.pseudopure_projector_deviation(2))
        single = tomography.reconstruct(values)
        assert type(single) is np.ndarray and single.shape == (4, 4)
        (stacked,) = tomography.reconstruct(values[None, :])
        np.testing.assert_allclose(stacked, single, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("shape", [(), (3, 4, 6), (1, 2, 6), (2, 1, 1, 72)],
                             ids=["0-d", "3x4x6", "1x2x6", "2x1x1x72"])
    def test_only_one_readout_or_a_stack_is_read(self, shape, monkeypatch):
        # measure_all has one stack axis: twelve one-spin readouts are no 2-spin readout
        monkeypatch.setattr(tomography, "_readout_map", _no_readout_map)
        values = np.random.default_rng(0).normal(size=shape)
        want = rf"shape \(m,\) or \(k, m\), not {re.escape(str(shape))}$"
        with pytest.raises(ValueError, match=want):
            tomography.reconstruct(values)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("stacked", [False, True], ids=["one", "stack"])
    def test_a_value_that_is_not_finite_is_refused(self, bad, stacked, monkeypatch):
        values = tomography.measure_all(nmr.pseudopure_projector_deviation(2))
        values[5] = bad
        monkeypatch.setattr(tomography, "_readout_map", _no_readout_map)
        with pytest.raises(ValueError, match="not finite"):
            tomography.reconstruct(np.stack([values, values]) if stacked else values)

    @pytest.mark.parametrize("imag", [0.0, 5.0])
    @pytest.mark.parametrize("stacked", [False, True], ids=["one", "stack"])
    def test_a_complex_readout_is_refused(self, imag, stacked, monkeypatch):
        values = tomography.measure_all(nmr.pseudopure_projector_deviation(2)).astype(complex)
        values[5] += 1j * imag
        monkeypatch.setattr(tomography, "_readout_map", _no_readout_map)
        with pytest.raises(ValueError, match="complex dtype"):
            tomography.reconstruct(np.stack([values, values]) if stacked else values)

    @pytest.mark.parametrize("n", [2, 3])
    def test_stack_matches_one_vector_at_a_time(self, n):
        rng = np.random.default_rng(5 + n)
        states = [random_traceless_hermitian(n, rng) for _ in range(4)]
        readouts = tomography.measure_all(np.array([r.entries for r in states]))
        stacked = tomography.reconstruct(readouts)
        assert stacked.shape == (len(states), 2 ** n, 2 ** n)
        for rec, values, rho in zip(stacked, readouts, states):
            np.testing.assert_allclose(rec, tomography.reconstruct(values), rtol=0, atol=1e-14)
            np.testing.assert_allclose(rec, rho.entries, rtol=0, atol=1e-12)


class TestFidelity:
    def test_self_fidelity_is_one(self):
        rho = nmr.pseudopure_projector_deviation(2)
        rep = tomography.fidelity(rho, rho, rho)
        assert rep.fidelity == pytest.approx(1.0, abs=1e-12)
        assert rep.correlation == pytest.approx(1.0, abs=1e-12)
        assert rep.signal_retention == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_gives_zero(self):
        z = core.DensityMatrix(np.diag([0.5, -0.5]).astype(complex))
        x = core.DensityMatrix(np.array([[0, 0.5], [0.5, 0]], dtype=complex))
        rep = tomography.fidelity(z, x, z)
        assert rep.correlation == pytest.approx(0.0, abs=1e-12)
        assert rep.fidelity == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("odd", range(3), ids=["rho_th", "rho_exp", "rho_init"])
    def test_inputs_of_different_sizes_are_refused(self, odd):
        args = [nmr.pseudopure_projector_deviation(2)] * 3
        args[odd] = nmr.pseudopure_projector_deviation(1)
        with pytest.raises(ValueError, match="^fidelity inputs must share dimensions$"):
            tomography.fidelity(*args)

    def test_a_zero_output_reads_zero(self):
        rho = nmr.pseudopure_projector_deviation(2)
        assert tomography.fidelity(rho, np.zeros((4, 4)), rho) == (0.0, 0.0, 0.0)

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

    @pytest.mark.parametrize("n", range(1, 7))
    def test_traces_match_dense_products(self, n):
        # fidelity takes Tr(AB) as sum A_ij conj(B_ij); the reference is
        # the dense product it replaces
        def tr(a, b):
            return float(np.real(np.trace(a.entries @ b.entries)))

        rng = np.random.default_rng(300 + n)
        for _ in range(5):
            a, b, c = (random_traceless_hermitian(n, rng) for _ in range(3))
            corr = tr(a, b) / math.sqrt(tr(a, a) * tr(b, b))
            retention = tr(b, b) / tr(c, c)
            rep = tomography.fidelity(a, b, c)
            np.testing.assert_allclose(
                [rep.correlation, rep.signal_retention, rep.fidelity],
                [corr, retention, corr * math.sqrt(retention)], rtol=1e-12, atol=1e-14)
            assert core._trace_product(a.entries, a.entries) == pytest.approx(tr(a, a), rel=1e-13)

    def test_zero_norm_reference_rejected(self):
        zero = core.DensityMatrix(np.zeros((2, 2), dtype=complex))
        z = core.DensityMatrix(np.diag([0.5, -0.5]).astype(complex))
        with pytest.raises(ValueError):
            tomography.fidelity(zero, z, z)
        with pytest.raises(ValueError):
            tomography.fidelity(z, z, zero)

    def test_retention_monotone_under_dephasing(self):
        seq = nmr.library_sequence("selective-n2")
        rho0 = nmr.prepare_pseudopure_temporal_avg()
        target = ideal_output(rho0)
        retentions = []
        for rate in (0.0, 5.0, 15.0, 40.0):
            noise = nmr.NoiseModel.uniform(2, rate) if rate else None
            out = nmr.run(seq, 2, rho0, noise)
            retentions.append(tomography.fidelity(target, out, rho0).signal_retention)
        assert all(b <= a + 1e-12 for a, b in zip(retentions, retentions[1:]))


class TestBarChartExport:
    def test_rows_cover_all_pairs(self):
        rho = nmr.pseudopure_projector_deviation(2)
        rows = [line.split(",") for line in tomography.bar_chart_csv(rho).splitlines()[1:]]
        assert len(rows) == 16
        assert tuple(rows[0][:2]) == ("00", "00")
        assert float(rows[0][2]) == pytest.approx(0.75)

    def test_each_line_formats_its_entry(self):
        g = np.random.default_rng(5).normal(size=(2, 8, 8))
        m = g[0] + 1j * g[1]
        m[0, 1], m[2, 3] = complex(-0.0, 0.0), complex(0.0, -0.0)
        want = [f"{r:03b},{c:03b},{m[r, c].real:.12e},{m[r, c].imag:.12e}"
                for r in range(8) for c in range(8)]
        assert tomography.bar_chart_csv(m).splitlines() == ["row,col,re,im"] + want

    def test_csv_header(self):
        text = tomography.bar_chart_csv(nmr.pseudopure_projector_deviation(2))
        assert text.splitlines()[0] == "row,col,re,im"
