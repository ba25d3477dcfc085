"""Circuit builders: oracle equivalence, gate algebra, counts, identities,
the local product against a dense reference and the verify tolerance."""

from dataclasses import replace
from functools import reduce

import numpy as np
import pytest

from conftest import reversed_transform

from spinqft import circuits, core


class TestBuilders:
    def test_serial_n1_is_single_hadamard(self):
        c = circuits.build_serial(1)
        assert len(c.gates) == 1 and c.gates[0].kind == circuits.HADAMARD_KIND

    def test_serial_n2_structure(self):
        c = circuits.build_serial(2)
        kinds = [g.kind for g in c.gates]
        assert kinds == [circuits.HADAMARD_KIND, circuits.CONTROLLED_PHASE_KIND,
                         circuits.HADAMARD_KIND]
        b = c.gates[1]
        assert (b.j, b.k) == (1, 2)
        assert b.theta == pytest.approx(np.pi / 2)  # theta_jk = pi * 2**(j-k)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_serial_counts(self, n):
        c = circuits.build_serial(n)
        counts = circuits.gate_counts(c)
        assert counts[circuits.HADAMARD_KIND] == n
        assert counts[circuits.CONTROLLED_PHASE_KIND] == n * (n - 1) // 2
        assert counts.total() == len(c.gates)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_parallel_counts_read_zero_for_kinds_it_lacks(self, n):
        counts = circuits.gate_counts(circuits.build_parallel(n))
        assert counts[circuits.HADAMARD_KIND] == counts[circuits.CONTROLLED_PHASE_KIND] == 0
        assert counts[circuits.TOTAL_HADAMARD_KIND] == 1
        assert counts[circuits.ROOT_CNOT_KIND] == n * (n - 1) // 2
        assert set(counts) <= set(circuits.GATE_KINDS)

    def test_parallel_n1(self):
        c = circuits.build_parallel(1)
        assert [g.kind for g in c.gates] == [circuits.TOTAL_HADAMARD_KIND]

    def test_parallel_n2_gates(self):
        c = circuits.build_parallel(2)
        assert [g.kind for g in c.gates] == [circuits.TOTAL_HADAMARD_KIND,
                                             circuits.ROOT_CNOT_KIND]
        root = c.gates[1]
        assert (root.j, root.k, root.alpha) == (1, 2, 0.5)

    def test_parallel_n3_u2_block(self):
        # block targeting qubit 3 holds the half and quarter roots
        c = circuits.build_parallel(3)
        roots = [g for g in c.gates if g.kind == circuits.ROOT_CNOT_KIND and g.k == 3]
        assert {(g.j, g.alpha) for g in roots} == {(2, 0.5), (1, 0.25)}

    def test_approximate_full_range_equals_serial(self):
        for n in (2, 3, 5):
            assert circuits.build_approximate(n, n).gates == circuits.build_serial(n).gates

    def test_approximate_drops_long_range(self):
        c = circuits.build_approximate(3, 1)
        counts = circuits.gate_counts(c)
        assert counts[circuits.HADAMARD_KIND] == 3 and counts[circuits.CONTROLLED_PHASE_KIND] == 2
        assert all(g.k - g.j <= 1 for g in c.gates
                   if g.kind == circuits.CONTROLLED_PHASE_KIND)

    def test_approximate_n2_m1_equals_serial(self):
        assert circuits.build_approximate(2, 1).gates == circuits.build_serial(2).gates

    def test_approximate_m_out_of_range(self):
        with pytest.raises(ValueError):
            circuits.build_approximate(3, 0)
        with pytest.raises(ValueError):
            circuits.build_approximate(3, 4)


class TestGateUnitaries:
    def test_controlled_phase_matrix(self):
        u = circuits.gate_unitary(circuits.controlled_phase(1, 2, np.pi / 2), 2)
        np.testing.assert_allclose(u.entries, np.diag([1, 1, 1, 1j]), atol=1e-15)

    def test_root_cnot_alpha_one_is_cnot(self):
        u = circuits.gate_unitary(circuits.root_cnot(1, 2, 1.0), 2)
        cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
        np.testing.assert_allclose(u.entries, cnot, atol=1e-15)

    def test_half_root_vs_hadamard_conjugated_phase(self):
        # H_2 B_12(pi/2) H_2 equals the half root up to a global phase
        h2 = circuits.gate_unitary(circuits.hadamard(2), 2).entries
        b = circuits.gate_unitary(circuits.controlled_phase(1, 2, np.pi / 2), 2).entries
        root = circuits.gate_unitary(circuits.root_cnot(1, 2, 0.5), 2).entries
        ok, _ = core.equal_up_to_global_phase(h2 @ b @ h2, root, 1e-12)
        assert ok

    def test_total_hadamard(self):
        u = circuits.gate_unitary(circuits.total_hadamard(), 2).entries
        np.testing.assert_allclose(u, np.kron(core.HADAMARD, core.HADAMARD), atol=1e-15)

    def test_invalid_labels(self):
        with pytest.raises(ValueError):
            circuits.gate_unitary(circuits.hadamard(3), 2)
        with pytest.raises(ValueError, match="qubit count"):
            circuits.gate_unitary(circuits.total_hadamard(), 0)
        with pytest.raises(ValueError):
            circuits.controlled_phase(2, 2, 1.0)
        for gate in (circuits.controlled_phase(1, 3, 0.5), circuits.root_cnot(1, 3, 0.5)):
            with pytest.raises(ValueError, match="outside"):
                circuits.gate_unitary(gate, 2)

    def test_circuit_labels_are_checked_as_apply_local_checks_them(self):
        with pytest.raises(ValueError, match=r"^qubit labels \[3\] outside 1\.\.2$"):
            circuits.Circuit(2, (circuits.hadamard(3),))
        with pytest.raises(ValueError, match=r"^qubit labels \[1, 3\] outside 1\.\.2$"):
            circuits.Circuit(2, (circuits.hadamard(1), circuits.root_cnot(1, 3, 0.5)))

    def test_unknown_kind_is_refused_when_built(self):
        with pytest.raises(ValueError, match="unknown gate kind 'swap'"):
            circuits.Gate("swap", j=1, k=2)

    @pytest.mark.parametrize("alpha", [0.0, -0.5, 1.5, float("nan")])
    def test_root_cnot_exponent_outside_zero_one_is_refused(self, alpha):
        with pytest.raises(ValueError, match=rf"^root-of-CNOT exponent must lie in \(0, 1\], "
                                             rf"got {alpha}$"):
            circuits.root_cnot(1, 2, alpha)


class TestCircuitUnitary:
    def test_empty_circuit_is_identity(self):
        u = circuits.circuit_unitary(circuits.Circuit(2, ()))
        np.testing.assert_allclose(u.entries, np.eye(4))

    def test_serial_n2_matches_reversed_oracle(self):
        u = circuits.circuit_unitary(circuits.build_serial(2)).entries
        ok, _ = core.equal_up_to_global_phase(u, reversed_transform(2), 1e-12)
        assert ok

    @pytest.mark.parametrize("n", range(1, 9))
    def test_serial_oracle_equivalence(self, n):
        ok, dev = circuits.verify_against_oracle(circuits.build_serial(n))
        assert ok, f"serial n={n} deviation {dev}"

    @pytest.mark.parametrize("n", range(1, 9))
    def test_parallel_equals_serial(self, n):
        us = circuits.circuit_unitary(circuits.build_serial(n)).entries
        up = circuits.circuit_unitary(circuits.build_parallel(n)).entries
        ok, gamma = core.equal_up_to_global_phase(up, us, 1e-10)
        assert ok
        np.testing.assert_allclose(up, np.exp(1j * gamma) * us, atol=1e-10)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_approximate_converges_with_range(self, n):
        # larger allowed range always gets at least as close to the oracle
        target = reversed_transform(n)
        prev = np.inf
        for m in range(1, n + 1):
            u = circuits.circuit_unitary(circuits.build_approximate(n, m)).entries
            _, gamma = core.equal_up_to_global_phase(u, target, 1e-10)
            dev = float(np.max(np.abs(u - np.exp(1j * gamma) * target)))
            assert dev <= prev + 1e-12
            prev = dev
        assert prev < 1e-10

    def test_verify_passes_half_its_tolerance_and_fails_twice_it(self):
        # turning the first controlled phase of serial-3 by delta moves the
        # deviation by about delta / (2 sqrt 2): steer it to 0.5x and 2x of
        # the 1e-10 that verify reports, measured, not assumed
        serial = circuits.build_serial(3)

        def turned(delta):
            gates = list(serial.gates)
            gates[1] = replace(gates[1], theta=gates[1].theta + delta)
            return circuits.verify_against_oracle(circuits.Circuit(3, tuple(gates)))

        slope = turned(1e-9)[1] / 1e-9
        for factor, passes in ((0.5, True), (2.0, False)):
            ok, dev = turned(factor * 1e-10 / slope)
            assert abs(dev / 1e-10 - factor) < 0.05 * factor, dev
            assert ok == passes, dev


def embedded(n, factors):
    """Kronecker product over qubits 1..n (qubit 1 first) of ``factors``,
    the identity on every qubit not in it."""
    return reduce(np.kron, [factors.get(j, np.eye(2)) for j in range(1, n + 1)])


def target_operator(g):
    """The 2x2 on the target of a two-qubit gate, from its definition:
    diag(1, exp(i*theta)), or X**alpha = ((1 + w) I + (1 - w) X) / 2 with
    w = exp(i*pi*alpha)."""
    if g.kind == circuits.CONTROLLED_PHASE_KIND:
        return np.diag([1.0, np.exp(1j * g.theta)])
    w = np.exp(1j * np.pi * g.alpha)
    return ((1 + w) * np.eye(2) + (1 - w) * np.array([[0.0, 1.0], [1.0, 0.0]])) / 2


def dense_gate(g, n):
    """The gate on the full space, built by Kronecker products alone:
    I/H factors for a Hadamard, P0_j (x) I + P1_j (x) V_k for a controlled
    gate."""
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    if g.kind == circuits.HADAMARD_KIND:
        return embedded(n, {g.j: h})
    if g.kind == circuits.TOTAL_HADAMARD_KIND:
        return embedded(n, dict.fromkeys(range(1, n + 1), h))
    return (embedded(n, {g.j: np.diag([1.0, 0.0])})
            + embedded(n, {g.j: np.diag([0.0, 1.0]), g.k: target_operator(g)}))


def dense_product(circuit):
    """The product of the dense gates, first-in-time rightmost: the
    reference for the local application in circuit_unitary, sharing no
    code with it."""
    out = np.eye(2 ** circuit.n, dtype=complex)
    for g in circuit.gates:
        out = dense_gate(g, circuit.n) @ out
    return out


def all_builds():
    for n in range(1, 9):
        yield pytest.param(circuits.build_serial(n), id=f"serial-n{n}")
        yield pytest.param(circuits.build_parallel(n), id=f"parallel-n{n}")
        for m in range(1, n + 1):
            yield pytest.param(circuits.build_approximate(n, m), id=f"approximate{m}-n{n}")


def drawn_circuits():
    """Seeded gate lists of all four kinds at n = 2-6.  Each breaks a run
    of roots on one target k, whose Hadamard pair the product shares, by a
    controlled phase on k, by a Hadamard on k and (n > 2) by a root on
    another target, between drawn gates; each ends in an open pair (a run
    of roots) or in a pending diagonal (a controlled phase)."""
    for n in range(2, 7):
        for end in ("open-pair", "pending-diagonal"):
            rng = np.random.default_rng(10 * n + len(end))

            def root(k):
                return circuits.root_cnot(int(rng.integers(1, k)), k, rng.uniform(0.05, 1.0))

            def cphase(k):
                return circuits.controlled_phase(int(rng.integers(1, k)), k, rng.uniform(-3, 3))

            def drawn():
                k = int(rng.integers(2, n + 1))
                return [circuits.total_hadamard(), circuits.hadamard(int(rng.integers(1, n + 1))),
                        cphase(k), root(k)][rng.integers(4)]

            k = int(rng.integers(2, n + 1))
            gates = [drawn(), drawn(), root(k), root(k), cphase(k), root(k), root(k),
                     circuits.hadamard(k), root(k), root(k), *map(root, sorted({2, n} - {k})),
                     drawn(), drawn(), root(k), root(k) if end == "open-pair" else cphase(k)]
            yield pytest.param(circuits.Circuit(n, tuple(gates)), id=f"drawn-n{n}-{end}")


class TestLocalApplication:
    @pytest.mark.parametrize("circuit", list(all_builds()) + list(drawn_circuits()))
    def test_equals_dense_product(self, circuit):
        got = circuits.circuit_unitary(circuit).entries
        np.testing.assert_allclose(got, dense_product(circuit), rtol=0, atol=1e-13)

    def test_each_gate_is_still_validated(self):
        circuit = circuits.Circuit(2, (circuits.hadamard(1),
                                       circuits.controlled_phase(1, 2, float("nan"))))
        with pytest.raises(ValueError, match="not unitary"):
            circuits.circuit_unitary(circuit)


class TestAlgebraicIdentities:
    def test_hadamard_commutes_with_uninvolved_phase(self):
        # [H_i, B_jk] = 0 exactly for i not in {j, k}
        for n in range(3, 7):
            for j in range(1, n + 1):
                for k in range(j + 1, n + 1):
                    b = circuits.gate_unitary(
                        circuits.controlled_phase(j, k, circuits.phase_angle(j, k)), n).entries
                    for i in range(1, n + 1):
                        if i in (j, k):
                            continue
                        h = circuits.gate_unitary(circuits.hadamard(i), n).entries
                        np.testing.assert_allclose(h @ b, b @ h, atol=0)

    def test_root_identity_all_pairs(self):
        # H_k B_jk H_k = (CNOT)^{2^{j-k}}_{j,k} up to a global phase
        for n in range(2, 7):
            for j in range(1, n + 1):
                for k in range(j + 1, n + 1):
                    h = circuits.gate_unitary(circuits.hadamard(k), n).entries
                    b = circuits.gate_unitary(
                        circuits.controlled_phase(j, k, circuits.phase_angle(j, k)), n).entries
                    root = circuits.gate_unitary(
                        circuits.root_cnot(j, k, 2.0 ** (j - k)), n).entries
                    ok, _ = core.equal_up_to_global_phase(h @ b @ h, root, 1e-10)
                    assert ok, (n, j, k)


class TestProductState:
    def test_zero_index_uniform(self):
        for n in (1, 2, 3):
            v = circuits.qft_product_state(0, n)
            np.testing.assert_allclose(v, np.full(2 ** n, 2 ** (-n / 2)), atol=1e-15)

    def test_n1_a1(self):
        v = circuits.qft_product_state(1, 1)
        np.testing.assert_allclose(v, np.array([1, -1]) / np.sqrt(2), atol=1e-15)

    def test_n2_a1_phases(self):
        # phi_0 = 1/4 on qubit 1, phi_1 = 1/2 on qubit 2
        v = circuits.qft_product_state(1, 2)
        expected = np.kron([1, np.exp(2j * np.pi / 4)], [1, np.exp(1j * np.pi)]) / 2
        np.testing.assert_allclose(v, expected, atol=1e-15)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_reversed_oracle_columns(self, n):
        target = reversed_transform(n)
        for a in range(2 ** n):
            v = circuits.qft_product_state(a, n)
            np.testing.assert_allclose(v, target[:, a], atol=1e-12)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            circuits.qft_product_state(4, 2)

