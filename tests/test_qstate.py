import json
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from holomem import qstate
from conftest import random_density_matrix


def commuting_fidelity_oracle(a: np.ndarray, b: np.ndarray) -> float:
    """Closed form (sum_i sqrt(lambda_a_i lambda_b_i))^2 for commuting states,
    evaluated in the shared eigenbasis."""
    vals_a, vecs = np.linalg.eigh(a)
    vals_b = np.real(np.diag(vecs.conj().T @ b @ vecs))
    return float(np.sqrt(np.clip(vals_a, 0, None) * np.clip(vals_b, 0, None)).sum() ** 2)


def sqrtm_fidelity_oracle(a: np.ndarray, b: np.ndarray) -> float:
    """Independent route via scipy's generic matrix square root."""
    sa = scipy.linalg.sqrtm(a)
    inner = scipy.linalg.sqrtm(sa @ b @ sa)
    return float(np.real(np.trace(inner)) ** 2)


class TestConstructors:
    def test_bell_entries(self):
        rho = qstate.bell_phi_plus()
        expected = np.zeros((4, 4), dtype=complex)
        for i, j in [(0, 0), (0, 3), (3, 0), (3, 3)]:
            expected[i, j] = 0.5
        np.testing.assert_allclose(rho, expected, atol=1e-15)

    def test_bell_is_pure(self):
        rho = qstate.bell_phi_plus()
        assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-12)

    def test_werner_limits(self):
        np.testing.assert_allclose(qstate.werner(1.0), qstate.bell_phi_plus(), atol=1e-15)
        np.testing.assert_allclose(qstate.werner(0.0), np.eye(4) / 4, atol=1e-15)

    def test_werner_range_check(self):
        for bad in (-0.1, 1.1):
            with pytest.raises(qstate.StateError):
                qstate.werner(bad)

    def test_constructors_pass_invariants(self, rng):
        for rho in (qstate.bell_phi_plus(), qstate.bell_psi_plus(),
                    qstate.werner(0.3), random_density_matrix(rng)):
            qstate.check_density_matrix(rho)

    def test_check_rejects_bad_matrices(self):
        with pytest.raises(qstate.StateError, match="hermiticity"):
            qstate.check_density_matrix(np.eye(4) / 4 + 1e-6 * np.array([[0, 1j, 0, 0]] * 4).T @ np.eye(4))
        with pytest.raises(qstate.StateError, match="trace"):
            qstate.check_density_matrix(np.eye(4) / 2)
        neg = np.diag([0.6, 0.5, -0.05, -0.05]).astype(complex)
        with pytest.raises(qstate.StateError, match="eigenvalue"):
            qstate.check_density_matrix(neg)


class TestFidelity:
    def test_self_fidelity(self, rng):
        for _ in range(10):
            rho = random_density_matrix(rng)
            assert qstate.fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)

    def test_bell_self_fidelity(self):
        assert qstate.fidelity(qstate.bell_phi_plus(), qstate.bell_phi_plus()) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
    def test_bell_vs_werner_closed_form(self, p):
        f = qstate.fidelity(qstate.bell_phi_plus(), qstate.werner(p))
        assert f == pytest.approx((1 + 3 * p) / 4, abs=1e-10)

    def test_werner_threshold_value(self):
        p = 1 / math.sqrt(2)
        f = qstate.fidelity(qstate.bell_phi_plus(), qstate.werner(p))
        assert f == pytest.approx((1 + 3 / math.sqrt(2)) / 4, abs=1e-12)
        assert f == pytest.approx(0.7803, abs=5e-5)

    def test_commuting_werner_pair_vs_oracle(self):
        a, b = qstate.werner(0.9), qstate.werner(0.8)
        f = qstate.fidelity(a, b)
        assert f == pytest.approx(commuting_fidelity_oracle(a, b), abs=1e-12)
        assert f == pytest.approx(sqrtm_fidelity_oracle(a, b), abs=1e-10)

    def test_random_pairs_vs_sqrtm_oracle(self, rng):
        for _ in range(20):
            a, b = random_density_matrix(rng), random_density_matrix(rng)
            assert qstate.fidelity(a, b) == pytest.approx(sqrtm_fidelity_oracle(a, b), abs=1e-9)

    def test_symmetry(self, rng):
        for _ in range(20):
            a, b = random_density_matrix(rng), random_density_matrix(rng)
            assert abs(qstate.fidelity(a, b) - qstate.fidelity(b, a)) < 1e-10

    def test_pure_state_overlap_identity(self, rng):
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi /= np.linalg.norm(psi)
        a = qstate.projector(psi)
        for _ in range(20):
            b = random_density_matrix(rng)
            overlap = float(np.real(psi.conj() @ b @ psi))
            assert abs(qstate.fidelity(a, b) - overlap) < 1e-10

    def test_monotone_under_mixing(self, rng):
        for _ in range(100):
            rho = random_density_matrix(rng)
            sigma = random_density_matrix(rng)
            lam = rng.uniform()
            mixed = lam * rho + (1 - lam) * sigma
            assert qstate.fidelity(rho, mixed) >= qstate.fidelity(rho, sigma) - 1e-10

    def test_rejects_non_psd(self):
        bad = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
        with pytest.raises(qstate.StateError):
            qstate.fidelity(bad, qstate.bell_phi_plus())


class TestAlgebra:
    def test_purity_bounds(self, rng):
        rho = qstate.werner(0.0)
        assert np.trace(rho @ rho).real == pytest.approx(0.25, abs=1e-12)
        for _ in range(20):
            rho = random_density_matrix(rng)
            p = np.trace(rho @ rho).real
            assert 0.25 - 1e-12 <= p <= 1.0 + 1e-12


class TestJson:
    def test_round_trip(self, rng):
        rho = random_density_matrix(rng)
        obj = qstate.density_to_json(rho)
        assert obj["dim"] == 4 and len(obj["re"]) == 16 and len(obj["im"]) == 16
        np.testing.assert_allclose(qstate.density_from_json(obj), rho, atol=1e-12)

    def test_rejects_malformed(self):
        with pytest.raises(qstate.StateError):
            qstate.density_from_json({"dim": 4, "re": [1.0], "im": [0.0]})


@settings(max_examples=50, deadline=None, database=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 4), rank=st.integers(1, 4))
def test_density_json_round_trip_is_exact(seed, dim, rank):
    # Through JSON text, every entry of a physical state of any rank comes back
    # bit for bit.
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, min(rank, dim))) + 1j * rng.standard_normal((dim, min(rank, dim)))
    rho = g @ g.conj().T
    rho /= np.real(np.trace(rho))
    back = qstate.density_from_json(json.loads(json.dumps(qstate.density_to_json(rho))))
    assert back.shape == rho.shape and np.array_equal(back, rho)


class TestStacks:
    def test_fidelity_of_a_stack_equals_the_loop_bit_for_bit(self, rng):
        a = np.array([random_density_matrix(rng) for _ in range(200)])
        b = np.array([random_density_matrix(rng) for _ in range(200)])
        bell = qstate.bell_phi_plus()
        stacked = qstate.fidelity(a, b)
        assert stacked.shape == (200,)
        assert stacked.tolist() == [qstate.fidelity(x, y) for x, y in zip(a, b)]
        assert qstate.fidelity(a, bell).tolist() == [qstate.fidelity(x, bell) for x in a]
        assert isinstance(qstate.fidelity(a[0], bell), float)

    def test_ket_fidelity_matches_uhlmann(self, rng):
        kets = [qstate.PHI_PLUS] + [psi / np.linalg.norm(psi) for psi in
                                    rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))]
        pure = [qstate.projector(psi) for psi in kets]
        stack = np.array([random_density_matrix(rng) for _ in range(200)] + pure)
        for psi in kets:
            ket = qstate.fidelity(psi, stack)
            assert ket.shape == (len(stack),)
            assert np.abs(ket - qstate.fidelity(qstate.projector(psi), stack)).max() < 1e-14
            assert ket.tolist() == [qstate.fidelity(psi, rho) for rho in stack]
            assert np.array_equal(qstate.fidelity(psi, stack.reshape(2, -1, 4, 4)).reshape(-1), ket)
            assert isinstance(qstate.fidelity(psi, stack[0]), float)

    def test_phi_plus_is_the_ket_of_the_bell_state(self):
        assert np.array_equal(qstate.projector(qstate.PHI_PLUS), qstate.bell_phi_plus())
        fid = qstate.fidelity(qstate.PHI_PLUS, qstate.bell_phi_plus())
        assert fid == pytest.approx(1.0, abs=1e-15)
        with pytest.raises(ValueError):
            qstate.PHI_PLUS[0] = 0.0

    def test_check_accepts_a_physical_stack(self, rng):
        stack = np.array([random_density_matrix(rng) for _ in range(20)])
        assert qstate.check_density_matrix(stack).shape == (20, 4, 4)

    @pytest.mark.parametrize("spoil,message", [
        (lambda m: m.__setitem__((0, 1), np.nan), "finite"),
        (lambda m: m.__setitem__((0, 1), m[0, 1] + 1e-6j), "hermiticity"),
        (lambda m: m.__setitem__((0, 0), m[0, 0] + 0.1), "trace"),
        (lambda m: m.__setitem__(slice(None), np.diag([0.6, 0.5, -0.05, -0.05])), "eigenvalue"),
    ])
    def test_check_names_the_bad_matrix_of_a_stack(self, rng, spoil, message):
        stack = np.array([random_density_matrix(rng) for _ in range(12)])
        spoil(stack[7])
        with pytest.raises(qstate.StateError, match=f"^matrix 7: .*{message}"):
            qstate.check_density_matrix(stack)


def with_eigenvalues(rng: np.random.Generator, lam) -> np.ndarray:
    """A Hermitian 4x4 matrix with eigenvalues lam in a random eigenbasis."""
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    rho = (q * np.asarray(lam, dtype=float)) @ q.conj().T
    return (rho + rho.conj().T) / 2.0


def eigvalsh_verdict(stack: np.ndarray) -> str | None:
    """The positivity message of an eigvalsh of every matrix, None if all clear the floor."""
    eigmin = np.linalg.eigvalsh(stack).min(axis=-1)
    bad = np.flatnonzero(eigmin < qstate.EIGENVALUE_FLOOR)
    if not len(bad):
        return None
    return (f"matrix {bad[0]}: negative eigenvalue {eigmin[bad[0]]:.3e} "
            f"below floor {qstate.EIGENVALUE_FLOOR:.1e}")


class TestPositivityGate:
    """check_density_matrix runs eigvalsh only on the matrices that the LDL^H
    test does not find positive definite, with the verdicts and messages of
    eigvalsh on every matrix."""

    @staticmethod
    def eigvalsh_inputs(monkeypatch) -> list:
        seen, eigvalsh = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: seen.append(len(a)) or eigvalsh(a))
        return seen

    def test_positive_definite_stack_skips_eigvalsh(self, rng, monkeypatch):
        stack = np.array([random_density_matrix(rng) for _ in range(50)])
        seen = self.eigvalsh_inputs(monkeypatch)
        qstate.check_density_matrix(stack)
        assert seen == [0]

    def test_rank_deficient_states_pass_through_eigvalsh(self, rng, monkeypatch):
        pure = [qstate.bell_phi_plus(), qstate.bell_psi_plus(),
                qstate.projector(np.kron(qstate.KETS_BY_LABEL["+"], qstate.KETS_BY_LABEL["R"]))]
        # Rounding may let the LDL^H test pass a rank-deficient state in a random
        # basis (eigenvalue 0 +- 1e-17); it clears the floor either way.
        stack = np.array(pure + [np.diag([0.0, 0.25, 0.0, 0.75]).astype(complex),
                                 with_eigenvalues(rng, [0.0, 0.0, 0.25, 0.75]),
                                 random_density_matrix(rng)])
        assert qstate.positive_definite(stack)[[0, 1, 2, 3, 5]].tolist() == [False] * 4 + [True]
        seen = self.eigvalsh_inputs(monkeypatch)
        qstate.check_density_matrix(stack)
        assert seen[0] in (4, 5) and len(seen) == 1

    def test_negative_eigenvalue_named_as_by_eigvalsh(self, rng):
        stack = np.array([random_density_matrix(rng) for _ in range(6)])
        stack[2] = with_eigenvalues(rng, [-1e-9, 0.2, 0.3, 0.5 + 1e-9])
        stack[4] = with_eigenvalues(rng, [-0.05, 0.0, 0.45, 0.6])
        expected = eigvalsh_verdict(stack)
        assert expected.startswith("matrix 2: negative eigenvalue -1.000e-09 below floor")
        with pytest.raises(qstate.StateError) as err:
            qstate.check_density_matrix(stack)
        assert str(err.value) == expected

    def test_verdicts_match_eigvalsh_near_the_floor(self):
        rng = np.random.default_rng(7)
        lowest = rng.choice([-1e-8, -2e-10, -5e-11, 0.0, 5e-11, 1e-6], size=400)
        rest = rng.dirichlet(np.ones(3), size=400) * (1.0 - lowest)[:, None]
        stack = np.array([with_eigenvalues(rng, [low, *r]) for low, r in zip(lowest, rest)])
        for i in range(len(stack)):
            expected = eigvalsh_verdict(stack[i:i + 1])
            if expected is None:
                qstate.check_density_matrix(stack[i:i + 1])
                continue
            with pytest.raises(qstate.StateError) as err:
                qstate.check_density_matrix(stack[i:i + 1])
            assert str(err.value) == expected

    def test_non_finite_entry_is_reported_first(self, rng):
        stack = np.array([random_density_matrix(rng) for _ in range(6)])
        stack[2] = with_eigenvalues(rng, [-1e-9, 0.2, 0.3, 0.5 + 1e-9])
        stack[4, 1, 3] = np.nan
        with pytest.raises(qstate.StateError,
                           match="^matrix 4: density matrix entries must be finite$"):
            qstate.check_density_matrix(stack)
