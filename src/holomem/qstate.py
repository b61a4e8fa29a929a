"""Two-qubit polarization-state primitives: kets, density matrices, fidelity.

The computational basis is fixed throughout the package as HH, HV, VH, VV
(qubit 1 = first tensor factor).  KETS_BY_LABEL is the one table of the
analyzer kets H, V, +, -, R, L.  All states are plain complex numpy arrays;
validation helpers enforce the physicality constraints at construction and
after channel composition.
"""

from __future__ import annotations

import numpy as np

# Tolerances at construction time.  After repeated channel products the
# looser CHANNEL_ATOL applies (error accumulation through composition).
CONSTRUCTION_ATOL = 1e-12
CHANNEL_ATOL = 1e-9
EIGENVALUE_FLOOR = -1e-10


class StateError(ValueError):
    """A matrix fails density-matrix, normalization, or dimension checks."""


# ---------------------------------------------------------------------------
# Single-qubit polarization kets, by analyzer label
# ---------------------------------------------------------------------------

# L's lower entry is complex(0, -1): the literal -1j has a real part of -0.0.
KETS_BY_LABEL = {
    "H": np.array([1.0, 0.0], dtype=complex),
    "V": np.array([0.0, 1.0], dtype=complex),
    "+": np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
    "-": np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0),
    "R": np.array([1.0, 1j]) / np.sqrt(2.0),
    "L": np.array([1.0, complex(0.0, -1.0)]) / np.sqrt(2.0),
}


def projector(psi) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    return np.outer(psi, psi.conj())


# ---------------------------------------------------------------------------
# Density-matrix validation and constructors
# ---------------------------------------------------------------------------

def positive_definite(h: np.ndarray) -> np.ndarray:
    """Whether each matrix of a (B, n, n) Hermitian stack is positive definite (all
    LDL^H pivots positive), reading like eigh the lower triangle and real diagonal."""
    a = h.copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(a.shape[-1] - 1):
            col, pivot = a[:, k + 1:, k], a[:, k, k, None].real
            a[:, k + 1:, k + 1:] -= col[:, :, None] * (col.conj() / pivot)[:, None, :]
    return np.all(np.diagonal(a, axis1=1, axis2=2).real > 0.0, axis=1)


def check_density_matrix(rho: np.ndarray, atol: float = CONSTRUCTION_ATOL) -> np.ndarray:
    """Validate hermiticity, unit trace, and positivity; return the array.

    Accepts one matrix or a (..., n, n) stack.  Raises StateError naming the
    violated property and, for a stack, the first matrix that violates it.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim < 2 or rho.shape[-1] != rho.shape[-2]:
        raise StateError(f"density matrix must be square, got shape {rho.shape}")

    def require(ok, message: str, err=None) -> None:
        if not np.all(ok):
            at = tuple(np.argwhere(~np.asarray(ok))[0])
            where = f"matrix {at[0] if len(at) == 1 else at}: " if at else ""
            raise StateError(where + message.format(None if err is None else err[at]))

    require(np.isfinite(rho).all(axis=(-2, -1)), "density matrix entries must be finite")
    herm_err = np.max(np.abs(rho - rho.conj().swapaxes(-1, -2)), axis=(-2, -1))
    require(herm_err <= atol, "hermiticity violated by {:.3e}", herm_err)
    trace_err = np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0)
    require(trace_err <= atol, "trace differs from 1 by {:.3e}", trace_err)
    # A matrix that passes the LDL^H test clears the floor; only the rest need eigvalsh.
    flat = rho.reshape(-1, *rho.shape[-2:])
    eigmin = np.zeros(len(flat))
    doubt = ~positive_definite(flat)
    eigmin[doubt] = np.linalg.eigvalsh(flat[doubt]).min(axis=-1)
    eigmin = eigmin.reshape(rho.shape[:-2])
    require(eigmin >= EIGENVALUE_FLOOR,
            f"negative eigenvalue {{:.3e}} below floor {EIGENVALUE_FLOOR:.1e}", eigmin)
    return rho


# The ket (|HH> + |VV>)/sqrt(2), read-only: fidelity(PHI_PLUS, rho) is the Bell-state fidelity.
PHI_PLUS = (np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)).astype(complex)
PHI_PLUS.flags.writeable = False


def bell_phi_plus() -> np.ndarray:
    """Density matrix of (|HH> + |VV>)/sqrt(2)."""
    return projector(PHI_PLUS)


def bell_psi_plus() -> np.ndarray:
    """Density matrix of (|HV> + |VH>)/sqrt(2)."""
    return projector(np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0))


def werner(p: float) -> np.ndarray:
    """White-noise-mixed Bell state  p|phi+><phi+| + (1-p) I/4."""
    if not 0.0 <= p <= 1.0:
        raise StateError(f"werner weight p={p} outside [0, 1]")
    return p * bell_phi_plus() + (1.0 - p) * np.eye(4, dtype=complex) / 4.0


# ---------------------------------------------------------------------------
# Fidelity
# ---------------------------------------------------------------------------

def sqrtm_psd(mat: np.ndarray) -> np.ndarray:
    """Hermitian principal square root (of each matrix of a stack) with clamping
    of small negative eigenvalues.

    Eigenvalues in [EIGENVALUE_FLOOR, 0) clamp to 0; anything below the floor
    is a genuine positivity violation and raises.
    """
    mat = np.asarray(mat, dtype=complex)
    vals, vecs = np.linalg.eigh(mat)
    if vals.min() < EIGENVALUE_FLOOR:
        raise StateError(f"matrix not positive semidefinite (min eigenvalue {vals.min():.3e})")
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def fidelity(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """Uhlmann fidelity  (Tr sqrt(sqrt(a) b sqrt(a)))^2.

    This is the squared-overlap convention: for pure a = |psi><psi| it
    equals <psi|b|psi>.  Passing the ket psi itself, shape (n,), as `a`
    returns <psi|b|psi> directly, with no square root or eigendecomposition;
    that form does not validate b, so its callers pass states that have
    passed check_density_matrix (as channel.input_state, store_retrieve and
    the MLE output have).  Result is clipped to [0, 1] against roundoff.
    For (..., n, n) stacks, broadcast together, it returns the per-matrix values.
    """
    if np.ndim(a) == 1:
        ket = np.asarray(a, dtype=complex)
        out = np.clip(np.einsum("i,...ij,j->...", ket.conj(), np.asarray(b, dtype=complex),
                                ket).real, 0.0, 1.0)
        return float(out) if out.ndim == 0 else out
    sa = sqrtm_psd(a)
    inner = sa @ np.asarray(b, dtype=complex) @ sa
    vals = np.linalg.eigvalsh((inner + inner.conj().swapaxes(-1, -2)) / 2.0)
    if vals.min() < EIGENVALUE_FLOOR:
        raise StateError(f"fidelity argument not PSD (min eigenvalue {vals.min():.3e})")
    # Zero out eigenvalue noise on rank-deficient inputs: sqrt amplifies
    # O(eps) eigenvalues to O(sqrt(eps)) errors otherwise.
    noise_floor = vals.max(axis=-1, keepdims=True) * vals.shape[-1] * np.finfo(float).eps * 4.0
    vals = np.where(vals < noise_floor, 0.0, vals)
    root_sum = np.sqrt(vals).sum(axis=-1)
    out = np.clip(root_sum * root_sum, 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# JSON wire format:  {"dim": 4, "re": [...16], "im": [...16]}, row-major
# ---------------------------------------------------------------------------

def density_to_json(rho: np.ndarray) -> dict:
    rho = np.asarray(rho, dtype=complex)
    n = rho.shape[0]
    return {
        "dim": int(n),
        "re": [float(x) for x in rho.real.reshape(-1)],
        "im": [float(x) for x in rho.imag.reshape(-1)],
    }


def density_from_json(obj: dict) -> np.ndarray:
    """Parse the wire format; a missing key, a mistyped value or dim < 1 raises StateError."""
    try:
        n = int(obj["dim"])
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
        if n < 1:
            raise ValueError(f"dim must be positive, got {n}")
    except (KeyError, TypeError, ValueError) as exc:
        raise StateError(f"malformed JSON density matrix: {type(exc).__name__} {exc}") from None
    if re.size != n * n or im.size != n * n:
        raise StateError(f"JSON density matrix needs {n * n} entries per part")
    rho = (re + 1j * im).reshape(n, n)
    return check_density_matrix(rho, atol=CHANNEL_ATOL)
