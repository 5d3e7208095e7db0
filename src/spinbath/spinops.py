"""Spin operator construction helpers shared by the dynamics and oracle modules."""

from __future__ import annotations

import functools

import numpy as np

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# spin-1/2 operators, hbar = 1
SPIN_HALF = (PAULI_X / 2.0, PAULI_Y / 2.0, PAULI_Z / 2.0)


def spin_matrices(j: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Jx, Jy, Jz) in the standard |j, m> basis with m descending from +j."""
    dim = int(round(2 * j)) + 1
    m = j - np.arange(dim)
    jz = np.diag(m).astype(complex)
    jp = np.zeros((dim, dim), dtype=complex)
    for k in range(1, dim):
        jp[k - 1, k] = np.sqrt(j * (j + 1) - m[k] * (m[k] + 1))
    jm = jp.conj().T
    return (jp + jm) / 2.0, (jp - jm) / 2.0j, jz


def kron_all(*mats: np.ndarray) -> np.ndarray:
    return functools.reduce(np.kron, mats)


def qubit_pair_ops() -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Cartesian spin components (S_A, S_B) on the 4-dim pair space |q_A q_B>."""
    eye = np.eye(2, dtype=complex)
    s_a = [np.kron(s, eye) for s in SPIN_HALF]
    s_b = [np.kron(eye, s) for s in SPIN_HALF]
    return s_a, s_b


def pad_site_op(op: np.ndarray, site: int, n_sites: int) -> np.ndarray:
    """Embed a single-site operator at `site` in a chain of n_sites spin-1/2."""
    left = np.eye(2**site, dtype=complex)
    right = np.eye(2 ** (n_sites - site - 1), dtype=complex)
    return kron_all(left, op, right)


def collective_spin(n_sites: int, component: int) -> np.ndarray:
    """Sum of one cartesian spin component over a chain of spin-1/2 sites."""
    dim = 2**n_sites
    total = np.zeros((dim, dim), dtype=complex)
    for site in range(n_sites):
        total += pad_site_op(SPIN_HALF[component], site, n_sites)
    return total


# ---------------------------------------------------------------------------
# reduced pair dynamics from an eigendecomposition
# ---------------------------------------------------------------------------
#
# The dense paths (the oracle and the per-sector evolver) order their basis as
# |pair index a> (x) |environment index n>, so the eigenvector matrix splits
# into four row blocks W_a of shape (dim_env, D).

_PHASE_CHUNK = 1 << 20


def pair_overlaps(vecs: np.ndarray, dim_env: int) -> list[list[np.ndarray]]:
    """Eigenbasis overlap blocks: ``out[b][a] = W_b^T W_a`` for real eigenvectors."""
    rows = [vecs[a * dim_env : (a + 1) * dim_env, :] for a in range(4)]
    out = [[None] * 4 for _ in range(4)]
    for a in range(4):
        for b in range(a, 4):
            out[b][a] = rows[b].T @ rows[a]
            if a != b:
                out[a][b] = out[b][a].T
    return out


def mixed_env_eigen_state(
    rho_ab: np.ndarray, overlaps: list[list[np.ndarray]], dim_env: int
) -> np.ndarray:
    """rho_ab (x) 1/dim_env in the eigenbasis: sum_ab rho_ab[a, b] O_ab / dim_env."""
    out = np.zeros(overlaps[0][0].shape, dtype=complex)
    for a in range(4):
        for b in range(4):
            if rho_ab[a, b] != 0:  # named states leave most pair elements zero
                out += rho_ab[a, b] * overlaps[a][b]
    return out / dim_env


def reduced_trajectory(
    vals: np.ndarray, overlaps: list[list[np.ndarray]], rho_eig: np.ndarray, times: np.ndarray
) -> np.ndarray:
    """Reduced pair density (T, 4, 4) at every time in one pass.

        red[t, a, b] = sum_jk rho_eig[j, k] e^{-i(E_j - E_k) t} O_ba[k, j]

    with ``overlaps[b][a] = O_ba``. ``rho_eig`` must be Hermitian: only the
    lower triangle b >= a is contracted, against the blocks ``pair_overlaps``
    stores contiguously, and the upper one is its conjugate.
    """
    red = np.empty((times.size, 4, 4), dtype=complex)
    # bound the (samples x D) phase and product arrays to ~16 MB each
    step = max(1, _PHASE_CHUNK // vals.size)
    for lo in range(0, times.size, step):
        phases = np.exp(-1j * np.outer(times[lo : lo + step], vals))
        block = red[lo : lo + step]
        for a in range(4):
            for b in range(a, 4):
                # red[t, b, a] = sum_jk rho_eig[j, k] e^{-i(E_j - E_k) t} O_ba[j, k]
                weighted = rho_eig * overlaps[b][a]
                block[:, b, a] = np.einsum("tk,tk->t", phases @ weighted, phases.conj())
                if a != b:
                    block[:, a, b] = block[:, b, a].conj()
    return red
