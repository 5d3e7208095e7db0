"""Spin-1/2 operators for the state layer, and the oracle's reduced-dynamics kernel."""

from __future__ import annotations

from typing import NamedTuple

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


def qubit_pair_ops() -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Cartesian spin components (S_A, S_B) on the 4-dim pair space |q_A q_B>."""
    eye = np.eye(2, dtype=complex)
    s_a = [np.kron(s, eye) for s in SPIN_HALF]
    s_b = [np.kron(eye, s) for s in SPIN_HALF]
    return s_a, s_b


# ---------------------------------------------------------------------------
# reduced pair dynamics from eigen-blocks
# ---------------------------------------------------------------------------
#
# The oracle diagonalises its Hamiltonian block by block (the analytic side
# never calls this kernel). A block's rows with pair index a are one segment
# |a> (x) |environment states of group m>; two segments meet in the partial
# trace, or through the environment state, only when their groups agree.

_PHASE_CHUNK = 1 << 20


class EigenBlock(NamedTuple):
    """Eigenvalues and real eigenvectors of one Hamiltonian block.

    ``rows[a]`` is ``(lo, hi, m)``: eigenvector rows ``lo:hi`` are pair index
    a times the environment states of group m, in that group's order; it is
    None when pair index a has no rows in the block.
    """

    vals: np.ndarray
    vecs: np.ndarray
    rows: tuple


def reduced_trajectory(
    blocks: list[EigenBlock], rho_ab: np.ndarray, env: dict, times: np.ndarray
) -> np.ndarray:
    """Reduced pair density (T, 4, 4) of rho_ab (x) env, evolved to every time.

    ``env[m]`` is the environment state on group m: a number for that multiple
    of the identity, else a real matrix. With W_pa the segment of block p for
    pair index a, R_pq = sum_ab rho_ab[a, b] W_pa^T env[m] W_qb (segments of one
    group m) is the initial state in the eigenbases of blocks p and q, and

        red[t, b, a] = sum_pq sum_jk R_pq[j, k] e^{-i(E_pj - E_qk) t} (W_pb^T W_qa)[j, k]

    Only block pairs that rho_ab couples are formed, only the lower triangle
    b >= a is contracted (the upper one is its conjugate), and time chunks
    bound the phase and product arrays to ~16 MB each.
    """
    red = np.zeros((times.size, 4, 4), dtype=complex)
    rho_ab = rho_ab if rho_ab.imag.any() else rho_ab.real  # real states stay real below
    coupled = list(zip(*np.nonzero(rho_ab)))  # named states leave most elements zero
    for bp in blocks:
        for bq in blocks:
            # pair indices (a, b) whose segments in blocks p and q share a group
            shared = {(a, b): ra[2] for a, ra in enumerate(bp.rows) for b, rb in enumerate(bq.rows)
                      if ra and rb and ra[2] == rb[2]}
            sources = [ab for ab in coupled if ab in shared]
            targets = [ab for ab in shared if ab[0] >= ab[1]]
            if not sources or not targets:
                continue
            w_p = [r and bp.vecs[r[0] : r[1]] for r in bp.rows]
            w_q = [r and bq.vecs[r[0] : r[1]] for r in bq.rows]
            cache = {}

            def overlap(a, b):  # W_pa^T W_qb
                if (a, b) not in cache:
                    mirror = bp is bq and (b, a) in cache
                    cache[a, b] = cache[b, a].T if mirror else w_p[a].T @ w_q[b]
                return cache[a, b]

            rho_eig = np.zeros((bp.vals.size, bq.vals.size), dtype=rho_ab.dtype)
            weighted = np.empty_like(rho_eig)
            for a, b in sources:
                e = env[shared[a, b]]
                if np.isscalar(e):
                    rho_eig += np.multiply(overlap(a, b), rho_ab[a, b] * e, out=weighted)
                else:
                    rho_eig += rho_ab[a, b] * (w_p[a].T @ (e @ w_q[b]))
            step = max(1, _PHASE_CHUNK // max(bp.vals.size, bq.vals.size))
            for lo in range(0, times.size, step):
                chunk = times[lo : lo + step]
                phases_p = np.exp(-1j * np.outer(chunk, bp.vals))
                phases_q = phases_p if bq is bp else np.exp(-1j * np.outer(chunk, bq.vals))
                for b, a in targets:
                    np.multiply(rho_eig, overlap(b, a), out=weighted)
                    red[lo : lo + step, b, a] += np.einsum(
                        "tk,tk->t", _phase_product(phases_p, weighted), phases_q.conj()
                    )
    upper = np.triu_indices(4, 1)
    red[:, upper[0], upper[1]] = red[:, upper[1], upper[0]].conj()
    return red


def _phase_product(phases: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``phases @ w`` without a complex copy of a real ``w``."""
    if np.iscomplexobj(w):
        return phases @ w
    both = np.concatenate([phases.real, phases.imag]) @ w
    return both[: phases.shape[0]] + 1j * both[phases.shape[0] :]
