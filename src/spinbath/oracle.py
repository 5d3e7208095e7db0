"""Brute-force full-Hilbert-space evolution for small baths.

Ground truth for the analytic dynamics: the complete qubit-pair + bath
Hamiltonian is assembled densely, diagonalized once, and the reduced pair
state is obtained by exact partial trace at any time. No time stepping, so
there is no integrator error to disentangle from formula errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .optimize import InhomogeneousCouplings
from .spinops import (
    SPIN_HALF,
    collective_spin,
    mixed_env_eigen_state,
    pad_site_op,
    pair_overlaps,
    reduced_trajectory,
)
from .states import TwoQubitState, density_to_state, state_to_density

MAX_BATH_SPINS = 12

# above this full dimension the pair-overlap blocks of evolve_reduced would
# not fit in memory, and each time sample is propagated densely instead
_OVERLAP_DIM_LIMIT = 2048


class DimensionCapError(ValueError):
    pass


@dataclass(frozen=True)
class CouplingParams:
    k_a: float
    k_b: float
    j: float = 0.0


@dataclass
class FullSystem:
    """Dense qubit-pair + bath Hamiltonian with cached eigendecomposition."""

    mode: str
    n_bath: int
    couplings: CouplingParams | InhomogeneousCouplings
    hamiltonian: np.ndarray
    _eig: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)
    _pair_blocks: list[np.ndarray] | None = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        if self._eig is None:
            vals, vecs = np.linalg.eigh(self.hamiltonian)
            self._eig = (vals, vecs)
        return self._eig

    def pair_overlaps(self) -> list[list[np.ndarray]]:
        """Cached eigenbasis overlap blocks W_b^T W_a for the 16 pair-index
        combinations, where W_a holds the eigenvector rows with pair index a.
        """
        if self._pair_blocks is None:
            _, vecs = self.eigensystem()
            self._pair_blocks = pair_overlaps(vecs, 2**self.n_bath)
        return self._pair_blocks


def _bath_identity(n: int) -> np.ndarray:
    return np.eye(2**n, dtype=complex)


def build(mode: str, n_bath: int, couplings) -> FullSystem:
    """Assemble the dense Hamiltonian.

    ``mode`` is "separate" (bath split in half, one half per qubit, no
    exchange), "common" (all bath spins coupled to both qubits plus
    exchange), or "inhomogeneous" (per-nucleus couplings plus exchange).
    """
    if n_bath > MAX_BATH_SPINS:
        raise DimensionCapError(
            f"n_bath = {n_bath} exceeds the dense-oracle cap of {MAX_BATH_SPINS}"
        )
    if n_bath < 1:
        raise DimensionCapError("need at least one bath spin")
    dim_b = 2**n_bath
    eye2 = np.eye(2, dtype=complex)
    h = np.zeros((4 * dim_b, 4 * dim_b), dtype=complex)

    if mode == "separate":
        if couplings.j != 0.0:
            raise DimensionCapError("separate baths assume zero exchange")
        n_a = n_bath // 2
        n_b = n_bath - n_a
        for m in range(3):
            coll_a = np.kron(collective_spin(n_a, m), np.eye(2**n_b))
            coll_b = np.kron(np.eye(2**n_a), collective_spin(n_b, m))
            h += couplings.k_a * np.kron(np.kron(SPIN_HALF[m], eye2), coll_a)
            h += couplings.k_b * np.kron(np.kron(eye2, SPIN_HALF[m]), coll_b)
    elif mode == "common":
        for m in range(3):
            coll = collective_spin(n_bath, m)
            h += couplings.k_a * np.kron(np.kron(SPIN_HALF[m], eye2), coll)
            h += couplings.k_b * np.kron(np.kron(eye2, SPIN_HALF[m]), coll)
            pair = np.kron(SPIN_HALF[m], SPIN_HALF[m])
            h += couplings.j * np.kron(pair, _bath_identity(n_bath))
    elif mode == "inhomogeneous":
        if couplings.k_a_i.size != n_bath:
            raise DimensionCapError(
                f"need {n_bath} per-nucleus couplings, got {couplings.k_a_i.size}"
            )
        j = getattr(couplings, "j", 0.0)
        for m in range(3):
            for site in range(n_bath):
                site_op = pad_site_op(SPIN_HALF[m], site, n_bath)
                h += couplings.k_a_i[site] * np.kron(np.kron(SPIN_HALF[m], eye2), site_op)
                h += couplings.k_b_i[site] * np.kron(np.kron(eye2, SPIN_HALF[m]), site_op)
            if j:
                h += j * np.kron(np.kron(SPIN_HALF[m], SPIN_HALF[m]), _bath_identity(n_bath))
    else:
        raise DimensionCapError(f"unknown mode {mode!r}")

    assert np.abs(h.imag).max() < 1e-12  # real symmetric in the product basis
    return FullSystem(mode=mode, n_bath=n_bath, couplings=couplings, hamiltonian=h.real)


def total_fz(n_bath: int) -> np.ndarray:
    """z component of the total (pair + bath) angular momentum."""
    eye2 = np.eye(2, dtype=complex)
    fz = np.kron(np.kron(SPIN_HALF[2], eye2), _bath_identity(n_bath))
    fz += np.kron(np.kron(eye2, SPIN_HALF[2]), _bath_identity(n_bath))
    fz += np.kron(np.eye(4, dtype=complex), collective_spin(n_bath, 2))
    return fz


def bath_spin_projector(n_bath: int, i: float) -> np.ndarray:
    """Projector onto the total-bath-spin-i subspace of the bath alone."""
    i_sq = np.zeros((2**n_bath, 2**n_bath), dtype=complex)
    for m in range(3):
        coll = collective_spin(n_bath, m)
        i_sq += coll @ coll
    vals, vecs = np.linalg.eigh(i_sq.real)
    target = i * (i + 1.0)
    sel = np.abs(vals - target) < 1e-8
    if not np.any(sel):
        raise DimensionCapError(f"no bath sector with spin {i} for {n_bath} spins")
    v = vecs[:, sel]
    return v @ v.T


def evolve_reduced(system: FullSystem, state: TwoQubitState, bath_state, times) -> TwoQubitState:
    """Reduced pair states at the requested times, one batch over the grid.

    ``bath_state`` is "fully_mixed" (identity / 2^n) or ("sector", i) for the
    normalized projector onto the total-bath-spin-i subspace. The system is
    diagonalized once; each reduced matrix element is then a phase-weighted
    contraction, so adding time samples is cheap. Up to dimension
    ``_OVERLAP_DIM_LIMIT`` the whole grid is evaluated in one pass over the
    cached overlap blocks; beyond it each time sample is propagated densely.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    vals, vecs = system.eigensystem()
    dim_b = 2**system.n_bath
    rho_ab = state_to_density(state)
    overlaps = system.pair_overlaps() if system.dim <= _OVERLAP_DIM_LIMIT else None

    if bath_state == "fully_mixed":
        if overlaps is not None:
            rho_eig = mixed_env_eigen_state(rho_ab, overlaps, dim_b)
        else:
            # rho0 = rho_ab (x) 1/2^n without forming it: contract the pair index
            v_blocks = vecs.reshape(4, dim_b, system.dim)
            rho0_v = np.einsum("ac,cnj->anj", rho_ab, v_blocks).reshape(system.dim, system.dim)
            rho_eig = vecs.T @ rho0_v / dim_b
    else:
        kind, i = bath_state
        if kind != "sector":
            raise DimensionCapError(f"unknown bath state {bath_state!r}")
        proj = bath_spin_projector(system.n_bath, i)
        rho_e = proj / np.trace(proj).real
        rho0 = np.kron(rho_ab, rho_e)
        rho_eig = vecs.T @ rho0 @ vecs

    if overlaps is not None:
        red = reduced_trajectory(vals, overlaps, rho_eig, times)
    else:
        red = np.empty((times.size, 4, 4), dtype=complex)
        for k, t in enumerate(times):
            u = np.exp(-1j * (t * vals))
            rho_t = vecs @ (rho_eig * np.outer(u, u.conj())) @ vecs.T
            red[k] = np.trace(rho_t.reshape(4, dim_b, 4, dim_b), axis1=1, axis2=3)
    return density_to_state(red)


def bath_spin_spectrum(n_bath: int) -> list[tuple[float, int]]:
    """(total spin, eigenvalue count) pairs of the bath Casimir operator."""
    if n_bath > MAX_BATH_SPINS:
        raise DimensionCapError(
            f"n_bath = {n_bath} exceeds the dense-oracle cap of {MAX_BATH_SPINS}"
        )
    i_sq = np.zeros((2**n_bath, 2**n_bath), dtype=complex)
    for m in range(3):
        coll = collective_spin(n_bath, m)
        i_sq += coll @ coll
    vals = np.linalg.eigvalsh(i_sq.real)
    out: list[tuple[float, int]] = []
    for i_val in np.arange(0.5 * (n_bath % 2), n_bath / 2.0 + 0.25, 1.0):
        count = int(np.sum(np.abs(vals - i_val * (i_val + 1.0)) < 1e-8))
        if count:
            out.append((float(i_val), count))
    assert sum(c for _, c in out) == 2**n_bath
    return out
