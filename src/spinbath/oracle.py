"""Brute-force full-Hilbert-space evolution for small baths.

Ground truth for the analytic dynamics. Every mode's Hamiltonian is a sum of
isotropic pair terms c S_i . S_j over the two qubits and the n bath spins, so
it conserves the total F_z: it is assembled as real blocks, one per number of
down spins, straight from bit operations on the (n + 2)-bit basis index (no
Kronecker products, no complex 4 * 2^n square array). Each block is
diagonalised once, and the reduced pair state at any time is an exact partial
trace evaluated block pair by block pair. No time stepping, so there is no
integrator error to disentangle from formula errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .optimize import InhomogeneousCouplings
from .spinops import EigenBlock, reduced_trajectory
from .states import TwoQubitState, density_to_state, state_to_density

MAX_BATH_SPINS = 12


class DimensionCapError(ValueError):
    pass


@dataclass(frozen=True)
class CouplingParams:
    k_a: float
    k_b: float
    j: float = 0.0


@dataclass
class FullSystem:
    """Qubit-pair + bath Hamiltonian as real total-F_z blocks.

    Basis index bits from the top: qubit A, qubit B, bath spins 0 .. n-1
    (1 = down), i.e. |pair index a> (x) |bath index>. The blocks are built
    from the pair ``terms`` (site, site, c) when read and are not kept.
    """

    mode: str
    n_bath: int
    couplings: CouplingParams | InhomogeneousCouplings
    terms: list[tuple[int, int, float]]
    _eig: list[EigenBlock] | None = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return 4 << self.n_bath

    @property
    def blocks(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """``blocks[k]``: the ascending indices with k down spins and the real H on them."""
        return list(_heisenberg_blocks(self.n_bath + 2, self.terms))

    @property
    def hamiltonian(self) -> np.ndarray:
        """The dense real Hamiltonian, assembled from the term list on each call."""
        h = np.zeros((self.dim, self.dim))
        for idx, block in self.blocks:
            h[np.ix_(idx, idx)] = block
        return h

    def eigensystem(self) -> list[EigenBlock]:
        """Every block diagonalised once, with its pair-index row segments.

        Block k's rows for pair index a are that pair state times the bath
        states with k - popcount(a) down spins, the segment's group.
        """
        if self._eig is None:
            self._eig = []
            for k, (idx, block) in enumerate(_heisenberg_blocks(self.n_bath + 2, self.terms)):
                ends = np.searchsorted(idx, np.arange(5) << self.n_bath)
                rows = tuple((lo, hi, k - bin(a).count("1")) if hi > lo else None
                             for a, (lo, hi) in enumerate(zip(ends[:-1], ends[1:])))
                self._eig.append(EigenBlock(*np.linalg.eigh(block), rows))
        return self._eig


def _check_cap(n_bath: int) -> None:
    if n_bath > MAX_BATH_SPINS:
        raise DimensionCapError(
            f"n_bath = {n_bath} exceeds the dense-oracle cap of {MAX_BATH_SPINS}"
        )


def _down_count(index: np.ndarray, n_sites: int) -> np.ndarray:
    return sum((index >> bit) & 1 for bit in range(n_sites))


def _heisenberg_blocks(n_sites: int, terms):
    """Yields (indices, real block) of sum c S_i . S_j over ``terms`` (i, j, c) by down spins.

    Site s is bit n_sites - 1 - s of the basis index. A term adds c/4 to the
    diagonal where the two bits agree and -c/4 where they differ, and c/2
    between the two states that swap differing bits.
    """
    index = np.arange(1 << n_sites)
    downs = _down_count(index, n_sites)
    for k in range(n_sites + 1):
        idx = index[downs == k]
        diag = np.zeros(idx.size)
        h = np.zeros((idx.size, idx.size))
        for i, j, c in terms:
            bit_i, bit_j = n_sites - 1 - i, n_sites - 1 - j
            differ = ((idx >> bit_i) ^ (idx >> bit_j)) & 1
            diag += np.where(differ, -0.25 * c, 0.25 * c)
            rows = np.flatnonzero(differ)
            h[rows, np.searchsorted(idx, idx[rows] ^ ((1 << bit_i) | (1 << bit_j)))] += 0.5 * c
        h[np.diag_indices(idx.size)] = diag
        yield idx, h


def build(mode: str, n_bath: int, couplings) -> FullSystem:
    """The system's Heisenberg pair terms, from which its blocks are built.

    ``mode`` is "separate" (bath split in half, one half per qubit, no
    exchange), "common" (all bath spins coupled to both qubits plus
    exchange), or "inhomogeneous" (per-nucleus couplings, no exchange:
    ``InhomogeneousCouplings`` carries none).
    Sites are qubit A (0), qubit B (1) and bath spin s (s + 2).
    """
    _check_cap(n_bath)
    if n_bath < 1:
        raise DimensionCapError("need at least one bath spin")
    if mode == "separate":
        if couplings.j != 0.0:
            raise DimensionCapError("separate baths assume zero exchange")
        half = np.arange(n_bath) < n_bath // 2
        k_a, k_b, j = np.where(half, couplings.k_a, 0.0), np.where(half, 0.0, couplings.k_b), 0.0
    elif mode == "common":
        k_a, k_b, j = [couplings.k_a] * n_bath, [couplings.k_b] * n_bath, couplings.j
    elif mode == "inhomogeneous":
        if couplings.k_a_i.size != n_bath:
            raise DimensionCapError(
                f"need {n_bath} per-nucleus couplings, got {couplings.k_a_i.size}"
            )
        k_a, k_b, j = couplings.k_a_i, couplings.k_b_i, 0.0
    else:
        raise DimensionCapError(f"unknown mode {mode!r}")
    pair_terms = [(q, s + 2, k[s]) for q, k in enumerate((k_a, k_b)) for s in range(n_bath)]
    terms = [t for t in [(0, 1, j)] + pair_terms if t[2] != 0.0]
    return FullSystem(mode, n_bath, couplings, terms)


def total_fz(n_bath: int) -> np.ndarray:
    """z component of the total (pair + bath) angular momentum."""
    return np.diag(0.5 * (n_bath + 2) - _down_count(np.arange(4 << n_bath), n_bath + 2))


@cache
def _casimir_eigen(n_bath: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """Bath I^2 = 3n/4 + 2 sum_{i<j} S_i . S_j diagonalised once per ``n_bath`` and kept (21 MB
    at n = 12): read-only (indices, eigenvalues, eigenvectors), one per down-spin count."""
    _check_cap(n_bath)
    pairs = [(i, j, 2.0) for i in range(n_bath) for j in range(i + 1, n_bath)]
    out = tuple((idx, *np.linalg.eigh(h + 0.75 * n_bath * np.eye(idx.size)))
                for idx, h in _heisenberg_blocks(n_bath, pairs))
    for a in (a for arrays in out for a in arrays):
        a.setflags(write=False)
    return out


def _sector_projectors(n_bath: int, i: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """Projector onto total bath spin i, one read-only (indices, block) per down-spin count."""
    out = []
    for idx, vals, vecs in _casimir_eigen(n_bath):
        v = vecs[:, np.abs(vals - i * (i + 1.0)) < 1e-8]
        block = v @ v.T
        block.setflags(write=False)
        out.append((idx, block))
    if sum(np.trace(block) for _, block in out) < 0.5:
        raise DimensionCapError(f"no bath sector with spin {i} for {n_bath} spins")
    return out


def bath_spin_projector(n_bath: int, i: float) -> np.ndarray:
    """Projector onto the total-bath-spin-i subspace of the bath alone."""
    proj = np.zeros((1 << n_bath, 1 << n_bath))
    for idx, block in _sector_projectors(n_bath, i):
        proj[np.ix_(idx, idx)] = block
    return proj


def evolve_reduced(system: FullSystem, state: TwoQubitState, bath_state, times) -> TwoQubitState:
    """Reduced pair states at the requested times, one batch over the grid.

    ``bath_state`` is "fully_mixed" (identity / 2^n) or ("sector", i) for the
    normalized projector onto the total-bath-spin-i subspace. Both commute
    with the bath I_z, so the initial state couples block p to block q only
    where p - q = popcount(a) - popcount(b) for some rho_ab[a, b] != 0; the
    kernel forms just those block pairs, exactly, whatever the state.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if bath_state == "fully_mixed":
        env = dict.fromkeys(range(system.n_bath + 1), 0.5**system.n_bath)
    else:
        kind, i = bath_state
        if kind != "sector":
            raise DimensionCapError(f"unknown bath state {bath_state!r}")
        blocks = [block for _, block in _sector_projectors(system.n_bath, i)]
        total = sum(np.trace(block) for block in blocks)
        env = {m: block / total for m, block in enumerate(blocks)}
    red = reduced_trajectory(system.eigensystem(), state_to_density(state), env, times)
    return density_to_state(red)


def bath_spin_spectrum(n_bath: int) -> list[tuple[float, int]]:
    """(total spin, eigenvalue count) pairs of the bath Casimir operator."""
    vals = np.concatenate([vals for _, vals, _ in _casimir_eigen(n_bath)])
    out: list[tuple[float, int]] = []
    for i_val in np.arange(0.5 * (n_bath % 2), n_bath / 2.0 + 0.25, 1.0):
        count = int(np.sum(np.abs(vals - i_val * (i_val + 1.0)) < 1e-8))
        if count:
            out.append((float(i_val), count))
    assert sum(c for _, c in out) == 2**n_bath
    return out
