"""Exact reduced dynamics for two exchange-coupled qubits sharing one bath.

Hamiltonian: (K_A S_A + K_B S_B) . I + J S_A . S_B, with the bath spin I
unpolarized sector by sector. Conserved quantities organize the solution:
the total angular momentum F takes values I+1, I, I-1 in the qubit-triplet
channel and I in the qubit-singlet channel, and the two F = I multiplets mix
if and only if K_A != K_B. The evolution convention throughout is
U = exp(-iHt); sector phases are reported relative to the singlet level,
which removes an unobservable global phase.

Three evolution paths are provided and cross-checked, each a line spectrum:

- ``SymmetricEvolver``: closed-form polarization map for K_A = K_B, built
  from bath-averaged Clebsch-Gordan moment tensors; all sectors share one comb.
- ``bell_mix_evolution``: closed-form Bell-basis matrix elements for initial
  states in the span of the singlet and the m=0 triplet, any couplings and
  exchange; each sector has four levels, so six lines per sector.
- ``SectorExactEvolver``: any initial state and couplings on small exact
  baths; one O(dim^3) ``eigh`` per sector, every sector kept, six lines each.

The first two skip sectors below ``bath.SECTOR_WEIGHT_CUT`` (baths of 10^4
spins are in reach); all three sum their lines in ``evaluate_lines``, which
on an affine grid of T samples (every scenario's) uses cos w(b+o) = cos wb
cos wo - sin wb sin wo for ~4 sqrt(T) cos/sin calls per line, not 2 T.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bath import BathDistribution
from .spinops import qubit_pair_ops, spin_matrices
from .states import (
    KET_SINGLET,
    KET_T1,
    KET_T2,
    KET_TRIPLET0,
    InvalidStateError,
    TwoQubitState,
    decoherence_measure,
    density_to_state,
    state_to_density,
)

_S_A, _S_B = qubit_pair_ops()

class AssumptionError(ValueError):
    """Raised when a closed-form path is used outside its assumptions."""


@dataclass(frozen=True)
class CommonBathSystem:
    k_a: float
    k_b: float
    j: float
    bath: BathDistribution

    @property
    def k_mean(self) -> float:
        return 0.5 * (self.k_a + self.k_b)

    @property
    def k_half_diff(self) -> float:
        return 0.5 * (self.k_a - self.k_b)


# ---------------------------------------------------------------------------
# sector spectrum and dense sector Hamiltonian
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SectorCoefficients:
    """Spectral data of one bath sector, phases relative to the singlet level.

    ``level_f_plus`` / ``level_f_minus`` are the F = I+1 and F = I-1 triplet
    levels; ``level_mix_upper`` / ``level_mix_lower`` the two levels of the
    F = I singlet-triplet block. ``phase_mean`` and ``phase_gap`` are half the
    sum and half the difference of the mixed levels, and (``mixing_cos``,
    ``mixing_sin``) parametrize the block rotation with cos^2 + sin^2 = 1.
    """

    sector_spin: float
    level_f_plus: float
    level_f_minus: float
    level_mix_upper: float
    level_mix_lower: float
    phase_mean: float
    phase_gap: float
    mixing_cos: float
    mixing_sin: float


def sector_spectrum(system: CommonBathSystem, i: float) -> SectorCoefficients:
    """Eigenvalues and mixing parameters of the bath sector with spin i."""
    if i < 0:
        raise AssumptionError(f"sector spin must be >= 0, got {i}")
    kbar, j = system.k_mean, system.j
    lam1 = j + i * kbar
    lam2 = j - (i + 1.0) * kbar
    diag = j - kbar
    disc = math.sqrt(diag**2 + i * (i + 1.0) * (system.k_a - system.k_b) ** 2)
    zeta_p = 0.5 * (diag + disc)
    zeta_m = 0.5 * (diag - disc)
    lam_plus = 0.5 * (zeta_p + zeta_m)
    lam_minus = 0.5 * (zeta_p - zeta_m)
    if lam_minus < 1e-300:
        p, q = 1.0, 0.0
    else:
        p = lam_plus / lam_minus
        q = math.sqrt(max(0.0, 1.0 - p * p))
    return SectorCoefficients(
        sector_spin=float(i),
        level_f_plus=lam1,
        level_f_minus=lam2,
        level_mix_upper=zeta_p,
        level_mix_lower=zeta_m,
        phase_mean=lam_plus,
        phase_gap=lam_minus,
        mixing_cos=p,
        mixing_sin=q,
    )


def sector_hamiltonian(system: CommonBathSystem, i: float) -> np.ndarray:
    """Dense H on the (4 (2i+1))-dim sector, basis |pair> (x) |i, m>."""
    ib = spin_matrices(i) if i > 0 else (np.zeros((1, 1), complex),) * 3
    h = np.kron(system.j * sum(a @ b for a, b in zip(_S_A, _S_B)), np.eye(ib[0].shape[0]))
    for a, b, m in zip(_S_A, _S_B, ib):
        h += np.kron(system.k_a * a + system.k_b * b, m)
    return h


# ---------------------------------------------------------------------------
# Clebsch-Gordan tables for the triplet (spin-1) x spin-I coupling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _CGTables:
    two_i: int
    # c[f, mu_row, k]: <mu, m_tot - mu | F, m_tot>, F rows (I+1, I, I-1),
    # mu rows (+1, 0, -1), m_tot grid descending from I+1 to -(I+1)
    c: np.ndarray
    m_tot: np.ndarray


def _cg_tables(i: float) -> _CGTables:
    """Closed-form <1 mu; I m-mu | F m> for F = I+1, I, I-1, vectorised over m.

    The coefficients are the textbook ones for coupling spin I to spin 1
    (Edmonds, *Angular Momentum in Quantum Mechanics*, Table 2), with the
    spin-1 factor written first: the swap factor (-1)^(I+1-F) negates the F = I
    row. Condon-Shortley signs, O(I) per table; entries outside
    |m - mu| <= I, |m| <= F are zero.
    """
    two_i = int(round(2 * i))
    if two_i == 0:
        raise AssumptionError("no triplet coupling tables for a spin-0 sector")
    i = 0.5 * two_i
    m_tot = (i + 1.0) - np.arange(two_i + 3)
    a, b = i + m_tot, i - m_tot

    def root(num, den):
        return np.sqrt(np.maximum(num, 0.0) / den)

    up = 2.0 * (i + 1.0) * (2.0 * i + 1.0)
    mid = 2.0 * i * (i + 1.0)
    low = 2.0 * i * (2.0 * i + 1.0)
    c = np.array(
        [
            [root(a * (a + 1.0), up), root(2.0 * (a + 1.0) * (b + 1.0), up), root(b * (b + 1.0), up)],
            [root(a * (b + 1.0), mid), -m_tot * math.sqrt(2.0 / mid), -root(b * (a + 1.0), mid)],
            [root(b * (b + 1.0), low), -root(2.0 * a * b, low), root(a * (a + 1.0), low)],
        ]
    )
    f = np.array([i + 1.0, i, i - 1.0])[:, None, None]
    m_bath = m_tot[None, None, :] - np.array([1.0, 0.0, -1.0])[None, :, None]
    c *= (np.abs(m_tot) <= f) & (np.abs(m_bath) <= i)
    return _CGTables(two_i=two_i, c=c, m_tot=m_tot)


# a pass holds at most this many phases (lines x offsets) or folded amplitudes
_PHASE_BLOCK = 1 << 18


def _grid_split(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(base, off) with t[q B + r] ~ base[q] + off[r]: B = isqrt(T) for a grid of
    T >= 16 samples within 4 ulp of max|t| of an affine one, else one block."""
    if t.size >= 16:
        b, step = math.isqrt(t.size), (t[-1] - t[0]) / (t.size - 1)
        if np.abs(t - (t[0] + np.arange(t.size) * step)).max() <= 4.0 * np.spacing(np.abs(t).max()):
            return t[::b], t[:b] - t[0]
    return np.zeros(1), t


def evaluate_lines(amp_plus, amp_minus, omega, times) -> np.ndarray:
    """sum_l amp_plus[:, l] exp(-i omega_l t) + amp_minus[:, l] exp(+i omega_l t).

    Each conjugate pair of lines is passed once: one omega, two amplitude
    columns. Returns a complex array of shape (n_obs,) + times.shape, so a
    0-d ``times`` is accepted. In real rows the sum is E cos wt + F sin wt,
    E = a+ + a-, F = -i (a+ - a-). With t = b_q + o_r from ``_grid_split``,
    block q's base phases fold into M_q = [E cos wb_q + F sin wb_q | F cos wb_q
    - E sin wb_q]; one real GEMM with [cos wo; sin wo] gives every sample, for
    2 L (Q + B) cos/sin calls on L lines. Each pass holds at most ``_PHASE_BLOCK``
    offset phases and as many M_q entries.
    """
    t = np.asarray(times, dtype=float).ravel()
    n_obs, n_lines = amp_plus.shape
    fold = np.vstack([amp_plus + amp_minus.conj(), -1j * (amp_plus - amp_minus.conj())])  # E + i F
    base, off = _grid_split(t)
    out = np.empty((n_obs, base.size, off.size), dtype=complex)
    r_step, q_step = (max(1, _PHASE_BLOCK // k) for k in (n_lines, 4 * n_obs * n_lines))
    for r in range(0, off.size, r_step):
        phase = np.outer(omega, off[r : r + r_step])
        w = np.stack([np.cos(phase), np.sin(phase)], axis=1).reshape(2 * n_lines, -1)
        for q in range(0, base.size, q_step):
            # M_q = (E + i F) e^{-i w b_q}, its real and imaginary parts interleaved like w
            z = np.multiply(fold, np.exp(-1j * np.outer(base[q : q + q_step], omega))[:, None], order="C")
            part = (z.view(float).reshape(-1, 2 * n_lines) @ w).reshape(-1, 2 * n_obs, w.shape[1])
            out.real[:, q : q + q_step, r : r + r_step] = part[:, :n_obs].swapaxes(0, 1)
            out.imag[:, q : q + q_step, r : r + r_step] = part[:, n_obs:].swapaxes(0, 1)
    return out.reshape(n_obs, base.size * off.size)[:, : t.size].reshape((n_obs,) + np.shape(times))


def _level_pair_lines(amp, levels, times) -> np.ndarray:
    """sum_{l,l',s} amp[:, l, l', s] exp(-i (levels[l, s] - levels[l', s]) t), 6 pairs per s."""
    up, lo = np.triu_indices(4, 1)
    const = np.einsum("xlls->x", amp)[:, None]
    return evaluate_lines(
        np.hstack([const, amp[:, up, lo].reshape(amp.shape[0], -1)]),
        np.hstack([np.zeros_like(const), amp[:, lo, up].reshape(amp.shape[0], -1)]),
        np.append(0.0, (levels[up] - levels[lo]).ravel()),
        times,
    )


# ---------------------------------------------------------------------------
# symmetric couplings: closed-form polarization map
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymmetricMapCoefficients:
    """Linear map of the polarizations for K_A = K_B, sampled on a time grid.

    The map is

        P_A(t) = vec_direct P_A + vec_exchange P_B + 2 vec_from_tensor a
        P_B(t) = vec_direct P_B + vec_exchange P_A - 2 vec_from_tensor a
        pi(t)  = tensor_direct pi + tensor_transpose pi^T
                 + tensor_trace Tr(pi) delta + tensor_from_vec eps.(P_A - P_B)

    where a is the axial vector of the antisymmetric part of pi. The complex
    ``st_coherence`` is the singlet-triplet coherence factor from which the
    asymmetric pieces derive: vec_direct - vec_exchange = Re(st_coherence),
    vec_from_tensor = Im(st_coherence)/2 = -tensor_from_vec, and the trace
    identity tensor_direct + tensor_transpose + 3 tensor_trace = 1 holds at
    every sample, up to the weight of the dropped sectors.
    """

    times: np.ndarray
    st_coherence: np.ndarray
    vec_direct: np.ndarray
    vec_exchange: np.ndarray
    vec_from_tensor: np.ndarray
    tensor_direct: np.ndarray
    tensor_transpose: np.ndarray
    tensor_trace: np.ndarray
    tensor_from_vec: np.ndarray


_EPS = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    _EPS[_i, _j, _k] = 1.0
    _EPS[_j, _i, _k] = -1.0


class SymmetricEvolver:
    """Closed-form evolution for equal couplings on one frequency comb.

    Sector I's triplet levels are J + k I, J - k and J - k(I+1) above the
    singlet: the map is a cosine comb at k n / 2 and the coherence one at
    J + k n / 2, n an integer, so all sectors share integer bins.
    """

    def __init__(self, system: CommonBathSystem):
        if system.k_a != system.k_b:
            raise AssumptionError(
                "closed-form map requires equal couplings; use SectorExactEvolver"
            )
        self.system = system

    def map_coefficients(self, times) -> SymmetricMapCoefficients:
        times = np.atleast_1d(np.asarray(times, dtype=float))
        spins, weights, _ = self.system.bath.significant_sectors()
        # column n: the line exp(-i k n t / 2). Rows: cosine amplitudes of eta
        # and of phi_q (-1/8 per sector), st_coherence exp(iJt) on +n and on -n
        amp = np.zeros((4, int(round(4 * spins.max())) + 3))
        for i, w in zip(spins, weights):
            two_i = int(round(2 * i))
            if two_i == 0:
                amp[:3, 0] += w
                continue
            c, norm = _cg_tables(i).c, 2.0 * i + 1.0
            cc = c[:, None] * c[None, :]  # (F, F', mu, m); the moment tensor is cc cc
            a = np.array([0.5 * (cc[:, :, 0] - cc[:, :, 2]) ** 2,
                          0.375 * (cc[:, :, 0] - cc[:, :, 1] + cc[:, :, 2]) ** 2]).sum(-1) / norm
            amp[:2, 0] += w * (a.trace(axis1=1, axis2=2) - [0.0, 0.125])
            # level pairs (I, I-1), (I+1, I), (I+1, I-1) beat at these bins
            amp[:2, [two_i, two_i + 2, 2 * two_i + 2]] += 2.0 * w * a[:, [1, 0, 0], [2, 1, 2]]
            amp[[2, 3, 3], [two_i, 2, two_i + 2]] += w * (c[:, 1] ** 2).sum(-1) / norm
        lines = np.flatnonzero(amp.any(axis=0))
        half = 0.5 * amp[:2, lines]
        eta, phi_q, coh = evaluate_lines(
            np.vstack([half, amp[2, lines]]), np.vstack([half, amp[3, lines]]),
            0.5 * self.system.k_mean * lines, times,
        )
        eta, phi_q = eta.real, phi_q.real
        coh = coh * np.exp(-1j * self.system.j * times)
        hr, hi = coh.real, coh.imag
        return SymmetricMapCoefficients(
            times=times,
            st_coherence=coh,
            vec_direct=0.5 * (eta + hr),
            vec_exchange=0.5 * (eta - hr),
            vec_from_tensor=0.5 * hi,
            tensor_direct=0.5 * (phi_q + hr),
            tensor_transpose=0.5 * (phi_q - hr),
            tensor_trace=(weights.sum() - phi_q) / 3.0,
            tensor_from_vec=-0.5 * hi,
        )

    def evolve(self, state: TwoQubitState, times) -> TwoQubitState:
        """Apply the map to the initial ``state`` on the whole time grid."""
        c = self.map_coefficients(times)
        f1, f2, f3 = (x[:, None] for x in (c.vec_direct, c.vec_exchange, c.vec_from_tensor))
        axial = 0.5 * np.einsum("kmn,mn->k", _EPS, state.pi)
        p_a = f1 * state.p_a + f2 * state.p_b + 2.0 * f3 * axial
        p_b = f1 * state.p_b + f2 * state.p_a - 2.0 * f3 * axial
        g1, g2, g3, g4 = (
            x[:, None, None]
            for x in (c.tensor_direct, c.tensor_transpose, c.tensor_trace, c.tensor_from_vec)
        )
        pi = (
            g1 * state.pi
            + g2 * state.pi.T
            + g3 * np.trace(state.pi) * np.eye(3)
            + g4 * np.einsum("mnk,k->mn", _EPS, state.p_a - state.p_b)
        )
        return TwoQubitState(p_a, p_b, pi)


# ---------------------------------------------------------------------------
# arbitrary couplings: dense per-sector propagation
# ---------------------------------------------------------------------------


class SectorExactEvolver:
    """Dense sector-by-sector evolution; exact for any couplings and state.

    One ``eigh`` per sector, whose eigenvalues must match the four levels of
    ``sector_spectrum``, gives the level projectors P_l; the line amplitudes
    (w/(2I+1)) Tr_bath[P_l (rho (x) 1) P_l'] are linear in rho, and every time
    sample costs one constant plus six lines per sector. No sector is dropped.
    """

    def __init__(self, system: CommonBathSystem):
        self.system = system
        maps, levels = [], []
        for i, w in zip(system.bath.spins, system.bath.weights):
            h = sector_hamiltonian(system, i)
            assert np.abs(h - h.conj().T).max() < 1e-12
            vals, vecs = np.linalg.eigh(h.real)
            s = sector_spectrum(system, i)
            # absolute energies: sector_spectrum counts from the singlet, -3j/4
            level = np.array([s.level_f_plus, s.level_f_minus, s.level_mix_upper,
                              s.level_mix_lower]) - 0.75 * system.j
            label = np.abs(vals[:, None] - level).argmin(axis=1)
            assert np.abs(vals - level[label]).max() <= 1e-9 * (1.0 + np.abs(vals).max())
            d = vals.size // 4
            # p[l, a, m, b, n]: P_l on |pair a> (x) |I, m>. sum_mn p[l, c, m, a, n]
            # p[l', b, n, e, m] takes rho[a, b] to the (c, e) element of (l, l')
            p = np.stack([v @ v.T for v in (vecs[:, label == l] for l in range(4))])
            p = p.reshape(4, 4, d, 4, d)
            pair = np.tensordot(p, p, axes=([2, 4], [4, 2])).transpose(1, 5, 0, 3, 2, 4)
            maps.append(pair.reshape(4, 4, 4, 4, 16) * (float(w) / d))
            levels.append(level)
        self._map = np.stack(maps, axis=-2)  # (c, e, l, l', sector, (a, b))
        self._levels = np.array(levels).T

    def evolve(self, state: TwoQubitState, times) -> TwoQubitState:
        amp = (self._map @ state_to_density(state).ravel()).reshape((16,) + self._map.shape[2:-1])
        red = _level_pair_lines(amp, self._levels, times)
        return density_to_state(red.reshape(4, 4, -1).transpose(2, 0, 1))


# ---------------------------------------------------------------------------
# Bell-basis evolution of singlet/triplet0 superpositions (any couplings)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BellBasisEvolution:
    """Bell-basis matrix elements of the evolved state on a time grid.

    The density matrix is

        singlet_pop |S0><S0| + triplet0_pop |T0><T0|
        + (st_coherence |T0><S0| + h.c.)
        + t1t2_pop (|T1><T1| + |T2><T2|) + (t1t2_coherence |T1><T2| + h.c.)

    Populations are real; the trace identity
    singlet_pop + triplet0_pop + 2 t1t2_pop = 1 holds at every sample.
    """

    times: np.ndarray
    singlet_pop: np.ndarray
    triplet0_pop: np.ndarray
    st_coherence: np.ndarray
    t1t2_pop: np.ndarray
    t1t2_coherence: np.ndarray

    def mixedness(self) -> np.ndarray:
        return 1.0 - (
            self.singlet_pop**2
            + self.triplet0_pop**2
            + 2.0 * np.abs(self.st_coherence) ** 2
            + 2.0 * self.t1t2_pop**2
            + 2.0 * np.abs(self.t1t2_coherence) ** 2
        )

    def density(self) -> np.ndarray:
        """The density matrices on the time grid, shape (T, 4, 4)."""
        c1, c2, c3, pp, coh = (
            x[:, None, None]
            for x in (self.singlet_pop, self.triplet0_pop, self.st_coherence,
                      self.t1t2_pop, self.t1t2_coherence)
        )
        rho = c1 * np.outer(KET_SINGLET, KET_SINGLET.conj())
        rho += c2 * np.outer(KET_TRIPLET0, KET_TRIPLET0.conj())
        cross = c3 * np.outer(KET_TRIPLET0, KET_SINGLET.conj())
        rho += cross + cross.conj().swapaxes(1, 2)
        rho += pp * (np.outer(KET_T1, KET_T1.conj()) + np.outer(KET_T2, KET_T2.conj()))
        cross = coh * np.outer(KET_T1, KET_T2.conj())
        rho += cross + cross.conj().swapaxes(1, 2)
        return rho

    def state(self) -> TwoQubitState:
        return density_to_state(self.density())


def _bell_mix_lines(system: CommonBathSystem, i: float, alpha: float, beta: float):
    """Line amplitudes of one sector: (5, 4, 4) array A and (4,) levels E.

    The outputs (c1, c2, c3, pp, pm) of the sector are
    sum_{l,l'} A[:, l, l'] exp(-i (E_l - E_l') t). The levels are F = I+1,
    F = I-1 and the two eigenvalues mean +- gap of the F = I block, whose basis
    is {triplet, singlet} with off-diagonal element k_half_diff * y,
    y = -sqrt(I(I+1)) in the ladder-consistent triplet basis.
    """
    h_tt = -system.k_mean + system.j / 4.0
    h_ss = -0.75 * system.j
    off = system.k_half_diff * (-math.sqrt(i * (i + 1.0)))
    mean = 0.5 * (h_tt + h_ss)
    gap = 0.5 * math.sqrt((h_tt - h_ss) ** 2 + 4.0 * off**2)
    m_tt, m_off = (1.0, 0.0) if gap < 1e-300 else ((h_tt - mean) / gap, off / gap)
    levels = np.array(
        [system.k_mean * i + system.j / 4.0, -system.k_mean * (i + 1.0) + system.j / 4.0,
         mean + gap, mean - gap]
    )
    if i == 0.0:
        # the only triplet is F = 1, whose m = 0 state is the bare T0
        g = np.zeros((3, 3, 1))
        g[0, 1, 0] = 1.0
    else:
        g = _cg_tables(i).c[:, :, 1:-1]  # (F, mu, bath m from I down to -I)
    g_p, g_0, g_m = g[:, 0], g[:, 1], g[:, 2]
    p_up, p_dn, q = 0.5 * (1.0 + m_tt), 0.5 * (1.0 - m_tt), 0.5 * m_off
    # per bath m: the triplet-channel amplitude on each level (levels 0, 1
    # and 2-3 live in the F rows I+1, I-1 and I), its mu = 0, +1, -1
    # projections, and the singlet amplitude, which only the F = I block reaches
    trip = np.array(
        [beta * g_0[0], beta * g_0[2], beta * g_0[1] * p_up + alpha * q,
         beta * g_0[1] * p_dn - alpha * q]
    )
    rows = [0, 2, 1, 1]
    zero = np.zeros_like(g_0[1])
    amp_s = np.array(
        [zero, zero, alpha * p_dn + beta * g_0[1] * q, alpha * p_up - beta * g_0[1] * q]
    )
    amp_0, amp_p, amp_m = (gx[rows] * trip for gx in (g_0, g_p, g_m))
    left = np.array([amp_s, amp_0, amp_0, amp_p, amp_m])
    right = np.array([amp_s, amp_0, amp_s, amp_p, amp_m])
    return np.einsum("xld,xkd->xlk", left, right) / g_0.shape[1], levels


def bell_mix_evolution(system: CommonBathSystem, r: float, times) -> BellBasisEvolution:
    """Evolve [(1+r)|S0> + (1-r)|T0>] (normalized) in the Bell basis.

    Exact for any couplings and exchange. r = 1 is the singlet, r = -1 the
    m=0 triplet. Each sector has four levels, so every output is a line
    spectrum: an O(2I+1) set-up per kept sector forms 16 line amplitudes.
    The four diagonal ones are constants, summed over sectors into one; the
    twelve others are six conjugate pairs (omega_ll' = -omega_l'l), so each
    time sample costs six lines per sector.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    norm = math.sqrt(2.0 * (1.0 + r * r))
    alpha, beta = (1.0 + r) / norm, (1.0 - r) / norm
    spins, weights, _ = system.bath.significant_sectors()
    lines = [_bell_mix_lines(system, i, alpha, beta) for i in spins]
    amp = np.stack([a for a, _ in lines], axis=-1) * weights  # (5, 4, 4, sectors)
    levels = np.stack([e for _, e in lines], axis=-1)
    c1, c2, c3, pp, pm = _level_pair_lines(amp, levels, times)
    return BellBasisEvolution(
        times=times,
        singlet_pop=c1.real,
        triplet0_pop=c2.real,
        st_coherence=c3,
        t1t2_pop=0.5 * (pp.real + pm.real),
        t1t2_coherence=(0.5 * (pp.real - pm.real)).astype(complex),
    )


# ---------------------------------------------------------------------------
# singlet survival
# ---------------------------------------------------------------------------


def singlet_survival(system: CommonBathSystem, times) -> np.ndarray:
    """Singlet population of an initially singlet pair:

        c1(t) = sum_I lambda_I [cos^2(gap t) + cos_mix^2 sin^2(gap t)],

    one cosine line at 2 gap per sector.
    """
    spins, weights, _ = system.bath.significant_sectors()
    diag_sq = (system.j - system.k_mean) ** 2
    mix = spins * (spins + 1.0) * (system.k_a - system.k_b) ** 2
    sin_sq = np.divide(mix, diag_sq + mix, out=np.zeros_like(mix), where=mix > 0.0)
    half = np.append(0.5 * (weights * (1.0 - 0.5 * sin_sq)).sum(), 0.25 * weights * sin_sq)
    omega = np.append(0.0, np.sqrt(diag_sq + mix))
    return evaluate_lines(half[None], half[None], omega, np.atleast_1d(times))[0].real


def singlet_survival_large_j(system: CommonBathSystem, times) -> np.ndarray:
    """Strong-exchange closed form of the singlet survival:

        c1(t) = 1 - 3 beta^2 [1 - cos(Jt + (5/2) arctan(beta t))
                              / (1 + beta^2 t^2)^(5/4)],
        beta = (K_A - K_B) sqrt(N) / (2J).

    Derived for the narrow Gaussian sector distribution; a warning is issued
    when J is less than ten times the Overhauser scale
    (K_A + K_B) sqrt(<I(I+1)>). The prefactor is the quoted approximation;
    against the exact survival it is accurate to O(beta^2).
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if system.j == 0.0:
        raise AssumptionError("the strong-exchange form requires J != 0")
    if system.bath.n_spins is None:
        raise AssumptionError("bath must carry its spin count for the strong-exchange form")
    overhauser = abs(system.k_a + system.k_b) * math.sqrt(system.bath.casimir_moment())
    if abs(system.j) < 10.0 * overhauser:
        warnings.warn(
            f"J = {system.j} below 10x the Overhauser scale {overhauser:.3g}; "
            "the strong-exchange form is unreliable here",
            stacklevel=2,
        )
    beta = (system.k_a - system.k_b) * math.sqrt(system.bath.n_spins) / (2.0 * system.j)
    envelope = (1.0 + (beta * times) ** 2) ** 1.25
    osc = np.cos(system.j * times + 2.5 * np.arctan(beta * times)) / envelope
    return 1.0 - 3.0 * beta**2 * (1.0 - osc)


def singlet_mixedness(c1: np.ndarray) -> np.ndarray:
    """Mixedness of the singlet-survival state c1 |S0><S0| + (1-c1)/3 triplets."""
    c1 = np.asarray(c1, dtype=float)
    return 1.0 - c1**2 - (1.0 - c1) ** 2 / 3.0


# ---------------------------------------------------------------------------
# short-time timescales
# ---------------------------------------------------------------------------


def tensor_invariant_r(state: TwoQubitState) -> float:
    """Tr(pi^2) - (Tr pi)^2; -6 for the singlet, 2 for triplet Bell states,
    0 for pure product states."""
    return float(np.trace(state.pi @ state.pi) - np.trace(state.pi) ** 2)


def decoherence_rate_sq(state: TwoQubitState, system: CommonBathSystem) -> float:
    """1/tau_D^2 of the short-time Gaussian decay of D(t) for a pure state:

        (1/6) <I(I+1)> [ (K_A^2 + K_B^2)(3 - P^2) + K_A K_B R ]

    with R = Tr(pi^2) - (Tr pi)^2. Independent of the exchange J.
    """
    if abs(decoherence_measure(state)) > 1e-10:
        raise InvalidStateError("short-time decoherence rate is defined for pure states")
    m2 = system.bath.casimir_moment()
    p_sq = float(state.p_a @ state.p_a)
    return (
        m2
        * ((system.k_a**2 + system.k_b**2) * (3.0 - p_sq) + system.k_a * system.k_b * tensor_invariant_r(state))
        / 6.0
    )


def short_time_decoherence_time(state: TwoQubitState, system: CommonBathSystem) -> float:
    rate = decoherence_rate_sq(state, system)
    return math.inf if rate <= 0.0 else 1.0 / math.sqrt(rate)


def transverse_longitudinal_rates(system: CommonBathSystem) -> tuple[float, float]:
    """Quadratic decay coefficients of the transverse and longitudinal tensor
    polarization of a triplet Bell state, for equal couplings.

    Rates are expressed against the per-component bath moment
    <I(I+1)>/3: (2 K^2 m, 4 K^2 m). Their ratio is exactly 2.
    """
    if system.k_a != system.k_b:
        raise AssumptionError("transverse/longitudinal split assumes equal couplings")
    m_component = system.bath.casimir_moment() / 3.0
    k_sq = system.k_a**2
    return 2.0 * k_sq * m_component, 4.0 * k_sq * m_component
