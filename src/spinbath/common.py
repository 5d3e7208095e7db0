"""Exact reduced dynamics for two exchange-coupled qubits sharing one bath.

Hamiltonian: (K_A S_A + K_B S_B) . I + J S_A . S_B, with the bath spin I
unpolarized sector by sector. Conserved quantities organize the solution:
the total angular momentum F takes values I+1, I, I-1 in the qubit-triplet
channel and I in the qubit-singlet channel, and the two F = I multiplets mix
if and only if K_A != K_B. The evolution convention throughout is
U = exp(-iHt); sector phases are reported relative to the singlet level,
which removes an unobservable global phase.

Two evolution paths are provided and cross-checked, each a line spectrum
read off one Clebsch-Gordan table (``_cg_tables``) over all kept sectors:

- ``SymmetricEvolver``: closed-form polarization map for K_A = K_B, built
  from bath-averaged Clebsch-Gordan moment tensors; all sectors share one comb.
- ``SectorExactEvolver``: any initial state, couplings and exchange. Each
  sector has four levels whose projectors are rank one in every total-m
  block, so the state costs six lines per sector and an O(2I+1) set-up.

Both skip sectors below ``bath.SECTOR_WEIGHT_CUT`` (baths of 10^6 spins are
in reach) and sum their lines in ``evaluate_lines``, which on an affine grid
of T samples (every scenario's) uses cos w(b+o) = cos wb cos wo - sin wb sin wo
for ~4 sqrt(T) cos/sin calls per line, not 2 T.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bath import BathDistribution
from .states import (
    KET_SINGLET,
    KET_TRIPLET0,
    InvalidStateError,
    TwoQubitState,
    decoherence_measure,
    density_to_state,
    state_to_density,
)


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
# sector spectrum
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


def _sector_levels(system: CommonBathSystem, spins):
    """The four levels of the sectors ``spins``, relative to the singlet, and
    the off-diagonal element of their F = I blocks.

    Level rows: F = I+1, F = I-1, then the upper and lower eigenvalue of the
    F = I block [[J - K, off], [off, 0]] on {|F=I, m>_T, |S>|m>}, the triplet
    state built from the ``_cg_tables`` rows, K the mean coupling and
    off = -(K_A - K_B) sqrt(I(I+1)) / 2.
    """
    spins = np.asarray(spins, dtype=float)
    kbar, j = system.k_mean, system.j
    half = 0.5 * (j - kbar)
    off = -system.k_half_diff * np.sqrt(spins * (spins + 1.0))
    gap = np.hypot(half, off)
    return np.array([j + spins * kbar, j - (spins + 1.0) * kbar, half + gap, half - gap]), off


def sector_spectrum(system: CommonBathSystem, i: float) -> SectorCoefficients:
    """Eigenvalues and mixing parameters of the bath sector with spin i."""
    if i < 0:
        raise AssumptionError(f"sector spin must be >= 0, got {i}")
    (lam1, lam2, zeta_p, zeta_m), off = _sector_levels(system, i)
    mean, gap = 0.5 * (zeta_p + zeta_m), 0.5 * (zeta_p - zeta_m)
    p, q = (1.0, 0.0) if gap < 1e-300 else (mean / gap, abs(off) / gap)
    return SectorCoefficients(float(i), *(float(x) for x in (lam1, lam2, zeta_p, zeta_m, mean, gap, p, q)))


# ---------------------------------------------------------------------------
# Clebsch-Gordan tables for the triplet (spin-1) x spin-I coupling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _CGTables:
    """The tables of the consecutive sectors ``spins``, from index ``lo`` on.

    c[f, mu, s, k] = <mu, m - mu | F, m> of sector s: F rows (I+1, I, I-1),
    mu rows (+1, 0, -1), m = m_tot[s, k] = I + 1 - k. Every sector has the
    columns of the widest one; entries outside |m - mu| <= I, |m| <= F and
    the triangle F >= |I - 1| are zero.
    """

    lo: int
    spins: np.ndarray
    c: np.ndarray
    m_tot: np.ndarray


def _cg_tables(spins):
    """Closed-form <1 mu; I m-mu | F m> for F = I+1, I, I-1 over the ascending
    sectors ``spins``, vectorised over sectors and m, yielded in chunks of at
    most ``_PHASE_BLOCK // 8`` entries (one sector at least): a general
    state's Gram rows, nine times the table, then fit in about one pass.

    The coefficients are the textbook ones for coupling spin I to spin 1
    (Edmonds, *Angular Momentum in Quantum Mechanics*, Table 2), with the
    spin-1 factor written first: the swap factor (-1)^(I+1-F) negates the F = I
    row. Condon-Shortley signs; a spin-0 sector has only its F = 1 row.
    """
    two_i, lo, limit = np.rint(2.0 * np.asarray(spins, dtype=float)).astype(int), 0, _PHASE_BLOCK // 8
    while lo < two_i.size:
        width = two_i[lo : lo + max(1, limit // (9 * (two_i[lo] + 3)))] + 3
        n = max(1, int(np.searchsorted(9 * np.arange(1, width.size + 1) * width, limit, "right")))
        yield _cg_chunk(lo, 0.5 * two_i[lo : lo + n, None], width[n - 1])
        lo += n


def _cg_chunk(lo: int, i: np.ndarray, width: int) -> _CGTables:
    """The tables of the sectors i, shape (S, 1), on ``width`` m columns."""
    m_tot = (i + 1.0) - np.arange(width)
    a, b, a1, b1 = i + m_tot, i - m_tot, i + m_tot + 1.0, i - m_tot + 1.0
    # radicands first; they vanish or turn negative wherever a coefficient
    # must be zero, except past m = -(I+1) (padding) and on the edges of
    # F = I, I-1, which the masks below zero
    c = np.empty((3, 3) + m_tot.shape)
    for (f, mu), x, y in (((0, 0), a, a1), ((0, 1), a1, b1), ((0, 2), b, b1),
                          ((1, 0), a, b1), ((1, 2), b, a1), ((2, 1), a, b)):
        np.multiply(x, y, out=c[f, mu])
    c[::2, 1] *= 2.0
    c[1, 1], c[2, 0], c[2, 2] = 2.0, c[0, 2], c[0, 0]
    np.sqrt(np.maximum(c, 0.0, out=c), out=c)
    # F = I+1, I, I-1 normalizations; a spin-0 sector's F = I and F = I-1
    # rows divide by 1 here, they vanish anyway
    c /= np.sqrt(np.maximum([2.0 * (i + 1.0) * (2.0 * i + 1.0), 2.0 * i * (i + 1.0),
                             2.0 * i * (2.0 * i + 1.0)], 1.0))[:, None]
    c[1, 1] *= -m_tot * (np.abs(m_tot) <= i)
    c[[1, 2], [2, 1]] *= -1.0
    c[0, ::2] *= m_tot >= -(i + 1.0)
    c[2, ::2] *= np.abs(m_tot) <= i - 1.0
    return _CGTables(lo=lo, spins=i[:, 0], c=c, m_tot=m_tot)


# a pass holds at most this many phases (lines x offsets), folded amplitudes
# or Clebsch-Gordan table entries
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
        two_i = np.rint(2.0 * spins).astype(int)
        # column n: the line exp(-i k n t / 2). Rows: cosine amplitudes of eta
        # and of phi_q (-1/8 per sector), st_coherence exp(iJt) on +n and on -n
        amp = np.zeros((4, 2 * two_i.max() + 3))
        amp[1, 0] = -0.125 * weights.sum()
        for t in _cg_tables(spins):
            part = slice(t.lo, t.lo + t.spins.size)
            w, n = weights[part] / (2.0 * t.spins + 1.0), two_i[part]
            # the moment tensors sum_m (p_F q_F)(p_G q_G) over the mu rows p, q = x, y, z
            x, y, z = (np.moveaxis(t.c[:, mu], 0, 1) for mu in range(3))  # (sector, F, m)
            pqs = (p * q for p, q in ((x, x), (y, y), (z, z), (x, y), (x, z), (y, z)))  # one at a time
            xx, yy, zz, xy, xz, yz = (pq @ pq.swapaxes(1, 2) for pq in pqs)
            a = w[:, None, None] * np.array([0.5 * (xx - 2.0 * xz + zz),
                                             0.375 * (xx + yy + zz - 2.0 * xy + 2.0 * xz - 2.0 * yz)])
            amp[:2, 0] += a.trace(axis1=2, axis2=3).sum(-1)
            # level pairs (I, I-1), (I+1, I), (I+1, I-1) beat at these bins
            np.add.at(amp[:2], (slice(None), np.array([n, n + 2, 2 * n + 2])),
                      2.0 * a[:, :, [1, 0, 0], [2, 1, 2]].swapaxes(1, 2))
            np.add.at(amp, ([[2], [3], [3]], np.array([n, np.full_like(n, 2), n + 2])),
                      w * (t.c[:, 1] ** 2).sum(-1))
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
# arbitrary couplings and states: rank-one level projectors
# ---------------------------------------------------------------------------


# rows: the pair states T+, T0, T-, S over the basis {uu, ud, du, dd}, and their m;
# T_mu is row 1 - mu, as on the mu axis of the _cg_tables
_TS = np.array([[1.0, 0.0, 0.0, 0.0], KET_TRIPLET0.real, [0.0, 0.0, 0.0, 1.0], KET_SINGLET.real])
_M_TS = np.array([1, 0, -1, 0])
# the _cg_tables F row of each level: F = I+1, F = I-1, and F = I twice
_F_ROW = np.array([0, 2, 1, 1])


def _rank_one_terms(rho):
    """rho = sum_k w_k v_k v_k^H to 4 ulp of max|rho| per element, by pivoted
    LDL^H: one term per nonzero eigenvalue of a density matrix, each v_k a
    column of the remainder, so it keeps rho's zero rows. A remainder with a
    vanishing diagonal (left only by an indefinite rho) first gets a pivot
    s = max|r| on the row of its largest element, and the term -s e_p e_p^H."""
    r, terms = rho.copy(), []
    tol = 4.0 * np.finfo(float).eps * np.abs(rho).max()
    while np.abs(r).max() > tol:
        p = np.abs(r.diagonal()).argmax()
        if abs(r[p, p]) <= tol:
            p, s = np.abs(r).max(axis=1).argmax(), np.abs(r).max()
            terms.append((-s, np.eye(4, dtype=r.dtype)[p]))
            r[p, p] += s
        terms.append((r[p, p].real, r[:, p] / r[p, p].real))
        r -= terms[-1][0] * np.outer(terms[-1][1], terms[-1][1].conj())
    return terms


class SectorExactEvolver:
    """Closed-form sector-by-sector evolution; exact for any couplings and state.

    In sector I and total-m block m each level projector has rank one,
    P_l(m) = e_l e_l^T over {T+, T0, T-, S} (x) bath m: F = I+1 and F = I-1
    are the ``_cg_tables`` rows, and the F = I pair rotates {|F=I,m>_T,
    |S>|m>} by the eigenvector angle phi of that block (``_sector_levels``).
    The line amplitudes are (w/(2I+1)) sum_m P_l(m) rho_s P_l'(m+s), with
    rho_s the part of rho that shifts the pair m by s. With rho = sum_k w_k
    |k><k| (``_rank_one_terms``) and Y_d[(beta, l), m_b] = <beta, m_b + d|
    P_l |k, m_b>, that sum is w_k sum_d Y_d Y_d^H: one batched GEMM per shift
    d over the bath m, rows only where |k> has weight. Every sample then costs
    one constant plus six lines per kept sector.
    """

    def __init__(self, system: CommonBathSystem):
        self.system = system
        self._spins, self._weights, _ = system.bath.significant_sectors()
        self._levels, off = _sector_levels(system, self._spins)
        phi = 0.5 * np.arctan2(off, 0.5 * (system.j - system.k_mean))
        self._rot = np.cos(phi)[:, None], np.sin(phi)[:, None]

    def evolve(self, state: TwoQubitState, times) -> TwoQubitState:
        times = np.atleast_1d(np.asarray(times, dtype=float))
        rho = _TS @ state_to_density(state) @ _TS.T
        # entries within 4 ulp of the unit trace are rounding noise of the conversion
        rho[np.abs(rho) <= 4.0 * np.finfo(float).eps] = 0.0
        amp, obs = self._amplitudes(rho.real if not rho.imag.any() else rho)
        red = _level_pair_lines(amp, self._levels, times)
        out = np.zeros((times.size, 4, 4), dtype=complex)
        out[(slice(None),) + tuple(np.array(obs).T)] = red.T
        out += np.triu(out, 1).conj().swapaxes(1, 2)
        return density_to_state(_TS.T @ out @ _TS)

    def _amplitudes(self, rho):
        """amp[x, l, l', sector] of the elements obs[x] = (beta, gamma), beta <= gamma,
        of the state rho over {T+, T0, T-, S}; only the elements whose pair-m
        shift rho carries, and only the kets' pair-m parts mu that rho holds."""
        shift = _M_TS[None, :] - _M_TS[:, None]
        obs = [(b, g) for b in range(4) for g in range(b, 4) if rho[shift == shift[b, g]].any()]
        slot = np.full((4, 4), -1)
        slot[tuple(np.array(obs).T)] = np.arange(len(obs))
        mus = [mu for mu in (1, 0, -1) if rho[_M_TS == mu].any()]
        terms = _rank_one_terms(rho)
        # Y_d rows (beta, l, mu = d + m_beta): T states reach every level, S the
        # F = I pair; of each Gram only the (beta, gamma) output elements are kept
        grams = []
        for d in range(-2, 3):
            rows = [(b, l, d + _M_TS[b]) for b in range(4) if d + _M_TS[b] in mus
                    for l in (range(4) if b < 3 else (2, 3))]
            if rows:
                b, l, _ = np.array(rows).T
                o = slot[b[:, None], b[None, :]]
                r1, r2 = np.nonzero(o >= 0)
                grams.append((rows, r1, r2, o[r1, r2], l[r1], l[r2], np.where(b < 3, l, 4 + l)))
        amp = np.zeros((len(obs), 4, 4, self._spins.size), dtype=rho.dtype)
        for t in _cg_tables(self._spins):
            part = slice(t.lo, t.lo + t.spins.size)
            cos, sin = (x[part] for x in self._rot)
            zero, one = np.zeros_like(cos), np.ones_like(cos)
            # e_l(m) = scale[l] c[_F_ROW[l]] on T+, T0, T-, and scale[4 + l] on S (x) |m>
            scale = np.array([one, one, cos, -sin, zero, zero, sin, cos])
            singlet = np.abs(t.m_tot) <= t.spins[:, None]
            k = t.m_tot.shape[1] - 2
            for weight, ket in terms:
                # z[mu][l] = e_l(m) . |ket, m - mu>; column j + 1 - mu of block m holds bath m_b = I - j
                z = {mu: t.c[_F_ROW, 1 - mu] * (scale[:4] * ket[1 - mu]) for mu in mus}
                if 0 in mus:
                    z[0] += singlet * (scale[4:] * ket[3])
                for rows, r1, r2, o, l1, l2, row_scale in grams:
                    y = np.empty((t.spins.size, len(rows), k), dtype=rho.dtype)
                    for r, (b, l, mu) in enumerate(rows):
                        zl = z[mu][l, :, 1 - mu : 1 - mu + k]
                        if b < 3:  # the scale of e_l moves onto the Gram
                            np.multiply(t.c[_F_ROW[l], b, :, 1 - mu : 1 - mu + k], zl, out=y[:, r])
                        else:
                            y[:, r] = zl
                    g = weight * (y @ y.conj().swapaxes(1, 2))
                    sc = scale[row_scale, :, 0].T
                    amp[o, l1, l2, part] += (g[:, r1, r2] * sc[:, r1] * sc[:, r2]).T
        return amp * (self._weights / (2.0 * self._spins + 1.0)), obs


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
