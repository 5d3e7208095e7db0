"""Exact reduced dynamics for two exchange-coupled qubits sharing one bath, and the
channel that evolves the pair in either bath topology.

Hamiltonian: (K_A S_A + K_B S_B) . I + J S_A . S_B, with the bath spin I
unpolarized sector by sector. Conserved quantities organize the solution:
the total angular momentum F takes values I+1, I, I-1 in the qubit-triplet
channel and I in the qubit-singlet channel, and the two F = I multiplets mix
if and only if K_A != K_B. The evolution convention throughout is
U = exp(-iHt); sector phases are reported relative to the singlet level,
which removes an unobservable global phase.

The Hamiltonian is rotation invariant and every sector starts proportional to
the identity, so the reduced map commutes with rotations of the pair; it is
real (time-reversal invariant) too. ``apply_channel`` applies that one channel
for any initial state, couplings and exchange, and for private baths as well:
``separate.decay_factors`` gives theirs, (a, b, c, d, e, g, f0, f2) =
(g_a, g_b, 0, 0, 0, g_a g_b, g_a g_b, g_a g_b). ``SectorExactEvolver`` gives the
shared bath's. Eight real functions of t fix the channel: one for S_A . S_B,
one for the rank-2 part of the spin correlations, and six for the vectors S_A,
S_B and S_A x S_B. In a shared bath each function is a constant plus the six
level-pair lines of every kept sector, with amplitudes from closed-form 6j
symbols (``_level_pair_amps``), O(1) per sector. Equal couplings K_A = K_B take
the same lines (the F = I blocks do not mix); the channel then reads out as the
paper's polarization map.

Sectors below ``bath.SECTOR_WEIGHT_CUT`` are skipped (baths of 10^6 spins are
in reach) and the lines are summed in ``evaluate_lines``, which on an affine
grid of T samples (every scenario's) splits t = b + o into about sqrt(T) bases
and offsets whose phases it tabulates by doubling, ~log2 T + 1 complex
exponentials per line, not 2 T cos/sin, with each doubling time carried past
double precision by a factor of unit modulus, and forms every sample in real
matrix products sized to keep a CLI run's sums on the calling thread.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bath import BathDistribution
from .states import InvalidStateError, TwoQubitState, decoherence_measure


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
# sector levels
# ---------------------------------------------------------------------------


def _sector_levels(system: CommonBathSystem, spins):
    """The four levels of the sectors ``spins``, relative to the singlet, and
    the angle phi of their F = I blocks.

    Level rows: F = I+1, F = I-1, then the eigenvalues h +- g of the F = I
    block [[2h, off], [off, 0]] on {|F=I, m>_T, |S>|m>}, with 2h = J - K, K
    the mean coupling and off = -(K_A - K_B) sqrt(I(I+1)) / 2. Level 3 is
    cos(phi) |T> + sin(phi) |S> and level 4 is -sin(phi) |T> + cos(phi) |S>,
    with tan 2 phi = off / h and |phi| <= pi / 4, so g carries the sign of h:
    for K_A = K_B, phi = 0 and levels 3 and 4 are the triplet and the singlet.
    """
    spins = np.asarray(spins, dtype=float)
    kbar, j = system.k_mean, system.j
    half = 0.5 * (j - kbar)
    off = -system.k_half_diff * np.sqrt(spins * (spins + 1.0))
    sign = -1.0 if half < 0.0 else 1.0
    gap = sign * np.hypot(half, off)
    phi = 0.5 * np.arctan2(sign * off, abs(half))
    return np.array([j + spins * kbar, j - (spins + 1.0) * kbar, half + gap, half - gap]), phi


# ---------------------------------------------------------------------------
# line spectra
# ---------------------------------------------------------------------------


# a sum of at most _SMALL_SUM multiply-adds runs in products of at most _SMALL_PRODUCT, which
# OpenBLAS keeps on the calling thread (waking a second one near 2^20 can stall a product for
# milliseconds); a larger one, on every core, in passes whose operands hold <= _PHASE_BLOCK reals
_SMALL_SUM, _SMALL_PRODUCT, _PHASE_BLOCK = 1 << 28, 1 << 19, 1 << 18


def _grid_split(t: np.ndarray) -> tuple[float, float | None, float, int]:
    """(t0, step, lo, B) with t[k] ~ t0 + k (step + lo), step + lo = (t[-1] - t[0]) / (T - 1) to
    twice double precision, and B = isqrt(T) offsets per block, for a grid of T >= 16 samples
    within 4 ulp of max|t| of an affine one; (0, None, 0, T) for any other grid."""
    if t.size >= 16:
        span = float(t[-1] - t[0])
        step = span / (t.size - 1)
        if np.abs(t - (t[0] + np.arange(t.size) * step)).max() <= 4.0 * np.spacing(np.abs(t).max()):
            return t[0], step, float(Fraction(span) / (t.size - 1) - Fraction(step)), math.isqrt(t.size)
    return 0.0, None, 0.0, t.size


def _powers(omega: np.ndarray, tau: float, r: float, n: int) -> np.ndarray:
    """e^{-i omega k (tau + r)} for k < n, shape (n, lines), by doubling: rows m..2m-1 are rows
    0..m-1 times e^{-i omega m (tau + r)}, so ceil(log2 n) exponentials per line. r is tau's
    residual, which the power-of-two m scales exactly, and each factor is e^{-i omega m tau}
    times the Cayley factor (1 - i x/2) / (1 + i x/2), x = omega m r: e^{-i x} to third order
    and of unit modulus for every x, so the tables stay on the unit circle however far
    |omega| t reaches past double precision (1 - i x, first order, grows as sqrt(1 + x^2))."""
    out = np.empty((n, omega.size), dtype=complex)
    out[0] = 1.0
    for m in (1 << j for j in range((n - 1).bit_length())):
        factor = np.exp(-1j * (m * tau) * omega)
        half = 0.5j * (m * r) * omega
        factor *= (1.0 - half) / (1.0 + half)
        np.multiply(out[: min(m, n - m)], factor, out=out[m : 2 * m])
    return out


def evaluate_lines(amp_plus, amp_minus, omega, times) -> np.ndarray:
    """sum_l amp_plus[:, l] exp(-i omega_l t) + amp_minus[:, l] exp(+i omega_l t).

    Each conjugate pair of lines is passed once: one omega, two amplitude columns. Returns
    a complex array of shape (n_obs,) + times.shape, so a 0-d ``times`` is accepted. In real
    rows the sum is E cos wt + F sin wt, E = a+ + a-, F = -i (a+ - a-). On an affine grid
    t = t0 + (q B + r) step (``_grid_split``) M_q = (E + i F) e^{-i w (t0 + q B step)} times
    [cos wo_r; sin wo_r] in one real GEMM gives block q, from phase tables built by doubling
    (``_powers``); any other grid takes e^{-i w t} directly. The lines go in slices that each
    take every offset in one pass, so each M_q is formed once; pass sizes follow the work.
    """
    t = np.asarray(times, dtype=float).ravel()
    n_obs, n_lines = amp_plus.shape
    t0, step, lo, b = _grid_split(t)
    if step is not None:  # the base table's step b (step + lo), as fl(b step) and its residual
        stride = b * step
        stride_lo = float(b * (Fraction(step) + Fraction(lo)) - Fraction(stride))
    rows, n_q = 2 * n_obs, -(-t.size // b)
    fold = np.vstack([amp_plus + amp_minus.conj(), -1j * (amp_plus - amp_minus.conj())])  # E + i F
    fold *= np.exp(-1j * t0 * omega)
    small = 2 * rows * n_lines * n_q * b <= _SMALL_SUM
    l_step = max(1, min(n_lines, (_SMALL_PRODUCT // rows if small else _PHASE_BLOCK) // (2 * b)))
    q_step = max(1, (_SMALL_PRODUCT // b if small else _PHASE_BLOCK) // (2 * rows * l_step))
    out = np.zeros((n_q, rows, b))
    for first in range(0, n_lines, l_step):
        w = omega[first : first + l_step]
        if step is None:
            off, base = np.exp(1j * np.outer(t, w)), np.ones((1, 1))
        else:
            off, base = _powers(w, -step, -lo, b), _powers(w, stride, stride_lo, n_q)
        cs = off.view(float).T  # (cos wo, sin wo) of each line, interleaved like M_q's parts
        for q in range(0, n_q, q_step):
            z = np.multiply(fold[:, first : first + l_step], base[q : q + q_step, None], order="C")
            out[q : q + q_step] += np.matmul(z.view(float).reshape(-1, len(cs)), cs).reshape(-1, rows, b)
    z = np.empty((n_obs, n_q, b), dtype=complex)
    z.real, z.imag = out[:, :n_obs].swapaxes(0, 1), out[:, n_obs:].swapaxes(0, 1)
    return z.reshape(n_obs, n_q * b)[:, : t.size].reshape((n_obs,) + np.shape(times))


# ---------------------------------------------------------------------------
# the shared-bath channel
# ---------------------------------------------------------------------------


# sqrt((2F+1)(2F'+1)/(2I+1)) {1 1 k; F' F I} (-1)^(2I) for F = I+a, F' = I+b, a <= b: the
# sign and constant c, and the offsets o of the factors (2I + o) in the numerator and the
# denominator of its square (from the closed forms of Edmonds, *Angular Momentum in
# Quantum Mechanics*, Table 5). Symmetric in a, b; zero for k = 0, a != b and k = 1, |a - b| = 2
_SIX_J = {
    (0, -1, -1): (1 / 3, (-1,), (1,)),
    (0, 0, 0): (-1 / 3, (), ()),
    (0, 1, 1): (1 / 3, (3,), (1,)),
    (1, -1, -1): (1 / 6, (-1, -2), (0, 1)),
    (1, -1, 0): (-1 / 6, (-1, 2), (0, 1)),
    (1, 0, 0): (2 / 3, (), (0, 2)),
    (1, 0, 1): (1 / 6, (0, 3), (1, 2)),
    (1, 1, 1): (-1 / 6, (3, 4), (1, 2)),
    (2, -1, -1): (1 / 30, (-1, -2, -3), (0, 1, 1)),
    (2, -1, 0): (-1 / 10, (-1, -2), (0, 1)),
    (2, -1, 1): (1 / 5, (-1, 3), (1, 1)),
    (2, 0, 0): (2 / 15, (-1, 3), (0, 2)),
    (2, 0, 1): (-1 / 10, (3, 4), (1, 2)),
    (2, 1, 1): (1 / 30, (3, 4, 5), (1, 1, 2)),
}
# the same as arrays: indices k, a + 1, b + 1, then c, then the offsets (numerator, denominator;
# entry; factor) with NaN where a product has fewer than three factors
_SIX_J_K, _SIX_J_A, _SIX_J_B = (np.array(list(_SIX_J)) + [0, 1, 1]).T
_SIX_J_C = np.array([c for c, _, _ in _SIX_J.values()])
_SIX_J_OFF = np.array([[v[i] + (np.nan,) * (3 - len(v[i])) for v in _SIX_J.values()] for i in (1, 2)])
# F - I of each level (``_sector_levels``)
_F_OFFSET = np.array([1, -1, 0, 0])


def _six_j(two_i: np.ndarray) -> np.ndarray:
    """t[k, a + 1, b + 1, sector] of ``_SIX_J``; 0 where F = I - 1 does not exist
    (a radicand that vanishes or turns negative, or a zero denominator)."""
    # a missing factor is an exact 1, so each product rounds as the bare product of its factors
    f = np.where(np.isnan(_SIX_J_OFF)[..., None], 1.0, _SIX_J_OFF[..., None] + two_i)
    num, den = f[:, :, 0] * f[:, :, 1] * f[:, :, 2]
    sq = np.divide(np.abs(_SIX_J_C)[:, None] * num, den, out=np.zeros_like(num), where=den != 0.0)
    t = np.zeros((3, 3, 3) + two_i.shape)
    t[_SIX_J_K, _SIX_J_A, _SIX_J_B] = t[_SIX_J_K, _SIX_J_B, _SIX_J_A] = (
        np.copysign(1.0, _SIX_J_C)[:, None] * np.sqrt(np.maximum(sq, 0.0)))
    return t


def _level_pair_amps(spins: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """amp[x, l, l', sector] of the line exp(-i (E_l - E_l') t), packed two
    functions per row x: (a + ib, c + id, e + ig, f0 + i f2), see ``apply_channel``.

    Over the pair tensors T^k(S, S') (S, S' the pair spins, k <= 2) the (l, l')
    line maps rank k as (-1)^(S1+S3) G(S3, S4) G(S1, S2) with
    G(S, S') = u_lS u_l'S' sqrt((2F+1)(2F'+1)/(2I+1)) {S S' k; F' F I}: u_lS the
    triplet (S = 1) and singlet (S = 0) weights of level l (``_sector_levels``).
    The symbols with a singlet reduce to the diagonal of the k = 0 table, and
    {0 0 0; I I I} (-1)^(2I) = 1 / sqrt(2I + 1).
    """
    two_i = 2.0 * spins
    t = _six_j(two_i)[:, _F_OFFSET[:, None] + 1, _F_OFFSET[None, :] + 1]  # (k, l, l', sector)
    cos, sin, one = np.cos(phi), np.sin(phi), np.ones_like(two_i)
    has = two_i > 0.0  # spin 0 has no F = I triplet
    trip = np.array([one, one, cos * has, -sin * has])
    sing = np.array([0.0 * one, 0.0 * one, sin, cos])
    tt, st = trip[:, None] * trip[None, :], sing[:, None] * trip[None, :]
    diag = t[0, np.arange(4), np.arange(4)]
    # rank 1 over (T^1(1,1), T^1(0,1), T^1(1,0)): with alpha = sqrt2 G11, beta and gamma the
    # vectors (P_A, P_B, x) map on each line as (p, q, i gamma)^T (p, q, -2 i gamma) / 4
    g2, g3 = st * diag[None], -st.swapaxes(0, 1) * diag[:, None]
    alpha, beta, gamma = -math.sqrt(2.0) * tt * t[1], g3 - g2, g3 + g2
    p, q = alpha + beta, alpha - beta
    f0 = 0.25 * (math.sqrt(3.0) * sing[:, None] * sing[None, :] + tt * t[0]) ** 2
    return np.array([0.25 * (p * p + 1j * q * q), 0.25 * p * q + 0.5 * p * gamma,
                     0.5j * (gamma - q) * gamma, f0 + 1j * (tt * t[2]) ** 2])


def _channel_lines(system: CommonBathSystem):
    """(amp_plus, amp_minus, omega) of the channel's four packed rows over its kept
    sectors: a constant plus the six conjugate-paired level-pair lines of each sector,
    amp_* of shape (4, lines). K_A = K_B is no special case (phi = 0)."""
    spins, weights, _ = system.bath.significant_sectors()
    levels, phi = _sector_levels(system, spins)
    amp = _level_pair_amps(spins, phi) * weights
    up, lo = np.triu_indices(4, 1)
    const = np.einsum("xlls->x", amp)[:, None]
    return (np.hstack([const, amp[:, up, lo].reshape(4, -1)]),
            np.hstack([np.zeros_like(const), amp[:, lo, up].reshape(4, -1)]),
            np.append(0.0, (levels[up] - levels[lo]).ravel()))


def _channel_functions(lines, times) -> list[np.ndarray]:
    """The eight real functions (a, b, c, d, e, g, f0, f2) on the grid ``times``: the real
    and imaginary views of the four packed rows, summed in one ``evaluate_lines`` call."""
    z = evaluate_lines(*lines, np.asarray(times, dtype=float).ravel())
    return [f for row in z for f in (row.real, row.imag)]


_EPS = np.cross(np.eye(3)[:, None], np.eye(3))  # eps[i, j, k] = (e_i x e_j)_k
_CHANNEL_ROWS = 4096  # times per pass of apply_channel


def apply_channel(f, state: TwoQubitState) -> TwoQubitState:
    """The channel (a, b, c, d, e, g, f0, f2) = f[:, t] applied to ``state``; the batch
    axes of a batch of states come first in the result, then the time axis:

        P_A(t) = a P_A + c P_B + d x
        P_B(t) = c P_A + b P_B + e x
        x(t)   = g x - (d P_A + e P_B) / 2
        pi(t)  = f0 Tr(pi) delta / 3 + f2 [pi]_2 + eps . x(t)

    with x the axial vector of the antisymmetric part of pi and [pi]_2 its
    symmetric traceless part. Rotations act on each of the three vectors
    alike, so any channel of this form commutes with them; time reversal makes
    the vector block symmetric up to the factor -1/2 of x.

    Private baths (``separate.decay_factors``) give a and b the two Bloch-vector
    decay factors, c = d = e = 0 and g = f0 = f2 = a b.

    For K_A = K_B, b = a, e = -d, g = a - c (the singlet-triplet coherence is
    (a - c) + i d), and f0 is the kept weight (S_A . S_B is conserved). The
    channel is then the paper's polarization map

        P_A(t) = vec_direct P_A + vec_exchange P_B + 2 vec_from_tensor x
        P_B(t) = vec_direct P_B + vec_exchange P_A - 2 vec_from_tensor x
        pi(t)  = tensor_direct pi + tensor_transpose pi^T
                 + tensor_trace Tr(pi) delta + tensor_from_vec eps . (P_A - P_B)

    with vec_direct = a, vec_exchange = c, vec_from_tensor = d / 2 =
    -tensor_from_vec, tensor_direct = (f2 + g) / 2, tensor_transpose =
    (f2 - g) / 2 and tensor_trace = (f0 - f2) / 3.
    """
    batch, n = state.pi.shape[:-2], f[0].size
    p_a, p_b, pi = np.empty(batch + (n, 3)), np.empty(batch + (n, 3)), np.empty(batch + (n, 3, 3))
    # passes of _CHANNEL_ROWS times keep the temporaries small next to the output; the last
    # pass holds two times or more (unless the grid has one), as numpy multiplies a single
    # row by a vector kernel, which can round differently from the matrix kernel
    edges = [*range(0, max(n - 1, 1), _CHANNEL_ROWS), n]
    initial = zip(state.p_a.reshape(-1, 3), state.p_b.reshape(-1, 3), state.pi.reshape(-1, 3, 3))
    outputs = zip(p_a.reshape(-1, n, 3), p_b.reshape(-1, n, 3), pi.reshape(-1, n, 3, 3))
    for (s_a, s_b, s_pi), (out_a, out_b, out_pi) in zip(initial, outputs):
        x = 0.5 * np.einsum("kmn,mn->k", _EPS, s_pi)
        v = np.array([s_a, s_b, x])
        # pi(t) from its parts: the rank-2 part, the trace, and eps . e_k for each x_k(t)
        iso = np.trace(s_pi) / 3.0 * np.eye(3)
        parts = np.array([0.5 * (s_pi + s_pi.T) - iso, iso, *_EPS.transpose(2, 0, 1)]).reshape(5, 9)
        for lo, hi in zip(edges, edges[1:]):
            a, b, c, d, e, g, f0, f2 = (fn[lo:hi] for fn in f)
            out_a[lo:hi], out_b[lo:hi], x_t = (
                np.column_stack(row) @ v for row in ((a, c, d), (c, b, e), (-0.5 * d, -0.5 * e, g)))
            out_pi[lo:hi] = (np.column_stack([f2, f0, x_t]) @ parts).reshape(-1, 3, 3)
    for arr in (p_a, p_b, pi):
        arr.setflags(write=False)  # the state takes them without a copy
    return TwoQubitState(p_a, p_b, pi)


# ---------------------------------------------------------------------------
# the evolver
# ---------------------------------------------------------------------------


class SectorExactEvolver:
    """Closed-form sector-by-sector evolution; exact for any couplings, exchange and state.

    The set-up forms the channel's line amplitudes, O(1) per kept sector; every
    call then costs one sum of four packed rows over a constant plus six
    lines per sector, whatever the couplings and the number of initial states,
    and the map ``apply_channel``.
    """

    def __init__(self, system: CommonBathSystem):
        self.system = system
        self._lines = _channel_lines(system)

    def functions(self, times) -> list[np.ndarray]:
        """The channel's eight functions (a, b, c, d, e, g, f0, f2) on the grid ``times``."""
        return _channel_functions(self._lines, times)

    def evolve(self, state: TwoQubitState, times) -> TwoQubitState:
        """The initial state(s) ``state`` on the T times ``times``: one initial state gives
        a batch of T states, a batch of initial states the state axes, then the time axis."""
        return apply_channel(self.functions(times), state)


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
