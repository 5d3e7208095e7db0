"""Singlet/T0 mixtures (r_state) through SectorExactEvolver, against the per-m
amplitude sum and against the Bell-basis closed form that used to evolve them:
its per-sector line amplitudes, each of its 16 lines per sector evaluated
separately."""

import math

import numpy as np
import pytest

from spinbath import common
from spinbath.bath import BathDistribution, gaussian_approx, unpolarized_exact
from spinbath.common import CommonBathSystem, SectorExactEvolver
from spinbath.states import KET_SINGLET, KET_T1, KET_T2, KET_TRIPLET0, make_named_state, state_to_density

from sector_reference import cg_tables

TIMES = np.linspace(0.0, 10.0, 41)

BATHS = {
    "gaussian-narrow-100": gaussian_approx(100, "narrow"),
    "gaussian-narrow-200": gaussian_approx(200, "narrow"),
    "exact-9": unpolarized_exact(9),
}

COUPLINGS = {
    "unequal": (1.2, 0.8, 20.0),
    "no-exchange": (1.0, 0.4, 0.0),
    "negative": (-0.9, 0.5, 3.0),
    "gap-zero": (0.7, 0.7, 0.7),  # F = I block degenerate: k_a = k_b = j
}


def mix_block(system, i, times):
    """2x2 propagator (b_tt, b_ss, b_ts) of the F = I singlet-triplet block."""
    h_tt = -system.k_mean + system.j / 4.0
    h_ss = -0.75 * system.j
    off = system.k_half_diff * (-math.sqrt(i * (i + 1.0)))
    mean = 0.5 * (h_tt + h_ss)
    gap = 0.5 * math.sqrt((h_tt - h_ss) ** 2 + 4.0 * off**2)
    phase = np.exp(-1j * mean * times)
    if gap < 1e-300:
        return phase, phase, np.zeros_like(phase)
    c, s = np.cos(gap * times), np.sin(gap * times)
    m_tt = (h_tt - mean) / gap
    return phase * (c - 1j * s * m_tt), phase * (c + 1j * s * m_tt), phase * (-1j * s * off / gap)


def sector_table(i):
    """c[f, mu, m] of the single sector i, m from I+1 down to -(I+1)."""
    return next(cg_tables([i])).c[:, :, 0]


def _bell_mix_lines(system, i, alpha, beta):
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
        g = sector_table(i)[:, :, 1:-1]  # (F, mu, bath m from I down to -I)
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


def sector_bell_mix(system, r, times):
    """The sector evolver's r_state evolution as the Bell-basis outputs
    (singlet_pop, triplet0_pop, st_coherence, t1t2_pop, t1t2_coherence)."""
    rho = state_to_density(SectorExactEvolver(system).evolve(make_named_state("r_state", r=r), times))

    def element(bra, ket):
        return np.einsum("i,tij,j->t", bra.conj(), rho, ket)

    return np.array([element(KET_SINGLET, KET_SINGLET), element(KET_TRIPLET0, KET_TRIPLET0),
                     element(KET_TRIPLET0, KET_SINGLET), element(KET_T1, KET_T1), element(KET_T1, KET_T2)])


def sliced_block(system, slices):
    """A _PHASE_BLOCK that cuts the kernel's 6 s + 1 lines (a constant plus six
    paired lines per kept sector) into `slices` slices at the 6 offsets of the
    41 samples, and a last slice of one line, in the passes of a sum above
    _SMALL_SUM; a pass then takes one base block."""
    return 2 * 6 * ((6 * system.bath.significant_sectors()[0].size + 1) // slices)


def sixteen_line_bell_mix(system, r, times):
    """Reference: every sector of the bath (no weight cut), all 16 lines
    exp(-i (E_l - E_l') t) of each evaluated separately, in one product."""
    norm = math.sqrt(2.0 * (1.0 + r * r))
    alpha, beta = (1.0 + r) / norm, (1.0 - r) / norm
    amps, omegas = [], []
    for i, w in zip(system.bath.spins, system.bath.weights):
        a, levels = _bell_mix_lines(system, i, alpha, beta)
        amps.append(w * a.reshape(5, 16))
        omegas.append((levels[:, None] - levels[None, :]).ravel())
    amp = np.concatenate(amps, axis=1).astype(complex)
    omega = np.concatenate(omegas)
    c1, c2, c3, pp, pm = amp @ np.exp(-1j * np.outer(omega, times))
    return np.array([c1, c2, c3, 0.5 * (pp + pm), 0.5 * (pp - pm)])


def per_m_bell_mix(system, r, times):
    """Reference: evolve the amplitude of every bath m at every time, then sum
    the Bell-basis moments over m. Returns (c1, c2, c3, pp, pm)."""
    norm = math.sqrt(2.0 * (1.0 + r * r))
    alpha, beta = (1.0 + r) / norm, (1.0 - r) / norm
    c1, c2, pp, pm = (np.zeros(times.size) for _ in range(4))
    c3 = np.zeros(times.size, dtype=complex)
    for i, w in zip(system.bath.spins, system.bath.weights):
        if i == 0.0:
            c1 += w * alpha**2
            c2 += w * beta**2
            c3 += w * alpha * beta * np.exp(-1j * system.j * times)
            continue
        c = sector_table(i)[:, :, 1:-1]
        gp, g0, gm = c[:, 0], c[:, 1], c[:, 2]
        d = g0.shape[1]
        b_tt, b_ss, b_ts = mix_block(system, i, times)
        lam = np.array([system.k_mean * i, -system.k_mean * (i + 1.0)]) + system.j / 4.0
        u = np.exp(-1j * np.outer(lam, times))
        amp = np.empty((3, d, times.size), dtype=complex)
        amp[0] = beta * g0[0][:, None] * u[0]
        amp[1] = beta * g0[1][:, None] * b_tt + alpha * b_ts
        amp[2] = beta * g0[2][:, None] * u[1]
        amp_s = alpha * b_ss + beta * g0[1][:, None] * b_ts
        amp_0 = np.einsum("fm,fmt->mt", g0, amp)
        amp_p = np.einsum("fm,fmt->mt", gp, amp)
        amp_m = np.einsum("fm,fmt->mt", gm, amp)
        c1 += w * (np.abs(amp_s) ** 2).sum(axis=0) / d
        c2 += w * (np.abs(amp_0) ** 2).sum(axis=0) / d
        c3 += w * (amp_0 * amp_s.conj()).sum(axis=0) / d
        pp += w * (np.abs(amp_p) ** 2).sum(axis=0) / d
        pm += w * (np.abs(amp_m) ** 2).sum(axis=0) / d
    return c1, c2, c3, pp, pm


@pytest.mark.parametrize("r", [1.0, 0.5, -0.5, -1.0])
@pytest.mark.parametrize("couplings", list(COUPLINGS))
@pytest.mark.parametrize("bath", list(BATHS))
def test_matches_per_m_reference(bath, couplings, r, monkeypatch):
    system = CommonBathSystem(*COUPLINGS[couplings], BATHS[bath])
    c1, c2, c3, pp, pm = per_m_bell_mix(system, r, TIMES)
    expected = np.array([c1, c2, c3, 0.5 * (pp + pm), 0.5 * (pp - pm)])
    got = [sector_bell_mix(system, r, TIMES)]
    # sliced: three slices of 2 s lines, then one line
    monkeypatch.setattr(common, "_SMALL_SUM", 0)
    monkeypatch.setattr(common, "_PHASE_BLOCK", sliced_block(system, 3))
    got.append(sector_bell_mix(system, r, TIMES))
    for bell in got:
        assert np.abs(bell - expected).max() < 1e-12


SIXTEEN_LINE_BATHS = {
    "gaussian-narrow-100": gaussian_approx(100, "narrow"),
    "gaussian-narrow-200": gaussian_approx(200, "narrow"),
    "gaussian-narrow-300": gaussian_approx(300, "narrow"),
    "exact-9": unpolarized_exact(9),
    "exact-10": unpolarized_exact(10),
}

SIXTEEN_LINE_COUPLINGS = {
    **COUPLINGS,
    "zero-couplings": (0.0, 0.0, 3.0),
    "one-zero-coupling": (0.0, 0.9, 1.5),
}


@pytest.mark.parametrize("r", [1.0, 0.5, -1.0])
@pytest.mark.parametrize("couplings", list(SIXTEEN_LINE_COUPLINGS))
@pytest.mark.parametrize("bath", list(SIXTEEN_LINE_BATHS))
def test_paired_lines_match_sixteen_lines(bath, couplings, r, monkeypatch):
    system = CommonBathSystem(*SIXTEEN_LINE_COUPLINGS[couplings], SIXTEEN_LINE_BATHS[bath])
    expected = sixteen_line_bell_mix(system, r, TIMES)
    got = [sector_bell_mix(system, r, TIMES)]
    # sliced: two slices of 3 s lines, then one line
    monkeypatch.setattr(common, "_SMALL_SUM", 0)
    monkeypatch.setattr(common, "_PHASE_BLOCK", sliced_block(system, 2))
    got.append(sector_bell_mix(system, r, TIMES))
    for bell in got:
        assert np.abs(bell - expected).max() < 1e-12


def test_large_bath_stays_physical():
    system = CommonBathSystem(1.2, 0.8, 20.0, gaussian_approx(1000, "narrow"))
    c1, c2, c3, pp, pm = sector_bell_mix(system, 0.5, np.linspace(0.0, 10.0, 50))
    total = c1 + c2 + 2.0 * pp
    assert np.abs(total - 1.0).max() < 1e-12
    d = 1.0 - (np.abs(c1) ** 2 + np.abs(c2) ** 2 + 2.0 * np.abs(c3) ** 2 + 2.0 * np.abs(pp) ** 2
               + 2.0 * np.abs(pm) ** 2)
    assert d.min() >= -1e-12 and d.max() <= 0.75 + 1e-12


@pytest.mark.parametrize("n", [100, 1000, 10000])
@pytest.mark.parametrize("r", [0.5, -0.5])
def test_large_baths_match_sixteen_lines(n, r):
    # the r_state reference from N = 100 to 10^4, on the kept sectors only:
    # the reference sums every sector of its bath in a Python loop
    spins, weights, _ = gaussian_approx(n, "narrow").significant_sectors()
    system = CommonBathSystem(1.2, 0.8, 20.0, BathDistribution(spins, weights / weights.sum(), n))
    expected = sixteen_line_bell_mix(system, r, TIMES)
    assert np.abs(sector_bell_mix(system, r, TIMES) - expected).max() < 1e-12
