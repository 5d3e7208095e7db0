"""Singlet/T0 mixtures (r_state) through the shared-bath channel, in one slice of the line
sum and in several, against the bath sector as a single spin I."""

from functools import lru_cache

import numpy as np
import pytest

from spinbath import common
from spinbath.bath import BathDistribution, gaussian_approx, unpolarized_exact
from spinbath.common import CommonBathSystem, apply_channel, channel_functions
from spinbath.states import (KET_SINGLET, KET_T1, KET_T2, KET_TRIPLET0, TwoQubitState, make_named_state,
                             state_to_density)

from test_common import spin_i_evolve

TIMES = np.linspace(0.0, 10.0, 41)

BATHS = {
    "gaussian-narrow-100": gaussian_approx(100, "narrow"),
    "gaussian-narrow-200": gaussian_approx(200, "narrow"),
    "gaussian-narrow-300": gaussian_approx(300, "narrow"),
    "exact-9": unpolarized_exact(9),
    "exact-10": unpolarized_exact(10),
}

COUPLINGS = {
    "unequal": (1.2, 0.8, 20.0),
    "no-exchange": (1.0, 0.4, 0.0),
    "negative": (-0.9, 0.5, 3.0),
    "gap-zero": (0.7, 0.7, 0.7),  # F = I block degenerate: k_a = k_b = j
    "zero-couplings": (0.0, 0.0, 3.0),
    "one-zero-coupling": (0.0, 0.9, 1.5),
}

R_VALUES = (1.0, 0.5, -0.5, -1.0)
R_STATES = TwoQubitState.stack([make_named_state("r_state", r=r) for r in R_VALUES])


def sector_bell_mix(system, r, times):
    """The sector evolver's r_state evolution as the Bell-basis outputs
    (singlet_pop, triplet0_pop, st_coherence, t1t2_pop, t1t2_coherence)."""
    rho = state_to_density(apply_channel(channel_functions(system, times), make_named_state("r_state", r=r)))

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


def large_bath(n):
    """Gaussian-narrow N = ``n`` on its kept sectors, renormalized."""
    spins, weights, _ = gaussian_approx(n, "narrow").significant_sectors()
    return BathDistribution(spins, weights / weights.sum(), n)


LARGE_BATHS = {n: large_bath(n) for n in (100, 1000)}


@lru_cache(maxsize=None)
def reference(bath, couplings):
    """The reference's states of every r_state of R_VALUES, for a key of BATHS and one of
    COUPLINGS, or for an N of LARGE_BATHS at the "unequal" couplings."""
    b = LARGE_BATHS[bath] if isinstance(bath, int) else BATHS[bath]
    return spin_i_evolve(CommonBathSystem(*COUPLINGS[couplings], b), state_to_density(R_STATES), TIMES)


def assert_matches_spin_i(bath, couplings, r, monkeypatch):
    """The evolved r_state against the reference: in one slice of the line sum, then in three
    slices of 2 s lines and in two of 3 s lines, each followed by a slice of one line."""
    b = LARGE_BATHS[bath] if isinstance(bath, int) else BATHS[bath]
    system = CommonBathSystem(*COUPLINGS[couplings], b)
    want = reference(bath, couplings)[R_VALUES.index(r)]
    for slices in (None, 3, 2):
        if slices is not None:
            monkeypatch.setattr(common, "_SMALL_SUM", 0)
            monkeypatch.setattr(common, "_PHASE_BLOCK", sliced_block(system, slices))
        f = channel_functions(system, TIMES)
        got = state_to_density(apply_channel(f, make_named_state("r_state", r=r)))
        assert np.abs(got - want).max() < 1e-12, slices


@pytest.mark.parametrize("r", R_VALUES)
@pytest.mark.parametrize("couplings", list(COUPLINGS))
@pytest.mark.parametrize("bath", list(BATHS))
def test_matches_spin_i_reference(bath, couplings, r, monkeypatch):
    assert_matches_spin_i(bath, couplings, r, monkeypatch)


def test_large_bath_stays_physical():
    system = CommonBathSystem(1.2, 0.8, 20.0, gaussian_approx(1000, "narrow"))
    c1, c2, c3, pp, pm = sector_bell_mix(system, 0.5, np.linspace(0.0, 10.0, 50))
    total = c1 + c2 + 2.0 * pp
    assert np.abs(total - 1.0).max() < 1e-12
    d = 1.0 - (np.abs(c1) ** 2 + np.abs(c2) ** 2 + 2.0 * np.abs(c3) ** 2 + 2.0 * np.abs(pp) ** 2
               + 2.0 * np.abs(pm) ** 2)
    assert d.min() >= -1e-12 and d.max() <= 0.75 + 1e-12


@pytest.mark.parametrize("n", list(LARGE_BATHS))
@pytest.mark.parametrize("r", [0.5, -0.5])
def test_large_baths(r, n, monkeypatch):
    # on the kept sectors, renormalized; test_common checks each kept sector of N = 10^4
    assert_matches_spin_i(n, "unequal", r, monkeypatch)
