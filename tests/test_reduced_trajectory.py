"""The time-batched reduced-evolution kernel against the per-time contraction."""

import math
import sys
from collections import Counter

import numpy as np
import pytest

from spinbath import common, oracle
from spinbath.bath import unpolarized_exact
from spinbath.common import CommonBathSystem, apply_channel, channel_functions
from spinbath.oracle import build
from spinbath.scenarios import ScenarioConfig, _run_oracle_compare, validate
from spinbath.states import make_named_state, state_to_density
from test_common import sector_hamiltonian
from test_oracle import bath_spin_projector, evolve_in

TIMES = np.array([0.0, 0.35, 1.1, 2.4, 3.7, 6.2])


def per_time_reduced(vals, vecs, rho_eig, times, dim_env):
    """Reference: propagate the full density matrix at each time, then trace
    out the environment."""
    out = []
    for t in times:
        u = np.exp(-1j * vals * t)
        rho_t = vecs @ (rho_eig * np.outer(u, u.conj())) @ vecs.T
        out.append(np.trace(rho_t.reshape(4, dim_env, 4, dim_env), axis1=1, axis2=3))
    return np.array(out)


def densities(states):
    return np.array([state_to_density(s) for s in states])


def per_time_sectors(system, s0, times):
    """Reference for the shared-bath channel: every sector propagated at each time."""
    rho_ab = state_to_density(s0)
    expected = np.zeros((times.size, 4, 4), dtype=complex)
    for i, w in zip(system.bath.spins, system.bath.weights):
        vals, vecs = np.linalg.eigh(sector_hamiltonian(system, i).real)
        d = vals.size // 4
        rho_eig = vecs.T @ np.kron(rho_ab, np.eye(d) / d) @ vecs
        expected += w * per_time_reduced(vals, vecs, rho_eig, times, d)
    return expected


SECTOR_CASES = {
    "unequal": (1.1, 0.45, 0.8, 5),
    "equal": (1.0, 1.0, 2.0, 6),
    "zero_mixing_gap": (0.7, 0.7, 0.7, 4),  # k_a = k_b, j = k_mean
    "opposite": (1.0, -1.0, 0.3, 7),  # k_a = -k_b: F = I +- 1 levels coincide
    "spin_zero_sector": (0.9, 0.2, 1.7, 2),  # exact bath of 2 holds I = 0
}
SECTOR_STATES = {
    "r_state": ("r_state", dict(r=0.3)),
    "general_pure": ("general_pure", dict(gamma=0.4, theta=0.7, phi=1.3)),
    "general_pure_complex": ("general_pure", dict(gamma=0.3 + 0.4j, theta=1.1, phi=2.3)),
    "werner": ("werner", dict(p=0.6)),
}


@pytest.mark.parametrize("state", SECTOR_STATES)
@pytest.mark.parametrize("case", SECTOR_CASES)
def test_sector_evolver(case, state):
    k_a, k_b, j, n = SECTOR_CASES[case]
    system = CommonBathSystem(k_a, k_b, j, unpolarized_exact(n))
    name, params = SECTOR_STATES[state]
    s0 = make_named_state(name, **params)
    got = densities(apply_channel(channel_functions(system, TIMES), s0))
    assert np.abs(got - per_time_sectors(system, s0, TIMES)).max() < 1e-12


@pytest.mark.parametrize("times", [np.array([2.4]), np.float64(2.4), 2.4])
def test_sector_evolver_one_sample(times):
    # a single sample and a 0-d time both give a batch of one state
    system = CommonBathSystem(1.1, 0.45, 0.8, unpolarized_exact(4))
    s0 = make_named_state("general_pure", gamma=0.3 + 0.4j, theta=0.7, phi=1.3)
    got = densities(apply_channel(channel_functions(system, times), s0))
    assert got.shape == (1, 4, 4)
    assert np.abs(got - per_time_sectors(system, s0, np.array([2.4]))).max() < 1e-12


@pytest.mark.parametrize("chunked", [False, True])
@pytest.mark.parametrize("bath_state", ["fully_mixed", ("sector", 1.0)])
def test_evolve_reduced(bath_state, chunked, monkeypatch):
    n = 4
    if chunked:  # two samples per pass over the largest F_z block
        monkeypatch.setattr(oracle, "_PHASE_CHUNK", 2 * math.comb(n + 2, n // 2 + 1))
    full = build(np.full(n, 1.0), np.full(n, 0.4), 1.5)
    s0 = make_named_state("r_state", r=0.3)
    if bath_state == "fully_mixed":
        rho_env = np.eye(2**n) / 2**n
    else:
        proj = bath_spin_projector(n, bath_state[1])
        rho_env = proj / np.trace(proj).real
    vals, vecs = np.linalg.eigh(full.hamiltonian)
    rho_eig = vecs.T @ np.kron(state_to_density(s0), rho_env) @ vecs
    expected = per_time_reduced(vals, vecs, rho_eig, TIMES, 2**n)
    got = densities(evolve_in(full, s0, bath_state, TIMES))
    assert np.abs(got - expected).max() < 1e-12


@pytest.mark.parametrize("bath_state", ["fully_mixed", ("sector", 1.0)])
def test_evolve_reduced_column_slices(bath_state, monkeypatch):
    # blocks of 6, 15 and 20 eigenvectors cut into slices of at most 4, some uneven
    monkeypatch.setattr(oracle, "_MAX_COLUMNS", 4)
    test_evolve_reduced(bath_state, False, monkeypatch)


def test_oracle_compare_diagonalizes_once(monkeypatch, tmp_path):
    n = 4
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        calls.append(np.shape(a)[0])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    config = ScenarioConfig.for_kind(
        "oracle-compare", n_bath=n, samples=8, t_max=3.0, output=str(tmp_path / "oc.csv")
    )
    report = validate(config)
    result = _run_oracle_compare(config, report.bath, report.state)
    assert not result.numerical_failure
    # one eigh per mirror pair of F_z blocks (k and n + 2 - k down spins of
    # n + 2, sizes 1, 6, 15) and one per flip-parity half of the middle block
    # (20 = 10 + 10); none on the analytic side, whose sector levels are
    # closed forms, and none at the full dimension
    assert Counter(calls) == Counter([1, 6, 15, 10, 10])
    assert 4 * 2**n not in calls


def test_oracle_compare_kernel_on_oracle_side_only(monkeypatch, tmp_path):
    # the analytic side must not share the oracle's kernel, or the comparison
    # would check that kernel against itself
    callers = []
    kernel = oracle.reduced_trajectory

    def recording_kernel(*args, **kwargs):
        callers.append(sys._getframe(1).f_globals["__name__"])
        return kernel(*args, **kwargs)

    for module in (oracle, common):
        if hasattr(module, "reduced_trajectory"):
            monkeypatch.setattr(module, "reduced_trajectory", recording_kernel)
    config = ScenarioConfig.for_kind(
        "oracle-compare", mode="common", n_bath=4, samples=8, t_max=3.0,
        output=str(tmp_path / "oc.csv"),
    )
    report = validate(config)
    assert not _run_oracle_compare(config, report.bath, report.state).numerical_failure
    assert callers == ["spinbath.oracle"]
