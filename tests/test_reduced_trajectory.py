"""The time-batched reduced-evolution kernel against the per-time contraction."""

import math
from collections import Counter

import numpy as np
import pytest

from spinbath import spinops
from spinbath.bath import unpolarized_exact
from spinbath.common import CommonBathSystem, SectorExactEvolver, sector_hamiltonian
from spinbath.oracle import CouplingParams, bath_spin_projector, build, evolve_reduced
from spinbath.scenarios import ScenarioConfig, _run_oracle_compare, validate
from spinbath.states import make_named_state, state_to_density

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


def test_sector_evolver_unequal_couplings():
    system = CommonBathSystem(1.1, 0.45, 0.8, unpolarized_exact(5))
    s0 = make_named_state("general_pure", gamma=0.4, theta=0.7, phi=1.3)
    rho_ab = state_to_density(s0)
    expected = np.zeros((TIMES.size, 4, 4), dtype=complex)
    for i, w in zip(system.bath.spins, system.bath.weights):
        vals, vecs = np.linalg.eigh(sector_hamiltonian(system, i).real)
        d = vals.size // 4
        rho_eig = vecs.T @ np.kron(rho_ab, np.eye(d) / d) @ vecs
        expected += w * per_time_reduced(vals, vecs, rho_eig, TIMES, d)
    got = densities(SectorExactEvolver(system).evolve(s0, TIMES))
    assert np.abs(got - expected).max() < 1e-12


@pytest.mark.parametrize("chunked", [False, True])
@pytest.mark.parametrize("bath_state", ["fully_mixed", ("sector", 1.0)])
def test_evolve_reduced(bath_state, chunked, monkeypatch):
    n = 4
    if chunked:  # two samples per pass over the largest F_z block
        monkeypatch.setattr(spinops, "_PHASE_CHUNK", 2 * math.comb(n + 2, n // 2 + 1))
    full = build("common", n, CouplingParams(1.0, 0.4, 1.5))
    s0 = make_named_state("r_state", r=0.3)
    if bath_state == "fully_mixed":
        rho_env = np.eye(2**n) / 2**n
    else:
        proj = bath_spin_projector(n, bath_state[1])
        rho_env = proj / np.trace(proj).real
    vals, vecs = np.linalg.eigh(full.hamiltonian)
    rho_eig = vecs.T @ np.kron(state_to_density(s0), rho_env) @ vecs
    expected = per_time_reduced(vals, vecs, rho_eig, TIMES, 2**n)
    got = densities(evolve_reduced(full, s0, bath_state, TIMES))
    assert np.abs(got - expected).max() < 1e-12


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
    # one eigh per F_z block (k down spins of n + 2) and one per bath sector of
    # the analytic side, dimension 4 (2I + 1); none at the full dimension
    blocks = Counter(math.comb(n + 2, k) for k in range(n + 3))
    sectors = Counter(4 * int(2 * i + 1) for i in unpolarized_exact(n).spins)
    assert Counter(calls) == blocks + sectors
    assert 4 * 2**n not in calls
