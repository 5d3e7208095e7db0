import math
import tracemalloc

import numpy as np
import pytest

from spinbath.bath import delta_distribution, gaussian_approx, unpolarized_exact
from spinbath.common import apply_channel
from spinbath.oracle import build, evolve_reduced
from spinbath.separate import (
    AssumptionError,
    SeparateBathSystem,
    decay_factors,
    short_time_concurrence_time,
    short_time_decoherence_time,
    sudden_death_time,
)
from spinbath.states import (
    InvalidStateError,
    TwoQubitState,
    concurrence_state,
    decoherence_measure,
    density_to_state,
    make_named_state,
    validate_state,
)

from test_states import random_density, same_states


def evolve(system: SeparateBathSystem, state: TwoQubitState, times) -> TwoQubitState:
    """The initial state(s) on the grid ``times`` (a scalar is a grid of one sample), through
    the channel of the private baths."""
    return apply_channel(decay_factors(system, times), state)


def decoherence_series(system: SeparateBathSystem, state: TwoQubitState, times) -> np.ndarray:
    """Mixedness D(t) on a time grid, from the exact componentwise decay. For pure states
    with equal polarization magnitudes under equal couplings and baths it equals
    D = (1/4)[3(1 - g2^2) - 2(g1^2 - g2^2) P(0)^2]."""
    return decoherence_measure(evolve(system, state, np.asarray(times, dtype=float)))


def symmetric_system(n: int, k: float = 1.0) -> SeparateBathSystem:
    bath = unpolarized_exact(n)
    return SeparateBathSystem(k, k, bath, bath)


def sector_propagator_coeffs(k: float, i: float, t: float) -> tuple[complex, complex]:
    """Coefficients (p, q) of the one-qubit sector propagator U = p + q S.I, the
    per-sector form of the decay lines; a sector-global phase is dropped."""
    if k == 0.0 or i == 0.0:
        return 1.0 + 0.0j, 0.0j
    lam = k * (i + 0.5) / 2.0
    p = np.cos(lam * t) + 1j * k * np.sin(lam * t) / (4.0 * lam)
    q = 1j * k * np.sin(lam * t) / lam
    return complex(p), complex(q)


class TestSectorPropagator:
    def test_time_zero(self):
        assert sector_propagator_coeffs(1.3, 2.5, 0.0) == (1.0, 0.0)

    def test_decoupled(self):
        assert sector_propagator_coeffs(0.0, 2.5, 3.7) == (1.0, 0.0)

    def test_half_spin_half_period(self):
        # Lambda = 1/2, so t = 2 pi gives p = cos(pi) = -1 and q = 0
        p, q = sector_propagator_coeffs(1.0, 0.5, 2 * math.pi)
        assert p == pytest.approx(-1.0, abs=1e-12)
        assert abs(q) < 1e-12

    @pytest.mark.parametrize("i", [0.5, 1.0, 2.5])
    @pytest.mark.parametrize("t", [0.3, 1.7])
    def test_unitarity(self, i, t):
        p, q = sector_propagator_coeffs(0.8, i, t)
        assert abs(p) ** 2 + i * (i + 1) * abs(q) ** 2 / 4 == pytest.approx(1.0, abs=1e-13)


class TestDecayFactors:
    def test_time_zero(self):
        f = decay_factors(symmetric_system(4), 0.0)
        assert [x.tolist() for x in f] == [[1.0]] * 2 + [[0.0]] * 3 + [[1.0]] * 3

    def test_decoupled_qubit(self):
        bath = unpolarized_exact(3)
        system = SeparateBathSystem(1.0, 0.0, bath, bath)
        t = np.linspace(0, 3, 7)
        g_a, g_b, *_, g = decay_factors(system, t)
        assert np.allclose(g_b, 1.0, atol=1e-15)
        assert np.allclose(g, g_a, atol=1e-15)

    PURE = [("singlet", {}), ("triplet0", {}), ("bell_t1", {}), ("bell_t2", {}), ("up_down", {}),
            ("r_state", dict(r=0.5)), ("updown_mix", dict(r=0.3)),
            ("general_pure", dict(gamma=0.5, theta=0.3, phi=1.0))]

    @pytest.mark.parametrize("couplings", [(1.0, 1.0), (1.2, 0.7)])
    @pytest.mark.parametrize("n", [100, 1000])
    def test_no_pure_state_gets_purer(self, n, couplings):
        # the factors are at most 1, so no row's mixedness falls below the initial state's;
        # unclipped, g(0) read 1 + 4.4e-16 at N = 100 and r_state:0.5's row 0 D = -1.1e-15
        bath = gaussian_approx(n, "narrow")
        system = SeparateBathSystem(*couplings, bath, bath)
        times = np.linspace(0.0, 10.0, 500)
        g_a, g_b = decay_factors(system, times)[:2]
        assert max(g_a.max(), g_b.max()) <= 1.0
        for name, params in self.PURE:
            state = make_named_state(name, **params)
            d = decoherence_measure(evolve(system, state, times))
            assert d.min() >= decoherence_measure(state) - 1e-16, name

    def test_vector_dominates_tensor(self):
        t = np.linspace(0, 8, 400)
        f = decay_factors(symmetric_system(6), t)
        assert np.all(f[0] ** 2 >= f[5] ** 2 - 1e-12)

    def test_short_time_richardson(self):
        # 1 - g1 = (1/3) K^2 <I(I+1)> t^2 + O(t^4): Richardson-extrapolate
        system = symmetric_system(6, k=1.3)
        m2 = system.bath_a.casimir_moment()
        h = 1e-3

        def ratio(t):
            return (1.0 - decay_factors(system, t)[0][0]) / t**2

        extrap = (4 * ratio(h / 2) - ratio(h)) / 3
        assert extrap == pytest.approx(1.3**2 * m2 / 3, rel=1e-8)
        # tensor factor decays twice as fast at leading order

        def ratio2(t):
            return (1.0 - decay_factors(system, t)[5][0]) / t**2

        extrap2 = (4 * ratio2(h / 2) - ratio2(h)) / 3
        assert extrap2 == pytest.approx(2 * 1.3**2 * m2 / 3, rel=1e-8)


class TestEvolve:
    def test_time_zero_identity(self):
        s0 = make_named_state("r_state", r=0.5)
        s = evolve(symmetric_system(4), s0, 0.0)[0]
        assert np.allclose(s.pi, s0.pi) and np.allclose(s.p_a, s0.p_a)

    def test_grid_is_one_batch(self):
        system = symmetric_system(4)
        s0 = make_named_state("r_state", r=0.5)
        times = np.linspace(0.0, 4.0, 9)
        batch = evolve(system, s0, times)
        assert batch.pi.shape == (9, 3, 3)
        for t, s in zip(times, batch):
            one = evolve(system, s0, t)
            assert one.pi.shape == (1, 3, 3)
            # array and scalar sin/cos may round differently by an ulp
            assert np.abs(s.pi - one.pi[0]).max() < 1e-14
            assert np.abs(s.p_b - one.p_b[0]).max() < 1e-14

    @pytest.mark.parametrize("t", [np.linspace(0.0, 4.0, 30), 1.7], ids=["grid", "scalar"])
    def test_batch_equals_per_state(self, t):
        # a batch of initial states: the state axis, then the time axis, bit for bit
        system = SeparateBathSystem(1.0, 0.7, gaussian_approx(60, "narrow"), unpolarized_exact(5))
        initial = [make_named_state("general_pure", gamma=0.3 + 0.4j, theta=1.1, phi=2.3),
                   make_named_state("werner", p=0.6), make_named_state("r_state", r=-0.5)]
        batch = evolve(system, TwoQubitState.stack(initial), t)
        assert batch.pi.shape == (3, np.size(t), 3, 3)
        for k, s0 in enumerate(initial):
            assert same_states(batch[k], evolve(system, s0, t))

    def test_channel_scales_each_polarization(self):
        # random states, most of them not X states, and a tilted pure one: the channel of
        # the private baths is P_A -> g_a P_A, P_B -> g_b P_B, pi -> g_a g_b pi
        system = SeparateBathSystem(1.2, 0.7, gaussian_approx(100, "narrow"), unpolarized_exact(9))
        initial = TwoQubitState.stack([density_to_state(random_density(seed)) for seed in range(6)]
                                      + [make_named_state("general_pure", gamma=0.5, theta=0.3, phi=1.0)])
        times = np.linspace(0.0, 7.0, 300)
        g_a, g_b = decay_factors(system, times)[:2]
        got = evolve(system, initial, times)
        want_a = g_a[:, None] * initial.p_a[:, None, :]
        want_b = g_b[:, None] * initial.p_b[:, None, :]
        want_pi = (g_a * g_b)[:, None, None] * initial.pi[:, None, :, :]
        assert np.abs(got.p_a - want_a).max() <= 1e-15
        assert np.abs(got.p_b - want_b).max() <= 1e-15
        assert np.abs(got.pi - want_pi).max() <= 1e-15

    def test_evolution_peaks_near_its_output(self):
        # the channel fills fresh arrays, which the state takes without a copy
        bath = gaussian_approx(100, "narrow")
        system = SeparateBathSystem(1.0, 0.8, bath, bath)
        s0 = make_named_state("r_state", r=0.4)
        times = np.linspace(0.0, 5.0, 200_000)
        tracemalloc.start()
        try:
            out = evolve(system, s0, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * (out.p_a.nbytes + out.p_b.nbytes + out.pi.nbytes)

    def test_product_state_stays_product(self):
        system = symmetric_system(4)
        s0 = make_named_state("up_down")
        assert np.all(concurrence_state(evolve(system, s0, np.linspace(0.1, 4, 9))) == 0.0)

    def test_preserves_physicality(self):
        system = SeparateBathSystem(
            1.0, 0.7, unpolarized_exact(3), unpolarized_exact(5)
        )
        s0 = make_named_state("r_state", r=-0.4)
        for t in (0.2, 0.9, 3.3):
            assert validate_state(evolve(system, s0, t)[0], tol=1e-10).physical

    @pytest.mark.parametrize("state", ["singlet", "up_down", "updown_mix"])
    def test_oracle_equivalence_small(self, state):
        s0 = (
            make_named_state(state)
            if state != "updown_mix"
            else make_named_state(state, r=0.5)
        )
        system = SeparateBathSystem(
            1.0, 1.0, unpolarized_exact(2), unpolarized_exact(2)
        )
        full = build([1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0])  # two private baths of 2
        times = np.linspace(0.0, 5.0, 11)
        oracle_states = evolve_reduced(full, s0, times)
        for t, ref in zip(times, oracle_states):
            s = evolve(system, s0, t)[0]
            dev = max(
                np.abs(s.p_a - ref.p_a).max(),
                np.abs(s.p_b - ref.p_b).max(),
                np.abs(s.pi - ref.pi).max(),
            )
            assert dev < 1e-10


class TestDecoherenceSeries:
    def test_starts_at_zero(self):
        series = decoherence_series(
            symmetric_system(4), make_named_state("singlet"), np.linspace(0, 2, 5)
        )
        assert series[0] == pytest.approx(0.0, abs=1e-14)

    def test_maximally_entangled_closed_form(self):
        system = symmetric_system(5)
        times = np.linspace(0, 3, 40)
        series = decoherence_series(system, make_named_state("singlet"), times)
        g2 = decay_factors(system, times)[5]
        assert np.allclose(series, 0.75 * (1 - g2**2), atol=1e-13)

    def test_matches_pointwise_evolution(self):
        system = SeparateBathSystem(
            0.9, 1.4, unpolarized_exact(3), unpolarized_exact(4)
        )
        s0 = make_named_state("r_state", r=0.3)
        times = np.linspace(0, 4, 17)
        series = decoherence_series(system, s0, times)
        direct = [decoherence_measure(evolve(system, s0, t)[0]) for t in times]
        assert np.allclose(series, direct, atol=1e-12)

    def test_entangled_states_lose_purity_faster(self):
        system = symmetric_system(6)
        times = np.linspace(0.05, 4, 50)
        d_by_c0 = []
        for r in (0.0, 2 - math.sqrt(3), 1.0):  # C(0) = 0, 1/2, 1
            s0 = make_named_state("updown_mix", r=r)
            d_by_c0.append(decoherence_series(system, s0, times))
        assert np.all(d_by_c0[0] <= d_by_c0[1] + 1e-12)
        assert np.all(d_by_c0[1] <= d_by_c0[2] + 1e-12)


class TestShortTimeTimescales:
    def test_decoherence_time_limits(self):
        system = symmetric_system(6, k=1.2)
        m2 = system.bath_a.casimir_moment()
        # product state: 1/tau^2 = (2/3) K^2 <I(I+1)>
        assert short_time_decoherence_time(system, 1.0) == pytest.approx(
            1 / math.sqrt(2 / 3 * 1.2**2 * m2)
        )
        # maximally entangled: 1/tau^2 = K^2 <I(I+1)>
        assert short_time_decoherence_time(system, 0.0) == pytest.approx(
            1 / math.sqrt(1.2**2 * m2)
        )

    def test_concurrence_time_equals_decoherence_time_when_maximal(self):
        system = symmetric_system(5)
        assert short_time_concurrence_time(system, 0.0) == pytest.approx(
            short_time_decoherence_time(system, 0.0)
        )

    def test_concurrence_time_value(self):
        system = symmetric_system(5)
        m2 = system.bath_a.casimir_moment()
        # (3 - 2*0.36) / (1 - 0.36) = 3.5625 in units of the base rate
        expected = 1 / math.sqrt(m2 / 3 * 3.5624999999999996)
        assert short_time_concurrence_time(system, 0.6) == pytest.approx(expected)

    def test_concurrence_time_monotone_in_polarization(self):
        system = symmetric_system(5)
        taus = [short_time_concurrence_time(system, p) for p in np.linspace(0, 0.999, 25)]
        assert all(a > b for a, b in zip(taus, taus[1:]))

    def test_unentangled_rejected(self):
        with pytest.raises(InvalidStateError):
            short_time_concurrence_time(symmetric_system(4), 1.0)

    @pytest.mark.parametrize("system", [
        SeparateBathSystem(1.0, 0.5, gaussian_approx(100, "narrow"), gaussian_approx(100, "narrow")),
        SeparateBathSystem(1.0, 1.0, unpolarized_exact(4), unpolarized_exact(6)),
    ], ids=["unequal-couplings", "unequal-baths"])
    @pytest.mark.parametrize("spec", [("updown_mix", dict(r=0.5)),
                                      ("general_pure", dict(gamma=0.4, theta=1.1, phi=0.3))])
    def test_asymmetric_system_decoherence_time(self, system, spec):
        # 1/tau^2 = (3 - P0^2)(K_A^2 <I(I+1)>_A + K_B^2 <I(I+1)>_B) / 6 is the t^2
        # coefficient of the exact D(t), and the Gaussian fit of -log(1 - D) recovers it
        s0 = make_named_state(spec[0], **spec[1])
        tau = short_time_decoherence_time(system, float(np.linalg.norm(s0.p_a)))
        t = 1e-3 * tau
        d = float(decoherence_measure(evolve(system, s0, t)[0]))
        assert d / t**2 == pytest.approx(1 / tau**2, rel=1e-5)
        times = np.linspace(0, 0.1 * tau, 30)[1:]
        x, y = times**2, -np.log1p(-decoherence_series(system, s0, times))
        assert 1 / math.sqrt(float(x @ y) / float(x @ x)) == pytest.approx(tau, rel=0.02)

    def test_concurrence_time_needs_equal_couplings_and_baths(self):
        bath = unpolarized_exact(4)
        with pytest.raises(AssumptionError, match="equal couplings"):
            short_time_concurrence_time(SeparateBathSystem(1.0, 0.5, bath, bath), 0.5)
        with pytest.raises(AssumptionError, match="moments"):
            short_time_concurrence_time(
                SeparateBathSystem(1.0, 1.0, bath, unpolarized_exact(6)), 0.5
            )

    def test_one_assumption_error_for_both_bath_models(self):
        from spinbath import common

        assert AssumptionError is common.AssumptionError

    def test_gaussian_fit_recovers_decoherence_time(self):
        # fit of -log(1 - D) over the early window against the formula
        bath = gaussian_approx(100, "narrow")
        system = SeparateBathSystem(1.0, 1.0, bath, bath)
        s0 = make_named_state("updown_mix", r=0.5)
        p0 = float(np.linalg.norm(s0.p_a))
        tau = short_time_decoherence_time(system, p0)
        times = np.linspace(0, 0.1 * tau, 30)[1:]
        d = decoherence_series(system, s0, times)
        x, y = times**2, -np.log1p(-d)
        tau_fit = 1 / math.sqrt(float(x @ y) / float(x @ x))
        assert tau_fit == pytest.approx(tau, rel=0.02)


class TestSuddenDeath:
    def test_no_coupling_never_dies(self):
        bath = unpolarized_exact(3)
        system = SeparateBathSystem(0.0, 0.0, bath, bath)
        assert sudden_death_time(system, make_named_state("singlet")) is None

    def test_crossing_time_and_concurrence(self):
        bath = gaussian_approx(100, "narrow")
        system = SeparateBathSystem(1.0, 1.0, bath, bath)
        s0 = make_named_state("triplet0")
        t_star = sudden_death_time(system, s0, t_max=10.0)
        assert t_star is not None
        assert decay_factors(system, t_star)[5][0] == pytest.approx(1 / 3, abs=1e-9)
        assert concurrence_state(evolve(system, s0, 0.5 * t_star)[0]) > 0
        assert concurrence_state(evolve(system, s0, 1.05 * t_star)[0]) == 0.0

    def test_threshold_not_reached_within_horizon(self):
        bath = delta_distribution(0.5)
        system = SeparateBathSystem(0.05, 0.05, bath, bath)
        assert sudden_death_time(system, make_named_state("singlet"), t_max=1.0) is None

    def test_requires_maximally_entangled(self):
        with pytest.raises(InvalidStateError):
            sudden_death_time(symmetric_system(3), make_named_state("up_down"))
