import math
import warnings

import numpy as np
import pytest

from spinbath import optimize
from spinbath.bath import unpolarized_exact
from spinbath.common import CommonBathSystem, decoherence_rate_sq
from spinbath.optimize import (
    CouplingError,
    coupling_overlap,
    decoherence_rate_inhomogeneous,
    decoherence_rate_pure,
    gaussian_dot_couplings,
    optimal_gamma,
    rate_scale,
    scan_optimal_state,
)
from spinbath.states import InvalidStateError, TwoQubitState, make_named_state

from test_states import same_bits


def system(k_a=1.0, k_b=0.5, j=2.0, n=4) -> CommonBathSystem:
    return CommonBathSystem(k_a, k_b, j, unpolarized_exact(n))


def decoherence_rate_general(state: TwoQubitState, system: CommonBathSystem) -> float:
    """Reference 1/tau^2 of a pure state from the variance form
    (2/3) <I(I+1)> Var(K_A S_A + K_B S_B), against which common.decoherence_rate_sq's
    polarization form and the closed form of the gamma family are checked."""
    var = (system.k_a**2 * (0.75 - 0.25 * float(state.p_a @ state.p_a))
           + system.k_b**2 * (0.75 - 0.25 * float(state.p_b @ state.p_b))
           + 0.5 * system.k_a * system.k_b * (float(np.trace(state.pi)) - float(state.p_a @ state.p_b)))
    return (2.0 / 3.0) * system.bath.casimir_moment() * var


class TestVarianceForm:
    def test_singlet_symmetric_couplings(self):
        for rate in (decoherence_rate_general, decoherence_rate_sq):
            assert rate(make_named_state("singlet"), system(1.0, 1.0)) == pytest.approx(0.0, abs=1e-14)

    def test_product_state(self):
        sys = system(1.0, 0.5)
        expected = sys.bath.casimir_moment() * (1.0 + 0.25) / 3
        for rate in (decoherence_rate_general, decoherence_rate_sq):
            assert rate(make_named_state("up_down"), sys) == pytest.approx(expected, abs=1e-12)

    def test_equals_polarization_form_on_random_pure_states(self):
        rng = np.random.default_rng(5)
        sys = system(1.2, 0.3, 4.0)
        for _ in range(100):
            psi = rng.normal(size=4) + 1j * rng.normal(size=4)
            from spinbath.states import state_from_vector

            s0 = state_from_vector(psi)
            a = decoherence_rate_general(s0, sys)
            b = decoherence_rate_sq(s0, sys)
            assert a == pytest.approx(b, abs=1e-12 * max(1, abs(b)))


class TestClosedFormRate:
    def test_separable_value(self):
        assert decoherence_rate_pure(0.0, 0.7, 2.5) == pytest.approx(2.5)

    def test_singlet_symmetric(self):
        assert decoherence_rate_pure(1.0, 1.0, 1.0) == pytest.approx(0.0, abs=1e-14)

    def test_triplet_symmetric(self):
        # twice the separable rate; matches the maximally-entangled closed form
        assert decoherence_rate_pure(-1.0, 1.0, 1.0) == pytest.approx(2.0)

    def test_matches_general_rate_on_parametrized_states(self):
        rng = np.random.default_rng(9)
        sys = system(1.0, 0.4, 3.0, n=5)
        delta = coupling_overlap(sys.k_a, sys.k_b)
        scale = rate_scale(sys)
        for _ in range(25):
            gamma = complex(rng.normal(), rng.normal())
            theta = rng.uniform(0, math.pi)
            phi = rng.uniform(0, 2 * math.pi)
            s0 = make_named_state("general_pure", gamma=gamma, theta=theta, phi=phi)
            closed = decoherence_rate_pure(gamma, delta, scale, theta)
            general = decoherence_rate_general(s0, sys)
            assert closed == pytest.approx(general, rel=1e-10)

    def test_phi_independence(self):
        sys = system(0.8, 0.3, 1.0, n=4)
        rng = np.random.default_rng(3)
        for _ in range(20):
            gamma = complex(rng.normal(), rng.normal())
            theta = rng.uniform(0, math.pi)
            rates = [
                decoherence_rate_general(
                    make_named_state("general_pure", gamma=gamma, theta=theta, phi=phi), sys
                )
                for phi in np.linspace(0, 2 * math.pi, 7)
            ]
            assert max(rates) - min(rates) <= 1e-12 * max(rates)

    def test_overlap_bounds(self):
        with pytest.raises(CouplingError):
            decoherence_rate_pure(0.5, 1.2)


class TestOptimalGamma:
    def test_branch_boundary(self):
        assert optimal_gamma(0.5) == 1.0
        assert optimal_gamma(0.75) == 1.0

    def test_zero_limit(self):
        assert optimal_gamma(0.0) == pytest.approx(0.0, abs=1e-9)
        assert optimal_gamma(1e-12) == pytest.approx(0.0, abs=1e-9)

    def test_negative_endpoint(self):
        assert optimal_gamma(-1.0) == pytest.approx(math.sqrt(3) - 2, abs=1e-12)

    def test_stationary_point(self):
        # central difference of the rate at the analytic optimum
        h = 1e-6
        for delta in np.linspace(-1.0, 0.5, 101):
            g = optimal_gamma(delta)
            up = decoherence_rate_pure(g + h, delta)
            down = decoherence_rate_pure(g - h, delta)
            assert abs(up - down) / (2 * h) <= 1e-8

    def test_continuity_at_half(self):
        left = optimal_gamma(0.5 - 1e-9)
        assert left == pytest.approx(1.0, abs=1e-4)


# the branch points and the removable limit of optimal_gamma, and fig6's grid
DELTAS = np.array([-1.0, -1e-10, 0.0, 1e-10, 1.0 / 3.0, 0.5, 1.0])
FIG6_DELTAS = np.linspace(-1.0, 1.0, 201)


def optimal_gamma_branches(delta: float) -> float:
    """optimal_gamma of one overlap, branch by branch in Python floats: the byte reference."""
    if delta >= 0.5:
        return 1.0
    if abs(delta) < 1e-9:
        return delta / 2.0
    return ((1.0 - delta) - math.sqrt(1.0 - 2.0 * delta)) / delta


class TestArraySweeps:
    """Array arguments give, element for element and bit for bit, the scalar calls."""

    @pytest.mark.parametrize("deltas", [DELTAS, FIG6_DELTAS], ids=["branch-points", "fig6-grid"])
    def test_optimal_gamma(self, deltas):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = optimal_gamma(deltas)
        assert got.shape == deltas.shape
        assert same_bits(got, np.array([optimal_gamma_branches(float(d)) for d in deltas]))
        assert same_bits(got, np.array([optimal_gamma(float(d)) for d in deltas]))
        assert isinstance(optimal_gamma(0.25), float)

    @pytest.mark.parametrize("deltas", [DELTAS, FIG6_DELTAS], ids=["branch-points", "fig6-grid"])
    @pytest.mark.parametrize("gamma", [0.0, 1.0, -1.0, 0.3 - 0.2j, "optimal"])
    def test_rate_over_deltas(self, deltas, gamma):
        gammas = optimal_gamma(deltas) if gamma == "optimal" else np.full(deltas.shape, gamma)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an array gamma or a scalar one
            got = decoherence_rate_pure(gammas if gamma == "optimal" else gamma, deltas, 1.0)
        want = [decoherence_rate_pure(complex(g), float(d), 1.0) for g, d in zip(gammas, deltas)]
        assert same_bits(got, np.array(want))

    @pytest.mark.parametrize("theta", [0.0, 0.7])
    def test_rate_over_gammas(self, theta):
        gammas = np.linspace(-2.0, 2.0, 201)  # optimize's column
        got = decoherence_rate_pure(gammas, 0.6, 2.5, theta)
        want = [decoherence_rate_pure(complex(g), 0.6, 2.5, theta) for g in gammas]
        assert same_bits(got, np.array(want))

    def test_rate_over_thetas(self):
        # an array theta broadcasts; array and scalar cos may round differently by an ulp
        thetas = np.linspace(0.0, math.pi, 201)
        got = decoherence_rate_pure(0.3 - 0.2j, 0.6, theta=thetas)
        want = [decoherence_rate_pure(0.3 - 0.2j, 0.6, theta=float(t)) for t in thetas]
        assert np.allclose(got, want, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("bad", [1.0 + 1e-12, -1.5, math.nan])
    @pytest.mark.parametrize("where", [0, 100, 200])
    def test_out_of_range_element_raises(self, bad, where):
        deltas = FIG6_DELTAS.copy()
        deltas[where] = bad
        with pytest.raises(CouplingError, match=r"^coupling overlap must be in \[-1, 1\], got [^\n]*$"):
            optimal_gamma(deltas)
        with pytest.raises(CouplingError, match=f"got {bad}$"):
            decoherence_rate_pure(0.5, deltas)
        thetas = np.linspace(0.0, math.pi, 201)
        thetas[where] = 4.0 * bad
        with pytest.raises(InvalidStateError, match=r"^theta must be in \[0, pi\], got [^\n]*$"):
            decoherence_rate_pure(0.5, 0.6, theta=thetas)

    def test_scalar_messages(self):
        with pytest.raises(CouplingError, match=r"got 1.2$"):
            optimal_gamma(1.2)
        with pytest.raises(InvalidStateError, match=r"got -0.5$"):
            decoherence_rate_pure(0.5, 0.6, theta=-0.5)


class TestScan:
    # 1/2: the branch point, where the optimum is quartic-flat; 1/3: the separable crossover
    @pytest.mark.parametrize("delta", [0.3, 0.8, 0.0, -0.6, 0.5, 1.0 / 3.0])
    def test_matches_analytic_optimum(self, delta):
        res = scan_optimal_state(delta)
        assert res.gamma.real == pytest.approx(optimal_gamma(delta), abs=1e-4)
        assert abs(res.gamma.imag) <= 1e-6
        assert abs(res.theta) <= 1e-6

    @pytest.mark.parametrize("delta", [0.5, 1.0 / 3.0, 0.3, -0.6, 1.0])
    def test_repeated_scans_are_bitwise_equal(self, delta):
        first, again = scan_optimal_state(delta), scan_optimal_state(delta)
        assert same_bits(np.array([first.gamma, first.theta, first.rate], dtype=complex),
                         np.array([again.gamma, again.theta, again.rate], dtype=complex))

    @pytest.mark.parametrize("lo, hi, x0", [(-1.2, 1.2, 0.3), (0.0, math.pi, 0.0), (-1.2, 1.2, 1.2)])
    def test_zoom_brackets_the_minimum(self, lo, hi, x0):
        # interior and end-point minima of a smooth function, to the 1e-12 bracket
        assert abs(optimize._zoom_minimize(lambda x: (x - x0) ** 2, lo, hi) - x0) <= 1e-12

    def test_rate_at_minimum(self):
        res = scan_optimal_state(0.4)
        direct = decoherence_rate_pure(optimal_gamma(0.4), 0.4)
        assert res.rate == pytest.approx(direct, abs=1e-10)


class TestCouplingOverlap:
    def test_equal_couplings(self):
        assert coupling_overlap(1.3, 1.3) == pytest.approx(1.0)

    def test_decoupled_qubit(self):
        assert coupling_overlap(1.0, 0.0) == 0.0

    def test_zero_rejected(self):
        with pytest.raises(CouplingError):
            coupling_overlap(0.0, 0.0)

    def test_inhomogeneous_identical_profiles(self):
        c = (np.ones(5), np.ones(5))
        assert coupling_overlap(*c) == pytest.approx(1.0)

    def test_nearly_equal_couplings_stay_in_range(self):
        # the quotients round to 1 + 2^-52 and 1 + 2^-51 before clipping
        k_a, k_b = -1.009618183538736, -1.0096181833275484
        assert coupling_overlap(k_a, k_b) == 1.0
        assert coupling_overlap(k_a, -k_b) == -1.0
        assert math.isnan(coupling_overlap(math.inf, 1.0))
        rng = np.random.default_rng(0)
        for _ in range(200):
            a = rng.normal(size=int(rng.integers(1, 50)))
            c = (a, a * (1 + 1e-9 * rng.normal(size=a.size)))
            assert -1.0 <= coupling_overlap(*c) <= 1.0
            assert decoherence_rate_inhomogeneous(1.0, *c, 1.0) >= -1e-15

    def test_inhomogeneous_all_zero_rejected(self):
        with pytest.raises(CouplingError):
            coupling_overlap(np.zeros(3), np.zeros(3))

    def test_one_nucleus_arrays_match_the_scalar_call(self):
        rng = np.random.default_rng(5)
        scales = rng.choice([1e-150, 1e-3, 1.0, 1e3, 1e150], size=(500, 1))
        for k_a, k_b in rng.normal(size=(500, 2)) * scales:
            one = coupling_overlap(np.array([k_a]), np.array([k_b]))
            assert same_bits(np.float64(one), np.float64(coupling_overlap(float(k_a), float(k_b))))

    @pytest.mark.parametrize("k_a, k_b", [(np.ones(3), np.ones(4)), (np.ones(3), 1.0),
                                          (np.ones((2, 3)), np.ones((2, 3))), (np.ones((1, 1)), 1.0)],
                             ids=["lengths", "array-scalar", "2-d", "2-d-scalar"])
    def test_arrays_must_match_and_be_1d(self, k_a, k_b):
        with pytest.raises(CouplingError, match="matching 1-d arrays"):
            coupling_overlap(k_a, k_b)
        with pytest.raises(CouplingError, match="matching 1-d arrays"):
            decoherence_rate_inhomogeneous(0.5, k_a, k_b, 1.0)

    @pytest.mark.parametrize("k_a, k_b", [(1e200, 1e200), (np.array([1.0, 1e200]), np.ones(2)),
                                          (np.full(2, 1e154), np.full(2, 1e154))])
    def test_overflowing_sums_raise(self, k_a, k_b):
        with pytest.raises(FloatingPointError):
            coupling_overlap(k_a, k_b)


class TestGaussianDotCouplings:
    def test_coincident_dots(self):
        c = gaussian_dot_couplings(0.0, 2.0, half_extent=12.0, spacing=0.5)
        assert coupling_overlap(*c) == pytest.approx(1.0, abs=1e-12)

    def test_distant_dots(self):
        c = gaussian_dot_couplings(20.0, 2.0, half_extent=21.0, spacing=0.5)
        assert coupling_overlap(*c) < 1e-10

    def test_separation_equal_to_width(self):
        # frozen fixture: the lattice sum reproduces exp(-1/2) = 0.6065...,
        # inside the 0.6 +- 0.05 target window
        c = gaussian_dot_couplings(6.0, 6.0, spacing=1.0)
        overlap = coupling_overlap(*c)
        assert overlap == pytest.approx(0.6065306597, abs=1e-6)
        assert abs(overlap - 0.6) < 0.05

    def test_coverage_error(self):
        with pytest.raises(CouplingError, match="cover"):
            gaussian_dot_couplings(4.0, 2.0, half_extent=5.0)


def inhomogeneous_rate_reference(gamma: complex, couplings: tuple, moment: float) -> float:
    """The inhomogeneous rate with its own copy of the gamma-family bracket, in Python scalars."""
    k_a, k_b = couplings
    big_delta = 2.0 * float(np.sum(k_a * k_b)) / float(np.sum(k_a**2 + k_b**2))
    scale = moment * float(np.sum(k_a**2 + k_b**2)) / k_a.size / 3.0
    mod_sq = abs(gamma) ** 2
    return scale * (
        1.0
        + 2.0 * mod_sq * (1.0 - big_delta) / (1.0 + mod_sq) ** 2
        - 2.0 * big_delta * gamma.real / (1.0 + mod_sq)
    )


class TestInhomogeneousRate:
    def test_matches_reference_bracket(self):
        rng = np.random.default_rng(7)
        for _ in range(2000):
            n = int(rng.integers(1, 9))
            c = (rng.normal(size=n), rng.normal(size=n))
            gamma = complex(*rng.normal(size=2) * rng.choice([0.1, 1.0, 10.0]))
            moment = rng.uniform(0.5, 100.0)
            rate = decoherence_rate_inhomogeneous(gamma, *c, moment)
            assert isinstance(rate, float)
            assert rate == pytest.approx(inhomogeneous_rate_reference(gamma, c, moment), rel=1e-14)

    def test_homogeneous_reduction(self):
        c = (np.full(6, 1.0), np.full(6, 0.5))
        moment = 4.5  # any bath second moment
        delta = coupling_overlap(1.0, 0.5)
        for gamma in (0.0, 0.3, -0.8, 1.0):
            scale = moment * (1.0 + 0.25) / 3
            closed = decoherence_rate_pure(gamma, delta, scale)
            inhom = decoherence_rate_inhomogeneous(gamma, *c, moment)
            assert inhom == pytest.approx(closed, rel=1e-12)

    def test_optimal_gamma_minimizes(self):
        c = gaussian_dot_couplings(6.0, 6.0, spacing=1.0)
        overlap = coupling_overlap(*c)
        best = optimal_gamma(overlap)
        rate_best = decoherence_rate_inhomogeneous(best, *c, 3.0)
        for gamma in np.linspace(-1.5, 1.5, 61):
            rate = decoherence_rate_inhomogeneous(float(gamma), *c, 3.0)
            assert rate_best <= rate + 1e-12

    def test_perfect_overlap_singlet_rate_vanishes(self):
        c = (np.ones(4), np.ones(4))
        assert decoherence_rate_inhomogeneous(1.0, *c, 5.0) == pytest.approx(0.0, abs=1e-14)


class TestRateAgainstExactDynamics:
    def test_gaussian_fit_of_exact_decay(self):
        # ten random (state, system) pairs: the quadratic decay constant fitted
        # from the exact evolution matches the variance-form rate within 2%
        from spinbath.common import apply_channel, channel_functions
        from spinbath.states import decoherence_measure, state_from_vector

        rng = np.random.default_rng(21)
        for _ in range(10):
            s0 = state_from_vector(rng.normal(size=4) + 1j * rng.normal(size=4))
            sys = CommonBathSystem(
                rng.uniform(0.5, 2.0),
                rng.uniform(0.2, 2.0),
                rng.uniform(0.0, 1.0),
                unpolarized_exact(int(rng.integers(4, 9))),
            )
            rate = decoherence_rate_general(s0, sys)
            tau = 1.0 / math.sqrt(rate)
            ts = np.linspace(0.0, 0.1 * tau, 20)[1:]
            d = np.array(
                [decoherence_measure(s) for s in apply_channel(channel_functions(sys, ts), s0)]
            )
            x, y = ts**2, -np.log1p(-d)
            fitted = float(x @ y) / float(x @ x)
            assert fitted == pytest.approx(rate, rel=0.02)


class TestNamedCurveOrdering:
    def test_separable_beats_bells_below_one_third(self):
        deltas = np.linspace(-1, 1, 201)
        for delta in deltas:
            sep = decoherence_rate_pure(0.0, delta)
            sing = decoherence_rate_pure(1.0, delta)
            trip = decoherence_rate_pure(-1.0, delta)
            opt = decoherence_rate_pure(optimal_gamma(delta), delta)
            assert opt <= sep + 1e-12
            assert opt <= sing + 1e-12
            assert opt <= trip + 1e-12
            if -1 < delta < 1 / 3 - 0.011:
                # strict away from the endpoints; at delta = -1 the triplet
                # and separable rates coincide exactly
                assert sep < min(sing, trip)
            elif delta > 1 / 3 + 0.011:
                assert min(sing, trip) < sep
