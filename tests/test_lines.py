"""Line spectra: the one evaluator, the closed forms moved onto it and the sector-weight
cut, each against the per-sector path it replaced, and equal couplings against the bath
sector as a single spin I."""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from spinbath import bath as bath_module
from spinbath import common, separate
from spinbath.bath import gaussian_approx, unpolarized_exact
from spinbath.cli import main
from spinbath.common import (CommonBathSystem, SectorExactEvolver, apply_channel, evaluate_lines,
                             singlet_survival)
from spinbath.separate import SeparateBathSystem, decay_factors
from spinbath.states import density_to_state, make_named_state, state_to_density
from spinbath.timeseries import read_csv

from test_common import random_density, spin_i_evolve

TIMES = np.linspace(0.0, 6.0, 37)

BATHS = {
    "gaussian-narrow-100": gaussian_approx(100, "narrow"),
    "gaussian-narrow-200": gaussian_approx(200, "narrow"),
    "gaussian-narrow-300": gaussian_approx(300, "narrow"),
    "exact-9": unpolarized_exact(9),
    "exact-10": unpolarized_exact(10),
}

# equal couplings (k, j): fig2's strong exchange, k = 0, j = 0, a negative k
SYMMETRIC = {"fig2": (1.0, 200.0), "k-zero": (0.0, 3.0), "j-zero": (1.3, 0.0),
             "k-negative": (-0.7, 2.5)}


def per_sector_survival(system, times):
    """Reference: the singlet survival summed sector by sector."""
    out = np.zeros(times.size)
    for i, w in zip(system.bath.spins, system.bath.weights):
        # the F = I block's levels h +- g, its mixing angle phi
        (_, _, l3, l4), phi = common._sector_levels(system, i)
        s2 = np.sin(0.5 * (l3 - l4) * times) ** 2
        out += w * (1.0 - s2 + np.cos(2.0 * phi) ** 2 * s2)
    return out


def per_sector_vector_decay(k, bath, t):
    """Reference: the one-qubit Bloch-vector decay summed sector by sector."""
    out = np.zeros_like(t)
    for i, w in zip(bath.spins, bath.weights):
        if k == 0.0 or i == 0.0:
            out += w
            continue
        lam = k * (i + 0.5) / 2.0
        s2 = np.sin(lam * t) ** 2
        p2 = np.cos(lam * t) ** 2 + (k / (4.0 * lam)) ** 2 * s2
        q2 = (k / lam) ** 2 * s2
        out += w * (p2 - i * (i + 1.0) * q2 / 12.0)
    return out


def spy_products(monkeypatch) -> list[int]:
    """The multiply-adds of each product ``evaluate_lines`` forms from here on."""
    products = []

    class SpyingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def matmul(self, a, b):
            products.append(a.shape[0] * a.shape[1] * b.shape[1])
            return np.matmul(a, b)

    monkeypatch.setattr(common, "np", SpyingNumpy())
    return products


def direct_line_sum(amp_plus, amp_minus, omega, times):
    phase = np.exp(-1j * np.multiply.outer(omega, times))
    return np.tensordot(amp_plus, phase, 1) + np.tensordot(amp_minus, phase.conj(), 1)


class TestEvaluateLines:
    rng = np.random.default_rng(7)
    omega = np.concatenate([[0.0, -2.5], rng.uniform(-40.0, 40.0, 23)])
    amp_plus = rng.normal(size=(3, 25)) + 1j * rng.normal(size=(3, 25))
    amp_minus = rng.normal(size=(3, 25)) + 1j * rng.normal(size=(3, 25))

    # operands of _PHASE_BLOCK reals in the regime above _SMALL_SUM, products of
    # _SMALL_PRODUCT multiply-adds below it; a limit of 1 takes one line and one block per pass
    @pytest.mark.parametrize("limit, value", [(None, None), ("_PHASE_BLOCK", 1), ("_PHASE_BLOCK", 25),
                                              ("_PHASE_BLOCK", 7 * 25), ("_SMALL_PRODUCT", 1),
                                              ("_SMALL_PRODUCT", 6 * 10 * 6 * 3)])
    def test_matches_direct_sum(self, limit, value, monkeypatch):
        if limit == "_PHASE_BLOCK":
            monkeypatch.setattr(common, "_SMALL_SUM", 0)
        if limit is not None:
            monkeypatch.setattr(common, limit, value)
        got = evaluate_lines(self.amp_plus, self.amp_minus, self.omega, TIMES)
        want = direct_line_sum(self.amp_plus, self.amp_minus, self.omega, TIMES)
        assert got.shape == (3, TIMES.size)
        assert np.abs(got - want).max() < 1e-12

    def test_real_cosine_pairs_are_real(self):
        a = self.amp_plus.real
        got = evaluate_lines(a, a, self.omega, TIMES)
        assert np.array_equal(got.imag, np.zeros_like(got.imag))
        assert np.abs(got.real - 2.0 * a @ np.cos(np.outer(self.omega, TIMES))).max() < 1e-12

    def assert_matches(self, t, tol=1e-12):
        got = evaluate_lines(self.amp_plus, self.amp_minus, self.omega, t)
        want = direct_line_sum(self.amp_plus, self.amp_minus, self.omega, t)
        assert got.shape == (3, t.size)
        assert np.abs(got - want).max() < tol

    _draws = np.random.default_rng(3).uniform(0.0, 6.0, 50)
    NON_AFFINE = {"sorted-random": np.sort(_draws), "decreasing-random": np.sort(_draws)[::-1],
                  "repeated": np.repeat(np.linspace(0.0, 6.0, 20), 2)}

    @pytest.mark.parametrize("grid", list(NON_AFFINE))
    def test_non_affine_grid_is_one_block(self, grid):
        t = self.NON_AFFINE[grid]
        assert common._grid_split(t) == (0.0, None, 0.0, t.size)
        self.assert_matches(t)

    # below 16 samples one block; 97 is prime, so its last block is partial
    @pytest.mark.parametrize("n, blocks", [(15, 1), (16, 4), (17, 5), (97, 11)])
    def test_affine_grid_blocks(self, n, blocks):
        t = np.linspace(0.0, 6.0, n)
        t0, step, lo, offsets = common._grid_split(t)
        if blocks == 1:
            assert (t0, step, lo, offsets) == (0.0, None, 0.0, n)
        else:
            assert (t0, step, offsets) == (0.0, 6.0 / (n - 1), math.isqrt(n))
            # lo is the rounding of step: step + lo is 6 / (n - 1) to twice double precision
            assert abs(Fraction(step) + Fraction(lo) - Fraction(6, n - 1)) < 1e-30
        assert -(-n // offsets) == blocks
        self.assert_matches(t)
        self.assert_matches(t[::-1].copy())

    def test_grid_to_the_largest_double(self):
        # the step's residual is exact however large the step, and a constant line stays
        # constant up to t = 1e308
        t = np.linspace(0.0, 1e308, 40)
        _, step, lo, _ = common._grid_split(t)
        assert abs(Fraction(step) + Fraction(lo) - Fraction(1e308) / 39) <= np.spacing(abs(lo))
        got = evaluate_lines(np.ones((1, 1)), np.ones((1, 1)), np.zeros(1), t)
        assert np.array_equal(got, np.full((1, t.size), 2.0 + 0j))
        # lines whose phases |w| t pass 1 / eps: the residual's correction keeps the phase
        # tables on the unit circle, so the sum stays within the sum of its amplitudes
        amp = np.array([[0.5, 0.25]])
        for t_max in (1e16, 1e20, 1e150, 1e300):
            got = evaluate_lines(amp, amp, np.array([1.0, 3.7]), np.linspace(0.0, t_max, 40))
            assert np.all(np.isfinite(got)) and np.abs(got).max() <= 1.5, t_max

    def test_large_start_time(self):
        # the phases w t reach 4e5 and carry rounding of ~ulp(w t) = 6e-11 in
        # the direct sum itself, so the bound is the conditioning of the sum:
        # |w| times a few ulp of t, weighted by the line amplitudes
        t = np.linspace(1e4, 1e4 + 6.0, 37)
        assert common._grid_split(t)[::3] == (1e4, 6)
        weight = (np.abs(self.amp_plus) + np.abs(self.amp_minus)) @ np.abs(self.omega)
        self.assert_matches(t, tol=4.0 * np.spacing(t.max()) * weight.max())

    # 111 blocks of 109 offsets, the last block partial. A sum above _SMALL_SUM takes
    # operands of at most _PHASE_BLOCK reals: the 25 lines in slices of 4 (the last of 1)
    # at every offset, 20 blocks per pass. A smaller one takes products of at most
    # _SMALL_PRODUCT multiply-adds: slices of 3 lines (the last of 1), one block per pass
    @pytest.mark.parametrize("limit, value, product", [("_PHASE_BLOCK", 40 * 25, 20 * 6 * 8 * 109),
                                                       ("_SMALL_PRODUCT", 6 * 6 * 109, None)])
    def test_long_grid_in_small_passes(self, limit, value, product, monkeypatch):
        monkeypatch.setattr(common, limit, value)
        if limit == "_PHASE_BLOCK":
            monkeypatch.setattr(common, "_SMALL_SUM", 0)
        t = np.linspace(0.0, 6.0, 12000)
        assert common._grid_split(t)[3] == 109
        products = spy_products(monkeypatch)
        self.assert_matches(t)
        assert max(products) == (product or value)

    @pytest.mark.parametrize("small_sum", [0, 1 << 40])
    def test_phase_tables_by_doubling(self, small_sum, monkeypatch):
        # the 111 base and 109 offset phases of each line come from doubling tables:
        # ceil(log2 109) + ceil(log2 111) + 1 (the start time) complex exponentials per
        # line, in either pass regime and with the lines split over several passes, and
        # not one cos or sin
        monkeypatch.setattr(common, "_SMALL_SUM", small_sum)
        monkeypatch.setattr(common, "_PHASE_BLOCK", 2 * 10 * 109)
        monkeypatch.setattr(common, "_SMALL_PRODUCT", 4 * 6 * 10 * 109)
        t = np.linspace(0.5, 6.0, 12000)
        formed = []

        class CountingNumpy:
            def __getattr__(self, name):
                assert name not in ("cos", "sin")
                return getattr(np, name)

            def exp(self, x):
                if np.iscomplexobj(x):
                    formed.append(x.size)
                return np.exp(x)

        monkeypatch.setattr(common, "np", CountingNumpy())
        got = evaluate_lines(self.amp_plus, self.amp_minus, self.omega, t)
        monkeypatch.undo()
        assert sum(formed) == 25 * (7 + 7 + 1)
        assert np.abs(got - direct_line_sum(self.amp_plus, self.amp_minus, self.omega, t)).max() < 1e-12

    def test_any_amplitude_layout(self):
        # column-major amplitudes, as fancy indexing hands them over, and strided ones
        want = direct_line_sum(self.amp_plus, self.amp_minus, self.omega, TIMES)
        for plus, minus in [(np.asfortranarray(self.amp_plus), np.asfortranarray(self.amp_minus)),
                            (self.amp_plus, np.repeat(self.amp_minus, 2, axis=1)[:, ::2])]:
            got = evaluate_lines(plus, minus, self.omega, TIMES)
            assert np.abs(got - want).max() < 1e-12

    def test_zero_d_and_nd_times(self):
        scalar = evaluate_lines(self.amp_plus, self.amp_minus, self.omega, 1.7)
        assert scalar.shape == (3,)
        want = direct_line_sum(self.amp_plus, self.amp_minus, self.omega, 1.7)
        assert np.abs(scalar - want).max() < 1e-12
        grid = TIMES[:36].reshape(4, 9)
        got = evaluate_lines(self.amp_plus, self.amp_minus, self.omega, grid)
        assert got.shape == (3, 4, 9)
        assert np.abs(got.reshape(3, -1) - evaluate_lines(
            self.amp_plus, self.amp_minus, self.omega, TIMES[:36])).max() == 0.0


def long_double_line_sum(amp_plus, amp_minus, omega, times):
    """The direct sum in long double: (real, imaginary) parts, each (n_obs, times)."""
    phase = np.multiply.outer(omega.astype(np.longdouble), times)
    total, diff = (amp_plus.astype(np.clongdouble) + sign * amp_minus for sign in (1, -1))
    # a+ e^{-i w t} + a- e^{i w t} = (a+ + a-) cos wt - i (a+ - a-) sin wt
    parts = (np.vstack([total.real, total.imag]) @ np.cos(phase)
             + np.vstack([diff.imag, -diff.real]) @ np.sin(phase))
    return np.split(parts, 2)


def channel_errors(system, t_max, samples, picks):
    """The largest error of the channel's eight functions at each of the ``picks`` of the grid
    of ``samples`` times over [0, t_max], against a long-double direct sum at the grid's exact
    times k t_max / (samples - 1). (The float64 samples round those by up to half an ulp, which
    alone moves a line at |w| ~ 230 by ~1e-13 at t ~ 6: the conditioning of the samples,
    not of the sum.)"""
    lines = common._channel_lines(system)
    got = common._channel_functions(lines, np.linspace(0.0, t_max, samples))
    exact = picks.astype(np.longdouble) * (np.longdouble(t_max) / (samples - 1))
    real, imag = long_double_line_sum(*lines, exact)
    want = [f for row in zip(real, imag) for f in row]
    return np.max([np.abs(f[picks].astype(np.longdouble) - w) for f, w in zip(got, want)], axis=0).astype(float)


class TestAccuracy:
    # fig2 of the figures benchmark workload at seeds 0-4: (k, J) on N = 100, 12000 samples
    # over [0, 6], so J t reaches 1400. With a base and an offset exponential per line and
    # sample block the functions erred by up to 2.0e-13 over the grid (seed 2); with the
    # doubling tables by at most 5.9e-14
    FIG2 = [(1.137769, 201.127472), (0.853746, 199.543509), (1.182414, 233.549888),
            (0.895186, 212.57203), (0.894419, 156.65151)]
    PICKS = np.unique(np.r_[np.linspace(0, 11999, 97).astype(int), np.arange(11984, 12000)])

    # the first revival, t = 2 pi / k, of fig2's seed 0 and of the N = 10^6 sum below (k = 1.2),
    # where all lines rephase and the doubling times' rounding shows most: with each doubling
    # time a single float the functions erred there by 5.9e-14 and 9.5e-14, with its residual
    # carried along by 1.7e-14 and 2.1e-14, so these windows are held to REVIVAL_TOL
    REVIVAL_FIG2, REVIVAL_MILLION = np.arange(11010, 11075), np.arange(10440, 10505)
    REVIVAL_TOL = 5e-14

    @pytest.mark.parametrize("seed", range(5))
    def test_fig2_channel(self, seed):
        k, j = self.FIG2[seed]
        picks = np.union1d(self.PICKS, self.REVIVAL_FIG2) if seed == 0 else self.PICKS
        err = channel_errors(CommonBathSystem(k, k, j, BATHS["gaussian-narrow-100"]), 6.0, 12000, picks)
        assert err.max() < 1e-13
        assert err[np.isin(picks, self.REVIVAL_FIG2)].max(initial=0.0) < self.REVIVAL_TOL

    def test_million_spins(self, million):
        # the large-work regime: 24967 lines at 12000 samples
        picks = np.union1d(self.PICKS, self.REVIVAL_MILLION)
        err = channel_errors(million, 6.0, 12000, picks)
        assert err.max() < 1e-13
        assert err[np.isin(picks, self.REVIVAL_MILLION)].max() < self.REVIVAL_TOL


@pytest.fixture(scope="module")
def million():
    return CommonBathSystem(1.2, 0.8, 20.0, gaussian_approx(10**6, "narrow"))


class TestPassSizes:
    """Sums up to _SMALL_SUM multiply-adds, every CLI default among them, run in products
    that OpenBLAS keeps on the calling thread; larger ones use every core."""

    # the large-bath benchmark workload's ops at seed 0, and fig2 and fig3 of figures
    RUNS = {
        "large-bath-common-asymmetric": "common-asymmetric\nn_bath = 200\nk_a = 1.2\nk_b = 0.7\n"
                                        "j = 20.0\nstate = r_state:0.5\nsamples = 200",
        "large-bath-common-symmetric": "common-symmetric\nn_bath = 200\nk_a = 1.0\nk_b = 1.0\n"
                                       "j = 6.0\nstate = up_down\nsamples = 200",
        "large-bath-separate": "separate\nn_bath = 1000\nk_a = 1.2\nk_b = 0.7\nj = 0.0\n"
                               "state = r_state:0.5\nsamples = 200",
        "fig2": "fig2\nk_a = 1.18\nk_b = 1.18\nj = 233.5\nsamples = 12000",
        "fig3": "fig3\nk_a = 1.1\nk_b = 1.1\nj = 7.0\nsamples = 600",
    }

    @pytest.mark.parametrize("run", list(RUNS))
    def test_cli_products_stay_small(self, run, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"scenario = {self.RUNS[run]}\nbath = gaussian-narrow\noutput = {tmp_path / 'o.csv'}\n")
        products = spy_products(monkeypatch)
        assert main(["run", str(cfg)]) == 0
        assert products and max(products) <= common._SMALL_PRODUCT == 1 << 19

    def test_million_spins_use_larger_products(self, million, monkeypatch):
        products = spy_products(monkeypatch)
        common._channel_functions(common._channel_lines(million), np.linspace(0.0, 6.0, 12000))
        assert max(products) > 16 * common._SMALL_PRODUCT


@lru_cache(maxsize=None)
def equal_couplings_reference(bath, couplings):
    """Random states of rank 1 and 4 and their evolution by the reference, for a key of BATHS
    and one of SYMMETRIC."""
    k, j = SYMMETRIC[couplings]
    rng = np.random.default_rng(len(bath) + len(couplings))
    rho = np.stack([random_density(rng, 1), random_density(rng, 4)])
    return rho, spin_i_evolve(CommonBathSystem(k, k, j, BATHS[bath]), rho, TIMES)


class TestEqualCouplings:
    @pytest.mark.parametrize("chunked", [False, True])
    @pytest.mark.parametrize("rank", [1, 4])
    @pytest.mark.parametrize("couplings", list(SYMMETRIC))
    @pytest.mark.parametrize("bath", list(BATHS))
    def test_matches_spin_i_reference(self, bath, couplings, rank, chunked, monkeypatch):
        # k_a = k_b on many sectors against the bath sector as a single spin I, in one
        # slice of the line sum or, chunked, in slices of 2 s of the 6 s + 1 lines of s
        # kept sectors at the 6 offsets of the 37 samples, the last slice one line
        k, j = SYMMETRIC[couplings]
        system = CommonBathSystem(k, k, j, BATHS[bath])
        rho, want = (x[{1: 0, 4: 1}[rank]] for x in equal_couplings_reference(bath, couplings))
        if chunked:
            sectors = system.bath.significant_sectors()[0].size
            monkeypatch.setattr(common, "_SMALL_PRODUCT", 8 * 2 * 2 * sectors * 6)
        got = state_to_density(SectorExactEvolver(system).evolve(density_to_state(rho), TIMES))
        assert np.abs(got - want).max() < 1e-12


class TestClosedFormsOnLines:
    @pytest.mark.parametrize("couplings", [(1.2, 0.8, 20.0), (1.0, 1.0, 5.0), (0.0, 0.0, 2.0),
                                           (-0.9, 0.5, 3.0), (0.7, 0.3, 0.0)])
    @pytest.mark.parametrize("bath", list(BATHS))
    def test_singlet_survival(self, bath, couplings):
        system = CommonBathSystem(*couplings, BATHS[bath])
        got = singlet_survival(system, TIMES)
        assert np.abs(got - per_sector_survival(system, TIMES)).max() < 1e-12

    @pytest.mark.parametrize("k", [1.0, 0.0, -1.3, 2.7])
    @pytest.mark.parametrize("bath", list(BATHS) + ["gaussian-narrow-1000"])
    def test_vector_decay(self, bath, k):
        b = BATHS.get(bath) or gaussian_approx(1000, "narrow")
        system = SeparateBathSystem(k, 0.5 * k, b, b)
        want = per_sector_vector_decay(k, b, TIMES)
        g_a, g_b = decay_factors(system, TIMES)[:2]
        assert np.abs(g_a - want).max() < 1e-12
        assert np.abs(g_b - per_sector_vector_decay(0.5 * k, b, TIMES)).max() < 1e-12
        scalar = decay_factors(system, TIMES[5])
        assert all(f.shape == (1,) for f in scalar)
        assert abs(scalar[0][0] - want[5]) < 1e-12

    @pytest.mark.parametrize("k_b, bath_b", [(1.3, "same"), (0.7, "same"), (1.3, "copy"), (1.3, "other")])
    def test_one_line_sum_per_call(self, k_b, bath_b, monkeypatch):
        # both qubits in one evaluate_lines call, g_a + i g_b over both line sets; one line
        # set when the couplings are equal and the bath is one object
        b = gaussian_approx(300, "narrow")
        other = {"same": b, "copy": gaussian_approx(300, "narrow"), "other": unpolarized_exact(9)}[bath_b]
        system = SeparateBathSystem(1.3, k_b, b, other)
        calls = []

        def counting(amp_plus, amp_minus, omega, times):
            calls.append(omega.size)
            return evaluate_lines(amp_plus, amp_minus, omega, times)

        monkeypatch.setattr(separate, "evaluate_lines", counting)
        g_a, g_b, c, d, e, g, f0, f2 = decay_factors(system, TIMES)
        one = b.significant_sectors()[0].size + 1
        assert calls == [one if k_b == 1.3 and bath_b == "same" else one + other.significant_sectors()[0].size + 1]
        assert np.abs(g_a - per_sector_vector_decay(1.3, b, TIMES)).max() < 1e-12
        assert np.abs(g_b - per_sector_vector_decay(k_b, other, TIMES)).max() < 1e-12
        # the channel of private baths: (g_a, g_b, 0, 0, 0, g, g, g) with g = g_a g_b
        assert not (c.any() or d.any() or e.any())
        assert np.array_equal(g, g_a * g_b) and np.array_equal(f0, g) and np.array_equal(f2, g)


class TestWeightCut:
    @pytest.mark.parametrize("n", [100, 1000, 10000])
    def test_dropped_weight_is_the_light_tail(self, n):
        b = gaussian_approx(n, "narrow")
        spins, weights, dropped = b.significant_sectors()
        light = b.weights < 1e-16
        assert bath_module.SECTOR_WEIGHT_CUT == 1e-16
        assert dropped == pytest.approx(b.weights[light].sum(), rel=1e-12, abs=0.0)
        assert np.array_equal(spins, b.spins[~light])
        assert np.array_equal(weights, b.weights[~light])
        assert light.any()

    @pytest.mark.parametrize("n", range(1, 25))
    def test_exact_baths_drop_nothing(self, n):
        b = unpolarized_exact(n)
        spins, weights, dropped = b.significant_sectors()
        assert dropped == 0.0
        assert np.array_equal(spins, b.spins) and np.array_equal(weights, b.weights)

    @staticmethod
    def outputs(b):
        """Every closed form on bath b, as outputs whose per-sector terms lie in [-1, 1]."""
        out = []
        sym = SectorExactEvolver(CommonBathSystem(0.9, 0.9, 4.0, b))
        for name in ("up_down", "triplet0", "bell_t1"):
            s = sym.evolve(make_named_state(name), TIMES)
            out += [s.p_a.ravel(), s.p_b.ravel(), s.pi.ravel()]
        for name, params in (("r_state", dict(r=0.5)),
                             ("general_pure", dict(gamma=0.3 + 0.4j, theta=1.1, phi=2.3))):
            s = SectorExactEvolver(CommonBathSystem(1.2, 0.8, 20.0, b)).evolve(
                make_named_state(name, **params), TIMES)
            out += [s.p_a.ravel(), s.p_b.ravel(), s.pi.ravel()]
        out.append(singlet_survival(CommonBathSystem(1.2, 0.8, 3.0, b), TIMES))
        sep = SeparateBathSystem(1.1, 0.6, b, b)
        f = decay_factors(sep, TIMES)
        out += f[:2]
        out.append(apply_channel(f, make_named_state("r_state", r=0.4)).p_a.ravel())
        return np.concatenate(out)

    @pytest.mark.parametrize("cut", [1e-16, 1e-8, 1e-3])
    def test_cut_error_bounded_by_dropped_weight(self, cut, monkeypatch):
        b = gaussian_approx(200, "narrow")
        monkeypatch.setattr(bath_module, "SECTOR_WEIGHT_CUT", 0.0)
        uncut = self.outputs(b)
        monkeypatch.setattr(bath_module, "SECTOR_WEIGHT_CUT", cut)
        dropped = b.significant_sectors()[2]
        if cut > 1e-16:
            assert dropped > 1e-9  # a tail heavy enough for the bound to show
        diff = np.abs(self.outputs(b) - uncut).max()
        assert diff <= dropped + 1e-13


@pytest.mark.parametrize("scenario, extra", [
    ("common-symmetric", "k_a = 1.0\nk_b = 1.0\nj = 5.0\nstate = up_down\n"),
    ("common-asymmetric", "k_a = 1.2\nk_b = 0.8\nj = 20.0\nstate = r_state:0.5\n"),
], ids=["common-symmetric", "common-asymmetric"])
def test_ten_thousand_spins_through_cli(tmp_path, scenario, extra):
    out = tmp_path / "out.csv"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"scenario = {scenario}\nn_bath = 10000\nbath = gaussian-narrow\n"
                   f"samples = 800\nt_max = 10.0\n{extra}output = {out}\n")
    assert main(["run", str(cfg)]) == 0
    series = read_csv(out)
    b = gaussian_approx(10000, "narrow")
    assert series.metadata["dropped_sector_weight"] == format(b.significant_sectors()[2], ".3e")
    d = series.column("d")
    assert d.min() >= -1e-12 and d.max() <= 0.75 + 1e-12
    if scenario == "common-asymmetric":
        total = (series.column("singlet_pop") + series.column("triplet0_pop")
                 + 2.0 * series.column("t1t2_pop"))
    else:
        # tensor_direct + tensor_transpose + 3 tensor_trace = f0, the kept weight
        system = CommonBathSystem(1.0, 1.0, 5.0, b)
        total = common._channel_functions(common._channel_lines(system), series.column("t"))[6]
    assert np.abs(total - 1.0).max() < 1e-12


@pytest.mark.parametrize("t_max", [1e16, 1e20, 1e150])
@pytest.mark.parametrize("scenario", ["fig3", "separate\nk_b = 0.7"], ids=["fig3", "separate"])
def test_phases_past_double_precision_through_cli(tmp_path, scenario, t_max):
    # |omega| t_max far past 1 / eps: the phases are noise, but every row is still a state
    out = tmp_path / "out.csv"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"scenario = {scenario}\nt_max = {t_max!r}\noutput = {out}\n")
    assert main(["run", str(cfg)]) == 0
    series = read_csv(out)
    assert np.all(np.isfinite(series.data))
    d = series.column("d_pair" if scenario == "fig3" else "d")
    assert d.min() >= -1e-12 and d.max() <= 0.75 + 1e-12


def test_dense_and_exact_scenarios_record_no_dropped_weight(tmp_path):
    out = tmp_path / "dense.csv"
    cfg = tmp_path / "dense.cfg"
    cfg.write_text(f"scenario = common-asymmetric\nn_bath = 8\nbath = exact\nk_a = 1.0\n"
                   f"k_b = 0.5\nj = 2.0\nstate = bell_t1\nsamples = 5\noutput = {out}\n")
    assert main(["run", str(cfg)]) == 0
    assert read_csv(out).metadata["dropped_sector_weight"] == "0.000e+00"
