import functools
import math

import numpy as np
import pytest

from spinbath.bath import (
    MAX_SPINS,
    BathDistribution,
    BathSpecError,
    bath_from_config,
    delta_distribution,
    gaussian_approx,
    spin_grid,
    unpolarized_exact,
)


@functools.cache
def primes_to(n: int) -> tuple[int, ...]:
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    return tuple(np.flatnonzero(sieve).tolist())


def binomial(n: int, k: int) -> int:
    """C(n, k) as its product of prime powers (Legendre's formula).

    math.comb gives the same integers, but takes seconds for each C(10^6, ~5 10^5) on CPython 3.11.
    """
    if not 0 <= k <= n:
        return 0

    def legendre(m: int, p: int) -> int:  # the power of p in m!
        e = 0
        while m:
            m //= p
            e += m
        return e

    powers = [p ** (legendre(n, p) - legendre(k, p) - legendre(n - k, p)) for p in primes_to(n)]
    while len(powers) > 1:  # balanced products keep the multiplications fast
        powers = [math.prod(powers[j:j + 2]) for j in range(0, len(powers), 2)]
    return powers[0] if powers else 1


def sector_multiplicity(n: int, i: float) -> int:
    """Number of spin-i irreducible blocks in (1/2)^{(x)n}: C(n, k) - C(n, k - 1), k = n/2 - i."""
    k = n // 2 - int(round(i - 0.5 * (n % 2)))
    return binomial(n, k) - binomial(n, k - 1)


def sector_dimension(n: int, i: float) -> int:
    """d_n(i) (2i+1): the unpolarized bath's weight on sector i is this over 2^n."""
    return sector_multiplicity(n, i) * int(round(2 * i + 1))


class TestExactDistribution:
    def test_single_spin(self):
        d = unpolarized_exact(1)
        assert d.spins.tolist() == [0.5]
        assert d.weights.tolist() == [1.0]

    def test_two_spins(self):
        d = unpolarized_exact(2)
        assert d.spins.tolist() == [0.0, 1.0]
        assert np.allclose(d.weights, [0.25, 0.75])

    def test_four_spins(self):
        # multiplicities 2, 3, 1 for I = 0, 1, 2
        d = unpolarized_exact(4)
        assert d.weights.tolist() == [2 / 16, 9 / 16, 5 / 16]
        assert sector_multiplicity(4, 0) == 2
        assert sector_multiplicity(4, 1) == 3
        assert sector_multiplicity(4, 2) == 1

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 1000])
    def test_binomial_matches_math_comb(self, n):
        assert [binomial(n, k) for k in range(n + 1)] == [math.comb(n, k) for k in range(n + 1)]

    @pytest.mark.parametrize("n", range(1, 31))
    def test_dimension_count(self, n):
        assert sum(sector_dimension(n, i) for i in spin_grid(n)) == 2**n

    @pytest.mark.parametrize("n", range(1, 65))
    def test_every_sector_matches_integer_weights(self, n):
        # up to n = 53 each weight k / 2^n is a double, and the ratio recursion lands on it
        d = unpolarized_exact(n)
        reference = np.array([sector_dimension(n, i) / 2**n for i in spin_grid(n)])  # correctly rounded
        if n <= 53:
            assert d.weights.tolist() == reference.tolist()
        else:
            np.testing.assert_allclose(d.weights, reference, rtol=5e-15, atol=0.0)

    @pytest.mark.parametrize("n", [10**4, MAX_SPINS])
    def test_spot_sectors_match_integer_weights(self, n):
        d = unpolarized_exact(n)
        kept = d.significant_sectors()[0]
        for i in {1.0, 100.0, float(d.spins[np.argmax(d.weights)]), float(kept[-1])}:
            # weight - m / 2^n over m / 2^n, in integers: weight = num / den with den a power of 2
            m = sector_dimension(n, i)
            num, den = float(d.weights[np.searchsorted(d.spins, i)]).as_integer_ratio()
            assert abs(((num << n) - m * den) / (m * den)) <= 5e-14, i

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 10, 25, 64, 10**3, 10**4, MAX_SPINS])
    def test_casimir_moment_is_three_quarters_n(self, n):
        # <(sum I_i)^2> = 3n/4 for uncorrelated maximally mixed spins
        d = unpolarized_exact(n)
        assert d.weights.sum() == pytest.approx(1.0, rel=1e-12)
        assert d.casimir_moment() == pytest.approx(0.75 * n, rel=1e-12, abs=1e-10)

    def test_range_check(self):
        with pytest.raises(BathSpecError):
            unpolarized_exact(0)
        with pytest.raises(BathSpecError):
            unpolarized_exact(MAX_SPINS + 1)


class TestGaussianApprox:
    @pytest.mark.parametrize("n", [2, 9, 40, 100])
    @pytest.mark.parametrize("variant", ["narrow", "wide"])
    def test_normalized_nonnegative(self, n, variant):
        d = gaussian_approx(n, variant)
        assert np.all(d.weights >= 0)
        assert d.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_narrow_second_moment_matches_quadrature(self):
        # independent oracle: ratio of the continuum integrals
        # int I^4 exp(-2I^2/N) / int I^2 exp(-2I^2/N) = 3N/4
        n = 400
        grid = np.linspace(0, n, 200001)
        w = grid**2 * np.exp(-2 * grid**2 / n)
        continuum = np.trapezoid(w * grid**2, grid) / np.trapezoid(w, grid)
        assert continuum == pytest.approx(3 * n / 4, rel=1e-6)
        d = gaussian_approx(n, "narrow")
        discrete = float(np.sum(d.weights * d.spins**2))
        assert discrete == pytest.approx(continuum, rel=0.02)

    def test_narrow_mode_location(self):
        # d/dI [I^2 exp(-2I^2/N)] = 0 at I = sqrt(N/2)
        d = gaussian_approx(100, "narrow")
        mode = d.spins[np.argmax(d.weights)]
        assert abs(mode - math.sqrt(50)) <= 1.0

    def test_wide_is_wider(self):
        wide, narrow = gaussian_approx(64, "wide"), gaussian_approx(64, "narrow")
        assert np.sum(wide.weights * wide.spins**2) > np.sum(narrow.weights * narrow.spins**2)

    def test_bad_variant(self):
        with pytest.raises(BathSpecError):
            gaussian_approx(10, "medium")


class TestMoments:
    def test_casimir_two_spins(self):
        # 0 * 1/4 + 1*2 * 3/4
        assert unpolarized_exact(2).casimir_moment() == pytest.approx(1.5)

    def test_delta_distribution(self):
        assert delta_distribution(2.5).casimir_moment() == 2.5 * 3.5
        with pytest.raises(BathSpecError):
            delta_distribution(0.3)

    def test_narrow_100_fixture(self):
        # frozen reference values used by the timescale checks
        d = gaussian_approx(100, "narrow")
        assert np.sum(d.weights * d.spins**2) == pytest.approx(75.0, abs=1e-9)
        assert d.casimir_moment() == pytest.approx(82.97889931231069, abs=1e-9)


class TestConstructionAndConfig:
    def test_rejects_unnormalized(self):
        with pytest.raises(BathSpecError, match="sum to 1"):
            BathDistribution(np.array([0.5]), np.array([0.7]))

    def test_rejects_unsorted(self):
        with pytest.raises(BathSpecError, match="ascending"):
            BathDistribution(np.array([1.0, 0.0]), np.array([0.5, 0.5]))

    def test_rejects_negative_weights(self):
        with pytest.raises(BathSpecError, match="nonnegative"):
            BathDistribution(np.array([0.0, 1.0]), np.array([1.5, -0.5]))

    def test_from_config(self):
        d = bath_from_config("exact", 4)
        assert d.n_spins == 4
        d = bath_from_config("gaussian-narrow", 10)
        assert d.weights.sum() == pytest.approx(1.0)
        with pytest.raises(BathSpecError, match="unknown bath kind"):
            bath_from_config("flat", 4)
