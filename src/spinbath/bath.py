"""Distributions of the total bath spin for N unpolarized nuclear spin-1/2.

The initial bath density matrix is block diagonal in the total-spin sectors I,
with weight lambda_I on each sector and no polarization inside a sector. The
completely unpolarized bath (identity/2^N) has exact sector weights

    lambda_I = d_N(I) (2I+1) / 2^N,
    d_N(I) = C(N, N/2 - I) - C(N, N/2 - I - 1),

where d_N(I) counts the multiplicity of spin-I irreducible blocks. The weights
are built from the ratio of neighbouring sectors,

    lambda_{I+1} / lambda_I = (N/2 - I) / (N/2 + I + 2) * ((2I+3) / (2I+1))^2,

as a cumulative sum of its logs: one path, without big integers, for every N
up to MAX_SPINS. Two
Gaussian surrogates lambda_I ~ I^2 exp(-c I^2) on the same discrete grid are
provided: c = 1/(2N) ("wide") and c = 2/N ("narrow"). The narrow variant
reproduces the exact Casimir moment <I(I+1)> = 3N/4 asymptotically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# closed forms skip lighter sectors; the skipped weight bounds their error
SECTOR_WEIGHT_CUT = 1e-16
# N spins give N/2 + 1 sectors, each held in several arrays; validation caps N
MAX_SPINS = 10**6


class BathSpecError(ValueError):
    """Raised for invalid bath-distribution parameters."""


@dataclass(frozen=True)
class BathDistribution:
    """Normalized weights over total bath-spin sectors."""

    spins: np.ndarray
    weights: np.ndarray
    n_spins: int | None = None

    def __post_init__(self):
        spins = np.array(self.spins, dtype=float)
        weights = np.array(self.weights, dtype=float)
        if spins.shape != weights.shape or spins.ndim != 1:
            raise BathSpecError("spins and weights must be matching 1-d arrays")
        if np.any(weights < 0.0):
            raise BathSpecError("weights must be nonnegative")
        if np.any(np.diff(spins) <= 0.0):
            raise BathSpecError("spins must be strictly ascending")
        total = weights.sum()
        if abs(total - 1.0) > 1e-12:
            raise BathSpecError(f"weights must sum to 1 (got {total!r})")
        spins.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "spins", spins)
        object.__setattr__(self, "weights", weights)

    def significant_sectors(self) -> tuple[np.ndarray, np.ndarray, float]:
        """The (spins, weights) of weight >= SECTOR_WEIGHT_CUT, and the weight dropped."""
        keep = self.weights >= SECTOR_WEIGHT_CUT
        return self.spins[keep], self.weights[keep], float(self.weights[~keep].sum())

    def casimir_moment(self) -> float:
        """<I(I+1)>, the one bath moment entering every short-time decay rate."""
        return float(np.sum(self.weights * (self.spins * (self.spins + 1.0))))


def spin_grid(n: int) -> np.ndarray:
    """Allowed total-spin values for n spin-1/2: n/2, n/2-1, ..., (n mod 2)/2."""
    i_min = 0.5 * (n % 2)
    return np.arange(i_min, n / 2.0 + 0.25, 1.0)


def unpolarized_exact(n: int) -> BathDistribution:
    """Exact sector weights of the fully unpolarized bath identity/2^n."""
    if not 1 <= n <= MAX_SPINS:
        raise BathSpecError(f"n must be in [1, {MAX_SPINS}], got {n}")
    spins = spin_grid(n)
    i, half = spins[:-1], n / 2.0
    # log lambda_{I+1}/lambda_I; log1p keeps each factor accurate where it nears 1
    log_ratio = np.log1p(-(2.0 * i + 2.0) / (half + i + 2.0)) + 2.0 * np.log1p(2.0 / (2.0 * i + 1.0))
    log_w = np.concatenate(([0.0], np.cumsum(log_ratio)))
    w = np.exp(log_w - log_w.max())
    w /= w.sum()
    # each weight is an integer over 2^n: snap to that lattice where a double resolves it
    k = min(n, 1023)
    w = np.ldexp(np.rint(np.ldexp(w, k)), -k)
    return BathDistribution(spins, w / w.sum(), n_spins=n)


def gaussian_approx(n: int, variant: str = "narrow") -> BathDistribution:
    """Gaussian surrogate lambda_I ~ I^2 exp(-c I^2) on the discrete grid.

    variant "wide": c = 1/(2n); variant "narrow": c = 2/n.
    """
    if n < 2:
        raise BathSpecError(f"n must be >= 2, got {n}")
    if variant == "wide":
        c = 1.0 / (2.0 * n)
    elif variant == "narrow":
        c = 2.0 / n
    else:
        raise BathSpecError(f"unknown gaussian variant {variant!r}")
    spins = spin_grid(n)
    w = spins**2 * np.exp(-c * spins**2)
    return BathDistribution(spins, w / w.sum(), n_spins=n)


def delta_distribution(i0: float) -> BathDistribution:
    """All weight on a single sector; useful for single-sector checks."""
    if i0 < 0 or abs(2 * i0 - round(2 * i0)) > 1e-12:
        raise BathSpecError(f"spin must be a nonnegative half-integer, got {i0}")
    return BathDistribution(np.array([float(i0)]), np.array([1.0]))


def bath_from_config(kind: str, n: int) -> BathDistribution:
    """Build a distribution from the CLI config vocabulary."""
    if kind == "exact":
        return unpolarized_exact(n)
    if kind in ("gaussian-narrow", "gaussian-wide"):
        return gaussian_approx(n, variant=kind.split("-")[1])
    raise BathSpecError(f"unknown bath kind {kind!r} (use exact|gaussian-narrow|gaussian-wide)")
