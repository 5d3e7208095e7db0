"""Short-time decoherence rate over pure two-qubit states and its optimum.

For a pure pair state and an unpolarized common bath the Gaussian decay rate
of the mixedness is a variance,

    1/tau^2 = (2/3) <I(I+1)> Var(K_A S_A + K_B S_B),

which for the family |up_z down_n> - gamma |down_z up_n> (normalized) closes
to

    1/tau^2 = scale * [ 1 + 2|gamma|^2 (1 - delta cos(theta)) / (1+|gamma|^2)^2
                        - 2 delta cos^2(theta/2) Re(gamma) / (1+|gamma|^2) ]

with scale = (1/3) <I(I+1)> (K_A^2 + K_B^2) and the coupling overlap
delta = 2 K_A K_B / (K_A^2 + K_B^2). The optimum over the family is at
theta = 0 and real gamma.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .common import CommonBathSystem
from .states import InvalidStateError


class CouplingError(ValueError):
    pass


def _check_range(x, lo: float, hi: float, error: type, message: str) -> None:
    """Raise ``error`` if any element of x lies outside [lo, hi] (or is NaN), naming the first."""
    arr = np.asarray(x)
    inside = (lo <= arr) & (arr <= hi)
    if not np.all(inside):
        raise error(f"{message}, got {x if arr.ndim == 0 else arr[~inside][0]}")


class ScanResult(NamedTuple):
    gamma: complex
    theta: float
    rate: float


def coupling_overlap(k_a, k_b) -> float:
    """delta = 2 sum K_A K_B / sum (K_A^2 + K_B^2), in [-1, 1], of two couplings or of two
    matching 1-d arrays of per-nucleus couplings. Rounding can put nearly equal couplings
    an ulp outside, so the quotient is clipped (a NaN stays NaN); a sum that overflows
    raises FloatingPointError."""
    k_a, k_b = np.asarray(k_a, dtype=float), np.asarray(k_b, dtype=float)
    if k_a.shape != k_b.shape or k_a.ndim > 1:
        raise CouplingError(f"need matching 1-d arrays or two couplings, got {k_a.shape}, {k_b.shape}")
    with np.errstate(over="raise"):
        denom, cross = float(np.sum(k_a * k_a + k_b * k_b)), float(np.sum(k_a * k_b))
    if denom == 0.0:
        raise CouplingError("at least one coupling must be nonzero")
    return float(np.clip(2.0 * cross / denom, -1.0, 1.0))


def rate_scale(system: CommonBathSystem) -> float:
    """(1/3) <I(I+1)> (K_A^2 + K_B^2), the separable-state rate."""
    return system.bath.casimir_moment() * (system.k_a**2 + system.k_b**2) / 3.0


def decoherence_rate_pure(gamma, delta, scale: float = 1.0, theta=0.0):
    """Closed-form 1/tau^2 of the gamma-family at complex gamma and second-qubit polar
    angle theta in [0, pi]; the azimuth phi does not enter. The arguments broadcast:
    arrays in, an array out; scalars in, a float out."""
    _check_range(theta, 0.0, math.pi, InvalidStateError, "theta must be in [0, pi]")
    _check_range(delta, -1.0, 1.0, CouplingError, "coupling overlap must be in [-1, 1]")
    g = np.asarray(gamma, dtype=complex)
    out = scale * _bracket(g.real, g.imag, np.cos(theta), delta)
    return float(out) if out.ndim == 0 else out


def optimal_gamma(delta):
    """Real gamma minimizing the rate at theta = 0, elementwise for an array delta
    (a float for a scalar):

        [(1 - delta) - sqrt(1 - 2 delta)] / delta   for delta in [-1, 1/2],
        1                                            for delta in [1/2, 1],

    with the removable limit 0 at delta = 0, taken as the series delta / 2 +
    O(delta^2) for |delta| < 1e-9.
    """
    _check_range(delta, -1.0, 1.0, CouplingError, "coupling overlap must be in [-1, 1]")
    d = np.asarray(delta, dtype=float)
    closed = (np.abs(d) >= 1e-9) & (d < 0.5)
    safe = np.where(closed, d, -1.0)  # the other elements' square roots and quotients stay finite
    gamma = np.where(closed, ((1.0 - safe) - np.sqrt(1.0 - 2.0 * safe)) / safe, d / 2.0)
    gamma = np.where(d >= 0.5, 1.0, gamma)
    return float(gamma) if gamma.ndim == 0 else gamma


def _bracket(re, im, cos_theta, delta):
    """The gamma-family rate over its scale, elementwise at the precision of its arguments, with
    theta through cos(theta) (2 cos^2(theta/2) = 1 + cos(theta)); at the branch point delta = 1/2
    the minimum is quartic-flat, and only long double localizes it to 1e-4."""
    mod_sq = re * re + im * im
    return 1 + (2 * (1 - delta * cos_theta) * mod_sq / (1 + mod_sq)
                - delta * (1 + cos_theta) * re) / (1 + mod_sq)


_ZOOM = np.linspace(0.0, 1.0, 129)  # each zoom step narrows the bracket 64-fold


def _zoom_minimize(f, lo: float, hi: float, tol: float = 1e-12) -> float:
    """Minimum of f on [lo, hi] by bracket zoom: evaluate f on an even grid across the
    bracket, keep the grid minimum's two neighbours as the new bracket, and repeat
    until the bracket is narrower than tol."""
    last = _ZOOM.size - 1
    while hi - lo > tol:
        x = lo + (hi - lo) * _ZOOM
        i = int(f(x).argmin())
        lo, hi = float(x[max(i - 1, 0)]), float(x[min(i + 1, last)])
    return 0.5 * (lo + hi)


def scan_optimal_state(delta: float) -> ScanResult:
    """Brute-force minimum of the pure-state rate over (Re gamma, Im gamma,
    theta) on a 41^3 grid of [-2, 2]^2 x [0, pi], followed by three sweeps of
    line searches along each coordinate.

    The grid and the line searches evaluate one rate, :func:`_bracket`: in
    double precision on the grid, in long double in the searches. Each line
    search is a bracket zoom (:func:`_zoom_minimize`) from the full bracket
    ([-1.2, 1.2] for Re and Im gamma, [0, pi] for theta) down to 1e-12; one
    zoom step evaluates the rate on a whole grid across the bracket, and on
    the gamma axes cos(theta) is computed once per search. Deterministic and
    seedless. The rate is exactly symmetric under gamma -> 1/gamma (qubit
    exchange relabels the same state family), so the minimum comes in
    reciprocal pairs; the result is the canonical |gamma| <= 1 representative,
    with theta reported as 0 when gamma is so small that the second-qubit axis
    is immaterial.
    """
    _check_range(delta, -1.0, 1.0, CouplingError, "coupling overlap must be in [-1, 1]")
    re = im = np.linspace(-2.0, 2.0, 41)
    th = np.linspace(0.0, math.pi, 41)
    rate = _bracket(re[:, None, None], im[None, :, None], np.cos(th), delta)
    i, j, k = np.unravel_index(int(np.argmin(rate)), rate.shape)
    g0 = complex(re[i], im[j])
    if abs(g0) > 1.0:  # map to the canonical member of the reciprocal pair
        g0 = 1.0 / g0
    g_re, g_im, theta = g0.real, g0.imag, float(th[k])

    ld, d = np.longdouble, np.longdouble(delta)
    for _ in range(3):
        cos_theta = np.cos(ld(theta))
        g_re = _zoom_minimize(lambda x: _bracket(ld(x), ld(g_im), cos_theta, d), -1.2, 1.2)
        g_im = _zoom_minimize(lambda x: _bracket(ld(g_re), ld(x), cos_theta, d), -1.2, 1.2)
        theta = _zoom_minimize(lambda x: _bracket(ld(g_re), ld(g_im), np.cos(ld(x)), d), 0.0, math.pi)
    gamma = complex(g_re, g_im)
    if abs(gamma) > 1.0:
        gamma = 1.0 / gamma
    if abs(gamma) < 1e-6:
        theta = 0.0
    return ScanResult(
        gamma=gamma,
        theta=theta,
        rate=decoherence_rate_pure(gamma, delta, theta=theta),
    )


def gaussian_dot_couplings(
    separation: float,
    width: float,
    half_extent: float | None = None,
    spacing: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-nucleus couplings (k_a, k_b) from two Gaussian ground-state densities on a square lattice.

    The qubits sit at (+-separation/2, 0) with density envelopes
    exp(-|r - r_q|^2 / width^2); couplings are proportional to the density at
    each lattice site. The lattice must extend at least 5 widths beyond both
    centers.
    """
    if separation < 0 or width <= 0:
        raise CouplingError("separation must be >= 0 and width > 0")
    if half_extent is None:
        half_extent = separation / 2.0 + 6.0 * width
    if half_extent < separation / 2.0 + 5.0 * width:
        raise CouplingError(
            f"lattice half-extent {half_extent} does not cover 5 widths beyond the centers"
        )
    axis = np.arange(-half_extent, half_extent + spacing / 2.0, spacing)
    xs, ys = np.meshgrid(axis, axis, indexing="ij")
    r_a = (xs + separation / 2.0) ** 2 + ys**2
    r_b = (xs - separation / 2.0) ** 2 + ys**2
    k_a = np.exp(-r_a / width**2).ravel()
    k_b = np.exp(-r_b / width**2).ravel()
    return k_a, k_b


def decoherence_rate_inhomogeneous(gamma, k_a, k_b, moment: float) -> float:
    """Rate for per-nucleus couplings (matching 1-d arrays), z-aligned family
    (theta = 0): the gamma-family rate at the overlap Delta with scale
    (1/3) <I(I+1)> sum_i (K_A^i^2 + K_B^i^2) / N.
    """
    big_delta = coupling_overlap(k_a, k_b)  # raises first on mismatched or all-zero couplings
    mean_sq = float(np.sum(np.square(k_a) + np.square(k_b))) / np.size(k_a)
    return decoherence_rate_pure(gamma, big_delta, moment * mean_sq / 3.0)
