"""Exact reduced dynamics for two non-interacting qubits with private baths.

Each qubit couples to its own unpolarized bath through an isotropic
interaction K S.I and the exchange between the qubits vanishes, so the pair
channel is the tensor product of two single-qubit depolarizing channels. Per
bath sector I the one-qubit propagator is U = p + q S.I (up to a sector-global
phase) with

    2*Lambda = K (I + 1/2),
    p = cos(Lambda t) + i K sin(Lambda t) / (4 Lambda),
    q = i K sin(Lambda t) / Lambda,

and the Bloch vector shrinks by g_I = |p|^2 - I(I+1)|q|^2 / 12. Averaging
over sectors gives the vector decay factors g_a and g_b of the two qubits; the
tensor polarization decays by their product g = g_a g_b. That is the one
rotation-invariant channel of ``common.apply_channel``, which serves both bath
topologies, with (a, b, c, d, e, g, f0, f2) = (g_a, g_b, 0, 0, 0, g, g, g):
``decay_factors`` returns these eight functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bath import BathDistribution
from .common import AssumptionError, evaluate_lines
from .states import InvalidStateError, TwoQubitState, decoherence_measure


@dataclass(frozen=True)
class SeparateBathSystem:
    k_a: float
    k_b: float
    bath_a: BathDistribution
    bath_b: BathDistribution


def _vector_lines(k: float, bath: BathDistribution) -> tuple[np.ndarray, np.ndarray]:
    """(half, omega) of one qubit's Bloch-vector decay factor sum_l 2 half_l cos(omega_l t): per sector
    g_I = 1 - (1 - b) sin^2(Lambda t), b = (1 - 4 I(I+1)/3) / (2I+1)^2, a line at 2 Lambda = k (I + 1/2)."""
    spins, weights, _ = bath.significant_sectors()
    b = (1.0 - 4.0 * spins * (spins + 1.0) / 3.0) / (2.0 * spins + 1.0) ** 2
    half = 0.25 * np.append((weights * (1.0 + b)).sum(), weights * (1.0 - b))
    return half, np.append(0.0, 0.5 * k * (2.0 * spins + 1.0))


def decay_factors(system: SeparateBathSystem, t) -> list[np.ndarray]:
    """The channel's eight functions (a, b, c, d, e, g, f0, f2) = (g_a, g_b, 0, 0, 0, g, g, g),
    g = g_a g_b, on the grid t flattened, for ``apply_channel``. One line sum gives g_a + i g_b
    (qubit b's lines with imaginary amplitudes), or g_a = g_b when the couplings are equal and
    the bath is one object; rounding above 1 is clipped."""
    half, omega = _vector_lines(system.k_a, system.bath_a)
    same = system.k_a == system.k_b and system.bath_a is system.bath_b
    if not same:
        half_b, omega_b = _vector_lines(system.k_b, system.bath_b)
        half, omega = np.append(half, 1j * half_b), np.append(omega, omega_b)
    z = evaluate_lines(half[None], half[None], omega, np.asarray(t, dtype=float).ravel())[0]
    # fresh arrays: views of z would keep the complex line sum alive
    g_a = np.minimum(z.real, 1.0, out=np.empty(z.shape))
    g_b = g_a if same else np.minimum(z.imag, 1.0, out=np.empty(z.shape))
    zero, g = np.zeros(z.shape), g_a * g_b
    return [g_a, g_b, zero, zero, zero, g, g, g]


def _check_symmetric(system: SeparateBathSystem) -> tuple[float, float]:
    if system.k_a != system.k_b:
        raise AssumptionError(
            "the concurrence time assumes equal couplings "
            f"(k_a={system.k_a}, k_b={system.k_b})"
        )
    m_a = system.bath_a.casimir_moment()
    m_b = system.bath_b.casimir_moment()
    if abs(m_a - m_b) > 1e-12:
        raise AssumptionError(
            "the concurrence time assumes identical bath-spin moments "
            f"(<I(I+1)>_A={m_a!r}, <I(I+1)>_B={m_b!r})"
        )
    return system.k_a, m_a


def short_time_decoherence_time(system: SeparateBathSystem, p0: float) -> float:
    """Gaussian decoherence time of a pure state whose qubits have polarization
    magnitude P0, for any couplings and baths:

        1/tau^2 = (3 - P0^2) (K_A^2 <I(I+1)>_A + K_B^2 <I(I+1)>_B) / 6,

    since each Bloch vector shrinks as 1 - K^2 <I(I+1)> t^2 / 3 at short times.
    """
    rate = (3.0 - p0**2) * (system.k_a**2 * system.bath_a.casimir_moment()
                            + system.k_b**2 * system.bath_b.casimir_moment()) / 6.0
    return math.inf if rate == 0.0 else 1.0 / math.sqrt(rate)


def short_time_concurrence_time(system: SeparateBathSystem, p0: float) -> float:
    """Concurrence decay time for the S^z-eigenstate family:

    1/tau_C^2 = (1/3) K^2 <I(I+1)> (3 - 2 P0^2) / (1 - P0^2), P0 < 1.
    """
    if p0 >= 1.0:
        raise InvalidStateError("p0 = 1 is an unentangled state; no concurrence decay")
    k, m2 = _check_symmetric(system)
    rate = (k**2) * m2 * (3.0 - 2.0 * p0**2) / (3.0 * (1.0 - p0**2))
    return 1.0 / math.sqrt(rate)


def sudden_death_time(
    system: SeparateBathSystem,
    state: TwoQubitState,
    t_max: float = 20.0,
    samples: int = 4000,
) -> float | None:
    """First time the tensor decay factor reaches 1/3, where Bell-state
    concurrence vanishes exactly. None if the threshold is not crossed
    within the horizon.
    """
    if abs(decoherence_measure(state)) > 1e-10 or np.linalg.norm(state.p_a) > 1e-10:
        raise InvalidStateError("sudden-death threshold applies to maximally entangled states")
    times = np.linspace(0.0, t_max, samples)
    g2 = decay_factors(system, times)[5]
    below = np.nonzero(g2 <= 1.0 / 3.0)[0]
    if below.size == 0:
        return None
    hi = times[below[0]]
    lo = times[below[0] - 1] if below[0] > 0 else 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if decay_factors(system, mid)[5][0] <= 1.0 / 3.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
