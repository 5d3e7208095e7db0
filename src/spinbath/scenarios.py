"""Named simulation scenarios behind the command-line interface.

A scenario is a flat key = value config (see :func:`parse_config_file`)
selecting one of the registered kinds. Every run is deterministic: repeated
runs of the same config produce byte-identical CSV files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .bath import BathSpecError, bath_from_config, unpolarized_exact
from .common import (
    CommonBathSystem,
    SectorExactEvolver,
    SymmetricEvolver,
    bell_mix_evolution,
    short_time_decoherence_time,
)
from .optimize import (
    CouplingError,
    PureStateParam,
    coupling_overlap,
    decoherence_rate_pure,
    optimal_gamma,
)
from .oracle import MAX_BATH_SPINS, CouplingParams, build, evolve_reduced
from .separate import SeparateBathSystem, decay_factors, evolve as evolve_separate
from .states import (
    KET_SINGLET,
    KET_T1,
    KET_T2,
    KET_TRIPLET0,
    InvalidStateError,
    TwoQubitState,
    concurrence,
    concurrence_state,
    concurrence_sz_block,
    decoherence_measure,
    make_named_state,
    state_to_density,
)
from .timeseries import TimeSeries

ORACLE_TOLERANCE = 1e-10

# every time grid is held in memory several times over; this caps it
MAX_SAMPLES = 10**6

SCENARIO_KINDS = (
    "separate",
    "common-symmetric",
    "common-asymmetric",
    "optimize",
    "oracle-compare",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
)

SCENARIO_SUMMARIES = {
    "separate": "two qubits with private baths, no exchange: D(t), C(t), decay factors",
    "common-symmetric": "shared bath, equal couplings: polarizations, D(t), C(t)",
    "common-asymmetric": "shared bath, unequal couplings: Bell-basis populations, D(t), C(t)",
    "optimize": "short-time decoherence rate over the pure-state family and its optimum",
    "oracle-compare": "analytic evolution vs the dense full-Hilbert oracle",
    "fig1": "private baths: purity loss for several initial entanglements",
    "fig2": "shared bath, product initial state: polarization relaxation and revival of entanglement",
    "fig3": "shared bath: pair mixedness vs single-qubit mixedness",
    "fig4": "shared bath, triplet Bell initial state: tensor polarizations and concurrence",
    "fig5": "shared bath, unequal couplings: exchange dependence of D(t) near singlet/triplet",
    "fig6": "decoherence rate vs coupling overlap for named and optimal states",
}

_DEFAULTS: dict[str, dict] = {
    "separate": dict(n_bath=100, bath="gaussian-narrow", k_a=1.0, k_b=1.0, j=0.0,
                     state="r_state:0.5", t_max=10.0, samples=500),
    # the exchange strength j is deliberately not defaulted for the generic
    # common-bath kinds: it sets the physics and must be stated
    "common-symmetric": dict(n_bath=100, bath="gaussian-narrow", k_a=1.0, k_b=1.0,
                             state="up_down", t_max=10.0, samples=500),
    "common-asymmetric": dict(n_bath=100, bath="gaussian-narrow", k_a=1.2, k_b=0.8,
                              state="r_state:0.5", t_max=10.0, samples=500),
    "optimize": dict(k_a=1.0, k_b=0.5, samples=201),
    "oracle-compare": dict(mode="common", n_bath=6, bath="exact", k_a=1.0, k_b=0.4,
                           j=1.0, state="r_state:0.5", t_max=5.0, samples=20),
    "fig1": dict(n_bath=100, bath="gaussian-narrow", k_a=1.0, k_b=1.0, j=0.0,
                 t_max=6.0, samples=600),
    "fig2": dict(n_bath=100, bath="gaussian-narrow", k_a=1.0, k_b=1.0, j=200.0,
                 t_max=6.0, samples=12000),
    "fig3": dict(n_bath=100, bath="gaussian-narrow", k_a=1.0, k_b=1.0, j=5.0,
                 t_max=6.0, samples=600),
    "fig4": dict(n_bath=100, bath="gaussian-narrow", k_a=1.0, k_b=1.0, j=5.0,
                 t_max=6.0, samples=600),
    "fig5": dict(n_bath=100, bath="gaussian-narrow", k_a=1.2, k_b=0.8, j=20.0,
                 t_max=10.0, samples=800),
    "fig6": dict(samples=201),
}

# dense per-sector evolution is cubic in the sector dimension; beyond this
# many bath spins the closed-form paths must be used instead
_DENSE_BATH_LIMIT = 24


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ScenarioConfig:
    kind: str
    n_bath: int = 100
    bath: str = "exact"
    k_a: float = 1.0
    k_b: float = 1.0
    j: float | None = None
    state: str = "up_down"
    t_max: float = 10.0
    samples: int = 500
    mode: str = "common"
    output: str = "out.csv"

    @classmethod
    def for_kind(cls, kind: str, **overrides) -> "ScenarioConfig":
        if kind not in SCENARIO_KINDS:
            raise ConfigError(f"unknown scenario {kind!r}")
        params = dict(_DEFAULTS.get(kind, {}))
        params.update(overrides)
        params.setdefault("output", f"{kind}.csv")
        return cls(kind=kind, **params)


@dataclass
class ValidationReport:
    errors: list[str] = field(default_factory=list)
    derived: dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.errors

    def render(self) -> str:
        lines = []
        if self.errors:
            lines.append("errors:")
            lines.extend(f"  - {e}" for e in self.errors)
        else:
            lines.append("config valid")
        if self.derived:
            lines.append("derived quantities:")
            lines.extend(f"  {k} = {v}" for k, v in self.derived.items())
        return "\n".join(lines)


_FIELD_TYPES = {
    "scenario": str, "n_bath": int, "bath": str, "k_a": float, "k_b": float,
    "j": float, "state": str, "t_max": float, "samples": int, "mode": str,
    "output": str,
}


def parse_config_file(path: str | Path) -> ScenarioConfig:
    """Parse a flat key = value file; '#' starts a comment."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        raw[key] = value.strip()
    if "scenario" not in raw:
        raise ConfigError(f"{path}: missing required key 'scenario'")
    kind = raw.pop("scenario")
    overrides = {}
    for key, value in raw.items():
        try:
            overrides[key] = _FIELD_TYPES[key](value)
        except ValueError as exc:
            raise ConfigError(f"{path}: bad value for {key}: {exc}") from exc
    return ScenarioConfig.for_kind(kind, **overrides)


def parse_state_spec(spec: str) -> TwoQubitState:
    """'singlet', 'r_state:0.5', 'werner:0.6', 'general_pure:0.5,0.3,1.0', ..."""
    name, _, args = spec.partition(":")
    values = [float(v) for v in args.split(",")] if args else []
    if name in ("r_state", "updown_mix"):
        return make_named_state(name, r=values[0])
    if name == "werner":
        return make_named_state(name, p=values[0])
    if name == "general_pure":
        gamma = values[0]
        theta = values[1] if len(values) > 1 else 0.0
        phi = values[2] if len(values) > 2 else 0.0
        return make_named_state(name, gamma=gamma, theta=theta, phi=phi)
    if values:
        raise InvalidStateError(f"state {name!r} takes no parameters")
    return make_named_state(name)


def validate(config: ScenarioConfig) -> ValidationReport:
    """Field-level checks plus a preview of derived quantities."""
    report = ValidationReport()
    if config.kind not in SCENARIO_KINDS:
        report.errors.append(f"scenario: unknown kind {config.kind!r}")
        return report
    for name in ("k_a", "k_b", "j", "t_max"):
        value = getattr(config, name)
        if value is not None and not math.isfinite(value):
            report.errors.append(f"{name}: must be finite, got {value!r}")
    if report.errors:
        return report
    if config.samples < 2:
        report.errors.append("samples: need at least 2 samples")
    if config.samples > MAX_SAMPLES:
        report.errors.append(f"samples: at most {MAX_SAMPLES} samples, got {config.samples}")
    if config.t_max <= 0 and config.kind not in ("optimize", "fig6"):
        report.errors.append("t_max: must be positive")
    # the coupling overlap 2 k_a k_b / (k_a^2 + k_b^2) drives optimize and fig6
    try:
        overlap = coupling_overlap(config.k_a, config.k_b)
    except (CouplingError, OverflowError):
        overlap = math.nan
    if not math.isfinite(overlap) and config.kind in ("optimize", "fig6"):
        report.errors.append("k_a, k_b: k_a^2 + k_b^2 must be nonzero and finite")

    needs_bath = config.kind not in ("optimize", "fig6")
    bath = None
    if needs_bath:
        try:
            bath = bath_from_config(config.bath, config.n_bath)
        except BathSpecError as exc:
            report.errors.append(f"bath: {exc}")

    if config.kind in ("separate", "fig1") and config.j not in (None, 0.0):
        report.errors.append("j: separate baths assume zero exchange; set j = 0")
    if config.kind in ("common-symmetric", "fig2", "fig3", "fig4") and config.k_a != config.k_b:
        report.errors.append("k_b: this scenario requires equal couplings")
    if config.kind == "fig2" and config.k_a == 0.0:
        report.errors.append("k_a: fig2 needs k_a != 0 for its revival time 2 pi / k_a")
    if config.kind in ("common-symmetric", "common-asymmetric", "fig2", "fig3", "fig4", "fig5"):
        if config.j is None:
            report.errors.append("j: required for common-bath scenarios")
    if config.kind == "oracle-compare":
        if config.mode not in ("separate", "common"):
            report.errors.append(f"mode: must be separate|common, got {config.mode!r}")
        if config.n_bath > MAX_BATH_SPINS:
            report.errors.append(
                f"n_bath: {config.n_bath} exceeds the dense-oracle cap of {MAX_BATH_SPINS}"
            )
        if config.bath != "exact":
            report.errors.append("bath: oracle comparisons use the exact unpolarized bath")
        if config.mode == "common" and config.j is None:
            report.errors.append("j: required for common-bath scenarios")
        if config.mode == "separate" and config.j not in (None, 0.0):
            report.errors.append("j: separate baths assume zero exchange; set j = 0")
    if config.kind == "common-asymmetric" and config.n_bath > _DENSE_BATH_LIMIT:
        try:
            parse_state_spec(config.state)
            name = config.state.partition(":")[0]
            if name not in ("singlet", "triplet0", "r_state"):
                report.errors.append(
                    f"state: {name!r} needs dense evolution, limited to n_bath <= {_DENSE_BATH_LIMIT}; "
                    "singlet/triplet0/r_state use the closed-form path at any size"
                )
        except (InvalidStateError, KeyError, IndexError):
            pass

    state = None
    if config.kind not in ("optimize", "fig6", "fig1", "fig2", "fig3", "fig4", "fig5"):
        try:
            state = parse_state_spec(config.state)
        except (InvalidStateError, KeyError, IndexError, ValueError) as exc:
            report.errors.append(f"state: {exc}")

    if bath is not None:
        report.derived["casimir_moment"] = format(bath.casimir_moment(), ".6g")
    if math.isfinite(overlap) and config.kind not in ("separate", "fig1", "optimize", "fig6"):
        report.derived["coupling_overlap"] = format(overlap, ".6g")
    if bath is not None and state is not None and abs(decoherence_measure(state)) < 1e-10:
        # the short-time rate does not involve the exchange strength
        system = CommonBathSystem(config.k_a, config.k_b, config.j or 0.0, bath)
        tau = short_time_decoherence_time(state, system)
        report.derived["predicted_decoherence_time"] = format(tau, ".6g")
    if math.isfinite(overlap) and config.kind in ("optimize", "fig6"):
        report.derived["optimal_gamma"] = format(optimal_gamma(overlap), ".6g")
    return report


def _base_metadata(config: ScenarioConfig) -> dict[str, str]:
    meta = {
        "scenario": config.kind,
        "spinbath_version": __version__,
    }
    if config.kind not in ("optimize", "fig6"):
        meta.update(
            n_bath=str(config.n_bath), bath=config.bath,
            k_a=format(config.k_a, ".12g"), k_b=format(config.k_b, ".12g"),
            j=format(config.j, ".12g"),
        )
        bath = bath_from_config(config.bath, config.n_bath)
        meta["casimir_moment"] = format(bath.casimir_moment(), ".12g")
        meta["dropped_sector_weight"] = format(bath.significant_sectors()[2], ".3e")
    else:
        meta.update(k_a=format(config.k_a, ".12g"), k_b=format(config.k_b, ".12g"))
    return meta


@dataclass
class RunResult:
    series: TimeSeries
    path: Path
    summary: dict[str, str]
    numerical_failure: bool = False


def run(config: ScenarioConfig) -> RunResult:
    """Execute the scenario and write its CSV; raises ConfigError on an
    invalid config."""
    report = validate(config)
    if not report.ok:
        raise ConfigError("; ".join(report.errors))
    builder = {
        "separate": _run_separate,
        "common-symmetric": _run_common_symmetric,
        "common-asymmetric": _run_common_asymmetric,
        "optimize": _run_optimize,
        "oracle-compare": _run_oracle_compare,
        "fig1": _run_fig1,
        "fig2": _run_fig2,
        "fig3": _run_fig3,
        "fig4": _run_fig4,
        "fig5": _run_fig5,
        "fig6": _run_fig6,
    }[config.kind]
    result = builder(config)
    for key, value in report.derived.items():
        result.series.metadata.setdefault(key, value)
    result.series.write_csv(result.path)
    return result


def _times(config: ScenarioConfig) -> np.ndarray:
    return np.linspace(0.0, config.t_max, config.samples)


def _run_separate(config: ScenarioConfig) -> RunResult:
    bath = bath_from_config(config.bath, config.n_bath)
    system = SeparateBathSystem(config.k_a, config.k_b, bath, bath)
    state = parse_state_spec(config.state)
    times = _times(config)
    g = decay_factors(system, times)
    states = evolve_separate(system, state, times)
    d, c = decoherence_measure(states), concurrence_state(states)
    series = TimeSeries(
        columns=["t", "d", "concurrence", "vector_decay", "tensor_decay"],
        data=np.column_stack([times, d, c, g.vector_a, g.tensor]),
        metadata={**_base_metadata(config), "state": config.state},
    )
    return RunResult(series, Path(config.output), {"rows": str(times.size)})


def _symmetric_trajectory(config: ScenarioConfig, state: TwoQubitState, times: np.ndarray):
    bath = bath_from_config(config.bath, config.n_bath)
    system = CommonBathSystem(config.k_a, config.k_b, config.j, bath)
    return SymmetricEvolver(system).evolve(state, times)


def _run_common_symmetric(config: ScenarioConfig) -> RunResult:
    state = parse_state_spec(config.state)
    times = _times(config)
    s = _symmetric_trajectory(config, state, times)
    series = TimeSeries(
        columns=["t", "p_z_a", "pi_xx", "pi_zz", "pi_xy", "d", "concurrence"],
        data=np.column_stack(
            [times, s.p_a[:, 2], s.pi[:, 0, 0], s.pi[:, 2, 2], s.pi[:, 0, 1],
             decoherence_measure(s), concurrence_state(s)]
        ),
        metadata={**_base_metadata(config), "state": config.state},
    )
    return RunResult(series, Path(config.output), {"rows": str(times.size)})


def _run_common_asymmetric(config: ScenarioConfig) -> RunResult:
    bath = bath_from_config(config.bath, config.n_bath)
    system = CommonBathSystem(config.k_a, config.k_b, config.j, bath)
    times = _times(config)
    name, _, arg = config.state.partition(":")
    if name in ("singlet", "triplet0", "r_state"):
        r = {"singlet": 1.0, "triplet0": -1.0}.get(name, float(arg) if arg else 0.0)
        bell = bell_mix_evolution(system, r, times)
        rows = [bell.singlet_pop, bell.triplet0_pop, bell.t1t2_pop, bell.mixedness(),
                concurrence_state(bell.state())]
        path_meta = "bell-basis closed form"
    else:
        states = SectorExactEvolver(system).evolve(parse_state_spec(config.state), times)
        rho = state_to_density(states)
        kets = np.array([KET_SINGLET, KET_TRIPLET0, KET_T1, KET_T2])
        pops = np.einsum("bi,tij,bj->tb", kets.conj(), rho, kets).real
        rows = [pops[:, 0], pops[:, 1], 0.5 * (pops[:, 2] + pops[:, 3]),
                decoherence_measure(states), concurrence(rho)]
        path_meta = "dense sector evolution"
    series = TimeSeries(
        columns=["t", "singlet_pop", "triplet0_pop", "t1t2_pop", "d", "concurrence"],
        data=np.column_stack([times] + rows),
        metadata={**_base_metadata(config), "state": config.state, "method": path_meta},
    )
    return RunResult(series, Path(config.output), {"rows": str(times.size)})


def _run_optimize(config: ScenarioConfig) -> RunResult:
    from .optimize import scan_optimal_state

    delta = coupling_overlap(config.k_a, config.k_b)
    gammas = np.linspace(-2.0, 2.0, config.samples)
    rates = np.array(
        [decoherence_rate_pure(PureStateParam(gamma=complex(g)), delta, 1.0) for g in gammas]
    )
    scanned = scan_optimal_state(delta)
    meta = {
        **_base_metadata(config),
        "coupling_overlap": format(delta, ".12g"),
        "optimal_gamma_analytic": format(optimal_gamma(delta), ".12g"),
        "optimal_gamma_scanned": format(scanned.gamma.real, ".12g"),
        "optimal_theta_scanned": format(scanned.theta, ".12g"),
        "rate_units": "separable-state rate",
    }
    series = TimeSeries(
        columns=["gamma", "rate"],
        data=np.column_stack([gammas, rates]),
        metadata=meta,
    )
    return RunResult(series, Path(config.output), {"optimal_gamma": meta["optimal_gamma_analytic"]})


def _run_oracle_compare(config: ScenarioConfig) -> RunResult:
    state = parse_state_spec(config.state)
    times = _times(config)
    if config.mode == "separate":
        n_a = config.n_bath // 2
        n_b = config.n_bath - n_a
        system = SeparateBathSystem(
            config.k_a, config.k_b, unpolarized_exact(n_a), unpolarized_exact(n_b)
        )
        analytic = evolve_separate(system, state, times)
    else:
        bath = unpolarized_exact(config.n_bath)
        system = CommonBathSystem(config.k_a, config.k_b, config.j, bath)
        analytic = SectorExactEvolver(system).evolve(state, times)
    full = build(config.mode, config.n_bath, CouplingParams(config.k_a, config.k_b, config.j))
    reference = evolve_reduced(full, state, "fully_mixed", times)

    def flat(s: TwoQubitState) -> np.ndarray:
        return np.concatenate([s.p_a, s.p_b, s.pi.reshape(-1, 9)], axis=1)

    devs = np.abs(flat(analytic) - flat(reference)).max(axis=1)
    max_dev = float(devs.max())
    # a NaN deviation compares false against any tolerance: it must fail
    failed = not (max_dev <= ORACLE_TOLERANCE)
    series = TimeSeries(
        columns=["t", "max_abs_dev"],
        data=np.column_stack([times, devs]),
        metadata={
            **_base_metadata(config),
            "state": config.state,
            "mode": config.mode,
            "max_abs_dev": format(max_dev, ".3e"),
            "tolerance": format(ORACLE_TOLERANCE, ".1e"),
            "within_tolerance": str(not failed).lower(),
        },
    )
    return RunResult(
        series, Path(config.output),
        {"max_abs_dev": format(max_dev, ".3e")},
        numerical_failure=failed,
    )


def _run_fig1(config: ScenarioConfig) -> RunResult:
    bath = bath_from_config(config.bath, config.n_bath)
    system = SeparateBathSystem(config.k_a, config.k_b, bath, bath)
    times = _times(config)
    g = decay_factors(system, times)
    # initial concurrences 0, 1/2, 1 within the S^z-eigenstate family
    r_half = 2.0 - math.sqrt(3.0)
    states = {
        "purity_c0": make_named_state("up_down"),
        "purity_c05": make_named_state("updown_mix", r=r_half),
        "purity_c1": make_named_state("updown_mix", r=1.0),
    }
    cols = {"t": times}
    for label, s0 in states.items():
        cols[label] = 1.0 - decoherence_measure(evolve_separate(system, s0, times))
    cols["concurrence_c1"] = np.maximum(0.0, (3.0 * g.tensor - 1.0) / 2.0)
    series = TimeSeries(
        columns=list(cols),
        data=np.column_stack(list(cols.values())),
        metadata=_base_metadata(config),
    )
    return RunResult(series, Path(config.output), {"rows": str(times.size)})


def _run_fig2(config: ScenarioConfig) -> RunResult:
    times = _times(config)
    s = _symmetric_trajectory(config, make_named_state("up_down"), times)
    meta = {
        **_base_metadata(config),
        "state": "up_down",
        "revival_time": format(2.0 * math.pi / config.k_a, ".12g"),
        "late_window": f"{0.33 * config.t_max:.6g}..{0.97 * config.t_max:.6g}",
    }
    series = TimeSeries(
        columns=["t", "p_z_a", "pi_xx", "pi_zz", "pi_xy", "concurrence"],
        data=np.column_stack(
            [times, s.p_a[:, 2], s.pi[:, 0, 0], s.pi[:, 2, 2], s.pi[:, 0, 1], concurrence_sz_block(s)]
        ),
        metadata=meta,
    )
    return RunResult(series, Path(config.output), {"rows": str(times.size)})


def _run_fig3(config: ScenarioConfig) -> RunResult:
    times = _times(config)
    s = _symmetric_trajectory(config, make_named_state("up_down"), times)
    p_a_sq = (s.p_a[:, None, :] @ s.p_a[:, :, None])[:, 0, 0]
    series = TimeSeries(
        columns=["t", "d_pair", "d_single"],
        data=np.column_stack([times, decoherence_measure(s), 0.5 * (1.0 - p_a_sq)]),
        metadata={**_base_metadata(config), "state": "up_down"},
    )
    return RunResult(series, Path(config.output), {"rows": str(times.size)})


def _run_fig4(config: ScenarioConfig) -> RunResult:
    times = _times(config)
    s = _symmetric_trajectory(config, make_named_state("triplet0"), times)
    series = TimeSeries(
        columns=["t", "pi_xx", "pi_zz", "concurrence", "d"],
        data=np.column_stack(
            [times, s.pi[:, 0, 0], s.pi[:, 2, 2], concurrence_sz_block(s), decoherence_measure(s)]
        ),
        metadata={**_base_metadata(config), "state": "triplet0"},
    )
    return RunResult(series, Path(config.output), {"rows": str(times.size)})


def _run_fig5(config: ScenarioConfig) -> RunResult:
    bath = bath_from_config(config.bath, config.n_bath)
    times = _times(config)
    cases = [("d_rp05_j0", 0.5, 0.0), ("d_rp05_jhi", 0.5, config.j),
             ("d_rm05_j0", -0.5, 0.0), ("d_rm05_jhi", -0.5, config.j)]
    curves = [bell_mix_evolution(CommonBathSystem(config.k_a, config.k_b, j, bath), r, times).mixedness()
              for _, r, j in cases]
    series = TimeSeries(
        columns=["t"] + [c[0] for c in cases],
        data=np.column_stack([times] + curves),
        metadata={**_base_metadata(config), "j_high": format(config.j, ".12g")},
    )
    return RunResult(series, Path(config.output), {"rows": str(times.size)})


def _run_fig6(config: ScenarioConfig) -> RunResult:
    deltas = np.linspace(-1.0, 1.0, config.samples)
    sep = np.array([decoherence_rate_pure(PureStateParam(gamma=0.0), d, 1.0) for d in deltas])
    sing = np.array([decoherence_rate_pure(PureStateParam(gamma=1.0), d, 1.0) for d in deltas])
    trip = np.array([decoherence_rate_pure(PureStateParam(gamma=-1.0), d, 1.0) for d in deltas])
    gam = np.array([optimal_gamma(d) for d in deltas])
    opt = np.array(
        [decoherence_rate_pure(PureStateParam(gamma=complex(g)), d, 1.0) for g, d in zip(gam, deltas)]
    )
    series = TimeSeries(
        columns=["delta", "rate_separable", "rate_singlet", "rate_triplet", "rate_optimal", "gamma_opt"],
        data=np.column_stack([deltas, sep, sing, trip, opt, gam]),
        metadata={"scenario": "fig6", "spinbath_version": __version__,
                  "rate_units": "separable-state rate"},
    )
    return RunResult(series, Path(config.output), {"rows": str(deltas.size)})
