"""Named simulation scenarios behind the command-line interface.

A scenario is a flat key = value config (see :func:`parse_config_file`)
selecting one of the registered kinds. Every run is deterministic: repeated
runs of the same config produce byte-identical CSV files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__, states
from .bath import MAX_SPINS, BathDistribution, BathSpecError, bath_from_config, unpolarized_exact
from .common import (
    CommonBathSystem,
    SectorExactEvolver,
    apply_channel,
    short_time_decoherence_time,
)
from .optimize import (
    CouplingError,
    coupling_overlap,
    decoherence_rate_pure,
    optimal_gamma,
    scan_optimal_state,
)
from .oracle import MAX_BATH_SPINS, build, eigh_cost, evolve_reduced
from .separate import SeparateBathSystem, decay_factors
from .separate import short_time_decoherence_time as separate_decoherence_time
from .states import (
    TwoQubitState,
    concurrence_state,
    decoherence_measure,
    make_named_state,
)
from .timeseries import TimeSeries

ORACLE_TOLERANCE = 1e-10

# every time grid is held in memory several times over; this caps it
MAX_SAMPLES = 10**6


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class Kind:
    """One scenario kind of the :data:`KINDS` registry.

    The kind :attr:`reads` the keys of its ``defaults``, ``scenario``, ``output`` and,
    unless ``exchange`` is None, ``j``: the rule on j, "stated" (common bath: j is
    required), "zero" (separate baths: j = 0 or omitted), "mode" (the one of the two that
    ``config.mode`` names, a j in ``defaults`` being the common mode's) or None (no bath).
    ``check`` adds the kind's own rules to the report of :func:`validate`. ``runner`` takes
    the config and the bath and state that :func:`validate` built, if the kind reads
    ``n_bath`` and ``state``. A kind run by :func:`_run_trajectory` names its ``columns``
    (keys of :data:`_COLUMNS`) and, if it has one, its fixed initial ``state``.
    """

    summary: str
    runner: Callable[..., RunResult]
    defaults: dict
    columns: tuple[str, ...] = ()
    state: str | None = None
    exchange: str | None = "stated"
    equal_couplings: bool = False
    check: Callable[[ScenarioConfig, ValidationReport], None] | None = None

    @property
    def reads(self) -> set[str]:
        return {"scenario", "output", *self.defaults} | ({"j"} if self.exchange else set())


@dataclass(frozen=True)
class ScenarioConfig:
    """One run's keys: :meth:`for_kind` fills those that the kind reads, and the rest stay None."""

    kind: str
    n_bath: int | None = None
    bath: str | None = None
    k_a: float | None = None
    k_b: float | None = None
    j: float | None = None
    state: str | None = None
    t_max: float | None = None
    samples: int | None = None
    mode: str | None = None
    output: str | None = None

    @classmethod
    def for_kind(cls, kind: str, **overrides) -> "ScenarioConfig":
        """The kind's defaults under ``overrides``; an override of None counts as left out."""
        if kind not in KINDS:
            raise ConfigError(f"unknown scenario {kind!r}")
        if unread := [f"{key}: {kind} does not read this key" for key, value in overrides.items()
                      if value is not None and key not in KINDS[kind].reads]:
            raise ConfigError("; ".join(unread))
        params = {"output": f"{kind}.csv", **KINDS[kind].defaults, **overrides}
        if KINDS[kind].exchange == "mode" and params["mode"] == "separate" and "j" not in overrides:
            del params["j"]  # the default j is the common mode's: separate baths omit it
        return cls(kind=kind, **params)


@dataclass
class ValidationReport:
    errors: list[str] = field(default_factory=list)
    derived: dict[str, str] = field(default_factory=dict)
    cost: dict[str, str] = field(default_factory=dict)  # derived too, but kept out of the CSV
    bath: BathDistribution | None = None
    state: TwoQubitState | None = None

    @property
    def ok(self) -> bool:
        return not self.errors

    def render(self) -> str:
        lines = ["errors:", *(f"  - {e}" for e in self.errors)] if self.errors else ["config valid"]
        if self.derived or self.cost:
            lines += ["derived quantities:", *(f"  {k} = {v}" for k, v in (self.derived | self.cost).items())]
        return "\n".join(lines)


_FIELD_TYPES = {"scenario": str, "n_bath": int, "bath": str, "k_a": float, "k_b": float, "j": float,
                "state": str, "t_max": float, "samples": int, "mode": str, "output": str}


def parse_config_file(path: str | Path) -> ScenarioConfig:
    """Parse a flat UTF-8 key = value file; '#' starts a comment, and a key may appear once."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from exc
    raw: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: key {key!r} given twice")
        try:
            raw[key] = _FIELD_TYPES[key](value.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    if "scenario" not in raw:
        raise ConfigError(f"{path}: missing required key 'scenario'")
    return ScenarioConfig.for_kind(raw.pop("scenario"), **raw)


def validate(config: ScenarioConfig) -> ValidationReport:
    """Checks of the keys that the kind reads, its own rules, and a preview of derived
    quantities. The report also holds the bath and the initial state, built once for :func:`run`."""
    report = ValidationReport()
    kind = KINDS.get(config.kind)
    if kind is None:
        report.errors.append(f"scenario: unknown kind {config.kind!r}")
        return report
    reads, errors = kind.reads, report.errors
    needs_bath = "n_bath" in reads
    errors += [f"{name}: must be finite, got {value!r}" for name in ("k_a", "k_b", "j", "t_max")
               if (value := getattr(config, name)) is not None and not math.isfinite(value)]
    if errors:
        return report
    # every kind reads output and samples
    if Path(config.output).name in ("", "..") or "\0" in config.output:
        errors.append(f"output: must name a file, got {config.output!r}")
    if config.samples < 2:
        errors.append("samples: need at least 2 samples")
    if config.samples > MAX_SAMPLES:
        errors.append(f"samples: at most {MAX_SAMPLES} samples, got {config.samples}")
    if "t_max" in reads and config.t_max <= 0:
        errors.append("t_max: must be positive")
    elif "t_max" in reads and 2 <= config.samples <= MAX_SAMPLES and not np.all(np.diff(_times(config)) > 0):
        errors.append(f"t_max: {config.t_max!r} is too small to separate {config.samples} samples")
    # the coupling overlap 2 k_a k_b / (k_a^2 + k_b^2) drives optimize
    try:
        overlap = coupling_overlap(config.k_a, config.k_b) if "k_a" in reads else math.nan
    except (CouplingError, ArithmeticError):
        overlap = math.nan
    if not math.isfinite(overlap) and "k_a" in reads and not needs_bath:
        errors.append("k_a, k_b: k_a^2 + k_b^2 must be nonzero and finite")

    couplings_finite = "k_a" in reads and math.isfinite(config.k_a * config.k_a + config.k_b * config.k_b)
    if needs_bath and config.n_bath > MAX_SPINS:
        errors.append(f"n_bath: at most {MAX_SPINS} bath spins, got {config.n_bath}")
    elif needs_bath:
        try:
            report.bath = bath_from_config(config.bath, config.n_bath)
        except BathSpecError as exc:
            errors.append(f"bath: {exc}")
    if report.bath is not None:
        report.cost["kept_sectors"] = str(report.bath.significant_sectors()[0].size)
        if not couplings_finite:
            errors.append("k_a, k_b: k_a^2 + k_b^2 must be finite")
        # bounds |omega| t for every line the evolvers sum
        scale = abs(config.j or 0.0) + (abs(config.k_a) + abs(config.k_b)) * (config.n_bath + 2)
        if not math.isfinite(config.t_max * scale):
            errors.append("t_max: t_max * (|j| + (|k_a| + |k_b|) (n_bath + 2)) must be finite")
        elif couplings_finite and not math.isfinite(scale * scale):  # squared splittings
            errors.append("j: (|j| + (|k_a| + |k_b|) (n_bath + 2))^2 must be finite")

    if kind.equal_couplings and config.k_a != config.k_b:
        errors.append("k_b: this scenario requires equal couplings")
    if kind.check is not None:
        kind.check(config, report)
    exchange = (kind.exchange if kind.exchange != "mode"
                else {"common": "stated", "separate": "zero"}.get(config.mode))
    if exchange == "zero" and config.j not in (None, 0.0):
        errors.append("j: separate baths assume zero exchange; set j = 0")
    if exchange == "stated" and config.j is None:
        errors.append("j: required for common-bath scenarios")

    if "state" in reads:
        try:
            report.state = states.parse_state_spec(config.state)
        except (ValueError, LookupError) as exc:
            errors.append(f"state: {exc}")

    private = kind.exchange == "zero"
    # separate oracle baths are two halves of n_bath, not the bath built here: no moment or prediction
    bath, state = (report.bath if private or exchange != "zero" else None), report.state
    if bath is not None:
        report.derived["casimir_moment"] = format(bath.casimir_moment(), ".6g")
    # the overlap matters wherever the two qubits can share a bath
    if math.isfinite(overlap) and needs_bath and exchange != "zero":
        report.derived["coupling_overlap"] = format(overlap, ".6g")
    if (bath is not None and state is not None and couplings_finite
            and abs(decoherence_measure(state)) < 1e-10):
        # the short-time rates do not involve the exchange strength
        if private:
            system = SeparateBathSystem(config.k_a, config.k_b, bath, bath)
            tau = separate_decoherence_time(system, math.sqrt(float(state.p_a @ state.p_a)))
        else:
            tau = short_time_decoherence_time(state, CommonBathSystem(config.k_a, config.k_b, 0.0, bath))
        report.derived["predicted_decoherence_time"] = format(tau, ".6g")
    if math.isfinite(overlap) and not needs_bath:
        report.derived["optimal_gamma"] = format(optimal_gamma(overlap), ".6g")
    return report


def _check_oracle(config: ScenarioConfig, report: ValidationReport) -> None:
    """The dense oracle's rules, and the cost of its largest ``eigh``."""
    errors, n = report.errors, config.n_bath
    if report.ok and report.bath is not None and n <= MAX_BATH_SPINS:
        # the oracle's phases err by up to eps ||H|| t_max, and ||S . I|| = 3/4 for each term
        k_a, k_b, j = _oracle_couplings(config)
        norm = 0.75 * (abs(j or 0.0) + np.abs(k_a).sum() + np.abs(k_b).sum())
        if (error := np.finfo(float).eps * norm * config.t_max) > ORACLE_TOLERANCE:
            errors.append(f"t_max: the oracle resolves its phases to eps ||H|| t_max = "
                          f"{error:.2g}, above the tolerance {ORACLE_TOLERANCE:g}")
    if config.mode not in ("separate", "common"):
        errors.append(f"mode: must be separate|common, got {config.mode!r}")
    if n > MAX_BATH_SPINS:
        errors.append(f"n_bath: {n} exceeds the dense-oracle cap of {MAX_BATH_SPINS}")
    elif config.mode == "separate" and n < 2 and report.bath is not None:
        errors.append(f"n_bath: separate baths need one spin per qubit, got {n}")
    if 0 < n <= MAX_BATH_SPINS:
        largest, nbytes = eigh_cost(n)
        report.cost.update(oracle_largest_eigh=str(largest), oracle_eigenvector_mb=f"{nbytes / 1e6:.1f}")
    if config.bath != "exact":
        errors.append("bath: oracle comparisons use the exact unpolarized bath")


def _check_fig2(config: ScenarioConfig, report: ValidationReport) -> None:
    if config.k_a == 0.0:
        report.errors.append("k_a: fig2 needs k_a != 0 for its revival time 2 pi / k_a")


def _base_metadata(config: ScenarioConfig, bath: BathDistribution | None) -> dict[str, str]:
    meta = {"scenario": config.kind, "spinbath_version": __version__}
    if bath is not None:
        meta.update(n_bath=str(config.n_bath), bath=config.bath)
    meta.update(k_a=format(config.k_a, ".12g"), k_b=format(config.k_b, ".12g"))
    if bath is not None:
        meta.update(j=format(0.0 if config.j is None else config.j, ".12g"),
                    casimir_moment=format(bath.casimir_moment(), ".12g"),
                    dropped_sector_weight=format(bath.significant_sectors()[2], ".3e"))
    return meta


@dataclass
class RunResult:
    series: TimeSeries
    path: Path
    summary: dict[str, str]
    numerical_failure: bool = False


def run(config: ScenarioConfig, report: ValidationReport | None = None) -> RunResult:
    """Execute the scenario and write its CSV; raises ConfigError on an
    invalid config. A caller that holds ``validate(config)`` passes it as ``report``."""
    report = validate(config) if report is None else report
    if not report.ok:
        raise ConfigError("; ".join(report.errors))
    result = KINDS[config.kind].runner(config, report.bath, report.state)
    for key, value in report.derived.items():
        result.series.metadata.setdefault(key, value)
    result.series.write_csv(result.path)
    return result


def _times(config: ScenarioConfig) -> np.ndarray:
    return np.linspace(0.0, config.t_max, config.samples)


def _rows(config: ScenarioConfig, columns: list[str], data: list, metadata: dict,
          summary: dict[str, str] | None = None) -> RunResult:
    """The run's CSV, one column per entry of ``data``, summarised by ``summary`` or its row count."""
    series = TimeSeries(columns=columns, data=np.column_stack(data), metadata=metadata)
    return RunResult(series, Path(config.output), summary or {"rows": str(series.data.shape[0])})


def _run_trajectory(config: ScenarioConfig, bath, state) -> RunResult:
    """One exact evolution of one state, in private baths (``exchange`` "zero") or the
    shared bath, read out as the kind's columns from the state and the channel."""
    kind = KINDS[config.kind]
    times = _times(config)
    if kind.exchange == "zero":
        f = decay_factors(SeparateBathSystem(config.k_a, config.k_b, bath, bath), times)
    else:
        f = SectorExactEvolver(CommonBathSystem(config.k_a, config.k_b, config.j, bath)).functions(times)
    s = apply_channel(f, make_named_state(kind.state) if kind.state else state)
    return _rows(config, ["t", *kind.columns], [times, *(_COLUMNS[c](s, f) for c in kind.columns)],
                 {**_base_metadata(config, bath), "state": kind.state or config.state})


def _run_optimize(config: ScenarioConfig, bath, state) -> RunResult:
    delta = coupling_overlap(config.k_a, config.k_b)
    gammas = np.linspace(-2.0, 2.0, config.samples)
    rates = decoherence_rate_pure(gammas, delta, 1.0)
    scanned = scan_optimal_state(delta)
    meta = {
        **_base_metadata(config, bath),
        "coupling_overlap": format(delta, ".12g"),
        "optimal_gamma_analytic": format(optimal_gamma(delta), ".12g"),
        "optimal_gamma_scanned": format(scanned.gamma.real, ".12g"),
        "optimal_theta_scanned": format(scanned.theta, ".12g"),
        "rate_units": "separable-state rate",
    }
    return _rows(config, ["gamma", "rate"], [gammas, rates], meta,
                 {"optimal_gamma": meta["optimal_gamma_analytic"]})


def _oracle_couplings(config: ScenarioConfig) -> tuple[np.ndarray, np.ndarray, float]:
    """The per-nucleus couplings and the exchange that an oracle comparison passes to
    :func:`build`: separate baths give the first n_bath // 2 nuclei to qubit A, the rest to B."""
    n = config.n_bath
    if config.mode == "separate":
        own = np.arange(n) < n // 2
        return np.where(own, config.k_a, 0.0), np.where(own, 0.0, config.k_b), 0.0
    return np.full(n, config.k_a), np.full(n, config.k_b), config.j


def _run_oracle_compare(config: ScenarioConfig, bath, state) -> RunResult:
    times, n = _times(config), config.n_bath
    if config.mode == "separate":
        baths = unpolarized_exact(n // 2), unpolarized_exact(n - n // 2)
        f = decay_factors(SeparateBathSystem(config.k_a, config.k_b, *baths), times)
    else:
        f = SectorExactEvolver(CommonBathSystem(config.k_a, config.k_b, config.j, bath)).functions(times)
    analytic = apply_channel(f, state)
    reference = evolve_reduced(build(*_oracle_couplings(config)), state, times)

    def flat(s: TwoQubitState) -> np.ndarray:
        return np.concatenate([s.p_a, s.p_b, s.pi.reshape(-1, 9)], axis=1)

    devs = np.abs(flat(analytic) - flat(reference)).max(axis=1)
    max_dev = float(devs.max())
    # a NaN deviation compares false against any tolerance: it must fail
    failed = not (max_dev <= ORACLE_TOLERANCE)
    meta = _base_metadata(config, bath)
    if config.mode == "separate":  # the moment of the n_bath-spin bath, which no side evolves
        del meta["casimir_moment"]
    meta.update(state=config.state, mode=config.mode, max_abs_dev=format(max_dev, ".3e"),
                tolerance=format(ORACLE_TOLERANCE, ".1e"), within_tolerance=str(not failed).lower())
    result = _rows(config, ["t", "max_abs_dev"], [times, devs], meta, {"max_abs_dev": meta["max_abs_dev"]})
    result.numerical_failure = failed
    return result


def _run_fig1(config: ScenarioConfig, bath, state) -> RunResult:
    system = SeparateBathSystem(config.k_a, config.k_b, bath, bath)
    times = _times(config)
    g = decay_factors(system, times)
    # initial concurrences 0, 1/2, 1 within the S^z-eigenstate family (r = 0 is up_down), as one batch
    initial = TwoQubitState.stack([make_named_state("updown_mix", r=r)
                                   for r in (0.0, 2.0 - math.sqrt(3.0), 1.0)])
    purity = 1.0 - decoherence_measure(apply_channel(g, initial))
    return _rows(config, ["t", "purity_c0", "purity_c05", "purity_c1", "concurrence_c1"],
                 [times, *purity, np.maximum(0.0, (3.0 * g[5] - 1.0) / 2.0)],
                 _base_metadata(config, bath))


def _run_fig2(config: ScenarioConfig, bath, state) -> RunResult:
    result = _run_trajectory(config, bath, state)
    result.series.metadata.update(revival_time=format(2.0 * math.pi / config.k_a, ".12g"),
                                  late_window=f"{0.33 * config.t_max:.6g}..{0.97 * config.t_max:.6g}")
    return result


def _run_fig5(config: ScenarioConfig, bath, state) -> RunResult:
    times = _times(config)
    # one evolution per exchange value, of both r-states as one batch
    pair = TwoQubitState.stack([make_named_state("r_state", r=r) for r in (0.5, -0.5)])
    evolvers = (SectorExactEvolver(CommonBathSystem(config.k_a, config.k_b, j, bath)) for j in (0.0, config.j))
    low, high = (decoherence_measure(evolver.evolve(pair, times)) for evolver in evolvers)
    return _rows(config, ["t", "d_rp05_j0", "d_rp05_jhi", "d_rm05_j0", "d_rm05_jhi"],
                 [times, low[0], high[0], low[1], high[1]],
                 {**_base_metadata(config, bath), "j_high": format(config.j, ".12g")})


def _run_fig6(config: ScenarioConfig, bath, state) -> RunResult:
    deltas = np.linspace(-1.0, 1.0, config.samples)
    gam = optimal_gamma(deltas)
    sep, sing, trip, opt = (decoherence_rate_pure(g, deltas, 1.0) for g in (0.0, 1.0, -1.0, gam))
    columns = ["delta", "rate_separable", "rate_singlet", "rate_triplet", "rate_optimal", "gamma_opt"]
    return _rows(config, columns, [deltas, sep, sing, trip, opt, gam],
                 {"scenario": "fig6", "spinbath_version": __version__, "rate_units": "separable-state rate"})


# the readouts of a trajectory s and its channel's eight functions f (see apply_channel); the
# measures go through the module names, so a rebinding of those names (as a tracer makes)
# reaches them
_COLUMNS: dict[str, Callable[[TwoQubitState, list], np.ndarray]] = {
    "p_z_a": lambda s, f: s.p_a[:, 2],
    "pi_xx": lambda s, f: s.pi[:, 0, 0],
    "pi_zz": lambda s, f: s.pi[:, 2, 2],
    "pi_xy": lambda s, f: s.pi[:, 0, 1],
    "d": lambda s, f: decoherence_measure(s),
    "d_pair": lambda s, f: decoherence_measure(s),
    "d_single": lambda s, f: 0.5 * (1.0 - (s.p_a[:, None, :] @ s.p_a[:, :, None])[:, 0, 0]),
    "concurrence": lambda s, f: concurrence_state(s),
    # Bell populations <B|rho|B> = (1 + sum_m <B|sigma_m sigma_m|B> pi_mm) / 4
    "singlet_pop": lambda s, f: 0.25 * (1.0 - s.pi[:, 0, 0] - s.pi[:, 1, 1] - s.pi[:, 2, 2]),
    "triplet0_pop": lambda s, f: 0.25 * (1.0 + s.pi[:, 0, 0] + s.pi[:, 1, 1] - s.pi[:, 2, 2]),
    "t1t2_pop": lambda s, f: 0.25 * (1.0 + s.pi[:, 2, 2]),
    # private baths: qubit a's Bloch-vector decay factor and the tensor's
    "vector_decay": lambda s, f: f[0],
    "tensor_decay": lambda s, f: f[5],
}

_BATH = dict(n_bath=100, bath="gaussian-narrow")

# the exchange strength j is deliberately not defaulted for the generic
# common-bath kinds: it sets the physics and must be stated
KINDS: dict[str, Kind] = {
    "separate": Kind(
        "two qubits with private baths, no exchange: D(t), C(t), decay factors", _run_trajectory,
        dict(_BATH, k_a=1.0, k_b=1.0, j=0.0, state="r_state:0.5", t_max=10.0, samples=500),
        ("d", "concurrence", "vector_decay", "tensor_decay"), exchange="zero"),
    "common-symmetric": Kind(
        "shared bath, equal couplings: polarizations, D(t), C(t)", _run_trajectory,
        dict(_BATH, k_a=1.0, k_b=1.0, state="up_down", t_max=10.0, samples=500),
        ("p_z_a", "pi_xx", "pi_zz", "pi_xy", "d", "concurrence"), equal_couplings=True),
    "common-asymmetric": Kind(
        "shared bath, unequal couplings: Bell-basis populations, D(t), C(t)", _run_trajectory,
        dict(_BATH, k_a=1.2, k_b=0.8, state="r_state:0.5", t_max=10.0, samples=500),
        ("singlet_pop", "triplet0_pop", "t1t2_pop", "d", "concurrence")),
    "optimize": Kind(
        "short-time decoherence rate over the pure-state family and its optimum", _run_optimize,
        dict(k_a=1.0, k_b=0.5, samples=201), exchange=None),
    "oracle-compare": Kind(
        "analytic evolution vs the dense full-Hilbert oracle", _run_oracle_compare,
        dict(mode="common", n_bath=6, bath="exact", k_a=1.0, k_b=0.4, j=1.0, state="r_state:0.5",
             t_max=5.0, samples=20), exchange="mode", check=_check_oracle),
    "fig1": Kind(
        "private baths: purity loss for several initial entanglements", _run_fig1,
        dict(_BATH, k_a=1.0, k_b=1.0, j=0.0, t_max=6.0, samples=600), exchange="zero"),
    "fig2": Kind(
        "shared bath, product initial state: polarization relaxation and revival of entanglement",
        _run_fig2, dict(_BATH, k_a=1.0, k_b=1.0, j=200.0, t_max=6.0, samples=12000),
        ("p_z_a", "pi_xx", "pi_zz", "pi_xy", "concurrence"), "up_down", equal_couplings=True,
        check=_check_fig2),
    "fig3": Kind(
        "shared bath: pair mixedness vs single-qubit mixedness", _run_trajectory,
        dict(_BATH, k_a=1.0, k_b=1.0, j=5.0, t_max=6.0, samples=600),
        ("d_pair", "d_single"), "up_down", equal_couplings=True),
    "fig4": Kind(
        "shared bath, triplet Bell initial state: tensor polarizations and concurrence", _run_trajectory,
        dict(_BATH, k_a=1.0, k_b=1.0, j=5.0, t_max=6.0, samples=600),
        ("pi_xx", "pi_zz", "concurrence", "d"), "triplet0", equal_couplings=True),
    "fig5": Kind(
        "shared bath, unequal couplings: exchange dependence of D(t) near singlet/triplet", _run_fig5,
        dict(_BATH, k_a=1.2, k_b=0.8, j=20.0, t_max=10.0, samples=800)),
    "fig6": Kind(
        "decoherence rate vs coupling overlap for named and optimal states", _run_fig6,
        dict(samples=201), exchange=None),
}
