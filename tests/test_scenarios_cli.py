import math
import os
import re
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from spinbath import cli, common, scenarios, separate, timeseries
from spinbath.bath import gaussian_approx, unpolarized_exact
from spinbath.common import CommonBathSystem, SectorExactEvolver
from spinbath.cli import main
from spinbath.scenarios import (
    ConfigError,
    ScenarioConfig,
    parse_config_file,
    run,
    _run_oracle_compare,
    validate,
)
from spinbath.states import (
    KET_SINGLET,
    KET_T1,
    KET_T2,
    KET_TRIPLET0,
    InvalidStateError,
    TwoQubitState,
    concurrence,
    concurrence_state,
    make_named_state,
    parse_state_spec,
    state_to_density,
)
from spinbath.timeseries import TimeSeries, TimeSeriesError, read_csv


def per_row_csv(series: TimeSeries) -> str:
    """The per-row '%' writer that TimeSeries.write_csv replaced: the byte reference."""
    lines = [f"# {key} = {value}" for key, value in series.metadata.items()]
    lines.append(",".join(series.columns))
    row_format = ",".join(["%.12e"] * len(series.columns))
    lines.extend(row_format % tuple(row) for row in series.data.tolist())
    return "\n".join(lines) + "\n"


def assert_same_bytes(series: TimeSeries, tmp_path):
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    series.write_csv(new)
    ref.write_text(per_row_csv(series))
    assert new.read_bytes() == ref.read_bytes()


def write_config(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def refused_errors(command, captured):
    """The errors of a refused config: ``validate`` lists them in its report on stdout,
    ``run`` prints them on one ``error:`` line on stderr."""
    if command == "validate":
        return [line[4:] for line in captured.out.splitlines() if line.startswith("  - ")]
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ")
    return line[len("error: "):].split("; ")


class TestConfigParsing:
    def test_round_trip(self, tmp_path):
        path = write_config(
            tmp_path,
            """
            # demo config
            scenario = common-asymmetric
            n_bath = 30
            bath = gaussian-narrow
            k_a = 1.2
            k_b = 0.8
            j = 20.0   # strong exchange
            state = r_state:0.5
            t_max = 4.0
            samples = 50
            output = out/demo.csv
            """,
        )
        config = parse_config_file(path)
        assert config.kind == "common-asymmetric"
        assert config.n_bath == 30
        assert config.j == 20.0
        assert config.output == "out/demo.csv"

    def test_unknown_key(self, tmp_path):
        path = write_config(tmp_path, "scenario = fig6\ncolor = red\n")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_file(path)

    def test_missing_scenario(self, tmp_path):
        path = write_config(tmp_path, "n_bath = 4\n")
        with pytest.raises(ConfigError, match="scenario"):
            parse_config_file(path)

    def test_unknown_scenario(self, tmp_path):
        path = write_config(tmp_path, "scenario = fig7\n")
        with pytest.raises(ConfigError, match="unknown scenario"):
            parse_config_file(path)

    def test_state_specs(self):
        assert parse_state_spec("singlet").pi[0, 0] == pytest.approx(-1.0)
        assert parse_state_spec("r_state:0.5").p_a[2] == pytest.approx(0.6)
        assert parse_state_spec("werner:0.5").pi[2, 2] == pytest.approx(-0.5)
        parse_state_spec("general_pure:0.3,0.5,1.0")
        with pytest.raises(InvalidStateError):
            parse_state_spec("singlet:0.3")
        for spec, usage in [("werner:0.5,0.2", "werner:p"), ("r_state:0.5,9", "r_state:r"),
                            ("updown_mix:0.2,0.3", "updown_mix:r"), ("r_state", "r_state:r"),
                            ("general_pure:0.5,0.3,1.0,7", "general_pure:gamma[,theta[,phi]]"),
                            ("general_pure", "general_pure:gamma[,theta[,phi]]")]:
            with pytest.raises(InvalidStateError, match=f"takes {re.escape(usage)}, got "):
                parse_state_spec(spec)
        for spec in ("r_state:nan", "r_state:inf", "werner:-inf", "general_pure:0.5,nan"):
            with pytest.raises(InvalidStateError, match="needs finite parameters"):
                parse_state_spec(spec)
        for spec in ("general_pure:1e308", "general_pure:1e300,1e300,1e300", "updown_mix:1e308"):
            with pytest.raises(InvalidStateError, match="cannot be normalized"):
                parse_state_spec(spec)


class TestValidation:
    def test_missing_exchange_named(self):
        report = validate(ScenarioConfig.for_kind("common-symmetric"))
        assert any(err.startswith("j:") for err in report.errors)

    def test_separate_with_exchange_rejected(self):
        report = validate(ScenarioConfig.for_kind("separate", j=1.0))
        assert any("zero exchange" in err for err in report.errors)

    def test_oracle_compare_dimension_cap(self):
        report = validate(ScenarioConfig.for_kind("oracle-compare", n_bath=20))
        assert any("cap" in err for err in report.errors)

    def test_valid_config_reports_derived_quantities(self):
        report = validate(ScenarioConfig.for_kind("oracle-compare"))
        assert report.ok
        assert "casimir_moment" in report.derived
        assert "coupling_overlap" in report.derived
        assert "predicted_decoherence_time" in report.derived

    # eps ||H|| t_max over the couplings that build takes: 6 (1 + 1e6) + |j| in the common mode,
    # 3 + 3e6 in the separate one, so the bound passes 1e-10 near t_max = 0.1001 and 0.2002
    @pytest.mark.parametrize("mode, t_max, refused", [
        ("common", 0.1, False), ("common", 0.1002, True),
        ("separate", 0.2, False), ("separate", 0.2004, True),
    ])
    def test_oracle_precision_bound(self, mode, t_max, refused):
        config = ScenarioConfig.for_kind("oracle-compare", mode=mode, k_b=1e6, t_max=t_max)
        errors = validate(config).errors
        assert [e.startswith("t_max: the oracle resolves") for e in errors] == [True] * refused

    @pytest.mark.parametrize("n,largest,mb", [(12, "3003", "207.6"), (10, "792", "14.2"), (9, "462", "2.8")])
    def test_oracle_cost_preview(self, n, largest, mb):
        # after flip pairing: at n = 12 the largest eigh is C(14, 6), not C(14, 7) = 3432,
        # and the eigenvectors hold 208 MB, not 321 MB
        report = validate(ScenarioConfig.for_kind("oracle-compare", n_bath=n))
        assert report.ok
        assert report.cost == {"kept_sectors": str(n // 2 + 1), "oracle_largest_eigh": largest,
                               "oracle_eigenvector_mb": mb}
        assert f"oracle_largest_eigh = {largest}" in report.render()

    @pytest.mark.parametrize("kind, n, kept", [("fig2", 100, 44), ("common-asymmetric", 200, 62),
                                               ("common-symmetric", 1000000, 4161)])
    def test_validate_prints_kept_sectors(self, tmp_path, capsys, kind, n, kept):
        # the sectors of weight >= bath.SECTOR_WEIGHT_CUT that the closed forms sum over
        path = write_config(tmp_path, f"scenario = {kind}\nn_bath = {n}\nj = 2.0\n")
        assert main(["validate", str(path)]) == 0
        assert f"  kept_sectors = {kept}\n" in capsys.readouterr().out

    @pytest.mark.parametrize("kind", ["fig2", "common-asymmetric", "separate", "oracle-compare"])
    def test_cost_preview_leaves_the_csv_bytes_alone(self, tmp_path, kind):
        config = ScenarioConfig.for_kind(kind, samples=20, output=str(tmp_path / "with.csv"), j=0.0)
        run(config)
        bare = validate(config)
        bare.cost.clear()
        run(ScenarioConfig.for_kind(kind, samples=20, output=str(tmp_path / "without.csv"), j=0.0), bare)
        assert (tmp_path / "with.csv").read_bytes() == (tmp_path / "without.csv").read_bytes()
        assert b"kept_sectors" not in (tmp_path / "with.csv").read_bytes()

    def test_oracle_cost_preview_stays_out_of_the_csv(self, tmp_path):
        out = tmp_path / "oc.csv"
        run(ScenarioConfig.for_kind("oracle-compare", n_bath=4, samples=4, output=str(out)))
        assert not any(key.startswith("oracle_") for key in read_csv(out).metadata)

    def test_run_refuses_invalid(self):
        with pytest.raises(ConfigError):
            run(ScenarioConfig.for_kind("separate", j=3.0))

    @pytest.mark.parametrize("key", ["k_a", "k_b", "j", "t_max"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, key, value):
        report = validate(ScenarioConfig.for_kind("oracle-compare", **{key: value}))
        assert any(err.startswith(f"{key}: must be finite") for err in report.errors)

    @pytest.mark.parametrize("couplings", [(0.0, 0.0), (1e-200, -1e-200), (1e200, 1e200)])
    @pytest.mark.parametrize("kind", ["optimize", "fig6"])
    def test_undefined_coupling_overlap_rejected(self, kind, couplings):
        k_a, k_b = couplings
        report = validate(ScenarioConfig.for_kind(kind, k_a=k_a, k_b=k_b))
        assert report.errors == ["k_a, k_b: k_a^2 + k_b^2 must be nonzero and finite"]
        assert "optimal_gamma" not in report.derived

    def test_zero_couplings_allowed_without_overlap(self):
        # a common-bath run has no use for the overlap; it is just not reported
        report = validate(ScenarioConfig.for_kind("common-symmetric", k_a=0.0, k_b=0.0, j=1.0))
        assert report.ok
        assert "coupling_overlap" not in report.derived


class TestRunners:
    def test_fig6_columns_and_ordering(self, tmp_path):
        out = tmp_path / "fig6.csv"
        result = run(ScenarioConfig.for_kind("fig6", output=str(out)))
        ts = read_csv(out)
        assert ts.columns == [
            "delta", "rate_separable", "rate_singlet", "rate_triplet",
            "rate_optimal", "gamma_opt",
        ]
        opt = ts.column("rate_optimal")
        for name in ("rate_separable", "rate_singlet", "rate_triplet"):
            assert np.all(opt <= ts.column(name) + 1e-12)

    def test_fig5_evaluates_the_channel_once_per_exchange(self, monkeypatch, tmp_path):
        calls = []
        functions = common._channel_functions

        def counting(lines, times):
            calls.append(np.size(times))
            return functions(lines, times)

        monkeypatch.setattr(common, "_channel_functions", counting)
        run(ScenarioConfig.for_kind("fig5", samples=40, output=str(tmp_path / "fig5.csv")))
        # j = 0 and j = j_high, each evolving the r = +-0.5 pair as one batch
        assert calls == [40, 40]

    @pytest.mark.parametrize("kind", ["fig1", "separate"])
    def test_private_baths_decay_once(self, kind, monkeypatch, tmp_path):
        calls = []
        factors = separate.decay_factors

        def counting(system, t):
            calls.append(np.size(t))
            return factors(system, t)

        # the runners reach it through either module
        monkeypatch.setattr(separate, "decay_factors", counting)
        monkeypatch.setattr(scenarios, "decay_factors", counting)
        run(ScenarioConfig.for_kind(kind, samples=30, output=str(tmp_path / f"{kind}.csv")))
        assert calls == [30]

    def test_oracle_compare_passes(self, tmp_path):
        out = tmp_path / "oc.csv"
        result = run(
            ScenarioConfig.for_kind(
                "oracle-compare", n_bath=4, samples=6, t_max=2.0, output=str(out)
            )
        )
        assert not result.numerical_failure
        assert float(result.summary["max_abs_dev"]) < 1e-10
        # the common mode evolves the bath that validate built
        assert {"casimir_moment", "coupling_overlap"} <= read_csv(out).metadata.keys()

    # odd n_bath with k_a != k_b: an oracle that gave qubit A the larger half would fail
    @pytest.mark.parametrize("fields", [
        dict(n_bath=4), dict(n_bath=5, k_a=1.0, k_b=0.6), dict(n_bath=7, k_a=1.0, k_b=0.6),
    ], ids=["n4", "n5", "n7"])
    def test_oracle_compare_separate_mode(self, tmp_path, fields):
        out = tmp_path / "ocs.csv"
        result = run(
            ScenarioConfig.for_kind(
                "oracle-compare", mode="separate", j=0.0, **fields,
                samples=5, t_max=2.0, state="updown_mix:0.5", output=str(out),
            )
        )
        assert not result.numerical_failure
        # the run evolves two baths of n_bath / 2 spins, not the n_bath-spin one validated:
        # no moment, prediction or shared-bath overlap of that bath in the header
        metadata = read_csv(out).metadata
        for key in ("casimir_moment", "coupling_overlap", "predicted_decoherence_time"):
            assert key not in metadata

    @pytest.mark.parametrize("kind, fields", [("separate", {}), ("fig1", {}),
                                              ("oracle-compare", dict(mode="separate", n_bath=4))])
    def test_omitted_exchange_writes_j_zero(self, tmp_path, kind, fields):
        # kinds whose rule on j is "zero" take j = 0 or no j at all, and write the same bytes
        for j, name in ((None, "none.csv"), (0.0, "zero.csv")):
            result = run(ScenarioConfig.for_kind(kind, j=j, samples=5, **fields, output=str(tmp_path / name)))
            assert not result.numerical_failure
        assert (tmp_path / "none.csv").read_bytes() == (tmp_path / "zero.csv").read_bytes()
        assert "j" in read_csv(tmp_path / "none.csv").metadata

    def test_separate_oracle_compare_without_j(self, tmp_path, capsys):
        # the kind's default j = 1 is the common mode's: a separate config may leave j out
        for mode, j in (("separate", "0"), ("common", "1")):
            out = tmp_path / f"{mode}.csv"
            path = write_config(tmp_path, f"scenario = oracle-compare\nmode = {mode}\nn_bath = 4\n"
                                          f"output = {out}\n")
            assert main(["run", str(path)]) == 0, capsys.readouterr().err
            assert f"# j = {j}" in out.read_text().splitlines()

    @pytest.mark.parametrize("fields", [
        {},
        # the separate-n1000-unequal op of the large-bath benchmark at seed 0
        dict(n_bath=1000, k_a=1.251591, k_b=0.726171, state="r_state:0.35535", samples=200),
    ], ids=["defaults", "n1000-unequal"])
    def test_separate_header_time_fits_its_csv(self, tmp_path, fields):
        # the header holds the private-bath time, and the Gaussian fit of -log(1 - D)
        # over its first tenth recovers it; the grid is narrowed to resolve that window
        config = ScenarioConfig.for_kind("separate", **fields, output=str(tmp_path / "sep.csv"))
        tau = float(validate(config).derived["predicted_decoherence_time"])
        run(ScenarioConfig.for_kind("separate", **{**fields, "t_max": 0.1 * tau, "samples": 30},
                                    output=config.output))
        ts = read_csv(config.output)
        assert float(ts.metadata["predicted_decoherence_time"]) == tau
        bath = gaussian_approx(config.n_bath, "narrow")
        s0 = parse_state_spec(config.state)
        p0_sq = float(s0.p_a @ s0.p_a)
        rate = (3 - p0_sq) * (config.k_a**2 + config.k_b**2) * bath.casimir_moment() / 6
        assert tau == float(format(1 / math.sqrt(rate), ".6g"))
        x, y = ts.column("t")[1:] ** 2, -np.log1p(-ts.column("d")[1:])
        assert 1 / math.sqrt(float(x @ y) / float(x @ x)) == pytest.approx(tau, rel=0.02)

    def test_common_asymmetric_dense_state(self, tmp_path):
        out = tmp_path / "ca.csv"
        result = run(
            ScenarioConfig.for_kind(
                "common-asymmetric", n_bath=6, j=2.0, state="bell_t1",
                samples=10, t_max=2.0, output=str(out),
            )
        )
        ts = read_csv(out)
        assert "method" not in ts.metadata
        total = ts.column("singlet_pop") + ts.column("triplet0_pop") + 2 * ts.column("t1t2_pop")
        assert np.allclose(total, 1.0, atol=1e-10)

    @pytest.mark.parametrize("state", ["bell_t1", "general_pure:0.5,0.3,1.0", "werner:0.3"])
    def test_any_state_runs_for_large_bath(self, tmp_path, state):
        config = ScenarioConfig.for_kind("common-asymmetric", n_bath=1000, j=2.0, state=state,
                                         samples=20, output=str(tmp_path / "ca.csv"))
        assert validate(config).ok
        run(config)
        ts = read_csv(tmp_path / "ca.csv")
        total = ts.column("singlet_pop") + ts.column("triplet0_pop") + 2 * ts.column("t1t2_pop")
        assert np.abs(total - 1.0).max() < 1e-12

    @pytest.mark.parametrize("state", ["r_state:0.5", "bell_t1", "werner:0.3", "general_pure:0.5,0.3,1.0"])
    def test_bell_populations_from_pi(self, tmp_path, monkeypatch, state):
        # the runner reads the populations off the diagonal of pi; the reference
        # projects the density matrices on the Bell kets
        rows = []
        monkeypatch.setattr(scenarios, "_rows", lambda config, columns, data, meta: rows.append(data))
        config = ScenarioConfig.for_kind("common-asymmetric", n_bath=40, j=3.0, state=state,
                                         samples=60, output=str(tmp_path / "ca.csv"))
        report = validate(config)
        scenarios._run_trajectory(config, report.bath, report.state)
        system = CommonBathSystem(config.k_a, config.k_b, config.j, report.bath)
        times = np.linspace(0.0, config.t_max, config.samples)
        traj = SectorExactEvolver(system).evolve(report.state, times)
        rho = state_to_density(traj)
        kets = np.array([KET_SINGLET, KET_TRIPLET0, KET_T1, KET_T2])
        pops = np.einsum("bi,tij,bj->tb", kets.conj(), rho, kets).real
        _, singlet, triplet0, t1t2, _, c = rows[0]
        assert np.abs(singlet - pops[:, 0]).max() <= 1e-15
        assert np.abs(triplet0 - pops[:, 1]).max() <= 1e-15
        assert np.abs(t1t2 - 0.5 * (pops[:, 2] + pops[:, 3])).max() <= 1e-15
        assert np.array_equal(c, concurrence_state(traj))

    def test_fig5_one_channel_per_exchange(self, tmp_path, monkeypatch):
        built = []

        class Counted(SectorExactEvolver):
            def __init__(self, system):
                built.append(system.j)
                super().__init__(system)

        monkeypatch.setattr(scenarios, "SectorExactEvolver", Counted)
        run(ScenarioConfig.for_kind("fig5", n_bath=20, samples=40, output=str(tmp_path / "f.csv")))
        assert built == [0.0, 20.0]

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run(ScenarioConfig.for_kind("fig5", n_bath=20, samples=40, output=str(out1)))
        run(ScenarioConfig.for_kind("fig5", n_bath=20, samples=40, output=str(out2)))
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("kind, state", [("fig2", "up_down"), ("fig4", "triplet0")])
    def test_sz_block_concurrence_matches_general(self, tmp_path, kind, state):
        config = ScenarioConfig.for_kind(kind, samples=400, output=str(tmp_path / "f.csv"))
        run(config)
        times = np.linspace(0.0, config.t_max, config.samples)
        bath = validate(config).bath
        system = CommonBathSystem(config.k_a, config.k_b, config.j, bath)
        traj = SectorExactEvolver(system).evolve(make_named_state(state), times)
        got = read_csv(tmp_path / "f.csv").column("concurrence")
        assert np.abs(got - concurrence_state(traj)).max() < 1e-12

    @pytest.mark.parametrize("kind", ["fig2", "fig4"])
    def test_sz_mixing_state_takes_the_general_concurrence(self, tmp_path, kind, monkeypatch):
        # a state that mixes S^z sectors is no X state: its concurrence is Wootters'
        tilted = make_named_state("general_pure", gamma=0.5, theta=1.0)
        monkeypatch.setattr(scenarios, "make_named_state", lambda name: tilted)
        config = ScenarioConfig.for_kind(kind, samples=50, output=str(tmp_path / "f.csv"))
        run(config)
        system = CommonBathSystem(config.k_a, config.k_b, config.j, validate(config).bath)
        traj = SectorExactEvolver(system).evolve(tilted, np.linspace(0.0, config.t_max, config.samples))
        want = [float(f"{c:.12e}") for c in concurrence(state_to_density(traj))]
        assert np.array_equal(read_csv(config.output).column("concurrence"), want)

    @pytest.mark.parametrize("kind", ["fig1", "fig2", "fig3", "fig4", "fig5", "fig6"])
    def test_fig_scenarios_complete_quickly_at_defaults(self, tmp_path, kind):
        import time

        start = time.monotonic()
        result = run(ScenarioConfig.for_kind(kind, output=str(tmp_path / f"{kind}.csv")))
        assert time.monotonic() - start < 60.0
        assert result.path.exists()


class TestTimeSeries:
    def test_requires_increasing_axis(self):
        with pytest.raises(TimeSeriesError, match="increasing"):
            TimeSeries(columns=["t", "y"], data=np.array([[0.0, 1.0], [0.0, 2.0]]))

    def test_column_count_checked(self):
        with pytest.raises(TimeSeriesError, match="columns"):
            TimeSeries(columns=["t"], data=np.zeros((3, 2)))

    def test_csv_round_trip(self, tmp_path):
        ts = TimeSeries(
            columns=["t", "v"],
            data=np.array([[0.0, 1.0], [1.0, 0.5]]),
            metadata={"scenario": "demo"},
        )
        path = tmp_path / "ts.csv"
        ts.write_csv(path)
        back = read_csv(path)
        assert back.columns == ts.columns
        assert back.metadata["scenario"] == "demo"
        assert np.allclose(back.data, ts.data)

    def test_csv_metadata_is_utf8_in_any_locale(self, tmp_path):
        # written and read back in an ASCII locale without UTF-8 mode, and read here
        path, value = tmp_path / "meta.csv", "résumé ρ(t) → output/ä.csv"
        code = ("import sys; import numpy as np; from spinbath.timeseries import TimeSeries, read_csv; "
                f"TimeSeries(['t'], np.zeros((1, 1)), {{'note': {ascii(value)}}}).write_csv(sys.argv[1]); "
                "print(ascii(read_csv(sys.argv[1]).metadata['note']))")
        done = subprocess.run([sys.executable, "-c", code, str(path)], capture_output=True, text=True, check=True,
                              env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "LC_ALL": "C",
                                   "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"})
        assert done.stdout.strip() == ascii(value)
        assert f"# note = {value}\n".encode("utf-8") in path.read_bytes()
        assert read_csv(path).metadata["note"] == value

    def test_csv_rows_match_per_value_format(self, tmp_path):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(2000, 4)) * 10.0 ** rng.integers(-300, 300, size=(2000, 4))
        data[:, 0] = np.arange(2000.0)
        data[:3, 1:] = [[np.nan, np.inf, -np.inf], [-0.0, 5e-324, -1e308], [0.0, 1.0, -1.0]]
        path = tmp_path / "rows.csv"
        TimeSeries(columns=["t", "a", "b", "c"], data=data).write_csv(path)
        rows = path.read_text().splitlines()[1:]
        assert rows == [",".join(format(v, ".12e") for v in row) for row in data]


def _signed(x, seed=0):
    x = np.asarray(x, dtype=float)
    return x * np.random.default_rng(seed).choice([-1.0, 1.0], size=x.shape)


_DECADES = np.array([float(10**k) for k in range(37)] + [10.0 ** -k for k in range(1, 13)])
_RNG = np.random.default_rng(12)
# values the fast path must match or hand to '%.12e': exact and decimal ties at 13
# digits, powers of ten and 9.9999999999995 10^e with their neighbours, the ends
# e = -10 and 34 of the scaled range, subnormals, signed zeros and non-finite values
CSV_CASES = {
    "decimal_ties": _signed([float(f"{d}5e{p}") for d, p in zip(
        _RNG.integers(10**12, 10**13, 400), _RNG.integers(-40, 40, 400))]),
    "binary_ties": _signed((_RNG.integers(10**12, 10**13, 400) + 0.5)
                           * np.repeat([1.0, 0.5, 0.25, 10.0, 100.0], 80)),
    "decades_ulp": _signed(np.concatenate([_DECADES, np.nextafter(_DECADES, 0.0),
                                           np.nextafter(_DECADES, np.inf)])),
    "carry": _signed(np.concatenate([f(9.9999999999995 * _DECADES) for f in (
        lambda x: x, lambda x: np.nextafter(x, 0.0), lambda x: np.nextafter(x, np.inf))])),
    "scaled_ends": _signed(_RNG.uniform(1.0, 10.0, 600) * np.repeat(
        [1e-12, 1e-11, 1e-10, 1e-9, 1e33, 1e34, 1e35, 1e36], 75)),
    "extremes": np.array([5e-324, -5e-324, 2.5e-320, -1e-310, 2.2250738585072014e-308,
                          -1.7976931348623157e308, 1e300, -1e-300, 1e-100, -1e99, 0.0, -0.0,
                          np.nan, np.inf, -np.inf, 1e-5, -123.456]),
}


class TestCsvWriter:
    """write_csv against the per-row '%' writer, byte for byte."""

    @pytest.mark.parametrize("case", sorted(CSV_CASES))
    @pytest.mark.parametrize("width", [2, 3, 7])
    def test_values_match_reference(self, tmp_path, case, width):
        values = CSV_CASES[case]
        rows = -(-values.size // (width - 1))
        data = np.zeros((rows, width))
        data[:, 0] = np.arange(rows)
        data[:, 1:].flat[: values.size] = values
        assert_same_bytes(TimeSeries([f"c{i}" for i in range(width)], data, {"case": case}),
                          tmp_path)

    def test_one_column_one_row_and_no_rows(self, tmp_path):
        axis = np.sort(np.concatenate([_DECADES, 9.9999999999995 * _DECADES, -_DECADES, [0.0]]))
        for series in (TimeSeries(["t"], axis[:, None]),
                       TimeSeries(["t", "x", "y"], [[-0.0, np.nan, 1e-300]], {"a": "b"}),
                       TimeSeries(["t", "x"], np.empty((0, 2)), {"a": "b"}),
                       TimeSeries(["t"], np.empty((0, 1)))):
            assert_same_bytes(series, tmp_path)

    @pytest.mark.parametrize("size", [None, 7])
    def test_rows_straddle_passes(self, tmp_path, monkeypatch, size):
        # with three columns every pass of 2^k values ends inside a row
        if size is not None:
            monkeypatch.setattr(timeseries, "_CSV_PASS", size)
        rows = 3 * timeseries._CSV_PASS + 5
        data = _signed(np.random.default_rng(5).normal(size=(rows, 3)) * 1e-3, seed=6)
        data[:, 0] = np.arange(rows)
        extremes, ties = CSV_CASES["extremes"], CSV_CASES["binary_ties"]
        data[1::7, 1] = extremes[np.arange(data[1::7].shape[0]) % extremes.size]
        data[2::5, 2] = ties[np.arange(data[2::5].shape[0]) % ties.size]
        assert_same_bytes(TimeSeries(["t", "x", "y"], data), tmp_path)

    def test_only_uncertain_values_fall_back(self, tmp_path, monkeypatch):
        # '%.12e' gets every non-finite value, every value it writes with an exponent
        # outside [-10, 34] and every exact tie; beyond those, at most the values with
        # e = floor(log10|x|) outside [-10, 34] or whose scaled value S = |x| 10^(12 - e)
        # lies within one ulp of a half-integer, within one of 10^13 or of 10^12
        seen = []
        real = timeseries._reference

        def reference(values):
            seen.extend(values.tolist())
            return real(values)

        monkeypatch.setattr(timeseries, "_reference", reference)
        rng = np.random.default_rng(8)
        ordinary = rng.normal(size=3000) * 10.0 ** rng.integers(-10, 34, 3000)
        values = np.concatenate([ordinary] + [CSV_CASES[case] for case in sorted(CSV_CASES)])
        TimeSeries(["t", "x"], np.column_stack([np.arange(values.size), values])).write_csv(
            tmp_path / "x.csv")
        must, may = [], []
        for x in values.tolist():
            if not math.isfinite(x) or x == 0.0:
                must.append(not math.isfinite(x))
                may.append(must[-1])
                continue
            e = Decimal(abs(x)).adjusted()
            scaled = Fraction(abs(x)) * Fraction(10) ** (12 - e)
            half = abs(scaled - math.floor(scaled) - Fraction(1, 2))
            ulp = Fraction(float(np.spacing(float(scaled))))
            written = int(format(x, ".12e").partition("e")[2])
            must.append(not -10 <= written <= 34 or half == 0)
            may.append(must[-1] or not -10 <= e <= 34 or half <= ulp
                       or scaled >= 10**13 - 1 or scaled < 10**12 + 1)
        must, may = np.array(must), np.array(may)
        assert must.sum() > 800 and may.sum() < 1400
        fell_back = {repr(x) for x in seen}
        assert {repr(x) for x in values[must].tolist()} <= fell_back
        assert fell_back <= {repr(x) for x in values[may].tolist()}

    @pytest.mark.parametrize("shift", [-0.999, 0.999])
    def test_log10_off_by_one_falls_back(self, tmp_path, monkeypatch, shift):
        log10 = np.log10
        monkeypatch.setattr(timeseries.np, "log10", lambda a: log10(a) + shift)
        values = np.concatenate([CSV_CASES[case] for case in sorted(CSV_CASES)])
        assert_same_bytes(TimeSeries(["t", "x"], np.column_stack([np.arange(values.size), values])),
                          tmp_path)

    @pytest.mark.parametrize("kind", sorted(scenarios.KINDS))
    def test_every_scenario_at_defaults(self, tmp_path, kind):
        overrides = {} if "j" in scenarios.KINDS[kind].defaults else {"j": 2.0}
        result = run(ScenarioConfig.for_kind(kind, output=str(tmp_path / "run.csv"), **overrides))
        ref = tmp_path / "ref.csv"
        ref.write_text(per_row_csv(result.series))
        assert result.path.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    @pytest.mark.parametrize("previous", [True, False])
    def test_failed_write_leaves_previous_file(self, tmp_path, monkeypatch, error, previous):
        path = tmp_path / "series.csv"
        if previous:
            path.write_text("previous\n")
        real = timeseries._format_values

        def failing(values, width):
            passes = real(values, width)
            yield next(passes)
            raise error("formatter failed")

        monkeypatch.setattr(timeseries, "_format_values", failing)
        data = np.column_stack([np.arange(3 * timeseries._CSV_PASS), np.ones(3 * timeseries._CSV_PASS)])
        with pytest.raises(error, match="formatter failed"):
            TimeSeries(["t", "x"], data).write_csv(path)
        assert [p.name for p in tmp_path.iterdir()] == (["series.csv"] if previous else [])
        if previous:
            assert path.read_text() == "previous\n"


class TestCLI:
    def test_list_scenarios(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        assert "oracle-compare" in out and "fig6" in out

    def test_validate_ok(self, tmp_path, capsys):
        path = write_config(tmp_path, "scenario = fig6\n")
        assert main(["validate", str(path)]) == 0
        assert "config valid" in capsys.readouterr().out

    def test_validate_failure_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, "scenario = common-symmetric\n")
        assert main(["validate", str(path)]) == 1
        assert "j:" in capsys.readouterr().out

    def test_run_success(self, tmp_path, capsys):
        out = tmp_path / "fig6.csv"
        path = write_config(tmp_path, f"scenario = fig6\noutput = {out}\n")
        assert main(["run", str(path)]) == 0
        assert out.exists()

    def test_run_invalid_exit_code(self, tmp_path):
        path = write_config(tmp_path, "scenario = separate\nj = 2.0\n")
        assert main(["run", str(path)]) == 1

    def test_run_missing_file(self):
        assert main(["run", "/nonexistent/conf"]) == 1

    def test_repeated_calls_in_one_process(self, tmp_path, capsys):
        # each call exits as it does in a fresh interpreter, and a run repeated
        # after the others writes the same bytes
        out = tmp_path / "opt.csv"
        good = write_config(tmp_path, f"scenario = optimize\nk_a = 1.0\nk_b = 0.2679491924311227\n"
                                      f"output = {out}\n")
        bad = write_config(tmp_path, "scenario = separate\nj = 2.0\n", name="bad.cfg")
        calls = [["run", str(good)], ["validate", str(good)], ["list-scenarios"], ["run", str(bad)],
                 ["run", str(good)]]
        script = "import sys; from spinbath.cli import main; sys.exit(main(sys.argv[1:]))"
        alone = []
        for argv in calls:
            done = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                                  env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
            alone.append((done.returncode, out.read_bytes() if argv[0] == "run" and out.exists() else None))
            if out.exists():
                out.unlink()
        assert [code for code, _ in alone] == [0, 0, 0, 1, 0]
        together = []
        for argv in calls:
            together.append((main(argv), out.read_bytes() if argv[0] == "run" and out.exists() else None))
            if out.exists():
                out.unlink()
        capsys.readouterr()
        assert together == alone

    def test_import_leaves_argparse_out(self):
        code = "import sys, spinbath.cli; print(sorted({'argparse', 'gettext'} & set(sys.modules)))"
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                              env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert done.stdout.strip() == "[]"

    @pytest.mark.parametrize("argv, code", [
        ([], 1), (["run"], 1), (["run", "a", "b"], 1), (["bogus", "x"], 1), (["list-scenarios", "x"], 1),
        (["--help"], 0), (["-h"], 0), (["run", "--help"], 0), (["run", "a.cfg", "-h"], 0),
    ])
    def test_command_line_exit_code_and_streams(self, capsys, argv, code):
        assert main(argv) == code
        captured = capsys.readouterr()
        if code:
            assert captured.out == ""
            assert captured.err.splitlines() == [f"error: {cli.USAGE}"]
        else:
            assert captured.err == ""
            assert captured.out.startswith(cli.USAGE) and "list-scenarios" in captured.out

    @pytest.mark.parametrize("body", [
        "scenario = separate\nstate = r_state:nan\n",
        "scenario = fig5\nj = 1e200\nt_max = 1e-200\n",
        "scenario = oracle-compare\nmode = separate\nj = 0\nn_bath = 1\n",
        "scenario = separate\nt_max = 5e-324\nsamples = 3\n",
        "scenario = separate\nstate = werner:0.5,0.2\n",
        # two errors share the one line
        "scenario = separate\nj = 2.0\nstate = werner:0.5,0.2\n",
    ])
    def test_refused_run_prints_one_line(self, tmp_path, capsys, body):
        out = tmp_path / "out.csv"
        path = write_config(tmp_path, f"{body}output = {out}\n")
        assert main(["run", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {'; '.join(validate(parse_config_file(path)).errors)}"]
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["separate", "common-asymmetric", "fig5"])
    def test_run_builds_the_bath_once(self, tmp_path, monkeypatch, kind):
        calls = []

        def counted(*args):
            calls.append(args)
            return unpolarized_exact(8)

        monkeypatch.setattr(scenarios, "bath_from_config", counted)
        out = tmp_path / "out.csv"
        path = write_config(tmp_path, f"scenario = {kind}\nj = {0 if kind == 'separate' else 2}\n"
                                      f"samples = 20\noutput = {out}\n")
        assert main(["run", str(path)]) == 0
        assert len(calls) == 1 and out.exists()
        # a bare run() still validates for itself
        run(parse_config_file(path))
        assert len(calls) == 2

    @pytest.mark.parametrize("mode,j,state", [
        ("common", 1.3, "r_state:0.35"),
        ("separate", 0.0, "bell_t1"),
    ])
    def test_oracle_compare_n10(self, tmp_path, mode, j, state):
        # dimension 4096 is reached through the total-F_z blocks
        out = tmp_path / "oc.csv"
        path = write_config(
            tmp_path,
            f"scenario = oracle-compare\nmode = {mode}\nn_bath = 10\nbath = exact\n"
            f"k_a = 1.1\nk_b = 0.45\nj = {j}\nstate = {state}\nt_max = 5.0\n"
            f"samples = 20\noutput = {out}\n",
        )
        assert main(["run", str(path)]) == 0
        series = read_csv(out)
        assert series.metadata["within_tolerance"] == "true"
        assert series.column("max_abs_dev").max() <= 1e-10

    @pytest.mark.parametrize("line", ["k_a = inf", "t_max = nan"])
    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_non_finite_field_exit_code(self, tmp_path, capsys, command, line):
        out = tmp_path / "oc.csv"
        path = write_config(
            tmp_path, f"scenario = oracle-compare\nn_bath = 4\n{line}\noutput = {out}\n"
        )
        assert main([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert "must be finite" in captured.out + captured.err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["optimize", "fig6"])
    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_zero_couplings_exit_code(self, tmp_path, capsys, command, kind):
        out = tmp_path / f"{kind}.csv"
        path = write_config(tmp_path, f"scenario = {kind}\nk_a = 0\nk_b = 0\noutput = {out}\n")
        assert main([command, str(path)]) == 1
        assert refused_errors(command, capsys.readouterr()) == ["k_a, k_b: k_a^2 + k_b^2 must be nonzero and finite"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "body, message",
        [
            ("scenario = fig2\nk_a = 0.0\nk_b = 0.0\n",
             "k_a: fig2 needs k_a != 0 for its revival time 2 pi / k_a"),
            (f"scenario = separate\nsamples = {scenarios.MAX_SAMPLES + 1}\n",
             f"samples: at most {scenarios.MAX_SAMPLES} samples, got {scenarios.MAX_SAMPLES + 1}"),
            # a state parameter that is not a number, or not finite
            ("scenario = common-asymmetric\nn_bath = 30\nj = 1.0\nstate = r_state:abc\n",
             "state: could not convert string to float: 'abc'"),
            ("scenario = separate\nstate = r_state:nan\n",
             "state: state 'r_state' needs finite parameters, got 'nan'"),
            ("scenario = separate\nstate = r_state:inf\n",
             "state: state 'r_state' needs finite parameters, got 'inf'"),
            ("scenario = common-asymmetric\nj = 1.0\nstate = r_state:nan\n",
             "state: state 'r_state' needs finite parameters, got 'nan'"),
            ("scenario = oracle-compare\nn_bath = 4\nstate = general_pure:nan\n",
             "state: state 'general_pure' needs finite parameters, got 'nan'"),
            ("scenario = separate\nstate = general_pure:nan+1j\n",
             "state: state 'general_pure' needs finite parameters, got 'nan+1j'"),
            # a parameter that is real, given a complex value
            ("scenario = separate\nstate = r_state:1j\n",
             "state: could not convert string to float: '1j'"),
            # couplings whose squares, or line phases, overflow
            ("scenario = separate\nk_a = 1e200\nk_b = 1e200\n",
             "k_a, k_b: k_a^2 + k_b^2 must be finite"),
            ("scenario = common-symmetric\nj = 1.0\nk_a = 1e200\nk_b = 1e200\n",
             "k_a, k_b: k_a^2 + k_b^2 must be finite"),
            ("scenario = oracle-compare\nn_bath = 4\nk_a = 1e200\nk_b = 1e200\n",
             "k_a, k_b: k_a^2 + k_b^2 must be finite"),
            ("scenario = separate\nt_max = 1e308\n",
             "t_max: t_max * (|j| + (|k_a| + |k_b|) (n_bath + 2)) must be finite"),
            ("scenario = common-symmetric\nj = 1e308\n",
             "t_max: t_max * (|j| + (|k_a| + |k_b|) (n_bath + 2)) must be finite"),
            # line phases that stay finite while the squared splittings overflow
            ("scenario = fig5\nj = 1e200\nt_max = 1e-200\n",
             "j: (|j| + (|k_a| + |k_b|) (n_bath + 2))^2 must be finite"),
            ("scenario = common-asymmetric\nj = 1e200\nt_max = 1e-200\n",
             "j: (|j| + (|k_a| + |k_b|) (n_bath + 2))^2 must be finite"),
            # finite state parameters whose state vector overflows
            ("scenario = separate\nstate = general_pure:1e308\n",
             "state: state vector of norm 0 cannot be normalized"),
            ("scenario = common-asymmetric\nn_bath = 10\nj = 1.0\n"
             "state = general_pure:1e300,1e300,1e300\n",
             "state: state vector of norm 0 cannot be normalized"),
            ("scenario = separate\nstate = r_state:1e308\n",
             "state: state vector of norm inf cannot be normalized"),
            # the wrong number of state parameters
            ("scenario = separate\nstate = werner:0.5,0.2\n",
             "state: state 'werner' takes werner:p, got 'werner:0.5,0.2'"),
            ("scenario = separate\nstate = r_state\n",
             "state: state 'r_state' takes r_state:r, got 'r_state'"),
            ("scenario = common-asymmetric\nj = 1.0\nstate = general_pure:0.5,0.3,1.0,7\n",
             "state: state 'general_pure' takes general_pure:gamma[,theta[,phi]], "
             "got 'general_pure:0.5,0.3,1.0,7'"),
            # time grids whose samples collide
            ("scenario = separate\nt_max = 5e-324\nsamples = 3\n",
             "t_max: 5e-324 is too small to separate 3 samples"),
            ("scenario = common-symmetric\nj = 1.0\nt_max = 1e-323\nsamples = 4\n",
             "t_max: 1e-323 is too small to separate 4 samples"),
            ("scenario = oracle-compare\nn_bath = 4\nt_max = 5e-324\nsamples = 3\n",
             "t_max: 5e-324 is too small to separate 3 samples"),
            # a bath too large to hold its sectors
            ("scenario = separate\nn_bath = 1000000000000000\n",
             "n_bath: at most 1000000 bath spins, got 1000000000000000"),
            # separate oracle baths split n_bath between the qubits
            ("scenario = oracle-compare\nmode = separate\nj = 0\nn_bath = 1\n",
             "n_bath: separate baths need one spin per qubit, got 1"),
            # oracle phases that double precision cannot resolve to the tolerance
            ("scenario = oracle-compare\nk_a = 1\nk_b = 1e6\nt_max = 0.5\n",
             "t_max: the oracle resolves its phases to eps ||H|| t_max = 5e-10, above the tolerance 1e-10"),
            ("scenario = oracle-compare\nk_a = 3\nt_max = 1e6\n",
             "t_max: the oracle resolves its phases to eps ||H|| t_max = 3.6e-09, above the tolerance 1e-10"),
            ("scenario = oracle-compare\nmode = separate\nn_bath = 5\nk_b = 1e7\nt_max = 1\n",
             "t_max: the oracle resolves its phases to eps ||H|| t_max = 5e-09, above the tolerance 1e-10"),
        ],
    )
    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_out_of_range_exit_code(self, tmp_path, capsys, command, body, message):
        out = tmp_path / "out.csv"
        path = write_config(tmp_path, f"{body}output = {out}\n")
        tracemalloc.start()
        try:
            assert main([command, str(path)]) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # rejected before any time grid exists
        assert refused_errors(command, capsys.readouterr()) == [message]
        assert not out.exists()

    def test_nan_oracle_deviation_exit_code(self, tmp_path, monkeypatch):
        # validation rejects t_max = nan, so drive the runner past it: the
        # oracle's states are all NaN and the deviation gate must still fail
        out = tmp_path / "oc.csv"
        config = ScenarioConfig.for_kind(
            "oracle-compare", n_bath=4, samples=5, t_max=math.nan, output=str(out)
        )
        state = parse_state_spec(config.state)
        assert _run_oracle_compare(config, unpolarized_exact(4), state).numerical_failure

        def nan_oracle(full, state, times):
            nan = np.full((len(times), 3), math.nan)
            return TwoQubitState(nan, nan, np.full((len(times), 3, 3), math.nan))

        monkeypatch.setattr(scenarios, "evolve_reduced", nan_oracle)
        path = write_config(
            tmp_path, f"scenario = oracle-compare\nn_bath = 4\nsamples = 5\noutput = {out}\n"
        )
        assert main(["run", str(path)]) == 2
        assert "# within_tolerance = false" in out.read_text()
