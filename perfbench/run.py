"""spinbath benchmark: one command runs a workload, checks every output and
prints every metric by name and unit.

    python3 perfbench/run.py --workload figures --seed 0 --seconds 36 --trace 0

Run from the root of a source checkout; ``spinbath`` is imported from
``src/``. Each repetition is a fresh interpreter (see ``rep.py``), because
``spinbath run`` pays its cold caches and lazy set-up on every call; within a
repetition the ops run in a fixed order. Repetitions run one after another
(one process at a time) until ``--seconds`` have passed and at least
MIN_REPS have run; a repetition that would end past ``--seconds`` is
not started. The only threads are the program's own thread pool and
OpenBLAS; no thread count is set, the environment records what was found.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
traced and untraced repetitions and reports the per-layer metrics of the
traced ones; the untraced ones give the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A full record with
the environment and every repetition is written to
``perfbench/out/<workload>/result-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_REPS = 3
MIN_SETUPS = 9  # set-up samples per run; set-up-only processes fill up to this
DEADLINE_S = 170.0  # the whole run ends well within 180 s

END_TO_END = {
    "wall_s": "s",
    "wall_p75_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_frac": "ratio",
}
LAYERS = ("cli", "scenarios", "timeseries", "bath", "states", "separate", "common",
          "optimize", "oracle", "spinops")
FUNCTIONS = (
    "common.SymmetricEvolver.map_coefficients",
    "common.apply_polarization_map",
    "common.bell_mix_evolution",
    "common.SectorExactEvolver.__init__",
    "common.SectorExactEvolver.evolve",
    "states.state_to_density",
    "states.density_to_state",
    "states.concurrence",
    "states.decoherence_measure",
    "separate.decay_factors",
    "separate.evolve",
    "oracle.build",
    "oracle.FullSystem.eigensystem",
    "oracle.FullSystem.pair_overlaps",
    "oracle.evolve_reduced",
    "scenarios.validate",
    "timeseries.TimeSeries.write_csv",
    "bath.bath_from_config",
)
# the kernels whose inclusive time is divided by common.sector_samples
SECTOR_KERNELS = ("common.SymmetricEvolver.map_coefficients", "common.bell_mix_evolution",
                  "common.SectorExactEvolver.evolve")
DERIVED = {
    "common.sector_samples": "count",
    "common.ns_per_sector_sample": "ns",
    "oracle.dense_dim": "count",
    "oracle.h_bytes": "bytes",
    "oracle.evolve_reduced.busy_s": "s",
    "oracle.evolve_reduced.cover_s": "s",
    "oracle.evolve_reduced.overlap": "ratio",
    "pool.busy_s": "s",
    "pool.cover_s": "s",
    "bath.calls_per_run": "ratio",
    "timeseries.bytes_written": "bytes",
    "trace.main_cover": "ratio",
    "traced_wall_s": "s",
    "trace_overhead_s": "s",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in LAYERS + FUNCTIONS:
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    units.update(DERIVED)
    return units


def run_child(mode: str, ops_file: Path, result_file: Path, deadline: float):
    """Run one rep.py process; returns (result dict or None, error text)."""
    result_file.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "rep.py"), str(ROOT), str(ops_file), str(result_file), mode]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        return None, f"{mode} repetition timed out"
    if proc.returncode != 0 or not result_file.is_file():
        tail = proc.stderr.strip().splitlines()[-1:] or ["no result"]
        return None, f"{mode} repetition exited with {proc.returncode}: {tail[0]}"
    res = json.loads(result_file.read_text())
    res["setup_s"] = res["t_ready"] - t0
    return res, None


def _union(intervals) -> float:
    covered, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi > end:
            covered += hi - max(lo, end)
            end = hi
    return covered


def span_metrics(spans: dict, wall: float) -> dict[str, float]:
    merged: dict[str, list] = {}
    for table in (spans["main"], spans["worker"]):
        for name, (calls, self_s, total_s) in table.items():
            acc = merged.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += self_s
            acc[2] += total_s
    out: dict[str, float] = {}
    for layer in LAYERS:
        recs = [rec for name, rec in merged.items() if name.split(".", 1)[0] == layer]
        out[f"{layer}.self_s"] = sum(r[1] for r in recs)
        out[f"{layer}.calls"] = sum(r[0] for r in recs)
    for name in FUNCTIONS:
        calls, self_s, _ = merged.get(name, (0, 0.0, 0.0))
        out[f"{name}.self_s"] = self_s
        out[f"{name}.calls"] = calls
    counters = spans["counters"]
    sector_samples = counters.get("common.sector_samples", 0)
    kernel_s = sum(merged.get(name, (0, 0.0, 0.0))[2] for name in SECTOR_KERNELS)
    out["common.sector_samples"] = sector_samples
    out["common.ns_per_sector_sample"] = 1e9 * kernel_s / sector_samples if sector_samples else 0.0
    out["oracle.dense_dim"] = counters.get("oracle.dense_dim", 0)
    out["oracle.h_bytes"] = counters.get("oracle.h_bytes", 0)
    roots = spans["worker_roots"]
    evolve = [(lo, hi) for name, lo, hi in roots if name == "oracle.evolve_reduced"]
    busy, cover = sum(hi - lo for lo, hi in evolve), _union(evolve)
    out["oracle.evolve_reduced.busy_s"] = busy
    out["oracle.evolve_reduced.cover_s"] = cover
    out["oracle.evolve_reduced.overlap"] = busy / cover if cover else 0.0
    out["pool.busy_s"] = sum(hi - lo for _, lo, hi in roots)
    out["pool.cover_s"] = _union((lo, hi) for _, lo, hi in roots)
    runs = merged.get("cli.main", (0,))[0]
    out["bath.calls_per_run"] = merged.get("bath.bath_from_config", (0,))[0] / runs if runs else 0.0
    out["timeseries.bytes_written"] = counters.get("timeseries.bytes_written", 0)
    out["trace.main_cover"] = sum(rec[1] for rec in spans["main"].values()) / wall
    out["traced_wall_s"] = wall
    return out


def trace_overhead(reps) -> float | None:
    """Median over traced repetitions of the traced wall time minus the mean
    of the adjacent untraced ones; pairing neighbours cancels slow drift in
    machine speed."""
    diffs = []
    for k, rep in enumerate(reps):
        if rep["mode"] != "traced":
            continue
        near = [r["wall_s"] for r in reps[max(k - 1, 0):k + 2] if r["mode"] == "plain"]
        if near:
            diffs.append(rep["wall_s"] - statistics.fmean(near))
    return statistics.median(diffs) if diffs else None


def check_rep(res, ops, csv_dir: Path, reference: dict | None, error: str | None):
    """Per-op failure messages of one repetition ({} when all passed)."""
    if res is None:
        return {op["name"]: error for op in ops}
    failures = {}
    codes = {r["name"]: r for r in res["ops"]}
    for op in ops:
        name = op["name"]
        msgs = []
        if name in res["invalid"]:
            msgs.append(f"invalid config: {res['invalid'][name]}")
        rec = codes[name]
        if rec["code"] != 0:
            msgs.append(f"exit code {rec['code']}" + (f" ({rec['error']})" if rec["error"] else ""))
        else:
            ref = None if reference is None else reference.get(name, {"columns": None, "rows": -1})
            msgs += checks.check_csv(csv_dir / f"{name}.csv", op["rows"], ref)
        if msgs:
            failures[name] = "; ".join(msgs)
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store the default seed's CSV summaries in reference.json")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "spinbath" / "__init__.py").is_file():
        print(f"error: no spinbath sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record_reference and args.seed != workloads.DEFAULT_SEED:
        print("error: the reference is recorded for the default seed", file=sys.stderr)
        return 2

    work = HERE / "out" / args.workload
    cfg_dir, csv_dir = work / "cfg", work / "csv"
    shutil.rmtree(work, ignore_errors=True)
    cfg_dir.mkdir(parents=True)
    ops = []
    for name, fields in workloads.build(args.workload, args.seed):
        cfg = cfg_dir / f"{name}.cfg"
        output = (csv_dir / f"{name}.csv").relative_to(ROOT).as_posix()
        cfg.write_text(workloads.config_text(fields, output))
        ops.append({"name": name, "config": cfg.relative_to(ROOT).as_posix(),
                    "rows": fields["samples"]})
    ops_file, result_file = work / "ops.json", work / "rep.json"
    ops_file.write_text(json.dumps(ops))

    reference = None
    if args.seed == workloads.DEFAULT_SEED and not args.record_reference:
        reference = checks.load_reference(args.workload)

    # untimed warm-up: byte-compiles the sources and fills the file cache
    warm, error = run_child("setup", ops_file, result_file, deadline)
    if warm is None:
        print(f"error: {error}", file=sys.stderr)
        return 1
    env = warm["env"]

    reps = []
    failures = []
    setups = []
    elapsed = 0.0
    # stop before a repetition that would end past --seconds, so every run
    # measures about the same time whatever the repetition length
    while (len(reps) < MIN_REPS or elapsed + elapsed / len(failures) <= args.seconds) \
            and time.monotonic() < deadline:
        mode = "plain" if not args.trace or len(reps) % 2 else "traced"
        shutil.rmtree(csv_dir, ignore_errors=True)
        t0 = time.monotonic()
        res, error = run_child(mode, ops_file, result_file, deadline)
        elapsed += time.monotonic() - t0
        failures.append(check_rep(res, ops, csv_dir, reference, error))
        if res is not None:
            res["mode"] = mode
            reps.append(res)
            setups.append(res["setup_s"])
        if res is None and error.endswith("timed out"):
            break
    while len(setups) < MIN_SETUPS and time.monotonic() < deadline:
        res, _ = run_child("setup", ops_file, result_file, deadline)
        if res is not None:
            setups.append(res["setup_s"])

    attempted = len(ops) * len(failures)
    failed = sum(len(f) for f in failures)
    correct = failed == 0 and len(reps) >= MIN_REPS and len(setups) >= MIN_SETUPS

    if args.record_reference and correct:
        store = json.loads(checks.REFERENCE.read_text()) if checks.REFERENCE.is_file() else {}
        store[args.workload] = {
            op["name"]: checks.summary(*checks.read_csv(csv_dir / f"{op['name']}.csv"))
            for op in ops
        }
        checks.REFERENCE.write_text(json.dumps(store, indent=1) + "\n")

    if args.trace:
        traced = [r for r in reps if r["mode"] == "traced"]
        per_rep = [span_metrics(r["spans"], r["wall_s"]) for r in traced]
        units = per_layer_units()
        values = {k: statistics.median(m[k] for m in per_rep) for k in units if k in per_rep[0]} \
            if per_rep else {}
        overhead = trace_overhead(reps)
        if overhead is not None:
            values["trace_overhead_s"] = overhead
        (work / "trace-spans.json").write_text(json.dumps([r["spans"] for r in traced]))
    else:
        units = END_TO_END
        values = {}
        plain = [r["wall_s"] for r in reps]
        if len(plain) >= 2:
            values = {
                "wall_s": statistics.median(plain),
                "wall_p75_s": statistics.quantiles(plain, n=4)[2],
                "setup_s": statistics.median(setups),
                "peak_rss_mb": max(r["peak_rss_mb"] for r in reps),
                "pass_frac": (attempted - failed) / attempted,
            }
    correct = correct and set(values) == set(units)
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units if k in values}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "metrics": metrics,
        "attempted": attempted, "failed": failed, "failures": failures,
        "setup_s": setups,
        "reps": [{k: r[k] for k in ("mode", "wall_s", "setup_s", "peak_rss_mb", "ops")} for r in reps],
    }
    (work / f"result-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  repetitions {len(reps)}  "
          f"set-ups {len(setups)}  trace {args.trace}")
    print("environment " + json.dumps(env))
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'fail_frac':<48} {failed / attempted if attempted else 1.0:>14.6g} ratio "
          f"({failed} of {attempted} ops)")
    for rep_no, rep_failures in enumerate(failures):
        for name, msg in rep_failures.items():
            print(f"  FAILED rep {rep_no} {name}: {msg}")
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed if attempted else 1, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
