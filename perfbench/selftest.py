"""Self-test of the benchmark; exits 0 when every check passes.

    python3 perfbench/selftest.py

Checks that every generated config passes ``spinbath validate`` for two
seeds, that the tracer's self times on a synthetic nested call sum to the
root span within 1%, that spans made in worker threads stay out of the main
thread's stack, and that instrumenting ``spinbath`` rebinds a function in
every module that imported it.
"""

from __future__ import annotations

import contextlib
import io
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import workloads
from tracer import Tracer, instrument

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = (workloads.DEFAULT_SEED, 1)


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def check_configs() -> list[str]:
    from spinbath import cli

    work = HERE / "out" / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    errors = []
    for seed in SEEDS:
        for workload in workloads.WORKLOADS:
            for name, fields in workloads.build(workload, seed):
                cfg = work / f"{workload}-{seed}-{name}.cfg"
                cfg.write_text(workloads.config_text(fields, f"{name}.csv"))
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                    code = cli.main(["validate", str(cfg)])
                if code != 0:
                    errors.append(f"seed {seed} {workload}/{name}: {out.getvalue().strip()}")
    return errors


def check_nested() -> list[str]:
    tracer = Tracer()
    leaf = tracer.wrap(lambda: _busy(0.01), "t.leaf")
    mid = tracer.wrap(lambda: (_busy(0.01), leaf(), leaf()), "t.mid")
    root = tracer.wrap(lambda: (_busy(0.01), mid(), leaf()), "t.root")
    root()
    main = tracer.snapshot()["main"]
    self_sum = sum(rec[1] for rec in main.values())
    root_total = main["t.root"][2]
    errors = []
    if abs(self_sum - root_total) > 0.01 * root_total:
        errors.append(f"self times sum to {self_sum:.6f} s, root span is {root_total:.6f} s")
    if [main[n][0] for n in ("t.root", "t.mid", "t.leaf")] != [1, 1, 3]:
        errors.append(f"call counts {main}")
    return errors


def check_threads() -> list[str]:
    tracer = Tracer()
    work = tracer.wrap(lambda: _busy(0.02), "t.work")

    def fan_out():
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(lambda _: work(), range(4)))

    tracer.wrap(fan_out, "t.fan_out")()
    snap = tracer.snapshot()
    errors = []
    if "t.work" in snap["main"]:
        errors.append("worker spans were charged to the main thread")
    if snap["worker"].get("t.work", [0])[0] != 4 or len(snap["worker_roots"]) != 4:
        errors.append(f"expected 4 worker root spans, got {snap['worker']}")
    main_total = snap["main"]["t.fan_out"][2]
    if abs(snap["main"]["t.fan_out"][1] - main_total) > 1e-12:
        errors.append("the waiting main span lost self time to worker spans")
    return errors


def check_instrument() -> list[str]:
    import spinbath
    from spinbath import common, scenarios, states

    tracer = Tracer()
    names = instrument(tracer, "spinbath")
    errors = []
    for span in ("states.decoherence_measure", "common.SectorExactEvolver.__init__",
                 "oracle.FullSystem.eigensystem", "timeseries.TimeSeries.write_csv"):
        if span not in names:
            errors.append(f"{span} not instrumented")
    for mod in (spinbath, states, scenarios, common):
        if not hasattr(mod.decoherence_measure, "__wrapped__"):
            errors.append(f"{mod.__name__}.decoherence_measure is not wrapped")
    if "states.TwoQubitState.__init__" in names:
        errors.append("a dataclass-generated __init__ was wrapped")
    state = states.make_named_state("singlet")
    scenarios.concurrence_state(state)
    main = tracer.snapshot()["main"]
    if main.get("states.concurrence", [0])[0] != 1:
        errors.append(f"nested call inside states not traced: {sorted(main)}")
    n = 20000

    def timed(func) -> float:
        t0 = time.perf_counter()
        for _ in range(n):
            func(state)
        return time.perf_counter() - t0

    # alternate traced and bare rounds and keep the fastest of each, so that
    # a burst of host load does not land on one side only
    rounds = [(timed(states.decoherence_measure), timed(states.decoherence_measure.__wrapped__))
              for _ in range(7)]
    extra = min(r[0] for r in rounds) - min(r[1] for r in rounds)
    print(f"  tracer cost per call: {extra / n * 1e6:.2f} us")
    return errors


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    failed = 0
    for name, check in (("configs validate for seeds " + ", ".join(map(str, SEEDS)), check_configs),
                        ("nested self times sum to the root span", check_nested),
                        ("worker-thread spans have their own stacks", check_threads),
                        ("instrumentation rebinds every namespace", check_instrument)):
        errors = check()
        print(f"{'PASS' if not errors else 'FAIL'} {name}")
        for err in errors:
            print(f"  {err}")
        failed += bool(errors)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
