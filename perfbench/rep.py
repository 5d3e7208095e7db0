"""One repetition of a workload, in a fresh interpreter.

    python3 perfbench/rep.py <root> <ops.json> <result.json> <mode>

``mode`` is ``plain``, ``traced`` or ``setup``. The process imports
``spinbath`` from ``<root>/src``, parses and validates every config of the
workload (the set-up), then, unless ``mode`` is ``setup``, runs the ops in
their fixed order as ``spinbath.cli.main(["run", <cfg>])`` calls. Later ops
therefore see the caches that earlier ops filled, as when a user runs them
one after another in one process.
It writes its timings, exit codes, peak memory, environment and, when
traced, the aggregated spans to ``<result.json>``.

Monotonic times are written as absolute ``time.monotonic()`` readings, so
the parent, which read the same clock just before starting this process,
can compute the set-up time from interpreter start.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path


def _hooks(np):
    """Counts recorded at layer boundaries, from the call's own arguments."""

    def sector_samples(n_sectors, times):
        return n_sectors * np.atleast_1d(times).size

    # the package passes these arguments positionally:
    # SymmetricEvolver.map_coefficients(self, times),
    # bell_mix_evolution(system, r, times), SectorExactEvolver.evolve(self, state, times)
    def symmetric(tr, args, result):
        tr.add("common.sector_samples", sector_samples(args[0].system.bath.spins.size, args[1]))

    def bell_mix(tr, args, result):
        tr.add("common.sector_samples", sector_samples(args[0].bath.spins.size, args[2]))

    def sector_exact(tr, args, result):
        tr.add("common.sector_samples", sector_samples(args[0].system.bath.spins.size, args[2]))

    def oracle_build(tr, args, result):
        tr.add("oracle.dense_dim", result.dim, max)
        tr.add("oracle.h_bytes", result.hamiltonian.nbytes)

    def write_csv(tr, args, result):
        tr.add("timeseries.bytes_written", os.path.getsize(args[1]))

    return {
        "common.SymmetricEvolver.map_coefficients": symmetric,
        "common.bell_mix_evolution": bell_mix,
        "common.SectorExactEvolver.evolve": sector_exact,
        "oracle.build": oracle_build,
        "timeseries.TimeSeries.write_csv": write_csv,
    }


def _blas_threads():
    """OpenBLAS thread count, read from the library numpy loaded."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def environment(root: Path) -> dict:
    import platform

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = None
    commit = None
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = root / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            commit = ref
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k == "SPINBATH_THREADS" or k.endswith("_NUM_THREADS")},
        "git_commit": commit,
    }


def main(argv: list[str]) -> int:
    root, ops_file, result_file, mode = Path(argv[0]), Path(argv[1]), Path(argv[2]), argv[3]
    src = root / "src"
    sys.path.insert(0, str(src))
    import spinbath
    from spinbath import cli, scenarios

    if Path(spinbath.__file__).resolve().parent != (src / "spinbath").resolve():
        print(f"error: imported spinbath from {spinbath.__file__}, not {src}", file=sys.stderr)
        return 1
    ops = json.loads(ops_file.read_text())
    invalid = {}
    for op in ops:
        try:
            report = scenarios.validate(scenarios.parse_config_file(op["config"]))
        except (scenarios.ConfigError, OSError) as exc:
            invalid[op["name"]] = str(exc)
            continue
        if not report.ok:
            invalid[op["name"]] = "; ".join(report.errors)
    t_ready = time.monotonic()
    result = {"t_ready": t_ready, "invalid": invalid}

    if mode != "setup":
        tracer = None
        if mode == "traced":
            import numpy as np

            from tracer import Tracer, instrument

            tracer = Tracer()
            instrument(tracer, "spinbath", _hooks(np))
        results = []
        t0 = time.monotonic()
        for op in ops:
            t_op = time.monotonic()
            error = None
            try:
                code = cli.main(["run", op["config"]])
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # an op that raises counts as failed, the run goes on
                code, error = -1, f"{type(exc).__name__}: {exc}"
            results.append({"name": op["name"], "code": code, "seconds": time.monotonic() - t_op,
                            "error": error})
        t1 = time.monotonic()
        result.update(
            wall_s=t1 - t0,
            ops=results,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        if tracer is not None:
            result["spans"] = tracer.snapshot()
    result["env"] = environment(root)
    result_file.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
