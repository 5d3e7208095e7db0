"""The command-line contract under extreme field values, drawn by hypothesis.

Every ``spinbath run`` ends in one of three ways: exit 0 with a finite CSV whose
mixedness lies in [0, 3/4] and whose concurrence lies in [0, 1]; exit 1 with one
line on stderr and no CSV; or, for an oracle comparison only, exit 2. A numpy
``RuntimeWarning`` fails the run too, as the test suite turns it into an error.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from spinbath.cli import main
from spinbath.scenarios import KINDS
from spinbath.timeseries import read_csv

TOL = 1e-12
# field values at the edges of double precision, and where |omega| t passes 1 / eps
MAGNITUDES = [0.0, 5e-324, 1e-300, 1e-150, 1.0, 1e16, 1e20, 1e150, 1e300]
# bath sizes past 64 spins, up to the validated cap, where the exact bath and the surrogate both run
N_LARGE = [65, 1000, 10**4, 10**6]
STATES = ["singlet", "triplet0", "bell_t1", "bell_t2", "up_down", "r_state:0.5", "updown_mix:-0.7",
          "werner:0.6", "general_pure:0.5,0.3,1.0"]


def field(values, signs=(1.0, -1.0)):
    """A drawn value, or None: the field is left out and the kind's default holds."""
    value = st.tuples(st.sampled_from(values), st.sampled_from(signs)).map(lambda p: p[0] * p[1])
    return st.one_of(st.none(), value)


@st.composite
def configs(draw) -> dict:
    kind = draw(st.sampled_from(list(KINDS)))
    oracle = kind == "oracle-compare"
    fields = dict(
        scenario=kind,
        n_bath=draw(st.integers(0, 4) if oracle else st.one_of(st.integers(0, 64), st.sampled_from(N_LARGE))),
        bath="exact" if oracle else draw(st.sampled_from(["exact", "gaussian-narrow"])),
        k_a=draw(field(MAGNITUDES)), k_b=draw(field(MAGNITUDES)), j=draw(field(MAGNITUDES)),
        t_max=draw(field(MAGNITUDES, (1.0,))),
        state=draw(st.sampled_from(STATES)),
        samples=draw(st.integers(2, 100)),
        mode=draw(st.sampled_from(["common", "separate"])),
    )
    return {key: value for key, value in fields.items() if value is not None}


def in_range(name: str, column: np.ndarray) -> bool:
    if name == "d" or name.startswith("d_"):
        return column.min() >= -TOL and column.max() <= 0.75 + TOL
    if name.startswith("purity"):  # 1 - D
        return column.min() >= 0.25 - TOL and column.max() <= 1.0 + TOL
    if name.startswith("concurrence"):
        return column.min() >= 0.0 and column.max() <= 1.0 + TOL
    return True


@given(configs())
@settings(max_examples=400, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_every_run_ends_in_the_contract(fields):
    with tempfile.TemporaryDirectory() as tmp:
        out, cfg = Path(tmp) / "out.csv", Path(tmp) / "run.cfg"
        cfg.write_text("".join(f"{k} = {v!r}\n" if isinstance(v, float) else f"{k} = {v}\n"
                               for k, v in fields.items()) + f"output = {out}\n")
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(["run", str(cfg)])
        if code == 1:
            assert len(stderr.getvalue().splitlines()) == 1 and not out.exists()
            return
        assert code == 0 or (code == 2 and fields["scenario"] == "oracle-compare"), stderr.getvalue()
        series = read_csv(out)
        assert np.all(np.isfinite(series.data))
        for k, name in enumerate(series.columns):
            assert in_range(name, series.data[:, k]), name
