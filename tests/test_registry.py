"""The scenario registry: the keys each kind reads, per-kind validation rules,
the listing, and one bath build and state parse per run."""

import pytest

from spinbath import scenarios, states
from spinbath.cli import main
from spinbath.scenarios import _FIELD_TYPES, KINDS, ConfigError, ScenarioConfig, run, validate

J_REQUIRED = "j: required for common-bath scenarios"
J_ZERO = "j: separate baths assume zero exchange; set j = 0"
EQUAL = "k_b: this scenario requires equal couplings"

CASES = {
    "j omitted": {},
    "j = None": {"j": None},
    "j = 0": {"j": 0.0},
    "j = 1": {"j": 1.0},
    "k_a != k_b": {"k_a": 1.3, "k_b": 0.7},
}

# validate's error lists as the per-kind tuples gave them before the registry;
# every (kind, case) not listed here validates clean
ERRORS = {
    ("separate", "j = 1"): [J_ZERO],
    ("common-symmetric", "j omitted"): [J_REQUIRED],
    ("common-symmetric", "j = None"): [J_REQUIRED],
    ("common-symmetric", "k_a != k_b"): [EQUAL, J_REQUIRED],
    ("common-asymmetric", "j omitted"): [J_REQUIRED],
    ("common-asymmetric", "j = None"): [J_REQUIRED],
    ("common-asymmetric", "k_a != k_b"): [J_REQUIRED],
    ("oracle-compare", "j = None"): [J_REQUIRED],
    ("fig1", "j = 1"): [J_ZERO],
    ("fig2", "j = None"): [J_REQUIRED],
    ("fig2", "k_a != k_b"): [EQUAL],
    ("fig3", "j = None"): [J_REQUIRED],
    ("fig3", "k_a != k_b"): [EQUAL],
    ("fig4", "j = None"): [J_REQUIRED],
    ("fig4", "k_a != k_b"): [EQUAL],
    ("fig5", "j = None"): [J_REQUIRED],
}

# the (kind, case) pairs that set a key the kind does not read: refused before validate
REFUSED = {
    ("optimize", "j = 0"): "j: optimize does not read this key",
    ("optimize", "j = 1"): "j: optimize does not read this key",
    ("fig6", "j = 0"): "j: fig6 does not read this key",
    ("fig6", "j = 1"): "j: fig6 does not read this key",
    ("fig6", "k_a != k_b"): "k_a: fig6 does not read this key; k_b: fig6 does not read this key",
}

# the keys each kind reads besides scenario and output
BATH = {"n_bath", "bath", "k_a", "k_b", "j", "t_max", "samples"}
READS = {
    "separate": BATH | {"state"},
    "common-symmetric": BATH | {"state"},
    "common-asymmetric": BATH | {"state"},
    "optimize": {"k_a", "k_b", "samples"},
    "oracle-compare": BATH | {"state", "mode"},
    "fig1": BATH, "fig2": BATH, "fig3": BATH, "fig4": BATH, "fig5": BATH,
    "fig6": {"samples"},
}
# a value of each key that every kind that reads it accepts
VALUES = dict(n_bath="4", bath="exact", k_a="1", k_b="1", j="0", state="singlet", t_max="1",
              samples="3", mode="common")
UNREAD = [(kind, key) for kind in READS for key in VALUES if key not in READS[kind]]

# several errors at once keep their order
COMBINED = [
    ("oracle-compare", dict(mode="separate", j=1.0), [J_ZERO]),
    ("oracle-compare", dict(mode="separate", j=None), []),
    ("oracle-compare", dict(mode="both"), ["mode: must be separate|common, got 'both'"]),
    ("oracle-compare", dict(n_bath=20, bath="gaussian-narrow", j=None),
     ["n_bath: 20 exceeds the dense-oracle cap of 12",
      "bath: oracle comparisons use the exact unpolarized bath", J_REQUIRED]),
    ("separate", dict(bath="foo", j=1.0, state="nope", samples=1, t_max=-1.0),
     ["samples: need at least 2 samples", "t_max: must be positive",
      "bath: unknown bath kind 'foo' (use exact|gaussian-narrow|gaussian-wide)", J_ZERO,
      "state: unknown state name 'nope'"]),
    ("fig2", dict(k_a=0.0, k_b=1.0, j=None),
     [EQUAL, "k_a: fig2 needs k_a != 0 for its revival time 2 pi / k_a", J_REQUIRED]),
    # any state evolves in closed form at any bath size
    ("common-asymmetric", dict(n_bath=40, state="bell_t1", j=None), [J_REQUIRED]),
    ("optimize", dict(k_a=0.0, k_b=0.0, samples=1),
     ["samples: need at least 2 samples", "k_a, k_b: k_a^2 + k_b^2 must be nonzero and finite"]),
]

LISTING = [
    ("separate", "two qubits with private baths, no exchange: D(t), C(t), decay factors"),
    ("common-symmetric", "shared bath, equal couplings: polarizations, D(t), C(t)"),
    ("common-asymmetric", "shared bath, unequal couplings: Bell-basis populations, D(t), C(t)"),
    ("optimize", "short-time decoherence rate over the pure-state family and its optimum"),
    ("oracle-compare", "analytic evolution vs the dense full-Hilbert oracle"),
    ("fig1", "private baths: purity loss for several initial entanglements"),
    ("fig2", "shared bath, product initial state: polarization relaxation and revival of entanglement"),
    ("fig3", "shared bath: pair mixedness vs single-qubit mixedness"),
    ("fig4", "shared bath, triplet Bell initial state: tensor polarizations and concurrence"),
    ("fig5", "shared bath, unequal couplings: exchange dependence of D(t) near singlet/triplet"),
    ("fig6", "decoherence rate vs coupling overlap for named and optimal states"),
]


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("kind", [name for name, _ in LISTING])
def test_validation_rules_per_kind(kind, case):
    if (kind, case) in REFUSED:
        with pytest.raises(ConfigError) as refused:
            ScenarioConfig.for_kind(kind, **CASES[case])
        assert str(refused.value) == REFUSED[kind, case]
        return
    report = validate(ScenarioConfig.for_kind(kind, **CASES[case]))
    assert report.errors == ERRORS.get((kind, case), [])


def test_each_kind_reads_its_declared_keys():
    assert set(_FIELD_TYPES) == set(VALUES) | {"scenario", "output"}
    assert {name: kind.reads for name, kind in KINDS.items()} == {
        name: keys | {"scenario", "output"} for name, keys in READS.items()}


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize("kind, key", UNREAD)
def test_unread_key_refused(tmp_path, capsys, command, kind, key):
    out = tmp_path / "out.csv"
    path = tmp_path / "run.cfg"
    path.write_text(f"scenario = {kind}\n{key} = {VALUES[key]}\noutput = {out}\n")
    assert main([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {key}: {kind} does not read this key"]
    assert list(tmp_path.iterdir()) == [path]
    # set to None through the library, the key counts as left out
    ScenarioConfig.for_kind(kind, **{key: None})


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize("body, keys", [
    ("scenario = fig3\nmode = bogus\nstate = werner:7\n", ["mode", "state"]),
    ("scenario = fig6\nn_bath = -5\nt_max = -1\nbath = nonsense\n", ["n_bath", "t_max", "bath"]),
    ("scenario = optimize\nstate = nonsense\nj = 5\n", ["state", "j"]),
])
def test_unread_keys_share_one_line(tmp_path, capsys, command, body, keys):
    kind = body.split("\n")[0].split(" = ")[1]
    path = tmp_path / "run.cfg"
    path.write_text(f"{body}output = {tmp_path / 'out.csv'}\n")
    assert main([command, str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: " + "; ".join(f"{key}: {kind} does not read this key" for key in keys)]
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("kind, overrides, errors", COMBINED)
def test_combined_errors_keep_order(kind, overrides, errors):
    assert validate(ScenarioConfig.for_kind(kind, **overrides)).errors == errors


def test_list_scenarios_in_table_order(capsys):
    assert main(["list-scenarios"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [(k, v.summary) for k, v in KINDS.items()] == LISTING
    width = max(len(name) for name, _ in LISTING)
    assert lines == [f"{name:<{width}}  {summary}" for name, summary in LISTING]


@pytest.mark.parametrize("kind", [name for name, _ in LISTING])
def test_one_bath_build_and_state_parse_per_run(kind, monkeypatch, tmp_path):
    calls = {"bath": 0, "state": 0, "exact": 0}

    def counted(key, func):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return func(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(scenarios, "bath_from_config", counted("bath", scenarios.bath_from_config))
    monkeypatch.setattr(states, "parse_state_spec", counted("state", states.parse_state_spec))
    monkeypatch.setattr(scenarios, "unpolarized_exact", counted("exact", scenarios.unpolarized_exact))
    overrides = dict(n_bath=8, samples=20, output=str(tmp_path / "out.csv"))
    if KINDS[kind].exchange == "stated":
        overrides["j"] = 2.0
    needs_bath, needs_state = ("n_bath" in KINDS[kind].defaults), ("state" in KINDS[kind].defaults)
    if not needs_bath:
        del overrides["n_bath"]
    run(ScenarioConfig.for_kind(kind, **overrides))
    assert calls["bath"] == int(needs_bath)
    assert calls["state"] == int(needs_state)
    # the common-mode oracle comparison uses the bath validate built
    assert calls["exact"] == 0


def test_trajectory_columns_are_declared_and_written(tmp_path):
    used = {c for kind in KINDS.values() for c in kind.columns}
    assert used == set(scenarios._COLUMNS)
    for name, kind in KINDS.items():
        if not kind.columns:
            continue
        out = tmp_path / f"{name}.csv"
        # private baths (exchange "zero") refuse a nonzero j
        j = 0.0 if kind.exchange == "zero" else 2.0
        run(ScenarioConfig.for_kind(name, n_bath=8, j=j, samples=20, output=str(out)))
        header = next(line for line in out.read_text().splitlines() if not line.startswith("#"))
        assert header == ",".join(["t", *kind.columns])
