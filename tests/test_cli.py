"""Tests for the config grammar, command driver, and artifact determinism."""
import hashlib
import json
import math
import re
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from geowave import cli, solver
from geowave.cli import CONFIG_KEYS, ExperimentConfig, _fmt, _write_csv, load_config, run_command
from geowave.energy import verify_energy_transforms
from geowave.errors import ConfigInvalid
from geowave.solver import solve_skeleton, trial_chunks
from geowave.states import make_grid

_SMALL = """
manifold.kind = "circle"
grid.points = 96
time.horizon = 0.5          # keep the runs short
"""


def _config(tmp_path, body, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(body)
    return path


def _small_with(line):
    """_SMALL with `line` added, replacing the line of the same key."""
    key = line.split("=", 1)[0].strip()
    kept = [ln for ln in _SMALL.splitlines() if ln.split("=", 1)[0].strip() != key]
    return "\n".join(kept + [line]) + "\n"


def test_defaults_from_empty_config(tmp_path):
    cfg = load_config(_config(tmp_path, "# nothing but a comment\n"), "verify")
    assert cfg == ExperimentConfig({key: spec.default for key, spec in CONFIG_KEYS["verify"].items()})
    assert cfg["manifold.kind"] == "sphere"
    assert cfg["grid.points"] == 1536
    assert cfg["noise.atoms"] == ((0.0, 0.5), (1.0, 0.3), (2.5, 0.2))
    assert load_config(_config(tmp_path, "# nothing but a comment\n"), "skeleton")["solver.renormalize"] is True


@pytest.mark.parametrize("command", ["verify", "rate", "probe-s1", "probe-s2", "tail"])
def test_renormalize_is_a_key_only_where_it_acts(tmp_path, command):
    # only skeleton and simulate pass it to the solver, so any other command would ignore it
    with pytest.raises(ConfigInvalid, match=f"unknown config key 'solver.renormalize' for command '{command}'"):
        load_config(_config(tmp_path, _small_with("solver.renormalize = false")), command)


def test_values_comments_and_booleans(tmp_path):
    body = """
    manifold.kind = "circle"   # inline comment
    grid.points = 128
    time.horizon = 0.75        # 16 steps of 6/128
    noise.atoms = ((0.0, 1.0),)
    solver.renormalize = FALSE
    experiment.eps = 1e-3
    """
    cfg = load_config(_config(tmp_path, body), "simulate")
    assert cfg["manifold.kind"] == "circle"
    assert cfg["grid.points"] == 128
    assert cfg["noise.atoms"] == ((0.0, 1.0),)
    assert cfg["solver.renormalize"] is False
    assert cfg["experiment.eps"] == 1e-3


def test_unknown_key_is_named(tmp_path):
    with pytest.raises(ConfigInvalid, match="grid.mesh"):
        load_config(_config(tmp_path, "grid.mesh = 7\n"), "verify")
    with pytest.raises(ConfigInvalid, match="experiment.bogus.*skeleton"):
        load_config(_config(tmp_path, "experiment.bogus = 1\n"), "skeleton")


# A valid config with blank and comment lines; the keyed lines are 1, 3 and 5.
_VALID_LINES = ['manifold.kind = "circle"', "# a comment", "grid.points = 96", "", "time.horizon = 0.5"]
_KEYED = {0: "manifold.kind", 2: "grid.points", 4: "time.horizon"}


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from(["no equals sign", "malformed key", "duplicate key", "not a literal"]),
       data=st.data())
def test_parse_errors_carry_line_numbers(tmp_path, kind, data):
    # a duplicate needs an earlier line with the same key, so it cannot come first
    pos = data.draw(st.integers(1 if kind == "duplicate key" else 0, len(_VALID_LINES)))
    if kind == "duplicate key":
        line = _KEYED[data.draw(st.sampled_from([i for i in _KEYED if i < pos]))] + " = 1"
    else:
        line = {"no equals sign": "grid.points 96", "malformed key": "grid.points.extra = 1",
                "not a literal": "solver.k_max = lots"}[kind]
    lines = _VALID_LINES[:pos] + [line] + _VALID_LINES[pos:]
    message = "expected 'section.key = value'" if kind == "no equals sign" else kind
    with pytest.raises(ConfigInvalid, match=f"^config line {pos + 1}: .*{re.escape(message)}"):
        load_config(_config(tmp_path, "\n".join(lines) + "\n"), "verify")


def test_invariants_rejected_at_load(tmp_path):
    with pytest.raises(ConfigInvalid, match="grid.points"):
        load_config(_config(tmp_path, "grid.points = 32\n"), "verify")
    with pytest.raises(ConfigInvalid, match="time.horizon"):
        load_config(_config(tmp_path, "time.horizon = 6.0\n"), "verify")
    with pytest.raises(ConfigInvalid, match="manifold.kind"):
        load_config(_config(tmp_path, 'manifold.kind = "torus"\n'), "verify")
    with pytest.raises(ConfigInvalid, match="noise.atoms"):
        load_config(_config(tmp_path, "noise.atoms = ()\n"), "simulate")
    with pytest.raises(ConfigInvalid, match="noise.atoms"):
        load_config(_config(tmp_path, "noise.atoms = 5\n"), "verify")


# Values that got past the config loader before it read every key from one table.
_BAD_VALUES = [
    # each ended in a traceback
    ("simulate", 'experiment.eps = "abc"'),
    ("skeleton", 'experiment.energy_transform = "cube"'),
    ("skeleton", "experiment.output_stride = 0"),
    ("probe-s1", 'experiment.perturbation = "bogus"'),
    ("probe-s1", "experiment.mode = 99"),
    ("rate", "experiment.mode = 99"),
    ("probe-s1", "experiment.n_list = ()"),
    ("rate", "experiment.budget = -1.0"),
    ("tail", "experiment.delta = -1.0"),
    ("tail", 'experiment.eps_list = (1e-2, "x")'),
    ("simulate", "time.horizon = 5e-324"),  # no lattice step
    # each failed at run time (exit 4)
    ("probe-s2", "experiment.trials = 5"),
    ("skeleton", "noise.atoms = ()"),
    ("rate", "noise.atoms = ()"),
    ("probe-s1", "noise.atoms = ()"),
    # each ran with the wrong value (exit 0)
    ("simulate", "experiment.eps = -0.5"),
    ("tail", "experiment.eps_list = (-1e-2, 3e-2)"),
    ("simulate", "experiment.trials = 2.7"),
    ("skeleton", "grid.points = 96.9"),
]


@pytest.mark.parametrize("command, line", _BAD_VALUES, ids=[f"{c}: {ln}" for c, ln in _BAD_VALUES])
def test_bad_values_exit_2_naming_the_key(tmp_path, capsys, command, line):
    key = line.split("=", 1)[0].strip()
    cfg = _config(tmp_path, _small_with(line))
    assert run_command([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert f"config error: key '{key}'" in capsys.readouterr().out


# Cones whose sections are not lattice windows (96-point circle, horizon 0.5, spacing 0.0625):
# too short for the horizon, not a lattice multiple, or at most one step wide at the horizon.
_BAD_CONES = [
    ("simulate", "experiment.cone_radius = 0.25"),
    ("skeleton", "experiment.cone_radius = 0.5"),
    ("rate", "experiment.cone_radius = 0.53"),
    ("tail", "experiment.cone_radius = 0.5625"),
    ("probe-s1", "experiment.cone_radius = 0.6"),
    ("probe-s2", "experiment.cone_center = 0.03"),
]


@pytest.mark.parametrize("command, line", _BAD_CONES, ids=[f"{c}: {ln}" for c, ln in _BAD_CONES])
def test_cones_off_the_lattice_exit_2_naming_the_key(tmp_path, capsys, command, line):
    key = line.split("=", 1)[0].strip()
    cfg = _config(tmp_path, _small_with(line))
    for cmd in (command, "simulate"):
        assert run_command([cmd, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"config error: key '{key}'" in capsys.readouterr().out


def test_a_cone_on_a_subnormal_lattice_exits_2_naming_the_radius(tmp_path, capsys):
    # the section ends divided by a subnormal spacing overflow to infinity
    cfg = _config(tmp_path, "manifold.kind = 'circle'\ngrid.points = 64\ngrid.domain_radius = 2.2250738585e-313\n"
                            "time.horizon = 3.476677905e-315\nexperiment.cone_radius = 1.0\n")
    assert run_command(["probe-s1", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "config error: key 'experiment.cone_radius'" in capsys.readouterr().out


def test_a_lattice_finer_than_the_spacing_floor_exits_2_naming_the_radius(tmp_path, capsys):
    def lattice(radius):  # 64 points, 8 steps: rate's default blocks divide them
        return (f"grid.points = 64\nmanifold.kind = 'circle'\n"
                f"grid.domain_radius = {radius!r}\ntime.horizon = {radius / 8!r}\n")

    # at spacing 1.4e-120 the window norm's squared second differences overflowed mid-run
    cfg = _config(tmp_path, lattice(9.004507584122993e-119))
    for command in sorted(CONFIG_KEYS):
        assert run_command([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "config error: key 'grid.domain_radius'" in capsys.readouterr().out
    assert not (tmp_path / "o").exists()
    for command in sorted(CONFIG_KEYS):
        assert load_config(_config(tmp_path, lattice(64 * cli.MIN_SPACING)), command).grid().spacing == cli.MIN_SPACING


def test_lattice_cones_still_load_and_run(tmp_path):
    for line in ("experiment.cone_radius = 1.125", "experiment.cone_radius = 0.625",
                 "experiment.cone_center = 0.03125\nexperiment.cone_radius = 0.96875"):
        cfg = _config(tmp_path, _SMALL + line + "\n")
        for command in ("skeleton", "simulate", "rate", "probe-s1", "probe-s2", "tail"):
            load_config(cfg, command)
    cfg = _config(tmp_path, _SMALL + "experiment.cone_radius = 1.125\nexperiment.trials = 2\n")
    assert run_command(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0


@pytest.fixture
def forked_splits(monkeypatch):
    """The column blocks each split of a run started, one entry per split that forked.

    An entry counts the split's first block, when the calling process steps
    it, and one block per child; a lone observed column is a child's alone.
    """
    splits, init = [], solver._Fork.__init__

    def recording(child, run, cols, start, end, window, others):
        init(child, run, cols, start, end, window, others)  # returns in this process only, after the fork
        if not others:  # the split's first child: column 0 is a child's when the calling process has no block
            splits.append(int(cols.start > 0))
        splits[-1] += 1

    monkeypatch.setattr(solver._Fork, "__init__", recording)
    return splits


def test_threads_are_capped_by_the_chunks_and_recorded(tmp_path, forked_splits):
    assert trial_chunks(range(3), 10**6) == [[0], [1], [2]]
    assert trial_chunks(range(9), 4) == [[0, 1, 2], [3, 4, 5], [6, 7, 8]]  # 3 threads, not 4
    requested = forked_splits  # so the wide run forks 2 children for its 3 columns, not 10**6 - 1
    cfg = _config(tmp_path, _SMALL + "experiment.trials = 3\n")
    for name, threads, used in (("wide", 10**6, 3), ("two", 2, 2), ("one", 1, 1)):
        out = tmp_path / name
        assert run_command(["simulate", "--config", str(cfg), "--out", str(out),
                            "--threads", str(threads)]) == 0
        assert json.loads((out / "manifest.json").read_text())["threads"] == used
    assert requested == [3, 2]
    skeleton = tmp_path / "skeleton"
    assert run_command(["skeleton", "--config", str(_config(tmp_path, _SMALL, "s.cfg")),
                        "--out", str(skeleton), "--threads", "8"]) == 0
    # no trials to fan out: one block, stepped by one child while the command observes it
    assert json.loads((skeleton / "manifest.json").read_text())["threads"] == 1
    assert requested == [3, 2, 1]  # a split of one block that forked: exactly one child
    s1 = tmp_path / "s1"  # probe-s1 fans out its perturbed paths: (2, 4, 8) in two blocks
    assert run_command(["probe-s1", "--config", str(_config(tmp_path, _SMALL + "experiment.n_list = (2, 4, 8)\n"
                                                            'experiment.perturbation = "constant"\n', "s1.cfg")),
                        "--out", str(s1), "--threads", "2"]) == 0
    assert json.loads((s1 / "manifest.json").read_text())["threads"] == 2
    assert requested == [3, 2, 1, 2]


def test_rate_steps_its_solves_in_the_requested_blocks_and_records_them(tmp_path, forked_splits):
    planted = _config(tmp_path, _SMALL, "planted.cfg")  # 8 steps, 8 blocks: chain segments up to 41 wide
    uncontrolled = _config(tmp_path, _SMALL + 'experiment.target = "uncontrolled"\n', "zero.cfg")
    runs = {}
    for name, cfg, threads in (("one", planted, 1), ("two", planted, 2), ("zero", uncontrolled, 4)):
        out = tmp_path / name
        before = len(forked_splits)
        assert run_command(["rate", "--config", str(cfg), "--out", str(out), "--threads", str(threads)]) == 0
        runs[name] = (json.loads((out / "manifest.json").read_text())["threads"], forked_splits[before:],
                      (out / "rate.json").read_bytes())
    assert runs["one"][:2] == (1, [])
    assert runs["two"][0] == 2 and runs["two"][1] and set(runs["two"][1]) == {2}
    assert runs["two"][2] == runs["one"][2]  # the blocks change no byte
    # the uncontrolled target converges at the first gap: width-1 solves fork no block
    assert runs["zero"][:2] == (1, [])


_SCALARS = {
    bool: st.booleans(),
    int: st.integers(-10**6, 10**6),
    float: st.floats(-1e6, 1e6),
    str: st.text("abcxyz", max_size=6),
}


def _bad_item(spec):
    """A value of the wrong type for one item of the key, or of its type but not allowed."""
    kind = spec.kind
    options = [st.none()] + [strategy for k, strategy in _SCALARS.items()
                             if k is not kind and (k, kind) != (int, float)]
    if spec.bound:
        op, low = spec.bound
        options.append(st.integers(-10**6, low - (op == ">=")) if kind is int
                       else st.floats(-1e6, low, exclude_max=op == ">="))
    if spec.choices:
        options.append(_SCALARS[str].filter(lambda text: text not in spec.choices))
    return st.one_of(options)


def _bad_value(spec):
    """A value the key must reject: a bad item, or a sequence that is empty, flat or holds a bad item."""
    if not spec.seq:
        return _bad_item(spec)
    good = list(spec.default)
    entry = _bad_item(spec)
    if spec.seq == 2:
        one_bad = st.builds(lambda bad, first: (bad, 0.5) if first else (0.5, bad), entry, st.booleans())
        entry = st.one_of(one_bad, st.sampled_from([(0.5,), (0.5, 0.5, 0.5)]), st.floats(0, 1))
    inserted = st.builds(lambda at, bad: tuple(good[:at]) + (bad,) + tuple(good[at:]),
                         st.integers(0, len(good)), entry)
    return st.one_of(st.just(()), st.floats(0, 1), inserted)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_key_rejects_wrong_types_and_out_of_range_values(tmp_path, data):
    command = data.draw(st.sampled_from(sorted(CONFIG_KEYS)), label="command")
    key = data.draw(st.sampled_from(sorted(CONFIG_KEYS[command])), label="key")
    value = data.draw(_bad_value(CONFIG_KEYS[command][key]), label="value")
    cfg = _config(tmp_path, _small_with(f"{key} = {value!r}"))
    with pytest.raises(ConfigInvalid, match=f"key '{re.escape(key)}'"):
        load_config(cfg, command)


def _good_item(spec):
    """A small allowed value for one item of the key: the runs it feeds stay short."""
    if spec.choices:
        return st.sampled_from(spec.choices)
    if spec.kind is bool:
        return st.booleans()
    op, low = spec.bound or (">=", -4)
    if spec.kind is int:
        return st.integers(low + (op == ">"), low + 4)
    return st.floats(low, low + 4, exclude_min=op == ">")


def _good_value(spec):
    item = _good_item(spec)
    if spec.seq == 2:
        item = st.tuples(item, item)
    return st.lists(item, min_size=1, max_size=3).map(tuple) if spec.seq else item


# keys whose generic small values would not make a short run on a small lattice
_FUZZ_VALUES = {"grid.points": st.integers(64, 96), "solver.k_max": st.integers(1, 2048)}


@st.composite
def _key_by_key_valid_configs(draw, command):
    """Config lines for command: each drawn key valid alone, the lattice keys most often valid together."""
    table = CONFIG_KEYS[command]
    keys = draw(st.lists(st.sampled_from(sorted(table)), unique=True), label="keys")
    values = {key: draw(_FUZZ_VALUES.get(key, _good_value(table[key])), label=key) for key in keys}
    values.setdefault("grid.points", draw(_FUZZ_VALUES["grid.points"], label="grid.points"))
    # a short horizon of whole lattice steps, and a cone of lattice windows, unless the draw says otherwise
    spacing = values.get("grid.domain_radius", 6.0) / values["grid.points"]
    steps = draw(st.integers(1, 8), label="steps")
    on_lattice = {"time.horizon": st.just(steps * spacing),
                  "experiment.cone_center": st.integers(-4, 4).map(lambda cells: cells * spacing),
                  "experiment.cone_radius": st.integers(steps + 2, steps + 8).map(lambda cells: cells * spacing)}
    for key, lattice in on_lattice.items():
        if key in values or key == "time.horizon":
            values[key] = draw(st.one_of(lattice, st.just(values[key])) if key in values else lattice, label=key)
    return "".join(f"{key} = {value!r}\n" for key, value in values.items())


# exit 4 without a runtime error: the command's own documented failure, read from its JSON
_FAILED_OUTCOMES = {
    "skeleton": ("skeleton.json", lambda report: report["energy_violations"] > 0),
    "rate": ("rate.json", lambda report: report["converged"] is False),
    "probe-s1": ("probe_s1.json", lambda report: report["passed"] is False),
    "probe-s2": ("probe_s2.json", lambda report: report["passed"] is False),
}


@st.composite
def _key_by_key_valid_runs(draw):
    """(command, config lines) for a drawn command."""
    command = draw(st.sampled_from(sorted(CONFIG_KEYS)), label="command")
    return command, draw(_key_by_key_valid_configs(command), label="config")


# probe-s1 runs whose usable abscissae are all equal: a log-log fit through them once warned or raised
_ONE_ABSCISSA = "grid.points = 64\ntime.horizon = 0.1875\nexperiment.n_list = "


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_key_by_key_valid_runs())
@example(case=("probe-s1", _ONE_ABSCISSA + "(2, 2, 2)\n"))
@example(case=("probe-s1", _ONE_ABSCISSA + "(1, 1, 1)\n"))
def test_every_key_by_key_valid_config_exits_at_load_or_runs_to_a_documented_exit(tmp_path, capsys, case):
    command, body = case
    table = CONFIG_KEYS[command]
    cfg = _config(tmp_path, body)
    out = tmp_path / f"out_{len(list(tmp_path.iterdir()))}"
    code = run_command([command, "--config", str(cfg), "--out", str(out)])
    text = capsys.readouterr().out
    if code == 2:  # at load, naming one of the command's keys, before any artifact
        named = re.match(r"config error: key '([^']+)'", text)
        assert named and named.group(1) in table and not out.exists(), text
        return
    assert code in (0, 3, 4), (code, text)
    if code == 3:
        assert command == "verify", text
    if code == 4 and not re.match(r"runtime error: (BlowupDetected|AllZeroCounts|OptimizerDiverged): ", text):
        name, failed = _FAILED_OUTCOMES[command]
        assert failed(json.loads((out / name).read_text())), text
    if code != 4 or not text.startswith("runtime error"):
        assert (out / "manifest.json").exists()


def _documented_keys():
    """(key, command) -> (type and allowed values, default) from README's config table."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Config files\n", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        if not line.startswith("| `"):
            continue
        key, commands, allowed, default = (cell.strip() for cell in line.strip("|").split("|"))
        names = {"all": list(CONFIG_KEYS), "all but verify": [c for c in CONFIG_KEYS if c != "verify"]}
        for command in names.get(commands, commands.split(", ")):
            rows[key.strip("`"), command] = (allowed, default)
    return rows


def test_readme_documents_every_config_key():
    rows = _documented_keys()
    for command, table in CONFIG_KEYS.items():
        for key, spec in table.items():
            assert (key, command) in rows, f"README's config table lacks {key} for {command}"
            allowed, default = rows[key, command]
            assert allowed == spec.describe(), (key, command)
            # a default the run works out is described in words, not quoted
            if spec.default is None:
                assert not default.startswith("`"), (key, command)
            else:
                assert default == f"`{spec.default!r}`", (key, command)
    assert set(rows) == {(key, command) for command, table in CONFIG_KEYS.items() for key in table}


def test_non_lattice_horizon_is_a_config_error(tmp_path, capsys):
    cfg = _config(tmp_path, 'manifold.kind = "circle"\ngrid.points = 96\ntime.horizon = 0.3\n')
    with pytest.raises(ConfigInvalid, match="time.horizon"):
        load_config(cfg, "simulate")
    assert run_command(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "config error: key 'time.horizon'" in capsys.readouterr().out


def test_rate_blocks_must_divide_the_steps(tmp_path, capsys):
    cfg = _config(tmp_path, 'manifold.kind = "circle"\ngrid.points = 96\nexperiment.blocks = 5\n')
    with pytest.raises(ConfigInvalid, match="experiment.blocks"):
        load_config(cfg, "rate")
    assert run_command(["rate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "config error: key 'experiment.blocks'" in capsys.readouterr().out
    for ok in (1, 4, 16):
        load_config(_config(tmp_path, f"grid.points = 96\nexperiment.blocks = {ok}\n"), "rate")


def test_trial_counts_and_noise_level_lists_are_config_errors(tmp_path, capsys):
    for command in ("simulate", "tail"):
        for trials in (0, -3):
            cfg = _config(tmp_path, _SMALL + f"experiment.trials = {trials}\n")
            with pytest.raises(ConfigInvalid, match="experiment.trials"):
                load_config(cfg, command)
            assert run_command([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
            assert "config error: key 'experiment.trials'" in capsys.readouterr().out
    for command in ("probe-s2", "tail"):
        cfg = _config(tmp_path, _SMALL + "experiment.eps_list = ()\n")
        with pytest.raises(ConfigInvalid, match="experiment.eps_list"):
            load_config(cfg, command)
        assert run_command([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "config error: key 'experiment.eps_list'" in capsys.readouterr().out


def test_starting_taper_level_above_k_max_exits_4(tmp_path, capsys):
    body = _SMALL + 'solver.k_max = 1\nexperiment.initial = "rotating_geodesic"\n'
    cfg = _config(tmp_path, body)
    assert run_command(["skeleton", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 4
    assert "starting taper level 11 of column 0 exceeds the top level 1" in capsys.readouterr().out


def test_probe_s2_with_two_eps_values_reports_no_slope(tmp_path, capsys):
    # the slope needs three distinct positive levels, so the config alone rules the run out
    # (statement2_probe itself returns slope None: test_statement2_freeze_matches_its_reference_observer)
    for eps_list in ("(1e-2, 1e-3)", "(0.0, 1e-2, 1e-3)", "(1e-2, 1e-2, 1e-3)", "(1e-2,)"):
        cfg = _config(tmp_path, _SMALL + f"experiment.trials = 30\nexperiment.eps_list = {eps_list}\n")
        with pytest.raises(ConfigInvalid, match="experiment.eps_list"):
            load_config(cfg, "probe-s2")
        assert run_command(["probe-s2", "--config", str(cfg), "--out", str(tmp_path / "s2")]) == 2
        assert "config error: key 'experiment.eps_list'" in capsys.readouterr().out
        load_config(cfg, "tail")  # tail reads each level on its own
    load_config(_config(tmp_path, _SMALL + "experiment.eps_list = (0.0, 1e-2, 1e-3, 1e-4)\n"), "probe-s2")


def test_probe_s2_with_an_odd_step_count_is_a_config_error(tmp_path, capsys):
    # the probe runs to half the horizon, which must be a lattice time too (7 steps of 0.03125 here)
    cfg = _config(tmp_path, 'manifold.kind = "circle"\ngrid.domain_radius = 3.0\ngrid.points = 96\n'
                            'time.horizon = 0.21875\nexperiment.trials = 30\n')
    with pytest.raises(ConfigInvalid, match="time.horizon"):
        load_config(cfg, "probe-s2")
    assert run_command(["probe-s2", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "config error: key 'time.horizon'" in capsys.readouterr().out
    for command in ("simulate", "tail"):  # these run to the whole horizon
        load_config(cfg, command)


def test_seed_override(tmp_path):
    path = _config(tmp_path, "noise.seed = 3\n")
    assert load_config(path, "verify")["noise.seed"] == 3
    assert load_config(path, "verify", seed_override=11)["noise.seed"] == 11


def test_driver_rejects_bad_invocations(tmp_path):
    cfg = _config(tmp_path, _SMALL)
    assert run_command(["skeleton", "--config", str(tmp_path / "missing.cfg"),
                        "--out", str(tmp_path / "o")]) == 2
    assert run_command(["skeleton", "--config", str(cfg),
                        "--out", str(tmp_path / "o"), "--threads", "0"]) == 2
    bad = _config(tmp_path, "grid.points = 8\n", name="bad.cfg")
    assert run_command(["skeleton", "--config", str(bad),
                        "--out", str(tmp_path / "o")]) == 2
    with pytest.raises(SystemExit):
        run_command(["meditate", "--config", str(cfg), "--out", str(tmp_path / "o")])


def _per_cell_csv(path, header, rows):
    """The CSV writer the array writer replaced, kept as its reference: one type dispatch per cell."""
    def cell(x):
        if isinstance(x, (bool, np.bool_)):
            return "true" if x else "false"
        if isinstance(x, (int, np.integer)):
            return str(int(x))
        return format(float(x), ".17g")

    path.write_text("\n".join([",".join(header)] + [",".join(map(cell, row)) for row in rows]) + "\n")


_EDGE_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072009e-308,
                2.2250738585072014e-308, 1e-308, 1e308, 1.7976931348623157e308, -1.7976931348623157e308,
                0.1, 1.0 / 3.0, 2.0**53, -(2.0**53)]
_CELLS = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.sampled_from(_EDGE_FLOATS))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), nrows=st.integers(0, 12), nfloat=st.integers(1, 4))
def test_array_writer_is_bytewise_the_per_cell_writer(tmp_path, data, nrows, nfloat):
    # an integer column (trial, block) is written as a float column
    ints = data.draw(st.lists(st.integers(-(2**53), 2**53), min_size=nrows, max_size=nrows), label="ints")
    cells = data.draw(st.lists(st.lists(_CELLS, min_size=nfloat, max_size=nfloat), min_size=nrows,
                               max_size=nrows), label="floats")
    block = np.array(cells, dtype=float).reshape(nrows, nfloat)
    header = ["i"] + [f"f_{j}" for j in range(nfloat)]
    _write_csv(tmp_path / "arrays.csv", header, np.array(ints, dtype=np.int64), block[:, 0], block[:, 1:])
    _per_cell_csv(tmp_path / "cells.csv", header, [[i, *row] for i, row in zip(ints, block)])
    assert (tmp_path / "arrays.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()
    assert all(_fmt(x) == format(float(x), ".17g") for x in block.ravel())


def _seventeen_roundtrip(s):
    return isinstance(s, str) and format(float(s), ".17g") == s


def test_skeleton_artifacts(tmp_path):
    cfg = _config(tmp_path, _SMALL + 'experiment.initial = "rotating_geodesic"\n')
    out = tmp_path / "skel"
    assert run_command(["skeleton", "--config", str(cfg), "--out", str(out)]) == 0
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t,x,u_1,u_2,v_1,v_2,constraint_residual"
    report = json.loads((out / "skeleton.json").read_text())
    assert float(report["max_constraint_residual"]) < 1e-9
    assert report["energy_violations"] == 0
    assert _seventeen_roundtrip(report["final_time"])
    energy_lines = (out / "energy_report.csv").read_text().splitlines()
    assert energy_lines[0] == "t,e,bound,gap"
    assert len(energy_lines) == 2 + round(0.5 * 96 / 6)  # header + steps + 1

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["schema"] == "geowave.manifest/1"
    assert manifest["command"] == "skeleton"
    assert manifest["config_sha256"] == hashlib.sha256(cfg.read_bytes()).hexdigest()
    assert manifest["artifacts"] == sorted(
        ["trajectory.csv", "energy_report.csv", "skeleton.json", "manifest.json"])


@pytest.mark.parametrize("nsteps, stride, steps", [
    (8, 1, range(9)), (8, 3, [0, 3, 6, 8]), (8, 5, [0, 5, 8]), (8, 8, [0, 8]), (8, 1000, [0, 8]),
    (8, None, range(9)),                      # the default stride, 8 // 32 -> 1
    (65, None, [*range(0, 65, 2), 65]),       # the default stride 65 // 32 = 2 does not divide 65
])
def test_trajectory_csv_holds_every_stride_th_step_and_the_last(tmp_path, nsteps, stride, steps):
    body = _small_with(f"time.horizon = {nsteps * 0.0625}")  # steps of 6 / 96
    cfg = _config(tmp_path, body + ("" if stride is None else f"experiment.output_stride = {stride}\n"))
    out = tmp_path / "skel"
    assert run_command(["skeleton", "--config", str(cfg), "--out", str(out)]) == 0
    table = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
    times, rows = np.unique(table[:, 0], return_counts=True)
    assert np.array_equal(times, 0.0625 * np.array(steps))
    assert (rows == rows[0]).all()  # every snapshot holds the whole lattice
    assert float(json.loads((out / "skeleton.json").read_text())["final_time"]) == times[-1]


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from(("circle", "sphere")), points=st.integers(64, 96), steps=st.integers(3, 10),
       renormalize=st.booleans(), initial=st.sampled_from(("rotating_geodesic", "bump", "random")),
       stride=st.sampled_from(("default", "one", "no divisor", "past the end")),
       transform=st.sampled_from(("identity", "log1p")))
def test_skeleton_artifacts_equal_the_stored_path_reference(tmp_path, kind, points, steps, renormalize, initial,
                                                            stride, transform):
    # the command keeps no states: its observer feeds the ledger and the snapshots as the run makes them
    strides = {"default": max(1, steps // 32), "one": 1, "no divisor": steps - 1, "past the end": steps + 3}
    body = (f'manifold.kind = "{kind}"\ngrid.points = {points}\ntime.horizon = {steps * (6.0 / points)!r}\n'
            f'solver.renormalize = {renormalize}\nexperiment.initial = "{initial}"\n'
            f'experiment.energy_transform = "{transform}"\n')
    if stride != "default":
        body += f"experiment.output_stride = {strides[stride]}\n"
    cfg = _config(tmp_path, body)
    out = tmp_path / "skel"
    with mock.patch.object(cli, "solve_skeleton", wraps=cli.solve_skeleton) as solve:
        assert run_command(["skeleton", "--config", str(cfg), "--out", str(out)]) == 0
    assert solve.call_count == 1 and solve.call_args.kwargs["keep_states"] is False

    config = load_config(cfg, "skeleton")
    run = cli._setup(config)
    stored = solve_skeleton(run.z0, None, config["time.horizon"], run.loc, **run.fields, renormalize=renormalize,
                            keep_states=True)
    rep = verify_energy_transforms(stored, (transform,), cone=config.cone(), **run.fields)[transform]
    _write_csv(tmp_path / "energy_report.csv", ["t", "e", "bound", "gap"],
               rep.times, rep.e_values, rep.bound_values, rep.gaps)
    assert (out / "energy_report.csv").read_bytes() == (tmp_path / "energy_report.csv").read_bytes()

    snaps = sorted({*range(0, steps + 1, strides[stride]), steps})  # every stride-th step and the last
    n, ncomp = run.geom.npoints, run.manifold.ambient_dim
    residual = run.manifold.constraint_residual(stored.u)  # (steps + 1, n)
    header = (["t", "x"] + [f"u_{c + 1}" for c in range(ncomp)] + [f"v_{c + 1}" for c in range(ncomp)]
              + ["constraint_residual"])
    _write_csv(tmp_path / "trajectory.csv", header, np.repeat(stored.times[snaps], n),
               np.tile(run.geom.x, len(snaps)), stored.u[snaps].reshape(-1, ncomp), stored.v[snaps].reshape(-1, ncomp),
               residual[snaps].ravel())
    assert (out / "trajectory.csv").read_bytes() == (tmp_path / "trajectory.csv").read_bytes()
    assert json.loads((out / "skeleton.json").read_text()) == {
        "final_time": _fmt(stored.times[-1]), "max_constraint_residual": _fmt(residual.max()),
        "energy_transform": transform, "energy_violations": len(rep.violations), "energy_tol": _fmt(rep.tol)}


def test_skeleton_peak_memory_stays_below_half_the_stored_path(tmp_path):
    # 240 steps of a 995-point sphere lattice: a stored path of 2 x 241 x 995 x 3 floats
    cfg = _config(tmp_path, 'manifold.kind = "sphere"\ngrid.points = 256\ntime.horizon = 5.625\n')
    geom, steps = make_grid(6.0, 256, 5.625), 240
    assert geom.npoints == 995
    stored = 2 * (steps + 1) * geom.npoints * 3 * 8
    tracemalloc.start()
    try:
        assert run_command(["skeleton", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < stored / 2, (peak, stored)


# random sphere data, where a batch's step-0 memory order shows in the last digit
_SPHERE_RANDOM = """
manifold.kind = "sphere"
grid.points = 96
time.horizon = 0.5
experiment.initial = "random"
"""


def _run_bytes(tmp_path, capsys, command, cfg, name, threads):
    """Every artifact's bytes but the manifest's, and stdout, of one run."""
    out = tmp_path / name
    code = run_command([command, "--config", str(cfg), "--out", str(out), "--threads", str(threads)])
    arts = {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "manifest.json"}
    return code, arts, capsys.readouterr().out


def test_simulate_is_deterministic_across_threads_and_runs(tmp_path, capsys):
    # 5 trials on 1..5 threads: chunks of widths 5 | 3, 2 | 2, 2, 1 | 2, 2, 1 | 1 x 5
    cfg = _config(tmp_path, _SPHERE_RANDOM + "experiment.trials = 5\nexperiment.eps = 1e-2\n")
    counts = (1, 2, 3, 4, 5, 1)
    runs = [_run_bytes(tmp_path, capsys, "simulate", cfg, f"t{i}", threads) for i, threads in enumerate(counts)]
    assert runs[0][0] == 0
    assert [threads for threads, run in zip(counts, runs) if run != runs[0]] == []
    bytes_a = runs[0][1]["trials.csv"]
    # manifests of the two serial runs agree except for the wall clock
    ma = json.loads((tmp_path / "t0" / "manifest.json").read_text())
    mc = json.loads((tmp_path / "t5" / "manifest.json").read_text())
    ma.pop("wall_time_s"), mc.pop("wall_time_s")
    assert ma == mc

    seeded = tmp_path / "d"
    assert run_command(["simulate", "--config", str(cfg), "--out", str(seeded),
                        "--seed", "5"]) == 0
    assert (seeded / "trials.csv").read_bytes() != bytes_a
    assert json.loads((seeded / "manifest.json").read_text())["seed"] == 5


@pytest.mark.parametrize("command, body, counts", [
    # 5 trials on 4 threads run chunks of widths 2, 2, 1
    # delta 0.1 leaves exceedance probabilities 1, 1 and 0.8
    pytest.param("tail", "experiment.trials = 5\nexperiment.eps_list = (1e-1, 3e-2, 1e-2)\n"
                 "experiment.delta = 0.1\n", (1, 2, 4, 5), id="tail"),
    pytest.param("probe-s2", "experiment.trials = 30\nexperiment.eps_list = (1e-1, 1e-2, 1e-3)\n",
                 (1, 4, 30), id="probe-s2"),
])
def test_trial_commands_are_byte_equal_across_thread_counts(tmp_path, capsys, command, body, counts):
    cfg = _config(tmp_path, _SPHERE_RANDOM + body)
    runs = [_run_bytes(tmp_path, capsys, command, cfg, f"t{threads}", threads) for threads in counts]
    assert runs[0][0] == 0
    assert [threads for threads, run in zip(counts, runs) if run != runs[0]] == []


def test_rate_of_uncontrolled_target_is_free(tmp_path):
    cfg = _config(tmp_path, _SMALL + 'experiment.target = "uncontrolled"\n'
                  'experiment.initial = "bump"\nexperiment.blocks = 4\n')
    out = tmp_path / "rate"
    assert run_command(["rate", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "rate.json").read_text())
    assert report["converged"] is True
    assert report["iterations"] == 0
    assert float(report["value"]) == 0.0
    blocks = (out / "control_blocks.csv").read_text().splitlines()
    assert blocks[0].startswith("block,mode_0")
    assert len(blocks) == 5  # header + 4 blocks


def test_probe_s1_and_tail_artifacts(tmp_path):
    cfg = _config(tmp_path, 'manifold.kind = "circle"\ngrid.points = 192\n'
                  "time.horizon = 0.5\nexperiment.n_list = (2, 4, 8)\n"
                  'experiment.initial = "bump"\nexperiment.tol = 0.1\n')
    out = tmp_path / "s1"
    assert run_command(["probe-s1", "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "probe_s1.csv").read_text().splitlines()
    assert rows[0] == "param,metric,stderr"
    assert len(rows) == 4
    report = json.loads((out / "probe_s1.json").read_text())
    assert report["passed"] is True

    tail_cfg = _config(tmp_path, _SMALL + "experiment.delta = 0.0\n"
                       "experiment.eps_list = (1e-3, 1e-2)\nexperiment.trials = 30\n"
                       'experiment.initial = "bump"\n', name="tail.cfg")
    tout = tmp_path / "tail"
    assert run_command(["tail", "--config", str(tail_cfg), "--out", str(tout)]) == 0
    report = json.loads((tout / "tail.json").read_text())
    assert [float(p) for p in report["eps_log_p"]] == [0.0, 0.0]


@pytest.mark.parametrize("command, lines", [
    ("probe-s1", "experiment.n_list = (2, 2, 2)\n"),
    ("probe-s1", "experiment.n_list = (1, 1, 1)\nexperiment.tol = 0.1\n"),  # n = 1 stays above 1e-2
    ("tail", "experiment.eps_list = (1e-2, 1e-2, 1e-2)\n"),
], ids=["probe-s1-twos", "probe-s1-ones", "tail-one-level"])
def test_a_fit_through_one_abscissa_has_no_slope(tmp_path, capsys, command, lines):
    cfg = _config(tmp_path, "grid.points = 64\ntime.horizon = 0.1875\n" + lines)
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_command([command, "--config", str(cfg), "--out", str(out)]) == 0, capsys.readouterr().out
    assert caught == []
    assert json.loads((out / f"{command.replace('-', '_')}.json").read_text())["slope"] is None


def test_verify_runs_all_invariant_groups(tmp_path, capsys):
    cfg = _config(tmp_path, "grid.points = 96\n")
    out = tmp_path / "verify"
    assert run_command(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "verify_report.json").read_text())
    assert report["total"] >= 25
    assert report["passed"] == report["total"]
    lines = capsys.readouterr().out.splitlines()
    assert sum(1 for ln in lines if ln.startswith("PASS")) == report["total"]


def test_verify_of_a_zero_weight_measure_fails_only_the_groups_that_need_noise(tmp_path, capsys):
    # the zero field: its variance and embedding norm are exactly 0, which once divided by zero
    cfg = _config(tmp_path, "noise.atoms = ((0.0, 0.0), (3.0, 0.0))\n")
    assert run_command(["verify", "--config", str(cfg), "--out", str(tmp_path / "verify")]) == 3
    failed = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("FAIL")]
    assert [ln.split(":")[0] for ln in failed] == ["FAIL  ldp.weak_perturbation_decay",
                                                   "FAIL  ldp.noise_energy_linear_in_eps"]
    assert failed[1] == ("FAIL  ldp.noise_energy_linear_in_eps: "
                         "both mean peak cone energies are 0: the measure has no weight")
