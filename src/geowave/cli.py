"""Command-line orchestration: configs, experiments, and reproducible artifacts.

Every run reads a single key-value config file, executes one subcommand, and
writes its outputs plus a manifest into the chosen directory.  All float
output is printed with 17 significant digits so a replay with the same config
and seed is byte-identical (the manifest's wall time is the one exception).
"""
from __future__ import annotations

import argparse
import ast
import hashlib
import json
import math
import operator
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .energy import _PathLedger
from .errors import ConfigInvalid, GeowaveError, HorizonExceeded, IntervalOutsideGrid, NonLatticeTime
from .function_spaces import LightCone, State
from .geometry import DiffusionField, ManifoldModel
from .ldp import (
    RateOptions,
    rate_function,
    statement1_probe,
    statement2_probe,
    tail_estimate,
)
from .noise import NoiseBasis, SpectralMeasure, build_basis
from .rng import stream
from .selfcheck import VERIFY_TRIALS, _fmt, verify_suite
from .solver import (
    Control,
    LocalizationParams,
    cone_energies,
    cone_window,
    solve_skeleton,
    trial_chunks,
)
from .states import (
    GridGeometry,
    bump_state,
    constant_state,
    make_grid,
    random_state,
    rotating_state,
)
from .wave_group import lattice_steps

__all__ = ["CONFIG_KEYS", "ConfigKey", "ExperimentConfig", "load_config", "run_command", "main"]


# ---------------------------------------------------------------------------
# config file format: one table declares every key
# ---------------------------------------------------------------------------

# experiment.initial -> builder(geom, manifold, seed); only "random" draws from the seed
_INITIAL_STATES = {
    "rotating_geodesic": lambda geom, man, seed: rotating_state(geom, man),
    "constant": lambda geom, man, seed: constant_state(geom, man),
    "bump": lambda geom, man, seed: bump_state(geom, man),
    "random": lambda geom, man, seed: random_state(geom, man, stream(seed, 9000)),
}

_NAMES = {bool: ("a boolean", "booleans"), int: ("an integer", "integers"),
          float: ("a number", "numbers"), str: ("a string", "strings")}
_ABOVE = {">": operator.gt, ">=": operator.ge}


@dataclass(frozen=True)
class ConfigKey:
    """One config key: the type of its value, its default and the values it allows."""

    kind: type               # bool, int, float or str: the value's type, or each item's
    default: object = None   # None: the run works the value out from other keys
    bound: tuple = ()        # (">", x) or (">=", x): the lower bound of a number or of each item
    choices: tuple = ()      # the only values a string may take
    seq: int = 0             # 0: one value; 1: a nonempty sequence; 2: a nonempty sequence of pairs

    def describe(self) -> str:
        single, plural = _NAMES[self.kind]
        text = (single, f"a nonempty sequence of {plural}", f"a nonempty sequence of pairs of {plural}")
        return text[self.seq] + (" %s %s" % self.bound if self.bound else "") + (
            f" in {self.choices}" if self.choices else "")

    def parse(self, key: str, raw):
        """raw as this key's typed value, or ConfigInvalid naming the key."""
        try:
            return self._typed(raw, self.seq)
        except (ValueError, OverflowError):  # OverflowError: an int too large for a float
            raise ConfigInvalid(f"key '{key}' must be {self.describe()}, got {raw!r}") from None

    def _typed(self, raw, depth: int):
        """raw as an allowed value of kind, inside `depth` nested sequences (inner ones are pairs)."""
        if depth:
            if not isinstance(raw, (list, tuple)) or not raw or (depth < self.seq and len(raw) != 2):
                raise ValueError(raw)
            return tuple(self._typed(item, depth - 1) for item in raw)
        # an int counts as a number, a bool as no integer
        number = self.kind is float and type(raw) in (int, float) and math.isfinite(raw)
        if not number and (self.kind is float or type(raw) is not self.kind):
            raise ValueError(raw)
        value = float(raw) if number else raw
        if (self.choices and value not in self.choices) or (
                self.bound and not _ABOVE[self.bound[0]](value, self.bound[1])):
            raise ValueError(raw)
        return value


_BASE_TABLE = {
    "manifold.kind": ConfigKey(str, "sphere", choices=("circle", "sphere")),
    "grid.domain_radius": ConfigKey(float, 6.0, (">", 0)),
    "grid.points": ConfigKey(int, 1536, (">=", 64)),
    "time.horizon": ConfigKey(float, 1.0, (">", 0)),
    "noise.atoms": ConfigKey(float, ((0.0, 0.5), (1.0, 0.3), (2.5, 0.2)), (">=", 0), seq=2),
    "noise.seed": ConfigKey(int, 0),
    "solver.k_max": ConfigKey(int, 1024, (">", 0)),
}
_RENORMALIZE = {"solver.renormalize": ConfigKey(bool, True)}  # only skeleton and simulate pass it on


def _table(initial: str = "random", **experiment) -> dict:
    """The base keys, the keys of a run from initial data, and a command's own keys."""
    return {
        **_BASE_TABLE,
        "experiment.initial": ConfigKey(str, initial, choices=tuple(_INITIAL_STATES)),
        "experiment.cone_center": ConfigKey(float, 0.0),
        "experiment.cone_radius": ConfigKey(float, None, (">", 0)),  # None: twice the horizon
        **{f"experiment.{name}": key for name, key in experiment.items()},
    }


# command -> key -> declaration.  Rules that span keys live in _check_across_keys.
CONFIG_KEYS = {
    "verify": _BASE_TABLE,
    "skeleton": _RENORMALIZE | _table(
        "rotating_geodesic",
        energy_transform=ConfigKey(str, "identity", choices=("identity", "log1p")),
        output_stride=ConfigKey(int, None, (">", 0)),  # None: a 32nd of the steps
    ),
    "simulate": _RENORMALIZE | _table(
        eps=ConfigKey(float, 1e-2, (">=", 0)),
        trials=ConfigKey(int, 8, (">", 0)),
    ),
    "rate": _table(
        target=ConfigKey(str, "planted", choices=("planted", "uncontrolled")),
        amplitude=ConfigKey(float, 0.9),
        mode=ConfigKey(int, None, (">=", 0)),  # None: mode 1, or 0 in a one-mode basis
        blocks=ConfigKey(int, RateOptions.blocks, (">", 0)),
        budget=ConfigKey(float, 50.0, (">", 0)),
        gap_tol=ConfigKey(float, RateOptions.gap_tol, (">", 0)),
    ),
    "probe-s1": _table(
        n_list=ConfigKey(int, (4, 8, 16, 32, 64), (">", 0), seq=1),
        amplitude=ConfigKey(float, 0.3),
        mode=ConfigKey(int, 0, (">=", 0)),
        tol=ConfigKey(float, 1e-2, (">", 0)),
        perturbation=ConfigKey(str, "oscillation", choices=("oscillation", "constant")),
    ),
    "probe-s2": _table(
        eps_list=ConfigKey(float, (1e-2, 1e-3, 1e-4), (">=", 0), seq=1),
        trials=ConfigKey(int, 50, (">=", 30)),
        threshold=ConfigKey(float, 10.0, (">", 0)),
    ),
    "tail": _table(
        delta=ConfigKey(float, 0.05, (">=", 0)),
        eps_list=ConfigKey(float, (3e-2, 1e-2, 3e-3), (">=", 0), seq=1),
        trials=ConfigKey(int, 64, (">", 0)),
        rate_value=ConfigKey(float, None, (">=", 0)),  # None: no comparison level
    ),
}


def _parse_value(raw: str, key: str, lineno: int):
    text = raw.strip()
    lowered = {"true": "True", "false": "False"}.get(text.lower())
    try:
        return ast.literal_eval(lowered or text)
    except (ValueError, SyntaxError):
        raise ConfigInvalid(
            f"config line {lineno}: value for key '{key}' is not a literal: {raw!r}"
        ) from None


def _parse_config_text(text: str) -> dict:
    entries = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigInvalid(f"config line {lineno}: expected 'section.key = value'")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key.count(".") != 1 or not all(part for part in key.split(".")):
            raise ConfigInvalid(f"config line {lineno}: malformed key '{key}'")
        if key in entries:
            raise ConfigInvalid(f"config line {lineno}: duplicate key '{key}'")
        entries[key] = _parse_value(raw, key, lineno)
    return entries


@dataclass(frozen=True)
class ExperimentConfig:
    """One command's settings: every key of its table, typed, defaults filled in."""

    values: dict

    def __getitem__(self, key: str):
        return self.values[key]

    def manifold(self) -> ManifoldModel:
        return ManifoldModel.circle() if self["manifold.kind"] == "circle" else ManifoldModel.sphere()

    def measure(self) -> SpectralMeasure:
        return SpectralMeasure(self["noise.atoms"])

    def grid(self):
        return make_grid(self["grid.domain_radius"], self["grid.points"], self["time.horizon"])

    def cone(self) -> LightCone:
        # a cone radius is positive, so None is its only false value
        return LightCone(self["experiment.cone_center"],
                         self["experiment.cone_radius"] or 2.0 * self["time.horizon"])


# below the square root of the unit roundoff a second difference of unit-size data is all roundoff, and far
# below it the H^2 norm's squared second differences overflow, or the squared spacing underflows to 0
MIN_SPACING = float(np.sqrt(np.finfo(float).eps))


def _check_across_keys(cfg: ExperimentConfig, command: str) -> None:
    """The rules that tie keys together: the lattice horizon and its half in probe-s2, probe-s2's noise
    levels, rate blocks, noise mode, the cone, the lattice spacing."""
    if cfg["time.horizon"] >= cfg["grid.domain_radius"]:
        raise ConfigInvalid("key 'time.horizon' must lie strictly between 0 and grid.domain_radius")
    try:
        steps = lattice_steps(cfg["time.horizon"], cfg.grid().spacing)
    except NonLatticeTime:
        raise ConfigInvalid(
            f"key 'time.horizon' must be a whole number of lattice steps of "
            f"grid.domain_radius / grid.points, got {cfg['time.horizon']}"
        ) from None
    if steps < 1:  # a positive horizon below 1e-9 steps rounds to none
        raise ConfigInvalid(f"key 'time.horizon' must cover at least one lattice step of "
                            f"grid.domain_radius / grid.points, got {cfg['time.horizon']}")
    if command == "probe-s2" and steps % 2:  # the probe runs to half the horizon
        raise ConfigInvalid(f"key 'time.horizon' must be an even number of lattice steps for probe-s2, "
                            f"got {cfg['time.horizon']} ({steps} steps)")
    if command == "probe-s2" and len({eps for eps in cfg["experiment.eps_list"] if eps > 0}) < 3:
        # the log-log slope is fitted to three or more positive noise levels
        raise ConfigInvalid(f"key 'experiment.eps_list' must hold at least three distinct positive noise "
                            f"levels for probe-s2, got {cfg['experiment.eps_list']}")
    blocks = cfg.values.get("experiment.blocks")
    if blocks is not None and steps % blocks:
        raise ConfigInvalid(f"key 'experiment.blocks' must divide the {steps} time steps, got {blocks}")
    mode = cfg.values.get("experiment.mode")
    if mode is not None and mode >= (dim := build_basis(cfg.measure()).dim):
        raise ConfigInvalid(f"key 'experiment.mode' must be below the noise basis dimension {dim}, "
                            f"got {mode}")
    if "experiment.cone_radius" in cfg.values:
        _check_cone(cfg, steps)
    if (spacing := cfg.grid().spacing) < MIN_SPACING:
        raise ConfigInvalid(f"key 'grid.domain_radius' must make a lattice spacing grid.domain_radius / "
                            f"grid.points of at least {MIN_SPACING:.3g}, got {spacing!r}")


def _cone_sections(cone: LightCone, geom, steps: int) -> None:
    """Build the cone's first and last sections; the ones between lie inside them."""
    for m in (0, steps):
        cone_window(cone, geom.origin, geom.spacing, geom.npoints, m)


def _check_cone(cfg: ExperimentConfig, steps: int) -> None:
    """Every cone section from t = 0 to the horizon must be a lattice window.

    That is, its ends are lattice points inside the lattice, at least 4 cells
    apart at the horizon.  The radius is blamed when the same cone centred at 0
    fails too, the centre otherwise.
    """
    geom, cone = cfg.grid(), cfg.cone()
    try:
        _cone_sections(cone, geom, steps)
    except (HorizonExceeded, IntervalOutsideGrid) as err:
        try:
            _cone_sections(LightCone(0.0, cone.horizon), geom, steps)
            key, value = "experiment.cone_center", cone.center
        except (HorizonExceeded, IntervalOutsideGrid):
            key, value = "experiment.cone_radius", cone.horizon
        raise ConfigInvalid(
            f"key '{key}' must give cone sections that are lattice windows at every step "
            f"(ends on lattice points, inside the lattice, at least 4 cells wide at the horizon), "
            f"got {value} ({err})"
        ) from None


def load_config(path: str | Path, command: str, seed_override: int | None = None) -> ExperimentConfig:
    """Read a config file for one command: every key of its table typed, checked and defaulted."""
    table = CONFIG_KEYS[command]
    entries = _parse_config_text(Path(path).read_text())
    for key in entries:
        if key not in table:
            raise ConfigInvalid(f"unknown config key '{key}' for command '{command}'")
    values = {key: spec.parse(key, entries[key]) if key in entries else spec.default
              for key, spec in table.items()}
    if seed_override is not None:
        values["noise.seed"] = seed_override
    cfg = ExperimentConfig(values)
    _check_across_keys(cfg, command)
    return cfg


# ---------------------------------------------------------------------------
# output helpers: 17 significant digits everywhere
# ---------------------------------------------------------------------------

def _seventeen(obj):
    """Recursively turn floats into 17-significant-digit strings for JSON."""
    if isinstance(obj, dict):
        return {k: _seventeen(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_seventeen(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_seventeen(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj)
    return obj


def _row_format(nfields: int) -> str:
    """One CSV row of nfields floats, 17 significant digits each."""
    return ",".join(["%.17g"] * nfields) + "\n"


def _write_rows(csv, fmt: str, block: np.ndarray) -> None:
    """Write the rows of a 2-D block to the open file csv: fmt holds one row format per row, filled by one %."""
    csv.write(fmt % tuple(block.ravel().tolist()))


def _write_csv(path: Path, header: list, *columns) -> None:
    """1-D columns and 2-D column blocks as one CSV; an integer below 2**53 prints as itself."""
    block = np.column_stack(columns)
    with open(path, "w") as csv:
        csv.write(",".join(header) + "\n")
        _write_rows(csv, _row_format(block.shape[1]) * len(block), block)


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(_seventeen(obj), indent=2, sort_keys=True) + "\n")


def _write_manifest(out: Path, command: str, config_path: str, cfg: ExperimentConfig,
                    threads: int, wall: float, artifacts: list) -> None:
    digest = hashlib.sha256(Path(config_path).read_bytes()).hexdigest()
    _write_json(out / "manifest.json", {
        "schema": "geowave.manifest/1",
        "package_version": __version__,
        "command": command,
        "config_sha256": digest,
        "seed": cfg["noise.seed"],
        "threads": threads,
        "wall_time_s": wall,
        "artifacts": sorted(artifacts),
    })


@dataclass(frozen=True)
class _Setup:
    """The lattice, target, noise and initial data every experiment starts from."""

    geom: GridGeometry
    manifold: ManifoldModel
    basis: NoiseBasis
    diffusion: DiffusionField
    loc: LocalizationParams
    z0: State

    @property
    def fields(self) -> dict:
        """The manifold, basis and diffusion keywords every solver and probe takes."""
        return {"manifold": self.manifold, "basis": self.basis, "diffusion": self.diffusion}


def _setup(cfg: ExperimentConfig) -> _Setup:
    geom = cfg.grid()
    man = cfg.manifold()
    return _Setup(
        geom, man, build_basis(cfg.measure()), DiffusionField.for_manifold(man),
        LocalizationParams(radius=geom.half_width, k_max=cfg["solver.k_max"]),
        _INITIAL_STATES[cfg["experiment.initial"]](geom, man, cfg["noise.seed"]),
    )


# ---------------------------------------------------------------------------
# subcommands: each returns its exit code, its artifacts and the most
# worker threads it started, which manifest.json records
# ---------------------------------------------------------------------------

def _cmd_verify(cfg: ExperimentConfig, out: Path, threads: int) -> tuple[int, list, int]:
    checks = verify_suite(cfg["noise.seed"], cfg.measure(), threads)
    for name, passed, detail in checks:
        print(f"{'PASS' if passed else 'FAIL'}  {name}: {detail}")
    n_pass = sum(1 for _, ok, _ in checks if ok)
    print(f"{n_pass}/{len(checks)} invariant groups passed")
    _write_json(out / "verify_report.json", {
        "groups": [{"name": n, "passed": ok, "detail": d} for n, ok, d in checks],
        "passed": n_pass,
        "total": len(checks),
    })
    return (0 if n_pass == len(checks) else 3), ["verify_report.json"], _trial_threads(VERIFY_TRIALS, threads)


def _cmd_skeleton(cfg: ExperimentConfig, out: Path, threads: int) -> tuple[int, list, int]:
    run = _setup(cfg)
    geom, man = run.geom, run.manifold
    cone, horizon = cfg.cone(), cfg["time.horizon"]
    steps = lattice_steps(horizon, geom.spacing)
    stride = cfg["experiment.output_stride"] or max(1, steps // 32)
    ncomp = man.ambient_dim
    header = (["t", "x"] + [f"u_{c + 1}" for c in range(ncomp)]
              + [f"v_{c + 1}" for c in range(ncomp)] + ["constraint_residual"])
    # every row of a snapshot but its t, with x formatted once: the snapshot of
    # time t is t + t.join(tails), each row led by t
    tails = ["," + _fmt(x) + "," + _row_format(2 * ncomp + 1) for x in geom.x]

    # a width-1 run on one thread: the observer's pair is the path's state, seen once per step
    ledger = _PathLedger(cone, **run.fields, origin=run.z0.origin, spacing=run.z0.spacing, npoints=geom.npoints,
                         eps=0.0)
    worst_res = 0.0

    def observe(m, t, u, v):
        nonlocal worst_res
        u, v = u[:, 0], v[:, 0]
        ledger.add(t, u, v)
        residual = man.constraint_residual(u)
        worst_res = max(worst_res, float(residual.max()))
        if m % stride == 0 or m == steps:  # every stride-th step and the last
            t = _fmt(t)
            _write_rows(csv, t + t.join(tails), np.column_stack((u, v, residual)))

    with open(out / "trajectory.csv", "w") as csv:
        csv.write(",".join(header) + "\n")
        solve_skeleton(run.z0, None, horizon, run.loc, **run.fields, renormalize=cfg["solver.renormalize"],
                       keep_states=False, observer=observe)

    transform = cfg["experiment.energy_transform"]
    rep = ledger.reports((transform,))[transform]
    _write_csv(out / "energy_report.csv", ["t", "e", "bound", "gap"],
               rep.times, rep.e_values, rep.bound_values, rep.gaps)
    _write_json(out / "skeleton.json", {
        "final_time": rep.times[-1],
        "max_constraint_residual": worst_res,
        "energy_transform": transform,
        "energy_violations": len(rep.violations),
        "energy_tol": rep.tol,
    })
    print(f"skeleton: {steps} steps, max constraint residual {_fmt(worst_res)}, "
          f"{len(rep.violations)} energy violations")
    code = 0 if not rep.violations else 4
    return code, ["trajectory.csv", "energy_report.csv", "skeleton.json"], 1


def _cmd_simulate(cfg: ExperimentConfig, out: Path, threads: int) -> tuple[int, list, int]:
    run = _setup(cfg)
    geom, man = run.geom, run.manifold
    cone = cfg.cone()
    eps, trials = cfg["experiment.eps"], cfg["experiment.trials"]
    steps = lattice_steps(cfg["time.horizon"], geom.spacing)
    windows = [cone_window(cone, geom.origin, geom.spacing, geom.npoints, m) for m in range(steps + 1)]
    (energy,), final_u = cone_energies(run.z0, eps, cfg["time.horizon"], run.loc, windows, [None], **run.fields,
                                       trial_ids=range(trials), master_seed=cfg["noise.seed"],
                                       renormalize=cfg["solver.renormalize"], threads=threads)
    sup_e = energy.max(axis=1, initial=0.0)
    final_res = man.constraint_residual(final_u).max(axis=1)
    _write_csv(out / "trials.csv", ["trial", "sup_cone_energy", "final_constraint_residual"],
               np.arange(trials), sup_e, final_res)
    _write_json(out / "simulate.json", {
        "eps": eps, "trials": trials,
        "mean_sup_cone_energy": float(sup_e.mean()),
        "max_sup_cone_energy": float(sup_e.max()),
        "max_constraint_residual": float(final_res.max()),
    })
    print(f"simulate: {trials} trials at eps = {_fmt(eps)}, "
          f"mean peak cone energy {_fmt(float(sup_e.mean()))}")
    return 0, ["trials.csv", "simulate.json"], _trial_threads(trials, threads)


def _cmd_rate(cfg: ExperimentConfig, out: Path, threads: int) -> tuple[int, list, int]:
    run = _setup(cfg)
    geom, basis = run.geom, run.basis
    horizon, blocks = cfg["time.horizon"], cfg["experiment.blocks"]
    opts = RateOptions(blocks=blocks, gap_tol=cfg["experiment.gap_tol"])
    steps = lattice_steps(horizon, geom.spacing)

    kind = cfg["experiment.target"]
    planted_cost = None
    if kind == "planted":
        mode = cfg["experiment.mode"]
        rates = np.zeros((steps, basis.dim))
        rates[:, min(1, basis.dim - 1) if mode is None else mode] = cfg["experiment.amplitude"]
        hstar = Control(rates, geom.spacing)
        planted_cost = 0.5 * hstar.squared_norm()
        target = solve_skeleton(run.z0, hstar, horizon, run.loc, **run.fields).final_state()
    else:
        target = solve_skeleton(run.z0, None, horizon, run.loc, **run.fields).final_state()

    res = rate_function(target, run.z0, cfg["experiment.budget"], opts, cone=cfg.cone(), horizon=horizon,
                        loc=run.loc, **run.fields, threads=threads)
    coeffs = res.argmin.coeffs[:: steps // blocks]
    _write_csv(out / "control_blocks.csv", ["block"] + [f"mode_{j}" for j in range(basis.dim)],
               np.arange(blocks), coeffs)
    payload = {
        "value": res.value,  # an unreachable target's inf is written as "inf"
        "terminal_gap": res.terminal_gap,
        "iterations": res.iterations,
        "converged": res.converged,
        "target": kind,
        "solves": res.metadata.get("solves", 0),
    }
    if planted_cost is not None:
        payload["planted_cost"] = planted_cost
    _write_json(out / "rate.json", payload)
    print(f"rate: value {_fmt(res.value)}, terminal gap {_fmt(res.terminal_gap)}, converged {res.converged}")
    return (0 if res.converged else 4), ["control_blocks.csv", "rate.json"], res.metadata.get("threads", 1)


def _report_artifacts(out: Path, stem: str, rep, extra_json: dict) -> list:
    _write_csv(out / f"{stem}.csv", ["param", "metric", "stderr"], rep.params, rep.metrics, rep.stderr)
    payload = {"slope": rep.slope, "passed": rep.passed}
    payload.update(extra_json)
    _write_json(out / f"{stem}.json", payload)
    return [f"{stem}.csv", f"{stem}.json"]


def _cmd_probe_s1(cfg: ExperimentConfig, out: Path, threads: int) -> tuple[int, list, int]:
    run = _setup(cfg)
    rep = statement1_probe(
        cfg["experiment.n_list"], run.z0, cfg.cone(),
        horizon=cfg["time.horizon"], loc=run.loc, **run.fields,
        amplitude=cfg["experiment.amplitude"], mode_index=cfg["experiment.mode"],
        tol=cfg["experiment.tol"], perturbation=cfg["experiment.perturbation"],
    )
    arts = _report_artifacts(out, "probe_s1", rep, {"tol": rep.extra["tol"],
                                                    "perturbation": rep.extra["perturbation"]})
    print(f"probe-s1: final sup distance {_fmt(rep.metrics[-1])}, passed {rep.passed}")
    return (0 if rep.passed or rep.extra["perturbation"] == "constant" else 4), arts, 1


def _cmd_probe_s2(cfg: ExperimentConfig, out: Path, threads: int) -> tuple[int, list, int]:
    run = _setup(cfg)
    rep = statement2_probe(
        cfg["experiment.eps_list"], cfg["experiment.trials"], cfg["experiment.threshold"],
        run.z0, cfg.cone(), cfg["noise.seed"], horizon=cfg["time.horizon"], loc=run.loc, **run.fields,
        threads=threads,
    )
    arts = _report_artifacts(out, "probe_s2", rep,
                             {"tau_fraction": rep.extra["tau_fraction"],
                              "trials": rep.extra["trials"]})
    slope = "none" if rep.slope is None else _fmt(rep.slope)  # fewer than three usable points
    print(f"probe-s2: log-log slope {slope}, passed {rep.passed}")
    return (0 if rep.passed else 4), arts, _trial_threads(cfg["experiment.trials"], threads)


def _cmd_tail(cfg: ExperimentConfig, out: Path, threads: int) -> tuple[int, list, int]:
    run = _setup(cfg)
    rep = tail_estimate(
        cfg["experiment.delta"], cfg["experiment.eps_list"], cfg["experiment.trials"],
        run.z0, cfg.cone(), cfg["noise.seed"], horizon=cfg["time.horizon"], loc=run.loc, **run.fields,
        rate_value=cfg["experiment.rate_value"], threads=threads,
    )
    arts = _report_artifacts(out, "tail", rep, rep.extra)
    print(f"tail: exceedance probabilities {[_fmt(p) for p in rep.metrics]}")
    return 0, arts, _trial_threads(cfg["experiment.trials"], threads)


_COMMANDS = {
    "verify": _cmd_verify,
    "skeleton": _cmd_skeleton,
    "simulate": _cmd_simulate,
    "rate": _cmd_rate,
    "probe-s1": _cmd_probe_s1,
    "probe-s2": _cmd_probe_s2,
    "tail": _cmd_tail,
}


def run_command(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="geowave",
        description="Localized stochastic wave maps: solvers, probes, and diagnostics.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="experiment config file")
    parser.add_argument("--out", required=True, help="output directory for artifacts")
    parser.add_argument("--seed", type=int, default=None, help="override noise.seed")
    parser.add_argument("--threads", type=int, default=1, help="column blocks of a batch, one worker thread each")
    args = parser.parse_args(argv)
    if args.threads < 1:
        print("error: --threads must be at least 1")
        return 2

    try:
        cfg = load_config(args.config, args.command, args.seed)
    except (ConfigInvalid, OSError) as err:
        print(f"config error: {err}")
        return 2

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    try:
        code, artifacts, threads = _COMMANDS[args.command](cfg, out, args.threads)
    except GeowaveError as err:
        print(f"runtime error: {type(err).__name__}: {err}")
        return 4
    wall = time.perf_counter() - started
    _write_manifest(out, args.command, args.config, cfg, threads, wall, artifacts + ["manifest.json"])
    return code


def _trial_threads(trials: int, threads: int) -> int:
    """Threads a trial fan-out starts: one per chunk of trials."""
    return len(trial_chunks(range(trials), threads))


def main() -> int:
    return run_command()


if __name__ == "__main__":
    raise SystemExit(main())
