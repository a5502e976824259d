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
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .energy import verify_energy_inequality
from .errors import ConfigInvalid, GeowaveError, NonLatticeTime
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
from .selfcheck import verify_suite
from .solver import (
    Control,
    LocalizationParams,
    cone_section_weights,
    run_trials,
    section_energy,
    solve_batch,
    solve_skeleton,
)
from .states import (
    GridGeometry,
    bump_state,
    constant_state,
    make_grid,
    random_state,
    rotating_state,
)
from .wave_group import GroupStep

__all__ = ["ExperimentConfig", "load_config", "run_command", "main"]


# ---------------------------------------------------------------------------
# config file format
# ---------------------------------------------------------------------------

_BASE_KEYS = {
    "manifold.kind",
    "grid.domain_radius",
    "grid.points",
    "time.horizon",
    "noise.atoms",
    "noise.seed",
    "solver.k_max",
    "solver.renormalize",
}

_EXPERIMENT_KEYS = {
    "verify": set(),
    "skeleton": {"initial", "energy_transform", "cone_center", "cone_radius", "output_stride"},
    "simulate": {"initial", "eps", "trials", "cone_center", "cone_radius"},
    "rate": {"initial", "target", "amplitude", "mode", "blocks", "budget", "gap_tol",
             "cone_center", "cone_radius"},
    "probe-s1": {"initial", "n_list", "amplitude", "mode", "tol", "perturbation",
                 "cone_center", "cone_radius"},
    "probe-s2": {"initial", "eps_list", "trials", "threshold", "cone_center", "cone_radius"},
    "tail": {"initial", "delta", "eps_list", "trials", "rate_value",
             "cone_center", "cone_radius"},
}

_DEFAULTS = {
    "manifold.kind": "sphere",
    "grid.domain_radius": 6.0,
    "grid.points": 1536,
    "time.horizon": 1.0,
    "noise.atoms": ((0.0, 0.5), (1.0, 0.3), (2.5, 0.2)),
    "noise.seed": 0,
    "solver.k_max": 1024,
    "solver.renormalize": True,
}

_STOCHASTIC_COMMANDS = {"simulate", "probe-s2", "tail", "verify"}


def _parse_value(raw: str, key: str, lineno: int):
    text = raw.strip()
    lowered = {"true": "True", "false": "False"}.get(text.lower())
    try:
        return ast.literal_eval(lowered or text)
    except (ValueError, SyntaxError):
        raise ConfigInvalid(
            f"config line {lineno}: value for key '{key}' is not a literal: {raw!r}"
        ) from None


def _as_int(raw) -> int:
    """int(raw), or 0 when raw is no number, so a positivity check rejects it."""
    try:
        return int(raw)
    except (TypeError, ValueError):
        return 0


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


@dataclass
class ExperimentConfig:
    """One experiment: target manifold, lattice, horizon, noise, and knobs."""

    manifold_kind: str = "sphere"
    domain_radius: float = 6.0
    points: int = 1536
    horizon: float = 1.0
    atoms: tuple = _DEFAULTS["noise.atoms"]
    seed: int = 0
    k_max: int = 1024
    renormalize: bool = True
    experiment: dict = field(default_factory=dict)

    def validate(self, command: str) -> None:
        if self.manifold_kind not in ("circle", "sphere"):
            raise ConfigInvalid(
                f"key 'manifold.kind' must be 'circle' or 'sphere', got {self.manifold_kind!r}"
            )
        if self.points < 64:
            raise ConfigInvalid(f"key 'grid.points' must be at least 64, got {self.points}")
        if not 0 < self.horizon < self.domain_radius:
            raise ConfigInvalid(
                "key 'time.horizon' must lie strictly between 0 and grid.domain_radius"
            )
        if command in _STOCHASTIC_COMMANDS and not self.atoms:
            raise ConfigInvalid(f"key 'noise.atoms' must be nonempty for command '{command}'")
        try:
            steps = GroupStep.from_time(self.horizon, self.grid().spacing).shift_count
        except NonLatticeTime:
            raise ConfigInvalid(
                f"key 'time.horizon' must be a whole number of lattice steps of "
                f"grid.domain_radius / grid.points, got {self.horizon}"
            ) from None
        allowed = _EXPERIMENT_KEYS[command]
        for key in self.experiment:
            if key not in allowed:
                raise ConfigInvalid(
                    f"unknown config key 'experiment.{key}' for command '{command}'"
                )
        if command == "rate":
            raw = self.experiment.get("blocks", RateOptions.blocks)
            blocks = _as_int(raw)
            if blocks < 1 or steps % blocks:
                raise ConfigInvalid(
                    f"key 'experiment.blocks' must be a positive divisor of the {steps} time steps, "
                    f"got {raw!r}"
                )
        trials = self.experiment.get("trials")
        if command in ("simulate", "tail") and trials is not None and _as_int(trials) < 1:
            # probe-s2 asks for at least 30 trials when it runs
            raise ConfigInvalid(f"key 'experiment.trials' must be a positive integer, got {trials!r}")
        eps_list = self.experiment.get("eps_list")
        if eps_list is not None and (not isinstance(eps_list, (list, tuple)) or not eps_list):
            raise ConfigInvalid(f"key 'experiment.eps_list' must be a nonempty sequence of noise levels, "
                                f"got {eps_list!r}")

    def manifold(self) -> ManifoldModel:
        return ManifoldModel.circle() if self.manifold_kind == "circle" else ManifoldModel.sphere()

    def measure(self) -> SpectralMeasure:
        return SpectralMeasure(tuple((float(f), float(w)) for f, w in self.atoms))

    def grid(self):
        return make_grid(self.domain_radius, self.points, self.horizon)

    def cone(self) -> LightCone:
        center = float(self.experiment.get("cone_center", 0.0))
        radius = float(self.experiment.get("cone_radius", 2.0 * self.horizon))
        return LightCone(center, radius)


def load_config(path: str | Path, command: str, seed_override: int | None = None) -> ExperimentConfig:
    entries = _parse_config_text(Path(path).read_text())
    known = dict(_DEFAULTS)
    experiment = {}
    for key, value in entries.items():
        if key.startswith("experiment."):
            experiment[key.split(".", 1)[1]] = value
        elif key in _BASE_KEYS:
            known[key] = value
        else:
            raise ConfigInvalid(f"unknown config key '{key}'")
    atoms = known["noise.atoms"]
    try:
        atoms = tuple((float(f), float(w)) for f, w in atoms)
    except (TypeError, ValueError):
        raise ConfigInvalid("key 'noise.atoms' must be a sequence of (frequency, weight) pairs") from None
    cfg = ExperimentConfig(
        manifold_kind=str(known["manifold.kind"]),
        domain_radius=float(known["grid.domain_radius"]),
        points=int(known["grid.points"]),
        horizon=float(known["time.horizon"]),
        atoms=atoms,
        seed=int(seed_override if seed_override is not None else known["noise.seed"]),
        k_max=int(known["solver.k_max"]),
        renormalize=bool(known["solver.renormalize"]),
        experiment=experiment,
    )
    cfg.validate(command)
    return cfg


# ---------------------------------------------------------------------------
# output helpers: 17 significant digits everywhere
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


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


def _write_csv(path: Path, header: list, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(cell) if not isinstance(cell, str) else cell for cell in row))
    path.write_text("\n".join(lines) + "\n")


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
        "seed": cfg.seed,
        "threads": threads,
        "wall_time_s": wall,
        "artifacts": sorted(artifacts),
    })


def _initial_state(cfg: ExperimentConfig, geom, manifold, default: str = "random"):
    kind = str(cfg.experiment.get("initial", default))
    if kind == "rotating_geodesic":
        return rotating_state(geom, manifold)
    if kind == "constant":
        return constant_state(geom, manifold)
    if kind == "bump":
        return bump_state(geom, manifold)
    if kind == "random":
        return random_state(geom, manifold, stream(cfg.seed, 9000))
    raise ConfigInvalid(f"key 'experiment.initial' has unknown value {kind!r}")


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


def _setup(cfg: ExperimentConfig, default_initial: str = "random") -> _Setup:
    geom = cfg.grid()
    man = cfg.manifold()
    return _Setup(
        geom, man, build_basis(cfg.measure()), DiffusionField.for_manifold(man),
        LocalizationParams(radius=geom.half_width, k_max=cfg.k_max),
        _initial_state(cfg, geom, man, default_initial),
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_verify(cfg: ExperimentConfig, out: Path, threads: int) -> tuple[int, list]:
    checks = verify_suite(cfg.seed, cfg.measure(), threads)
    for name, passed, detail in checks:
        print(f"{'PASS' if passed else 'FAIL'}  {name}: {detail}")
    n_pass = sum(1 for _, ok, _ in checks if ok)
    print(f"{n_pass}/{len(checks)} invariant groups passed")
    _write_json(out / "verify_report.json", {
        "groups": [{"name": n, "passed": ok, "detail": d} for n, ok, d in checks],
        "passed": n_pass,
        "total": len(checks),
    })
    return (0 if n_pass == len(checks) else 3), ["verify_report.json"]


def _cmd_skeleton(cfg: ExperimentConfig, out: Path, threads: int) -> tuple[int, list]:
    run = _setup(cfg, default_initial="rotating_geodesic")
    geom, man = run.geom, run.manifold
    traj = solve_skeleton(run.z0, None, cfg.horizon, run.loc, **run.fields,
                          renormalize=cfg.renormalize, keep_states=True)

    stride = int(cfg.experiment.get("output_stride", max(1, traj.steps // 32)))
    rows = []
    x = geom.x
    for m in range(0, traj.steps + 1, stride):
        state = traj.states[m]
        res = man.constraint_residual(state.u.values)
        for i in range(geom.npoints):
            rows.append([traj.times[m], x[i], *state.u.values[i], *state.v.values[i], res[i]])
    ncomp = man.ambient_dim
    header = (["t", "x"] + [f"u_{c + 1}" for c in range(ncomp)]
              + [f"v_{c + 1}" for c in range(ncomp)] + ["constraint_residual"])
    _write_csv(out / "trajectory.csv", header, rows)

    transform = str(cfg.experiment.get("energy_transform", "identity"))
    rep = verify_energy_inequality(traj, cone=cfg.cone(), **run.fields, transform=transform)
    _write_csv(out / "energy_report.csv", ["t", "e", "bound", "gap"],
               zip(rep.times, rep.e_values, rep.bound_values, rep.gaps))
    worst_res = max(float(man.constraint_residual(s.u.values).max()) for s in traj.states)
    _write_json(out / "skeleton.json", {
        "final_time": traj.times[-1],
        "max_constraint_residual": worst_res,
        "energy_transform": transform,
        "energy_violations": len(rep.violations),
        "energy_tol": rep.tol,
    })
    print(f"skeleton: {traj.steps} steps, max constraint residual {_fmt(worst_res)}, "
          f"{len(rep.violations)} energy violations")
    code = 0 if not rep.violations else 4
    return code, ["trajectory.csv", "energy_report.csv", "skeleton.json"]


def _cmd_simulate(cfg: ExperimentConfig, out: Path, threads: int) -> tuple[int, list]:
    run = _setup(cfg)
    geom, man = run.geom, run.manifold
    cone = cfg.cone()
    eps = float(cfg.experiment.get("eps", 1e-2))
    trials = int(cfg.experiment.get("trials", 8))
    steps = round(cfg.horizon / geom.spacing)
    weights = {m: cone_section_weights(cone, geom.origin, geom.spacing, geom.npoints, m)
               for m in range(steps + 1)}

    def run_chunk(ids):
        local = np.zeros(len(ids))
        final = {}

        def obs(m, t, u, v):
            np.maximum(local, section_energy(u, v, weights[m], geom.spacing), out=local)
            final["u"] = u

        solve_batch(run.z0, eps, cfg.horizon, run.loc, **run.fields, master_seed=cfg.seed,
                    trial_ids=ids, renormalize=cfg.renormalize, keep_states=False, observer=obs)
        res = man.constraint_residual(final["u"].reshape(-1, man.ambient_dim))
        return local, res.reshape(geom.npoints, len(ids)).max(axis=0)

    sup_e, final_res = run_trials(range(trials), run_chunk, threads)
    _write_csv(out / "trials.csv", ["trial", "sup_cone_energy", "final_constraint_residual"],
               ([tid, sup_e[tid], final_res[tid]] for tid in range(trials)))
    _write_json(out / "simulate.json", {
        "eps": eps, "trials": trials,
        "mean_sup_cone_energy": float(sup_e.mean()),
        "max_sup_cone_energy": float(sup_e.max()),
        "max_constraint_residual": float(final_res.max()),
    })
    print(f"simulate: {trials} trials at eps = {_fmt(eps)}, "
          f"mean peak cone energy {_fmt(float(sup_e.mean()))}")
    return 0, ["trials.csv", "simulate.json"]


def _cmd_rate(cfg: ExperimentConfig, out: Path, threads: int) -> tuple[int, list]:
    run = _setup(cfg)
    geom, basis = run.geom, run.basis
    blocks = int(cfg.experiment.get("blocks", RateOptions.blocks))
    opts = RateOptions(blocks=blocks, gap_tol=float(cfg.experiment.get("gap_tol", 1e-2)))
    budget = float(cfg.experiment.get("budget", 50.0))
    steps = round(cfg.horizon / geom.spacing)

    kind = str(cfg.experiment.get("target", "planted"))
    planted_cost = None
    if kind == "planted":
        amp = float(cfg.experiment.get("amplitude", 0.9))
        mode = int(cfg.experiment.get("mode", min(1, basis.dim - 1)))
        rates = np.zeros((steps, basis.dim))
        rates[:, mode] = amp
        hstar = Control(rates, geom.spacing)
        planted_cost = 0.5 * hstar.squared_norm()
        target = solve_skeleton(run.z0, hstar, cfg.horizon, run.loc, **run.fields).final_state()
    elif kind == "uncontrolled":
        target = solve_skeleton(run.z0, None, cfg.horizon, run.loc, **run.fields).final_state()
    else:
        raise ConfigInvalid(f"key 'experiment.target' has unknown value {kind!r}")

    res = rate_function(target, run.z0, budget, opts, cone=cfg.cone(), horizon=cfg.horizon,
                        loc=run.loc, **run.fields)
    coeffs = res.argmin.coeffs[:: steps // blocks]
    _write_csv(out / "control_blocks.csv",
               ["block"] + [f"mode_{j}" for j in range(basis.dim)],
               ([b, *coeffs[b]] for b in range(blocks)))
    payload = {
        "value": res.value if math.isfinite(res.value) else "inf",
        "terminal_gap": res.terminal_gap if math.isfinite(res.terminal_gap) else "inf",
        "iterations": res.iterations,
        "converged": res.converged,
        "target": kind,
        "solves": res.metadata.get("solves", 0),
    }
    if planted_cost is not None:
        payload["planted_cost"] = planted_cost
    _write_json(out / "rate.json", payload)
    print(f"rate: value {_fmt(res.value) if math.isfinite(res.value) else 'inf'}, "
          f"terminal gap {_fmt(res.terminal_gap) if math.isfinite(res.terminal_gap) else 'inf'}, "
          f"converged {res.converged}")
    return (0 if res.converged else 4), ["control_blocks.csv", "rate.json"]


def _report_artifacts(out: Path, stem: str, rep, extra_json: dict) -> list:
    _write_csv(out / f"{stem}.csv", ["param", "metric", "stderr"],
               zip(rep.params, rep.metrics, rep.stderr))
    payload = {"slope": rep.slope, "passed": rep.passed}
    payload.update(extra_json)
    _write_json(out / f"{stem}.json", payload)
    return [f"{stem}.csv", f"{stem}.json"]


def _cmd_probe_s1(cfg: ExperimentConfig, out: Path, threads: int) -> tuple[int, list]:
    run = _setup(cfg)
    rep = statement1_probe(
        None, list(cfg.experiment.get("n_list", (4, 8, 16, 32, 64))), run.z0, cfg.cone(),
        horizon=cfg.horizon, loc=run.loc, **run.fields,
        amplitude=float(cfg.experiment.get("amplitude", 0.3)),
        mode_index=int(cfg.experiment.get("mode", 0)),
        tol=float(cfg.experiment.get("tol", 1e-2)),
        perturbation=str(cfg.experiment.get("perturbation", "oscillation")),
    )
    arts = _report_artifacts(out, "probe_s1", rep, {"tol": rep.extra["tol"],
                                                    "perturbation": rep.extra["perturbation"]})
    print(f"probe-s1: final sup distance {_fmt(rep.metrics[-1])}, passed {rep.passed}")
    return (0 if rep.passed or rep.extra["perturbation"] == "constant" else 4), arts


def _cmd_probe_s2(cfg: ExperimentConfig, out: Path, threads: int) -> tuple[int, list]:
    run = _setup(cfg)
    rep = statement2_probe(
        list(cfg.experiment.get("eps_list", (1e-2, 1e-3, 1e-4))), None,
        int(cfg.experiment.get("trials", 50)),
        float(cfg.experiment.get("threshold", 10.0)),
        run.z0, cfg.cone(), cfg.seed, horizon=cfg.horizon, loc=run.loc, **run.fields,
        threads=threads,
    )
    arts = _report_artifacts(out, "probe_s2", rep,
                             {"tau_fraction": rep.extra["tau_fraction"],
                              "trials": rep.extra["trials"]})
    slope = "none" if rep.slope is None else _fmt(rep.slope)  # fewer than three usable points
    print(f"probe-s2: log-log slope {slope}, passed {rep.passed}")
    return (0 if rep.passed else 4), arts


def _cmd_tail(cfg: ExperimentConfig, out: Path, threads: int) -> tuple[int, list]:
    run = _setup(cfg)
    rate_value = cfg.experiment.get("rate_value")
    rep = tail_estimate(
        float(cfg.experiment.get("delta", 0.05)),
        list(cfg.experiment.get("eps_list", (3e-2, 1e-2, 3e-3))),
        int(cfg.experiment.get("trials", 64)),
        run.z0, cfg.cone(), cfg.seed, horizon=cfg.horizon, loc=run.loc, **run.fields,
        rate_value=None if rate_value is None else float(rate_value), threads=threads,
    )
    arts = _report_artifacts(out, "tail", rep, rep.extra)
    print(f"tail: exceedance probabilities {[_fmt(p) for p in rep.metrics]}")
    return 0, arts


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
    parser.add_argument("--threads", type=int, default=1, help="worker threads for trials")
    args = parser.parse_args(argv)
    if args.threads < 1:
        print("error: --threads must be at least 1")
        return 2

    try:
        cfg = load_config(args.config, args.command, args.seed)
    except ConfigInvalid as err:
        print(f"config error: {err}")
        return 2
    except OSError as err:
        print(f"config error: {err}")
        return 2

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    try:
        code, artifacts = _COMMANDS[args.command](cfg, out, args.threads)
    except ConfigInvalid as err:
        print(f"config error: {err}")
        return 2
    except GeowaveError as err:
        print(f"runtime error: {type(err).__name__}: {err}")
        return 4
    wall = time.perf_counter() - started
    _write_manifest(out, args.command, args.config, cfg, args.threads, wall,
                    artifacts + ["manifest.json"])
    return code


def main() -> int:
    return run_command()


if __name__ == "__main__":
    raise SystemExit(main())
