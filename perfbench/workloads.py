"""The four benchmark workloads: inputs, one timed operation, and its checks.

Each workload builds its inputs from the seed in `__init__` (that is the
set-up the benchmark times), runs one operation per `op` call, and checks an
operation's outcome in `check`, outside the timed section.  Geowave functions
are looked up on their modules at call time, so a tracer that patches those
modules sees every call.  WORKLOADS.md says why each workload was chosen.
"""
from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import math
import random
import sys
from pathlib import Path

import numpy as np

EPS = 1e-2
HORIZON = 1.0
DOMAIN_RADIUS = 6.0
MC_COLUMNS = 8
TRANSFORMS = ("identity", "log1p")
# Relative tolerance of the default-seed reference numbers.  A rewrite that
# only reorders floating-point operations moves states by about 1e-12 and
# stays inside it; a dropped force or noise term moves them by far more.
REFERENCE_RTOL = 1e-8

# Lattice sizes per scale.  "smoke" runs everything on 192-point lattices in
# seconds, for the benchmark's own tests.
SCALES = {
    "default": {"sphere_points": 1536, "circle_points": 192, "rate_horizon": 1.0, "rate_blocks": 4},
    "smoke": {"sphere_points": 192, "circle_points": 192, "rate_horizon": 0.5, "rate_blocks": 2},
}


def _gw(module: str):
    return sys.modules[f"geowave.{module}"]


def _sq(a) -> float:
    return float(np.sum(np.square(a)))


class Workload:
    """Shared inputs: grid, manifold, noise basis, diffusion field, initial state."""

    name = ""
    manifold_kind = "sphere"

    def __init__(self, seed: int, scale: str, workdir: Path, observer_hook=None):
        self.seed = int(seed)
        self.scale = SCALES[scale]
        self.workdir = Path(workdir)
        self.observer_hook = observer_hook or (lambda fn: fn)
        geometry, noise = _gw("geometry"), _gw("noise")
        points = self.scale[f"{self.manifold_kind}_points"]
        self.horizon = self._horizon()
        self.geom = _gw("states").make_grid(DOMAIN_RADIUS, points, self.horizon)
        self.steps = round(self.horizon / self.geom.spacing)
        self.manifold = getattr(geometry.ManifoldModel, self.manifold_kind)()
        self.basis = noise.build_basis(noise.SpectralMeasure.default_three_atoms())
        self.diffusion = geometry.DiffusionField.for_manifold(self.manifold)
        self.loc = _gw("solver").LocalizationParams(radius=self.geom.half_width)
        self.cone = _gw("function_spaces").LightCone(0.0, 2.0 * self.horizon)
        self.z0 = self._initial_state()

    def _horizon(self) -> float:
        return HORIZON

    def _initial_state(self):
        # the stream key the CLI uses for random initial data
        states = _gw("states")
        return states.random_state(self.geom, self.manifold, _gw("rng").stream(self.seed, 9000))

    def _solver_kwargs(self) -> dict:
        return {"manifold": self.manifold, "basis": self.basis, "diffusion": self.diffusion}

    def op(self, index: int, label: str):
        """Run operation `index`; return its outcome."""
        raise NotImplementedError

    def paths(self, outcome) -> int:
        """Paths the operation completed (read outside the timed section)."""
        raise NotImplementedError

    def check(self, index: int, outcome) -> list[str]:
        """Failed correctness checks of one operation's outcome."""
        raise NotImplementedError

    def reference(self, outcome) -> dict[str, float]:
        """Numbers compared against the committed default-seed reference."""
        raise NotImplementedError

    def _deviation(self, u, v) -> tuple[float, float]:
        return _sq(u - self.z0.u.values), _sq(v)


class McBatch(Workload):
    """One wide `solve_batch` Monte Carlo call; the observer keeps the final state."""

    name = "mc_batch"

    def _trial_ids(self, index: int) -> list[int]:
        return list(range(MC_COLUMNS * index, MC_COLUMNS * (index + 1)))

    def _final_observer(self, final: dict):
        steps = self.steps

        def keep_final(m, t, u, v):
            if m == steps:
                final["u"], final["v"] = u.copy(), v.copy()

        return self.observer_hook(keep_final)

    def op(self, index: int, label: str):
        final = {}
        _gw("solver").solve_batch(
            self.z0, EPS, self.horizon, self.loc, **self._solver_kwargs(),
            master_seed=self.seed, trial_ids=self._trial_ids(index), renormalize=True,
            keep_states=False, observer=self._final_observer(final),
        )
        return {"index": index, **final}

    def paths(self, outcome) -> int:
        return MC_COLUMNS

    def check(self, index: int, outcome) -> list[str]:
        failures = []
        u, v = outcome["u"], outcome["v"]
        residual = float(self.manifold.constraint_residual(u.reshape(-1, u.shape[-1])).max())
        if not residual <= 1e-9:
            failures.append(f"final constraint residual {residual:.3e} > 1e-9")
        if np.array_equal(u[:, 0], u[:, 1]) and np.array_equal(v[:, 0], v[:, 1]):
            failures.append("columns 0 and 1 are identical: no noise was applied")
        if index == 0:
            # lane purity: one column equals the single-path solve of its trial id
            col = self.seed % MC_COLUMNS
            single = {}
            _gw("solver").solve_stochastic(
                self.z0, EPS, None, self.horizon, self.loc, **self._solver_kwargs(),
                master_seed=self.seed, trial_id=self._trial_ids(index)[col], renormalize=True,
                keep_states=False, observer=self._final_observer(single),
            )
            if not (np.array_equal(single["u"][:, 0], u[:, col])
                    and np.array_equal(single["v"][:, 0], v[:, col])):
                failures.append(f"column {col} differs from its single-path solve")
        return failures

    def reference(self, outcome) -> dict[str, float]:
        out = {}
        for col in range(MC_COLUMNS):
            du, vv = self._deviation(outcome["u"][:, col], outcome["v"][:, col])
            out[f"col{col}.u_deviation_sq"] = du
            out[f"col{col}.v_sq"] = vv
        return out


class VerifyPaths(Workload):
    """One stored noisy path, then the energy verifier under both transforms."""

    name = "verify_paths"

    def op(self, index: int, label: str):
        traj = _gw("solver").solve_stochastic(
            self.z0, EPS, None, self.horizon, self.loc, **self._solver_kwargs(),
            master_seed=self.seed, trial_id=index, renormalize=True, keep_states=True,
        )
        verify = _gw("energy").verify_energy_inequality
        reports = {
            t: verify(traj, cone=self.cone, **self._solver_kwargs(), transform=t)
            for t in TRANSFORMS
        }
        final = traj.final_state()
        return {
            "final": self._deviation(final.u.values, final.v.values),
            "reports": {
                t: (len(r.violations), float(r.e_values[-1]), float(r.bound_values[-1]))
                for t, r in reports.items()
            },
        }

    def paths(self, outcome) -> int:
        return 1

    def check(self, index: int, outcome) -> list[str]:
        return [
            f"{count} energy violations under {t}"
            for t, (count, _, _) in outcome["reports"].items() if count
        ]

    def reference(self, outcome) -> dict[str, float]:
        out = {"final.u_deviation_sq": outcome["final"][0], "final.v_sq": outcome["final"][1]}
        for t, (_, e_final, bound_final) in outcome["reports"].items():
            out[f"{t}.e_final"] = e_final
            out[f"{t}.bound_final"] = bound_final
        return out


class CliWorkload(Workload):
    """A `geowave` command run in-process through `cli.run_command`."""

    command = ""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.config_path = self.workdir / f"{self.name}.cfg"
        self.config_path.write_text(self.config_text())

    def config_text(self) -> str:
        raise NotImplementedError

    def op(self, index: int, label: str):
        out = self.workdir / f"{self.name}-{label}"
        argv = [self.command, "--config", str(self.config_path), "--out", str(out),
                "--seed", str(self.seed)]
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            code = _gw("cli").run_command(argv)
        return {"code": code, "out": out, "stdout": stdout.getvalue()}

    def check(self, index: int, outcome) -> list[str]:
        if outcome["code"] != 0:
            return [f"exit code {outcome['code']}: {outcome['stdout'].strip()}"]
        return self.check_artifacts(outcome["out"])

    def check_artifacts(self, out: Path) -> list[str]:
        raise NotImplementedError

    @staticmethod
    def _json(path: Path) -> dict:
        return json.loads(path.read_text())


class RateGn(CliWorkload):
    """`geowave rate`: Gauss-Newton rate minimization toward a planted target."""

    name = "rate_gn"
    command = "rate"
    manifold_kind = "circle"
    mode = 1

    @property
    def amplitude(self) -> float:
        # the planted amplitude varies with the seed inside a band around 0.9
        # where the optimizer's iteration count does not change
        return round(0.86 + 0.08 * random.Random(self.seed).random(), 6)

    def _horizon(self) -> float:
        return self.scale["rate_horizon"]

    def _initial_state(self):
        return _gw("states").bump_state(self.geom, self.manifold)

    def config_text(self) -> str:
        return "\n".join([
            'manifold.kind = "circle"',
            f"grid.points = {self.scale['circle_points']}",
            f"time.horizon = {self.horizon!r}",
            f"noise.seed = {self.seed}",
            'experiment.initial = "bump"',
            'experiment.target = "planted"',
            f"experiment.mode = {self.mode}",
            f"experiment.amplitude = {self.amplitude!r}",
            f"experiment.blocks = {self.scale['rate_blocks']}",
        ]) + "\n"

    def paths(self, outcome) -> int:
        return int(self._json(outcome["out"] / "rate.json")["solves"])

    @functools.cached_property
    def planted_target(self):
        rows = np.zeros((self.steps, self.basis.dim))
        rows[:, self.mode] = self.amplitude
        solver = _gw("solver")
        return solver.solve_skeleton(self.z0, solver.Control(rows, self.geom.spacing), self.horizon,
                                     self.loc, **self._solver_kwargs()).final_state()

    def check_artifacts(self, out: Path) -> list[str]:
        failures = []
        rate = self._json(out / "rate.json")
        if rate["converged"] is not True:
            return ["rate minimization did not converge"]
        value, cost = float(rate["value"]), float(rate["planted_cost"])
        if not value <= 1.05 * cost:
            failures.append(f"rate value {value} exceeds 1.05 x planted cost {cost}")
        # certificate: re-simulate the blocks read back from the CSV
        with open(out / "control_blocks.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        coeffs = np.array([[float(c) for c in row[1:]] for row in rows])
        solver = _gw("solver")
        control = solver.Control(np.repeat(coeffs, self.steps // len(coeffs), axis=0), self.geom.spacing)
        redo = solver.solve_skeleton(self.z0, control, self.horizon, self.loc,
                                     **self._solver_kwargs()).final_state()
        diff = redo - self.planted_target
        gap = math.sqrt(2.0 * _gw("energy").energy(self.horizon, diff, self.cone, k=1))
        if not abs(gap - float(rate["terminal_gap"])) <= 1e-10:
            failures.append(f"re-simulated gap {gap!r} != reported {rate['terminal_gap']}")
        return failures

    def reference(self, outcome) -> dict[str, float]:
        rate = self._json(outcome["out"] / "rate.json")
        return {key: float(rate[key]) for key in ("value", "terminal_gap", "iterations", "solves")}


class SkeletonCsv(CliWorkload):
    """`geowave skeleton`: one zero-noise solve plus the CSV artifacts."""

    name = "skeleton_csv"
    command = "skeleton"

    def config_text(self) -> str:
        return "\n".join([
            'manifold.kind = "sphere"',
            f"grid.points = {self.scale['sphere_points']}",
            f"time.horizon = {self.horizon!r}",
            f"noise.seed = {self.seed}",
            'experiment.initial = "random"',
        ]) + "\n"

    def paths(self, outcome) -> int:
        return 1

    def check_artifacts(self, out: Path) -> list[str]:
        failures = []
        report = self._json(out / "skeleton.json")
        if report["energy_violations"] != 0:
            failures.append(f"{report['energy_violations']} energy violations")
        residual = float(report["max_constraint_residual"])
        if not residual < 1e-9:
            failures.append(f"max constraint residual {residual:.3e} >= 1e-9")
        return failures

    def reference(self, outcome) -> dict[str, float]:
        out = outcome["out"]
        table = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
        energy_rows = np.loadtxt(out / "energy_report.csv", delimiter=",", skiprows=1)
        numbers = {"trajectory.rows": float(len(table)), "energy.e_final": float(energy_rows[-1, 1]),
                   "energy.bound_final": float(energy_rows[-1, 2])}
        for col, key in zip(range(2, 8), ("u_1", "u_2", "u_3", "v_1", "v_2", "v_3")):
            numbers[f"trajectory.{key}_sq"] = _sq(table[:, col])
        return numbers


WORKLOADS = {cls.name: cls for cls in (McBatch, VerifyPaths, RateGn, SkeletonCsv)}


def reference_failures(numbers: dict[str, float], expected: dict[str, float]) -> list[str]:
    """Names whose value differs from the reference by more than REFERENCE_RTOL."""
    failures = []
    for key, want in sorted(expected.items()):
        got = numbers.get(key)
        if got is None:
            failures.append(f"reference number {key} missing")
        elif not abs(got - want) <= REFERENCE_RTOL * max(abs(want), abs(got)):
            failures.append(f"reference number {key}: {got!r} vs committed {want!r}")
    return failures
