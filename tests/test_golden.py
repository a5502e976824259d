"""Golden outputs: the CLI's artifact bytes and the solvers' arrays, pinned.

Tier A runs every command on a small (192-point) config and compares the
SHA-256 of each artifact except `manifest.json` (whose wall time varies),
plus the SHA-256 of stdout and the exit code.  Tier B compares final states,
a noise log, verifier gaps and a mild-form residual at rtol 1e-12.

The fixtures under `tests/golden/` were recorded once with

    PYTHONPATH=src python tests/test_golden.py --record

and are never re-recorded to make a change pass: a refactor keeps them as
they are, and a change that moves them is a numerics change with its own
record.  Recording refuses to overwrite existing fixtures.
"""
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from geowave.cli import run_command
from geowave.energy import verify_energy_inequality
from geowave.function_spaces import LightCone
from geowave.geometry import DiffusionField, ManifoldModel
from geowave.noise import SpectralMeasure, build_basis
from geowave.rng import stream
from geowave.solver import (
    Control,
    LocalizationParams,
    mild_residual,
    solve_batch,
    solve_skeleton,
    solve_stochastic,
)
from geowave.states import bump_state, make_grid, random_state

GOLDEN = Path(__file__).resolve().parent / "golden"
HASHES = GOLDEN / "cli_sha256.json"
ARRAYS = GOLDEN / "arrays.npz"

_CIRCLE = 'manifold.kind = "circle"\ngrid.points = 192\nnoise.seed = 5\n'
_SPHERE = 'manifold.kind = "sphere"\ngrid.points = 192\nnoise.seed = 5\n'

# name -> (command, config text, --threads)
CASES = {
    "skeleton-circle": ("skeleton", _CIRCLE + 'experiment.initial = "bump"\n', 1),
    "skeleton-sphere": ("skeleton", _SPHERE + 'experiment.initial = "random"\n'
                        'experiment.energy_transform = "log1p"\n', 1),
    "simulate-sphere": ("simulate", _SPHERE + "experiment.trials = 6\n", 2),
    "rate-circle": ("rate", _CIRCLE + 'experiment.initial = "bump"\nexperiment.blocks = 4\n', 1),
    "probe-s1-circle": ("probe-s1", _CIRCLE, 1),
    "probe-s2-sphere": ("probe-s2", _SPHERE + "experiment.trials = 30\n"
                        "experiment.eps_list = (1e-2, 1e-3, 1e-4)\n", 2),
    "tail-circle": ("tail", _CIRCLE + "experiment.trials = 32\nexperiment.delta = 0.01\n", 3),
    "verify": ("verify", _CIRCLE, 1),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_case(name: str, workdir: Path) -> dict:
    command, body, threads = CASES[name]
    config = workdir / f"{name}.cfg"
    config.write_text(body)
    out = workdir / name
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run_command([command, "--config", str(config), "--out", str(out),
                            "--threads", str(threads)])
    record = {"exit": code, "stdout": _sha(buf.getvalue().encode())}
    for path in sorted(out.iterdir()):
        if path.name != "manifest.json":
            record[path.name] = _sha(path.read_bytes())
    return record


def _arrays() -> dict:
    """Tier-B arrays: controlled, noisy and batched solves plus their checks."""
    geom = make_grid(6.0, 192, 1.0)
    loc = LocalizationParams(radius=geom.half_width)
    basis = build_basis(SpectralMeasure.default_three_atoms())
    cone = LightCone(0.0, 2.0)
    steps = round(1.0 / geom.spacing)
    t = geom.spacing * np.arange(steps)
    sphere, y_s = ManifoldModel.sphere(), DiffusionField.sphere_axis_rotation()
    circle, y_c = ManifoldModel.circle(), DiffusionField.circle_rotation()
    out = {}

    rates = np.zeros((steps, basis.dim))
    rates[:, 0] = 0.8
    rates[:, 1] = -0.5 * np.sin(3.0 * t)
    zs = random_state(geom, sphere, stream(11, 9000))
    ctl = solve_skeleton(zs, Control(rates, geom.spacing), 1.0, loc,
                         manifold=sphere, basis=basis, diffusion=y_s)
    out["skeleton_u"] = ctl.final_state().u.values
    out["skeleton_v"] = ctl.final_state().v.values
    out["controlled_gaps"] = verify_energy_inequality(
        ctl, cone=cone, manifold=sphere, basis=basis, diffusion=y_s).gaps
    out["controlled_mild_residual"] = np.array(
        [mild_residual(ctl, loc, manifold=sphere, basis=basis, diffusion=y_s)])

    noisy = solve_stochastic(zs, 1e-2, None, 1.0, loc, manifold=sphere, basis=basis,
                             diffusion=y_s, master_seed=11, trial_id=3)
    out["stochastic_u"] = noisy.final_state().u.values
    out["stochastic_v"] = noisy.final_state().v.values
    out["stochastic_noise"] = noisy.noise_increments
    out["noisy_gaps"] = verify_energy_inequality(
        noisy, cone=cone, manifold=sphere, basis=basis, diffusion=y_s, transform="log1p").gaps

    zc = bump_state(geom, circle)
    per_column = np.zeros((steps, 3, basis.dim))
    for col, amp in enumerate((0.0, 0.4, -0.9)):
        per_column[:, col, col] = amp * np.cos(2.0 * t)
    batch = solve_batch(zc, 0.0, 1.0, loc, manifold=circle, basis=basis, diffusion=y_c,
                        control_rates=per_column, keep_states=True)
    out["batch_u"], out["batch_v"] = batch.u[-1], batch.v[-1]
    return out


@pytest.fixture(scope="module")
def golden_hashes():
    return json.loads(HASHES.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_artifacts_match_golden_hashes(name, golden_hashes, tmp_path):
    assert _run_case(name, tmp_path) == golden_hashes[name]


def test_arrays_match_golden_values():
    want = np.load(ARRAYS)
    got = _arrays()
    assert sorted(got) == sorted(want.files)
    for key in want.files:
        np.testing.assert_allclose(got[key], want[key], rtol=1e-12, atol=0, err_msg=key)


def _record() -> None:
    if HASHES.exists() or ARRAYS.exists():
        raise SystemExit(f"golden fixtures already exist under {GOLDEN}; they are never re-recorded")
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        hashes = {name: _run_case(name, Path(tmp)) for name in sorted(CASES)}
    HASHES.write_text(json.dumps(hashes, indent=2, sort_keys=True) + "\n")
    np.savez(ARRAYS, **_arrays())


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: python tests/test_golden.py --record")
    _record()
