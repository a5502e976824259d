"""The export surface: every exported name resolves, deleted names stay deleted, no import is unused."""
import ast
import dataclasses
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import geowave
from geowave.energy import verify_energy_inequality
from geowave.geometry import ManifoldModel
from geowave.ldp import RateOptions, statement1_probe, statement2_probe
from geowave.solver import LocalizationParams, drift_force, solve_batch
from geowave.wave_group import apply_group

MODULES = sorted(info.name for info in pkgutil.iter_modules(geowave.__path__))

# public names removed because no command, verify group or benchmark reached them, and private
# helpers of a deleted mechanism (geowave skeleton's piece walk)
DELETED = {
    "solver": ("localized_drift", "q_transform", "q_transform_derivative", "_radial_cutoff", "blowup_times",
               "cone_section_weights", "_trapezoid_weights", "run_trials"),
    "function_spaces": ("sobolev_norm", "state_norm", "interpolation_check", "InterpolationReport"),
    "energy": ("mean_energy_report", "gronwall_envelope", "_ledger"),
    "cli": ("_skeleton_pieces", "_PIECE_STEPS"),
    "noise": ("multiplication_hs_norm",),
    "wave_group": ("generator", "GroupStep"),
}


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"geowave.{name}")
    exported = getattr(module, "__all__", ())
    assert len(exported) == len(set(exported)), f"geowave.{name}.__all__ repeats a name"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == [], f"geowave.{name}.__all__ names missing attributes {missing}"


def test_package_exports_resolve():
    assert len(geowave.__all__) == len(set(geowave.__all__))
    assert [attr for attr in geowave.__all__ if not hasattr(geowave, attr)] == []


def test_deleted_names_are_not_exported():
    for mod_name, names in DELETED.items():
        module = importlib.import_module(f"geowave.{mod_name}")
        for attr in names:
            assert not hasattr(module, attr), f"geowave.{mod_name}.{attr}"
            assert attr not in getattr(module, "__all__", ())
            assert not hasattr(geowave, attr) and attr not in geowave.__all__, attr
    assert not hasattr(geowave.SpectralMeasure, "fourth_moment")
    # GridFunction keeps only __sub__, which State.__sub__ uses
    assert not {"__add__", "__mul__", "__rmul__"} & set(vars(geowave.GridFunction))
    assert not hasattr(geowave.State, "copy")
    # control rows are read by step, never by float time
    assert not hasattr(geowave.Control, "rate_at")


def test_neither_import_nor_a_split_run_loads_a_pool_module():
    # column blocks are forked with os.fork, so no run pays for a pool module's import
    code = ("import sys, geowave\n"
            "pools = ('concurrent.futures', 'multiprocessing')\n"
            "print(any(name in sys.modules for name in pools))\n"
            "geom = geowave.make_grid(6.0, 96, 1.0)\n"
            "man = geowave.ManifoldModel.circle()\n"
            "traj = geowave.solve_batch(geowave.bump_state(geom, man), 1e-2, 0.25,\n"
            "                           geowave.LocalizationParams(radius=geom.half_width), manifold=man,\n"
            "                           basis=geowave.build_basis(geowave.SpectralMeasure.default_three_atoms()),\n"
            "                           diffusion=geowave.DiffusionField.for_manifold(man), trial_ids=range(4),\n"
            "                           threads=2)\n"
            "print(traj.metadata['threads'], any(name in sys.modules for name in pools))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(Path(geowave.__file__).parents[1])})
    assert out.stdout.split() == ["False", "2", "False"]


def test_trajectory_has_one_stored_path_type():
    fields = [f.name for f in dataclasses.fields(geowave.Trajectory)]
    assert "states" not in fields and not hasattr(geowave.Trajectory, "states")
    assert {"u", "v", "final", "origin", "spacing"} <= set(fields)


def test_deleted_parameters_are_gone():
    def params(fn):
        return set(inspect.signature(fn).parameters)

    assert "h" not in params(statement1_probe) | params(statement2_probe)
    assert "control" not in params(solve_batch)
    # every run starts at step 0; a rate evaluation grows its batch instead (_joins)
    assert "_resume" not in params(solve_batch)
    # the drift at a lattice time is untapered: the levels keep every norm below them
    assert "theta" not in params(drift_force)
    assert not {"k", "tol_factor"} & params(verify_energy_inequality)
    # Gauss-Newton is the one optimizer; its schedule and step are module constants
    assert [f.name for f in dataclasses.fields(RateOptions)] == ["blocks", "gap_tol"]
    assert "strict" not in params(apply_group)
    # the target's dimension and tube radius follow from its kind
    assert [f.name for f in dataclasses.fields(ManifoldModel)] == ["kind"]
    assert not params(ManifoldModel.circle) | params(ManifoldModel.sphere)
    # every run starts at twice its window norm: no fixed taper level
    assert "k" not in [f.name for f in dataclasses.fields(LocalizationParams)]


def _unused_imports(source: str) -> list:
    """Names a module imports and never reads, apart from the names its __all__ re-exports."""
    tree = ast.parse(source)
    imported = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used - exported)


@pytest.mark.parametrize("name", MODULES + ["__init__"])
def test_no_module_imports_a_name_it_never_uses(name):
    source = (Path(geowave.__file__).resolve().parent / f"{name}.py").read_text()
    assert _unused_imports(source) == [], f"geowave.{name}"


def test_unused_import_guard_sees_orphans():
    assert _unused_imports("import math\nfrom .solver import trial_chunks, solve_batch\nsolve_batch()\n") == [
        "math", "trial_chunks"]
    assert _unused_imports("from .ldp import tail_estimate\n__all__ = ['tail_estimate']\n") == []


def _unread_private_defs(source: str) -> list:
    """Module-level private functions and classes that nothing in the module reads.

    A method of a module-level private class counts as Class.method and must
    be read as an attribute somewhere in the module; dunder methods are exempt.
    """
    tree = ast.parse(source)
    defs = [node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.endswith("__")]
    private = {node.name for node in defs}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    attrs = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    methods = {f"{node.name}.{item.name}" for node in defs if isinstance(node, ast.ClassDef) for item in node.body
               if isinstance(item, ast.FunctionDef) and not (item.name.startswith("__") and item.name.endswith("__"))
               and item.name not in attrs}
    return sorted((private - read) | methods)


@pytest.mark.parametrize("name", MODULES + ["__init__"])
def test_every_private_def_is_read_in_its_module(name):
    source = (Path(geowave.__file__).resolve().parent / f"{name}.py").read_text()
    assert _unread_private_defs(source) == [], f"geowave.{name}"


def test_private_def_guard_sees_orphans():
    source = ("def _used():\n    pass\n\n\ndef _orphan():\n    _orphan = 1\n\n\n"
              "class _Lonely:\n    def _method(self):\n        pass\n\n\nx = _used()\n")
    assert _unread_private_defs(source) == ["_Lonely", "_Lonely._method", "_orphan"]
    # a method of a private class must be read as an attribute; a dunder one need not be
    source = ("class _Box:\n    def __init__(self):\n        self.put()\n\n"
              "    def put(self):\n        pass\n\n    def orphan(self):\n        pass\n\n\n_Box()\n")
    assert _unread_private_defs(source) == ["_Box.orphan"]
    assert _unread_private_defs("def __getattr__(name):\n    pass\n") == []
