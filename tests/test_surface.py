"""The package's public surface: what ``import qefrate`` exports."""

from __future__ import annotations

import ast
import dataclasses
import importlib
from pathlib import Path

import qefrate as q

PUBLIC = [
    "__version__",
    "QefError", "ModelError", "DimensionError", "StabilityError",
    "DegeneracyError", "ParameterError", "StructureError",
    "FeasibilityError", "NumericalError", "SingularityError", "SizeError",
    "OqhoParams", "StateSpace", "build_j_matrix", "realize",
    "from_state_space",
    "SpectralGrid", "transfer", "sample_grid",
    "QuadratureConfig",
    "RateResult", "upsilon", "upsilon_from_grid", "classical_v",
    "theta_threshold", "lqg_rate", "small_theta_expansion", "tail_bound",
    "worst_case_lqg_bound", "frequency_profile",
    "HomotopyTrace", "rate_by_homotopy",
    "HorizonEstimate", "ConvergenceStudy", "discretize_kernels", "ln_xi",
    "convergence_study",
    "OneModeParams",
    "load_model", "write_csv", "write_summary", "two_mode_example",
]

#: Names only the tests called.  The references (``u_direct`` among them)
#: and the one-step ``u_ode_step`` live in the tests' conftest, the march
#: on a given grid is private and the one-mode drift is read off the
#: realized model, so none is left in any module of the package; only
#: the one-mode helpers below stay in their module, which reads them.
RETIRED = [
    "KernelSample", "kernel_at", "log_det_d", "contour_e",
    "d_second_derivative_check", "u_direct", "u_ode_step",
    "rate_by_homotopy_from_grid", "extract_mu", "onemode_drift",
    "ab_functions", "onemode_trig",
]
REACHED_THROUGH_MODULE = {("onemode", "extract_mu"),
                          ("onemode", "ab_functions"),
                          ("onemode", "onemode_trig")}

#: The package's source files.
SOURCES = sorted(Path(q.__file__).parent.glob("*.py"))


def _exported(tree: ast.Module) -> set[str]:
    """The names a module's ``__all__`` lists."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _read(tree: ast.Module) -> set[str]:
    """The names a module reads, bare or as an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}


def test_public_surface():
    assert len(PUBLIC) == 43
    assert q.__all__ == PUBLIC
    assert [name for name in PUBLIC if not hasattr(q, name)] == []
    assert [name for name in RETIRED if hasattr(q, name)] == []
    modules = {path.stem: importlib.import_module(f"qefrate.{path.stem}")
               for path in SOURCES if path.stem != "__init__"}
    assert [f"{stem}: {name}" for stem, module in modules.items()
            for name in RETIRED if hasattr(module, name)
            and (stem, name) not in REACHED_THROUGH_MODULE] == []


def test_result_fields_hold_no_derived_values():
    # H = i Psi, the per-time rate ln_xi / horizon, the 1/T extrapolation
    # and a model's J, sqrt(Pi) and Sigma are computed from the stored
    # fields, so a dataclasses.replace cannot leave them stale
    assert [f.name for f in dataclasses.fields(q.SpectralGrid)] \
        == ["lambdas", "phi", "psi"]
    assert [f.name for f in dataclasses.fields(q.HorizonEstimate)] \
        == ["horizon", "n_grid", "ln_xi", "spec_value"]
    assert [f.name for f in dataclasses.fields(q.ConvergenceStudy)] \
        == ["estimates"]
    assert [f.name for f in dataclasses.fields(q.StateSpace)] \
        == ["a", "b", "weight", "theta_ccr"]
    # the march's answer is its scalar curve, not the states at the nodes
    assert [f.name for f in dataclasses.fields(q.HomotopyTrace)] \
        == ["theta_grid", "rate_derivative", "rate"]


def test_no_unused_imports():
    # a name a module imports but never reads.  horizon keeps hessenberg
    # bound: benchmarks/spans.py traces it there, and it goes when that
    # binding does (ROADMAP item 7); cholesky, traced there too, factors
    # the hierarchical matrices' leaves
    allowed = {("horizon", "hessenberg")}
    unused = []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        exported = _exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if getattr(node, "module", None) == "__future__":
                    continue
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in read and name not in exported \
                            and (path.stem, name) not in allowed:
                        unused.append(f"{path.stem}: {name}")
    assert unused == []


def test_no_dead_private_names():
    # a module-level private function, class or constant that no module
    # of the package reads: what a refactor leaves behind
    defined, read = [], set()
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [(path.stem, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        read |= _read(tree)
    assert defined
    assert [f"{stem}: {name}" for stem, name in defined
            if name not in read] == []


def test_no_test_only_public_names():
    # a module-level public function or class that no module of the
    # package reads and no __all__ exports: only the tests can call it,
    # so it belongs in them.  A decorated one is registered by its
    # decorator, as the click commands are
    defined, read, exported = [], set(), set()
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        defined += [(path.stem, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and not node.decorator_list]
        read |= _read(tree)
        exported |= _exported(tree)
    assert defined
    assert [f"{stem}: {name}" for stem, name in defined
            if name not in read and name not in exported] == []
