"""The library runs on the standard library and numpy alone.

A second linear-algebra runtime in the same process (scipy links its own
OpenBLAS build) starts a second BLAS thread pool that contends with numpy's,
so the package imports nothing beyond the stdlib and numpy. It imports
itself only relatively, so a second copy loads beside the first under
another name. A sweep's results do not depend on how many threads that one
pool runs.
"""

from __future__ import annotations

import ast
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import treecov

ROOT = Path(__file__).resolve().parents[1]
# An absolute ``import treecov...`` inside the package counts as outside: it
# would tie a second copy (see below) back to the first.
ALLOWED_TOP_LEVEL = set(sys.stdlib_module_names) | {"numpy"}


def test_package_imports_only_stdlib_and_numpy():
    outside = []
    for path in sorted((ROOT / "src" / "treecov").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}: {name}"
                for name in names
                if name.split(".")[0] not in ALLOWED_TOP_LEVEL
            ]
    assert outside == []

    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, treecov; assert 'scipy' not in sys.modules"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_every_imported_name_is_used():
    # The package's __init__.py is exempt: its imports are the API.
    package = sorted((ROOT / "src" / "treecov").glob("*.py"))
    unused = []
    for path in package + sorted((ROOT / "tests").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                for alias in node.names:
                    imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line}: {name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []


def _names_read(tree: ast.AST) -> set[str]:
    """Every name a module reads: a loaded name or attribute, an imported
    name, or a string constant (perfbench finds its spans by name)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            names.add(node.id if isinstance(node, ast.Name) else node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_public_name_is_read_outside_the_tests():
    # A public module-level name of the package is read somewhere other than
    # its definition: in the package, the benchmark or README. One that only
    # tests read states a fact the program never uses.
    package = sorted((ROOT / "src" / "treecov").glob("*.py"))
    benchmark = [p for p in sorted((ROOT / "perfbench").glob("*.py"))
                 if not p.name.startswith("test_")]
    read = set(re.findall(r"\w+", (ROOT / "README.md").read_text(encoding="utf-8")))
    defined = []
    for path in package + benchmark:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read |= _names_read(tree)
        if path not in package:
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(path.name, name) for name in names if not name.startswith("_")]
    assert defined
    assert [f"{where}: {name}" for where, name in defined if name not in read] == []


COV_ANNOTATIONS = {"CovMatrix", "CovMatrix | None"}


def _is_cov(annotation: ast.expr | None) -> bool:
    return annotation is not None and ast.unparse(annotation) in COV_ANNOTATIONS


def test_every_covariance_argument_passes_as_cov():
    # Each parameter of a public module-level function annotated as a
    # covariance, and each such field of a dataclass that defines
    # __post_init__, is given to _as_cov in that body. Methods and private
    # helpers are exempt.
    checked, unchecked = [], []
    for path in sorted((ROOT / "src" / "treecov").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                names, body = [a.arg for a in params if _is_cov(a.annotation)], node
            elif isinstance(node, ast.ClassDef):
                body = next((f for f in node.body if isinstance(f, ast.FunctionDef)
                             and f.name == "__post_init__"), None)
                if body is None:
                    continue
                names = [f"self.{f.target.id}" for f in node.body
                         if isinstance(f, ast.AnnAssign) and _is_cov(f.annotation)]
            else:
                continue
            passed = {
                ast.unparse(call.args[0])
                for call in ast.walk(body) if isinstance(call, ast.Call)
                and ast.unparse(call.func) == "_as_cov" and call.args
            }
            for name in names:
                where = f"{path.name}: {node.name}({name})"
                (checked if name in passed else unchecked).append(where)
    assert checked
    assert unchecked == []


def test_a_second_copy_of_the_package_loads_beside_the_first():
    package = ROOT / "src" / "treecov"
    spec = importlib.util.spec_from_file_location(
        "treecov_copy", package / "__init__.py", submodule_search_locations=[str(package)]
    )
    copy = importlib.util.module_from_spec(spec)
    sys.modules["treecov_copy"] = copy
    try:
        spec.loader.exec_module(copy)
        sigma = copy.CovMatrix(np.array([[1.0, 0.5, 0.2], [0.5, 1.0, 0.4], [0.2, 0.4, 1.0]]))
        fit = copy.chow_liu(sigma)
        assert type(fit).__module__ == "treecov_copy.tree"
        assert not isinstance(fit, treecov.TreeCovMatrix)
    finally:
        for name in [n for n in sys.modules if n.split(".")[0] == "treecov_copy"]:
            del sys.modules[name]


SWEEP_CELL = """
import hashlib
from treecov import ExperimentConfig, run_sweep

iterates = hashlib.sha256()

def keep(m, trial, trace):
    for rec in trace.iterations:
        iterates.update(rec.sigma_tree.entries.tobytes())

config = ExperimentConfig(p=80, m_values=(80,), r=100, trials=1, seed=3)
result = run_sweep(config, on_trace=keep)
print(repr(result.records), repr(result.failures), iterates.hexdigest())
"""


def test_sweep_cell_does_not_depend_on_blas_thread_count():
    # One p=80, m=p cell, whose products are large enough for OpenBLAS to
    # split over its threads; its records and iterates must be bit-identical
    # with one BLAS thread and with the library's default count.
    default = {
        key: value
        for key, value in os.environ.items()
        if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    }
    outputs = []
    for extra in ({"OPENBLAS_NUM_THREADS": "1"}, {}):
        env = dict(default, PYTHONPATH="src", **extra)
        proc = subprocess.run(
            [sys.executable, "-c", SWEEP_CELL],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert "TrialRecord" in outputs[0]
    assert outputs[0] == outputs[1]
