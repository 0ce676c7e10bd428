"""The package namespace is the documented Python API.

``treecov`` re-exports exactly the names that README's "Python API" section
lists; every other name is imported from its module. The benchmark under
``perfbench/`` reaches further names through the submodules, so those must
survive any later cut of the surface too. Tests reach the E-step only
through ``treecov.em``'s public names, so its body can change under them.
"""

from __future__ import annotations

import ast
import importlib
import re
import types
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import treecov
from treecov import CovMatrix, LinearModel, SpanningTree, TreeCovMatrix, write_matrix_csv
from treecov.experiment import TrialRecord
from treecov.linear import ObservationSet

ROOT = Path(__file__).resolve().parents[1]

PUBLIC = {
    "CovMatrix", "kl_gaussian", "NotPositiveDefiniteError", "DegenerateCorrelationError",
    "NumericalError",
    "SpanningTree", "TreeCovMatrix", "chow_liu", "tree_covariance",
    "LinearModel", "ObservationSet", "RankDeficientError", "read_matrix_csv",
    "read_observations", "write_matrix_csv", "sample_observations",
    "EmConfig", "EmTrace", "EmMonotonicityWarning", "run_em",
    "ConfigError", "ExperimentConfig", "SweepResult", "run_sweep", "emit_results",
}

# Module attributes that perfbench/workloads.py and perfbench/test_perfbench.py
# read, and the call sites that perfbench/spans.py traces, which it looks up
# through the calling module and silently skips when they are gone.
BENCHMARK_ATTRIBUTES = {
    "experiment": (
        "ExperimentConfig", "NumericalError", "derive_seed", "generate_ground_truth",
        "generate_mixing", "generate_prior", "run_em", "run_sweep",
        "read_matrix_csv", "chow_liu", "kl_gaussian", "sample_observations",
    ),
    "linear": ("sample_observations", "write_matrix_csv"),
    "cli": ("main", "read_matrix_csv", "write_matrix_csv", "run_em"),
    "em": ("observation_cov", "compute_omega", "chow_liu", "kl_gaussian"),
    "tree": ("tree_covariance",),
}
BENCHMARK_RECORD_FIELDS = {
    "m", "trial", "latent_kl_em", "latent_kl_prior_tree", "latent_kl_oracle_tree",
    "iterations_used", "stop_reason",
}
# CliFitWorkload.prepare writes the sampled observations from this field.
BENCHMARK_OBSERVATION_FIELDS = {"samples"}


def test_public_surface_is_documented_and_keeps_what_the_benchmark_reads():
    public = {
        name
        for name, value in vars(treecov).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == PUBLIC

    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    assert [name for name in sorted(PUBLIC) if not re.search(rf"`{name}\b", section)] == []

    missing = [
        f"treecov.{module}.{name}"
        for module, names in BENCHMARK_ATTRIBUTES.items()
        for name in names
        if not hasattr(importlib.import_module(f"treecov.{module}"), name)
    ]
    assert missing == []
    assert BENCHMARK_RECORD_FIELDS <= {f.name for f in fields(TrialRecord)}
    assert BENCHMARK_OBSERVATION_FIELDS <= {f.name for f in fields(ObservationSet)}


def test_no_test_names_a_private_attribute_of_the_em_module():
    named = []
    for path in sorted((ROOT / "tests").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "treecov.em":
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute) and ast.unparse(node.value) == "treecov.em":
                names = [node.attr]
            else:
                continue
            named += [f"{path.name}:{node.lineno}: {name}" for name in names if name.startswith("_")]
    assert named == []


_EDGE = SpanningTree(2, [(0, 1)])
# Each public constructor that casts its input to float, given a complex
# input whose float cast would silently drop the imaginary part.
COMPLEX_INPUTS = {
    "covariance": lambda path: CovMatrix(np.array([[2, 1j], [-1j, 2]])),
    "variances": lambda path: TreeCovMatrix(_EDGE, np.array([1.0, 1.0 + 1j]), [0.5]),
    "edge covariances": lambda path: TreeCovMatrix(_EDGE, [1.0, 1.0], np.array([0.5j])),
    "mixing matrix H": lambda path: LinearModel(np.eye(2) + 0j, CovMatrix(np.eye(2))),
    "observations": lambda path: ObservationSet(np.ones((3, 2)) * (1 + 1j)),
    "matrix to write": lambda path: write_matrix_csv(np.ones((2, 2)) * 1j, path),
}


@pytest.mark.parametrize("name", sorted(COMPLEX_INPUTS))
def test_complex_input_is_rejected_by_name(tmp_path, name):
    path = tmp_path / "out.csv"
    with pytest.raises(ValueError, match=f"^{name} must be real, got dtype complex128$"):
        COMPLEX_INPUTS[name](path)
    assert not path.exists()
