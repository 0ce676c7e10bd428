"""The library runs on the standard library and numpy alone.

A second linear-algebra runtime in the same process (scipy links its own
OpenBLAS build) starts a second BLAS thread pool that contends with numpy's,
so the package imports nothing beyond the stdlib and numpy.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ALLOWED_TOP_LEVEL = set(sys.stdlib_module_names) | {"numpy", "treecov"}


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
