"""The CI workflow's benchmark step checks every reference key.

``perfbench/run.py`` checks only the keys its run seed draws, so the
workflow's loop over ``workload:seed`` pairs must, between its runs, draw
every key in each workload's bank. Adding a workload or a key, or changing
a seed, without updating that loop fails here rather than going unchecked.
"""

from __future__ import annotations

import importlib.util
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_ci_benchmark_seeds_cover_every_reference_key(monkeypatch):
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    loop = re.search(r"for run in (.*?); do", workflow, re.S)
    assert loop is not None
    runs = [run.split(":") for run in loop.group(1).replace("\\\n", " ").split()]

    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    # Its dataclass looks its module up in sys.modules while it is built.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)

    covered = {name: set() for name in module.WORKLOADS}
    for name, seed in runs:
        covered[name].update(module.WORKLOADS[name].rounds(int(seed)))
    missing = {
        name: sorted(set(workload.bank) - covered[name])
        for name, workload in module.WORKLOADS.items()
    }
    assert missing == {name: [] for name in module.WORKLOADS}
