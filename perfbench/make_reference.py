"""Record the reference outputs of every bank key, from the library as it stands.

Run from the repository root at the commit whose results are the reference:

    python3 perfbench/make_reference.py

It rewrites ``perfbench/reference/<workload>.json``. A change that is meant
to alter results replaces these files in a change of its own; a change that
only claims speed leaves them alone.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

from workloads import REFERENCE_DIR, WORKLOADS, SweepWorkload  # noqa: E402

PAPER_ANCHOR = {"refits": 2896, "fit_kl_mean": 1.0468114826}


def _record(workload, key: int, workdir: Path):
    inputs = workload.prepare([key], workdir)
    outcomes = workload.run_round(inputs, key, None, lambda: None)
    if not all(o.ok for o in outcomes):
        raise SystemExit(f"{workload.name} key {key}: an operation failed")
    return outcomes


def _sweep_reference(workload: SweepWorkload, workdir: Path) -> str:
    baselines = set()
    blocks = []
    for key in workload.bank:
        outcomes = _record(workload, key, workdir)
        baselines.update(o.output[5:] for o in outcomes)
        if workload.name == "paper_sweep" and key == 0:
            refits = sum(o.iterations for o in outcomes)
            mean = math.fsum(o.fit_kl for o in outcomes) / len(outcomes)
            if (refits, round(mean, 10)) != tuple(PAPER_ANCHOR.values()):
                raise SystemExit(f"paper anchor moved: {refits} refits, mean {mean!r}")
        # Cells are [m, trial, kl_em, iterations, stop]; stop is the first
        # letter of the StopReason value (E: EpsilonReached, L: LmaxReached).
        rows = ",\n".join(
            json.dumps([*o.output[:4], o.output[4][0]]) for o in outcomes
        )
        blocks.append(f'"{key}": [\n{rows}\n]')
    (kl_prior, kl_oracle), = baselines
    return (
        f'{{"kl_prior_tree": {kl_prior!r}, "kl_oracle_tree": {kl_oracle!r},\n'
        f'"cells": {{\n' + ",\n".join(blocks) + "\n}}\n"
    )


def _cli_reference(workload, workdir: Path) -> str:
    blocks = []
    for key in workload.bank:
        (outcome,) = _record(workload, key, workdir)
        _, upper, trace = outcome.output
        p = workload.p
        rows, start = [], 0
        for i in range(p):
            rows.append(json.dumps(list(upper[start:start + p - i])))
            start += p - i
        trace_rows = ",\n".join(json.dumps(list(row)) for row in trace)
        blocks.append(
            f'"{key}": {{"sigma_upper_rows": [\n' + ",\n".join(rows)
            + f'\n],\n"trace": [\n{trace_rows}\n]}}'
        )
    return '{"inputs": {\n' + ",\n".join(blocks) + "\n}}\n"


def main() -> int:
    out = Path.cwd() / "perfbench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name, workload in WORKLOADS.items():
        workdir = Path(tempfile.mkdtemp(prefix="reference-", dir=out))
        try:
            if isinstance(workload, SweepWorkload):
                text = _sweep_reference(workload, workdir)
            else:
                text = _cli_reference(workload, workdir)
        finally:
            shutil.rmtree(workdir)
        json.loads(text)
        (REFERENCE_DIR / f"{name}.json").write_text(text, encoding="ascii")
        print(f"wrote {REFERENCE_DIR / name}.json", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
