"""Record gate: a fixed grid of sweeps reproduces its committed records.

A change that claims to leave the sweep's records as they were is checked
here rather than by hand. The grid covers p = 10, 40 and 80 at SNR -10,
20, 60 and 140 dB, two trials per cell, plus one p=10, r=6 sweep whose m=7
trials fail because r <= m. For each cell, the refit count
(``iterations_used``), the stop reason, a hash of the final tree's edges
and a failure's exception class must match ``tests/data/record_gate.json``
exactly, and the latent KL must match to ``LATENT_KL_RTOL`` relative.

A different numpy or BLAS build could move a refit count. Regenerate the
file only for an intended change of numbers, and state why in CHANGES.md:

    python tests/test_record_gate.py --regenerate
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = ROOT / "tests" / "data" / "record_gate.json"
LATENT_KL_RTOL = 1e-9

GRID = [
    {"p": p, "m_values": m_values, "snr_db": snr_db, "trials": 2}
    for p, m_values in ((10, (3, 5, 7, 9, 10)), (40, (10, 20, 40)), (80, (20, 60, 80)))
    for snr_db in (-10.0, 20.0, 60.0, 140.0)
] + [{"p": 10, "m_values": (3, 5, 7), "r": 6, "trials": 2}]


def _label(sweep: dict) -> str:
    return " ".join(f"{key}={value}" for key, value in sweep.items() if key != "m_values")


def sweep_records(sweep: dict) -> dict[str, dict]:
    """The gated record of every (m, trial) cell of one grid sweep, by cell."""
    # Imported here, so that --regenerate can put this checkout's src first.
    from treecov import ExperimentConfig, run_sweep

    trees = {}

    def keep_tree(m, trial, trace):
        trees[m, trial] = trace.final.sigma_tree.tree.edges

    result = run_sweep(ExperimentConfig(**sweep), on_trace=keep_tree)
    cells = {}
    for rec in result.records:
        edges = repr(trees[rec.m, rec.trial]).encode("ascii")
        cells[rec.m, rec.trial] = {
            "iterations": rec.iterations_used,
            "stop_reason": rec.stop_reason.value,
            "tree": hashlib.sha256(edges).hexdigest()[:16],
            "latent_kl": rec.latent_kl_em,
        }
    for failure in result.failures:
        cells[failure.m, failure.trial] = {"failure": failure.error.partition(":")[0]}
    return {f"m={m} trial={trial}": cells[m, trial] for m, trial in sorted(cells)}


@pytest.fixture(scope="module")
def committed() -> dict[str, dict]:
    return json.loads(RECORDS.read_text(encoding="utf-8"))


def _matches(have: dict, want: dict) -> bool:
    """Equal in every field but the latent KL, and that within LATENT_KL_RTOL."""
    def exact(entry):
        return {key: value for key, value in entry.items() if key != "latent_kl"}

    kl_have, kl_want = have.get("latent_kl", 0.0), want.get("latent_kl", 0.0)
    return exact(have) == exact(want) and math.isclose(kl_have, kl_want, rel_tol=LATENT_KL_RTOL)


@pytest.mark.parametrize("sweep", GRID, ids=_label)
def test_sweep_reproduces_its_records(sweep, committed):
    expected, got = committed[_label(sweep)], sweep_records(sweep)
    assert list(got) == list(expected)
    moved = {cell: (want, got[cell]) for cell, want in expected.items()
             if not _matches(got[cell], want)}
    assert moved == {}


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    records = {_label(sweep): sweep_records(sweep) for sweep in GRID}
    # One line per cell, so a regenerated file diffs cell by cell.
    sweeps = [
        f" {json.dumps(label)}: {{\n"
        + ",\n".join(f"  {json.dumps(cell)}: {json.dumps(entry)}" for cell, entry in cells.items())
        + "\n }"
        for label, cells in records.items()
    ]
    RECORDS.write_text("{\n" + ",\n".join(sweeps) + "\n}\n", encoding="utf-8")
    print(f"wrote {sum(map(len, records.values()))} records to {RECORDS}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(f"usage: python {sys.argv[0]} --regenerate")
    main()
