"""The benchmark's workloads: inputs made from the seed, rounds of operations, checks.

Each workload owns a bank of reference keys whose outputs were recorded from
the unmodified library (``reference/<workload>.json``, written by
make_reference.py). The run seed picks which keys a run uses and in what
order, so every operation is checked against a recorded result. Floats must
agree to a relative 2**-30 (22 of float64's 52 fraction bits of slack, room
for reassociated sums and BLAS blocking through 20 refits, far below the
change a different tree or iteration count makes); integers, tree stop
reasons and file shapes must agree exactly.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from treecov import cli, experiment, linear

FLOAT_RTOL = 2.0**-30
FLOAT_ATOL = 1e-12  # the KL clamp scale: a true zero may read as this
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass(frozen=True)
class Outcome:
    """One operation: its latency (None if it never completed) and its output.

    ``output`` holds every value the operation produced, exactly, so two runs
    of the same operation can be compared bit for bit by ``repr``.
    """

    latency_s: float | None
    ok: bool
    iterations: int
    fit_kl: float | None
    output: tuple


def close(a: float, b: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= FLOAT_ATOL + FLOAT_RTOL * max(abs(a), abs(b))


def load_reference(name: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{name}.json").read_text(encoding="ascii"))


class SweepWorkload:
    """``run_sweep`` rounds; one operation is one (m, trial) cell.

    Every round shares one ground truth and prior, those of the master-seed-0
    config at this ``p``, passed to the sweep as CSV files. The bank key is
    the sweep seed, which draws each cell's mixing matrix and observations.
    Sweep seed 0 at p=10 with 100 trials is therefore the paper's default
    run (2896 refits, mean latent KL 1.0468114826).
    """

    def __init__(self, name, p, m_values, trials, bank_size, picks, trace_rounds):
        self.name = name
        self.p = p
        self.m_values = tuple(m_values)
        self.trials = trials
        self.bank = tuple(range(bank_size))
        self.picks = picks
        self.trace_rounds = trace_rounds

    def rounds(self, seed: int) -> list[int]:
        """Sweep seeds for one pass, drawn from the bank by the run seed."""
        return random.Random(seed).sample(self.bank, self.picks)

    def prepare(self, keys, workdir: Path) -> dict:
        sigma = experiment.generate_ground_truth(self.p, experiment.derive_seed(0, "sigma"))
        sigma0 = experiment.generate_prior(sigma, 0.5, experiment.derive_seed(0, "prior"))
        paths = {"sigma_csv": workdir / "sigma.csv", "sigma0_csv": workdir / "sigma0.csv"}
        linear.write_matrix_csv(sigma.entries, paths["sigma_csv"])
        linear.write_matrix_csv(sigma0.entries, paths["sigma0_csv"])
        return {key: str(path) for key, path in paths.items()}

    def config(self, inputs: dict, key: int) -> experiment.ExperimentConfig:
        return experiment.ExperimentConfig(
            p=self.p,
            m_values=self.m_values,
            trials=self.trials,
            seed=key,
            **inputs,
        )

    def run_round(
        self, inputs: dict, key: int, ref: dict | None, on_op: Callable[[], None]
    ) -> list[Outcome]:
        """Run one sweep; cell latency is the gap between deliveries to on_trace."""
        delivered = []
        last = time.perf_counter()

        def on_trace(m, trial, trace):
            nonlocal last
            now = time.perf_counter()
            final = trace.final
            delivered.append(
                (now - last, m, trial, final.latent_kl, len(trace.iterations),
                 trace.stop_reason.value)
            )
            last = now
            on_op()

        records = {}
        try:
            result = experiment.run_sweep(self.config(inputs, key), on_trace=on_trace)
        except Exception as exc:  # a crashed sweep fails its undelivered cells
            print(f"{self.name} sweep {key} raised {type(exc).__name__}: {exc}", flush=True)
        else:
            records = {(r.m, r.trial): r for r in result.records}

        expected = {(c[0], c[1]): c for c in ref["cells"][str(key)]} if ref else {}
        outcomes = []
        seen = set()
        for latency, m, trial, kl_em, iterations, stop in delivered:
            rec = records.get((m, trial))
            baselines = (
                (rec.latent_kl_prior_tree, rec.latent_kl_oracle_tree) if rec else (None, None)
            )
            output = (m, trial, kl_em, iterations, stop) + baselines
            ok = (
                rec is not None
                and (rec.latent_kl_em, rec.iterations_used, rec.stop_reason.value)
                == (kl_em, iterations, stop)
                and (m, trial) not in seen
                and self._matches(ref, expected.get((m, trial)), output)
            )
            seen.add((m, trial))
            outcomes.append(Outcome(latency, ok, iterations, kl_em, output))
        missing = len(self.m_values) * self.trials - len(seen)
        outcomes.extend(Outcome(None, False, 0, None, ()) for _ in range(missing))
        return outcomes

    @staticmethod
    def _matches(ref: dict | None, cell: list | None, output: tuple) -> bool:
        if ref is None:
            return True
        if cell is None or None in output:
            return False
        _, _, kl_em, iterations, stop, kl_prior, kl_oracle = output
        return (
            iterations == cell[3]
            and stop[:1] == cell[4]
            and close(kl_em, cell[2])
            and close(kl_prior, ref["kl_prior_tree"])
            and close(kl_oracle, ref["kl_oracle_tree"])
        )


class CliFitWorkload:
    """``treecov em`` invocations, in process, on CSV files made at set-up.

    The problem (truth, prior, mixing, noise) is the master-seed-0 draw at
    p=40, m=30; the bank key seeds the r=20000 observations (about 12 MB of
    CSV). One operation is one ``cli.main(["em", ...])`` call, checked
    through the covariance and trace files it writes.
    """

    p, m, r = 40, 30, 20000

    def __init__(self, name, bank_size, ops_per_pass, trace_rounds):
        self.name = name
        self.bank = tuple(range(bank_size))
        self.ops_per_pass = ops_per_pass
        self.trace_rounds = trace_rounds

    def rounds(self, seed: int) -> list[int]:
        """One observation set per run, invoked ops_per_pass times."""
        return [random.Random(seed).choice(self.bank)] * self.ops_per_pass

    def prepare(self, keys, workdir: Path) -> dict:
        (key,) = set(keys)
        sigma = experiment.generate_ground_truth(self.p, experiment.derive_seed(0, "sigma"))
        sigma0 = experiment.generate_prior(sigma, 0.5, experiment.derive_seed(0, "prior"))
        model = experiment.generate_mixing(
            self.p, self.m, 20.0, sigma, experiment.derive_seed(0, "mixing", self.m, 0)
        )
        obs = linear.sample_observations(
            model, sigma, self.r, experiment.derive_seed(key, "observations")
        )
        files = {
            "sigma0": sigma0.entries,
            "h": model.h,
            "d": model.d.entries,
            "obs": obs.samples,
        }
        argv = ["em"]
        for flag, matrix in files.items():
            path = workdir / f"{flag}.csv"
            linear.write_matrix_csv(matrix, path)
            argv += [f"--{flag}", str(path)]
        sigma_out, trace_out = workdir / "sigma_out.csv", workdir / "trace_out.csv"
        argv += ["--sigma_out", str(sigma_out), "--trace_out", str(trace_out)]
        return {"argv": argv, "sigma_out": sigma_out, "trace_out": trace_out}

    def run_round(
        self, inputs: dict, key: int, ref: dict | None, on_op: Callable[[], None]
    ) -> list[Outcome]:
        for path in (inputs["sigma_out"], inputs["trace_out"]):
            path.unlink(missing_ok=True)
        on_op()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(list(inputs["argv"]))
        except Exception as exc:  # an escaped exception fails the operation
            print(f"{self.name} raised {type(exc).__name__}: {exc}", flush=True)
            return [Outcome(None, False, 0, None, ())]
        latency = time.perf_counter() - start
        try:
            sigma = _read_csv(inputs["sigma_out"])
            trace = _read_csv(inputs["trace_out"], header=True)
        except (OSError, ValueError):
            return [Outcome(latency, False, 0, None, (code,))]
        upper = tuple(v for i, row in enumerate(sigma) for v in row[i:])
        trace_rows = tuple((int(row[0]), row[1], row[2]) for row in trace)
        output = (code, upper, trace_rows)
        ok = code == 0 and len(sigma) == self.p and all(len(row) == self.p for row in sigma)
        if ref is not None:
            want = ref["inputs"][str(key)]
            want_upper = [v for row in want["sigma_upper_rows"] for v in row]
            ok = (
                ok
                and len(upper) == len(want_upper)
                and all(map(close, upper, want_upper))
                and [row[0] for row in trace_rows] == [row[0] for row in want["trace"]]
                and all(
                    close(a, b)
                    for got, exp in zip(trace_rows, want["trace"])
                    for a, b in zip(got[1:], exp[1:])
                )
            )
        fit = trace_rows[-1][1] if trace_rows else None
        return [Outcome(latency, ok, len(trace_rows), fit, output)]


def _read_csv(path: Path, header: bool = False) -> list[list[float]]:
    lines = path.read_text(encoding="ascii").splitlines()
    return [[float(tok) for tok in line.split(",")] for line in lines[int(header):] if line]


WORKLOADS = {
    "paper_sweep": SweepWorkload(
        "paper_sweep", p=10, m_values=range(5, 10), trials=100,
        bank_size=6, picks=3, trace_rounds=1,
    ),
    # m=70 joins the paper's {20, 40, 60, 80}. A cell costs about the same per
    # EM refit at every m, and smaller m needs more refits (m=20: 17-20; 8 of
    # the bank's 20 such cells stop at l_max). A pass of 7 sweeps is 70
    # cells, enough for a p85 tail with 10 beyond it; for nearly every choice
    # of 7 of the 10 bank keys that tail is a 19-refit cell, not the edge
    # between two refit counts.
    "wide_sweep": SweepWorkload(
        "wide_sweep", p=80, m_values=(20, 40, 60, 70, 80), trials=2,
        bank_size=10, picks=7, trace_rounds=1,
    ),
    "cli_fit": CliFitWorkload("cli_fit", bank_size=4, ops_per_pass=40, trace_rounds=4),
}
