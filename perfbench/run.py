"""treecov benchmark: end-to-end metrics per workload, or a traced per-module run.

Run from the root of a treecov checkout (the package is imported from
``src/``):

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

The load is a closed loop with one caller in one process: each operation
starts when the previous one returns. The benchmark starts no threads and
sets no BLAS variable; the thread count it ran with is recorded. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` repeats a pass of the seed's rounds until ``--seconds`` have
passed and at least one pass is done. ``--trace 1`` runs the first
``trace_rounds`` of those rounds three times: traced, untraced, traced. It
reports per-module figures from the traced phases, the tracing overhead
against the untraced phase, and fails the run unless all three phases give
bit-identical outputs and both traced phases give identical counts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import resource
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

WORKLOAD_NAMES = ("paper_sweep", "wide_sweep", "cli_fit")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120.0
# Tail percentiles in per mille, highest first. The ladder stops at p98:
# beyond it, paper_sweep's 5-ms cells are mostly ordinary cells caught by a
# scheduling stall of the shared host. Over ten seeds, p99 spread 0.25 of
# itself in one set of runs and 0.15 in another, where p98 spread 0.12.
TAIL_LADDER = (980, 950, 900, 850, 800, 750, 500)
TAIL_MIN_BEYOND = 10

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_ms_tail": "ms",
    "em_iters_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
    "fit_kl_mean": "nat",
}
PER_LAYER_TIMES = (
    "tree.chow_liu.ms",
    "tree.chow_liu.self_ms",
    "tree.tree_covariance.ms",
    "gaussian.kl_gaussian.ms",
    "em.compute_omega.self_ms",
    "em.posterior.ms",
    "em.run_em.self_ms",
    "linear.read_matrix_csv.ms",
    "linear.write_matrix_csv.ms",
    "linear.sample_observations.ms",
    "linear.observation_cov.ms",
    "linear.empirical_gaussian.ms",
    "experiment.run_sweep.self_ms",
    "experiment.generate_mixing.ms",
    "cli.main.self_ms",
)
PER_LAYER_COUNTS = (
    "tree.chow_liu.calls",
    "gaussian.kl_gaussian.calls",
    "gaussian.pairwise_mutual_information.calls",
    "gaussian.cov_matrix.count",
    "em.posterior.calls",
    "em.iterations",
    "em.lmax_stops",
    "linear.read_matrix_csv.bytes",
)


def tail_percentile(guaranteed_ops: int) -> int:
    """Highest ladder percentile (per mille), at most p98, with >= 10 samples beyond it.

    Chosen from the number of operations every run of a workload makes (one
    pass), so the percentile is the same in every run and on every commit.
    """
    for q in TAIL_LADDER:
        if guaranteed_ops * (1000 - q) >= TAIL_MIN_BEYOND * 1000:
            return q
    raise ValueError(f"{guaranteed_ops} operations leave no percentile with "
                     f"{TAIL_MIN_BEYOND} samples beyond it")


def nearest_rank(values: list[float], q: int) -> tuple[float, int]:
    """The q-per-mille nearest-rank value and how many samples lie above it."""
    ordered = sorted(values)
    value = ordered[-(-q * len(ordered) // 1000) - 1]
    return value, sum(v > value for v in ordered)


def failed_count(outcomes) -> int:
    return sum(not o.ok for o in outcomes)


def _locate_package(root: Path) -> None:
    src = root / "src"
    if not (src / "treecov" / "__init__.py").is_file():
        print(f"error: {src}/treecov not found; run from a treecov checkout",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import treecov

    if Path(treecov.__file__).resolve().parent != (src / "treecov").resolve():
        print(f"error: imported treecov from {treecov.__file__}, not {src}",
              file=sys.stderr)
        raise SystemExit(2)


def environment() -> dict:
    """Versions, core count and the BLAS thread count this process runs with."""
    import numpy
    import scipy

    def blas(mod) -> dict:
        info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": info.get("name"), "version": info.get("version"),
                "configuration": info.get("openblas configuration")}

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }
    # OpenBLAS reads these in this order; unset, it starts one thread per
    # usable core, capped at the MAX_THREADS it was built with.
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        if os.environ.get(var):
            env["blas_threads"] = int(os.environ[var])
            env["blas_threads_source"] = var
            break
    else:
        caps = [int(m.group(1)) for b in (env["numpy_blas"], env["scipy_blas"])
                if (m := re.search(r"MAX_THREADS=(\d+)", b["configuration"] or ""))]
        env["blas_threads"] = min([env["nproc"], *caps])
        env["blas_threads_source"] = "OpenBLAS default (usable cores, capped by MAX_THREADS)"
    return env


def _workdir(root: Path) -> Path:
    out = root / "perfbench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="inputs-", dir=out))


def measure_setup(workload_name: str, seed: int) -> float:
    """Wall time from starting a fresh interpreter to its inputs being ready."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", workload_name, "--seed", str(seed)]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)
        line = proc.stdout.readline() if ready else ""
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    finally:
        proc.stdout.close()
        if proc.poll() is None and line != "ready\n":
            proc.kill()
        code = proc.wait()
    if line != "ready\n" or code != 0:
        raise RuntimeError(f"setup probe for {workload_name} failed (exit {code})")
    return elapsed


class SetupProbes:
    """SETUP_PROBES set-up measurements spread evenly over the timed loop.

    The host's speed drifts over tens of seconds, so probes taken one after
    another would all see the same moment; spread out, their median follows
    the same stretch of time as the loop's own figures.
    """

    def __init__(self, workload_name: str, seed: int, seconds: float):
        self.args = (workload_name, seed)
        self.spacing = seconds / SETUP_PROBES
        self.times: list[float] = []

    def __call__(self, elapsed: float) -> float:
        """Take the probe due by ``elapsed`` seconds of the loop, if any; return the pause."""
        if len(self.times) >= SETUP_PROBES or elapsed < len(self.times) * self.spacing:
            return 0.0
        start = time.perf_counter()
        self.times.append(measure_setup(*self.args))
        return time.perf_counter() - start


def run_rounds(workload, inputs, keys, ref, on_op=lambda: None):
    outcomes = []
    for key in keys:
        outcomes.extend(workload.run_round(inputs, key, ref, on_op))
    return outcomes


def timed_run(workload, inputs, keys, ref, seconds: float,
              between=lambda elapsed: 0.0) -> dict:
    """Closed loop over the pass until ``seconds`` passed and one pass is done.

    ``between(elapsed)`` runs before each round and returns how long it took;
    that pause is left out of the loop's time.
    """
    outcomes = []
    first_pass = []
    start = time.perf_counter()
    paused = between(0.0)
    i = 0
    while i < len(keys) or time.perf_counter() - start - paused < seconds:
        batch = workload.run_round(inputs, keys[i % len(keys)], ref, lambda: None)
        outcomes.extend(batch)
        if i < len(keys):
            first_pass.extend(batch)
        i += 1
        paused += between(time.perf_counter() - start - paused)
    window = time.perf_counter() - start - paused
    latencies_ms = [o.latency_s * 1e3 for o in outcomes if o.latency_s is not None]
    q = tail_percentile(len(first_pass))
    # With no completed operation there is nothing to rank; the run is
    # reported as incorrect and these read 0.
    tail, beyond = nearest_rank(latencies_ms, q) if latencies_ms else (0.0, 0)
    fits = [o.fit_kl for o in first_pass if o.ok]
    ok_ops = [o for o in outcomes if o.ok]
    return {
        "outcomes": outcomes,
        "window_s": window,
        "rounds": i,
        "tail_q": q,
        "tail_beyond": beyond,
        "median_ms": statistics.median(latencies_ms) if latencies_ms else 0.0,
        "latency_samples": len(latencies_ms),
        "metrics": {
            "ops_per_s": len(ok_ops) / window,
            "op_ms_tail": tail,
            "em_iters_per_s": sum(o.iterations for o in ok_ops) / window,
            "ok_frac": len(ok_ops) / len(outcomes),
            "fit_kl_mean": math.fsum(fits) / len(fits) if fits else 0.0,
        },
    }


def traced_run(workload, inputs, keys, ref, spans_path: Path) -> dict:
    """Traced, untraced, traced over the same rounds; per-module figures per op."""
    from spans import Recorder, totals_ms

    phases = {}
    recorders = []
    for phase in ("traced_1", "untraced", "traced_2"):
        start = time.perf_counter()
        if phase == "untraced":
            outcomes = run_rounds(workload, inputs, keys, ref)
        else:
            rec = Recorder()
            with rec.installed():
                outcomes = run_rounds(workload, inputs, keys, ref, rec.next_op)
            recorders.append(rec)
        phases[phase] = (time.perf_counter() - start, outcomes)

    problems = []
    outputs = {name: [repr(o.output) for o in oc] for name, (_, oc) in phases.items()}
    if not outputs["traced_1"] == outputs["untraced"] == outputs["traced_2"]:
        problems.append("traced outputs differ from untraced outputs")
    counts = [dict(rec.counts) for rec in recorders]
    if counts[0] != counts[1]:
        diff = sorted(k for k in counts[0].keys() | counts[1].keys()
                      if counts[0].get(k) != counts[1].get(k))
        problems.append(f"counts differ between traced phases: {', '.join(diff)}")

    traced_ops = len(phases["traced_1"][1]) + len(phases["traced_2"][1])
    times = totals_ms(recorders[0].spans + recorders[1].spans)
    metrics = {name: times.get(name, 0.0) / traced_ops for name in PER_LAYER_TIMES}
    metrics.update({name: counts[0].get(name, 0) for name in PER_LAYER_COUNTS})
    traced_s = (phases["traced_1"][0] + phases["traced_2"][0]) / 2
    metrics["trace.overhead_pct"] = 100.0 * (traced_s / phases["untraced"][0] - 1.0)

    for i, rec in enumerate(recorders):
        rec.write_csv(str(spans_path), f"traced_{i + 1}", append=i > 0)
    outcomes = [o for _, oc in phases.values() for o in oc]
    return {"outcomes": outcomes, "metrics": metrics, "problems": problems,
            "phase_s": {k: v[0] for k, v in phases.items()}}


def _unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name == "trace.overhead_pct":
        return "%"
    if name in PER_LAYER_TIMES:
        return "ms/op"
    return "B" if name.endswith(".bytes") else "count"


def run_one(args, root: Path) -> int:
    _locate_package(root)
    from workloads import WORKLOADS, load_reference

    workload = WORKLOADS[args.workload]
    keys = workload.rounds(args.seed)
    if args.setup_probe:
        workdir = _workdir(root)
        try:
            workload.prepare(keys, workdir)
            print("ready", flush=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0

    probes = SetupProbes(args.workload, args.seed, args.seconds)
    workdir = _workdir(root)
    try:
        inputs = workload.prepare(keys, workdir)
        ref = load_reference(workload.name)
        if args.trace:
            spans_path = root / "perfbench" / "out" / f"spans-{workload.name}-seed{args.seed}.csv"
            result = traced_run(workload, inputs, keys[: workload.trace_rounds], ref, spans_path)
        else:
            result = timed_run(workload, inputs, keys, ref, args.seconds, probes)
            while len(probes.times) < SETUP_PROBES:
                probes(math.inf)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = result["metrics"]
    outcomes = result["outcomes"]
    failed = failed_count(outcomes)
    problems = result.get("problems", [])
    print(f"workload {workload.name}, seed {args.seed}, keys {keys[:8]}"
          f"{' ...' if len(keys) > 8 else ''}: closed loop, one caller")
    if args.trace:
        phase_s = ", ".join(f"{k} {v:.3f} s" for k, v in result["phase_s"].items())
        print(f"  traced run over {workload.trace_rounds} round(s): {phase_s}; "
              f"spans in {spans_path.relative_to(root)}")
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["setup_s"] = statistics.median(probes.times)
        metrics["peak_rss_mb"] = peak_kb / 1024.0
        metrics = {name: metrics[name] for name in END_TO_END_UNITS}
        print(f"  {len(outcomes)} ops attempted in {result['rounds']} round(s) over "
              f"{result['window_s']:.3f} s; failed_frac {failed / len(outcomes):.6g}")
        print(f"  op_ms_tail is p{result['tail_q'] / 10:g} of {result['latency_samples']} "
              f"samples, {result['tail_beyond']} beyond it; the median is "
              f"{result['median_ms']:.6f} ms (not gated, see README); setup_s is the median of "
              f"{len(probes.times)} fresh interpreters: "
              + ", ".join(f"{t:.3f}" for t in probes.times))
    for name, value in metrics.items():
        print(f"  {name:<45} {value:>16.6f} {_unit(name)}")
    for problem in problems:
        print(f"  FAILED CHECK: {problem}")
    print("env " + json.dumps(environment(), sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": _unit(name)}
                    for name, value in metrics.items()},
    }), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process of its own, one after another."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(summary), flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args, Path.cwd())


if __name__ == "__main__":
    sys.exit(main())
