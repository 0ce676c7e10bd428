"""Synthetic comparative experiment.

Generates a tree-structured ground-truth covariance, corrupts it into a
prior, draws random mixing matrices at a target SNR, and sweeps observation
dimensions to compare the iteratively learned tree against the tree fitted
to the prior alone and against the oracle tree fitted to the truth itself.
Results are written as a structured text document plus a flat CSV table.
"""

from __future__ import annotations

import datetime
import hashlib
import math
import os
import statistics
import sys
from dataclasses import MISSING, dataclass, fields
from functools import cached_property
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from . import __version__
from .em import EmConfig, EmTrace, StopReason, run_em
from .gaussian import CovMatrix, NumericalError, _as_cov, _as_float, _as_int, kl_gaussian
from .linear import LinearModel, _naming_file, read_matrix_csv, sample_observations
from .tree import SpanningTree, TreeCovMatrix, chow_liu, prufer_decode

SNR_DEFINITION = "snr_db = 10*log10(trace(H Sigma H^T) / trace(D)) with white noise D = s^2 I"


class ConfigError(ValueError):
    """Invalid experiment configuration: unknown key, missing field, bad value."""


def derive_seed(master: int, *parts: object) -> int:
    """Stable 63-bit seed mixed from the master seed and a label tuple.

    SHA-256 over the repr of (master, *parts); fixed across runs and
    platforms, so every trial gets a reproducible, decorrelated stream. A
    numpy integer part counts as the Python int of equal value.
    """
    master = _as_int(master, "master")
    parts = tuple(int(part) if isinstance(part, np.integer) else part for part in parts)
    digest = hashlib.sha256(repr((master,) + parts).encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def generate_ground_truth(p: int, seed: int) -> TreeCovMatrix:
    """Random covariance that is exactly tree-structured, kept as its TreeCovMatrix.

    A uniform random labelled tree (random length-(p-2) sequence, decoded),
    edge correlations drawn uniformly from [0.5, 0.95] with random signs,
    unit variances, completed by path products; the result keeps the tree's
    closed-form log-determinant and sparse precision. A truth off the tree set
    can be supplied to a sweep through the ``sigma_csv`` key instead.
    """
    p = _as_int(p, "p")
    if p < 2:
        raise ValueError(f"need at least two vertices, got p={p}")
    rng = np.random.default_rng(_as_int(seed, "seed"))
    sequence = [int(s) for s in rng.integers(0, p, size=p - 2)]
    edges = prufer_decode(sequence, p)
    magnitudes = rng.uniform(0.5, 0.95, size=p - 1)
    signs = np.where(rng.integers(0, 2, size=p - 1) == 0, -1.0, 1.0)
    rho = dict(zip(edges, magnitudes * signs))
    tree = SpanningTree(p, edges)
    return TreeCovMatrix(tree, np.ones(p), [rho[e] for e in tree.edges])


def generate_prior(sigma: CovMatrix, alpha: float, seed: int) -> CovMatrix:
    """Corrupted prior (1 - alpha) * sigma + alpha * P of a CovMatrix sigma, float alpha.

    P is a seeded random SPD matrix (Wishart with 2p degrees of freedom)
    rescaled to sigma's diagonal, so alpha = 0 returns sigma unchanged and
    alpha = 1 keeps only the variances in common with the truth.
    """
    p = _as_cov(sigma, "sigma").dim
    alpha = _as_float(alpha, "alpha")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"mixing weight must lie in [0, 1], got {alpha}")
    rng = np.random.default_rng(_as_int(seed, "seed"))
    g = rng.standard_normal((p, 2 * p))
    raw = g @ g.T / (2 * p)
    scale = np.sqrt(np.diag(sigma.entries) / np.diag(raw))
    perturbation = raw * np.outer(scale, scale)
    mixed = (1.0 - alpha) * sigma.entries + alpha * perturbation
    return CovMatrix((mixed + mixed.T) / 2.0)


def generate_mixing(
    p: int, m: int, snr_db: float, sigma: CovMatrix, seed: int
) -> LinearModel:
    """Random dense mixing at a target SNR for integers p, m, real snr_db, p-dim CovMatrix sigma.

    H has iid standard normal entries and is drawn once; a numerically rank
    deficient draw raises RankDeficientError, which a sweep records as that
    trial's failure. The noise is white, D = s^2 I with s^2 =
    trace(H sigma H^T) / (m * 10^(snr_db / 10)), which makes the ratio of
    signal to noise power equal 10^(snr_db / 10) exactly. An SNR so extreme
    that s^2 is not a normal positive finite float raises NumericalError.
    """
    p, m = _as_int(p, "p"), _as_int(m, "m")
    if not 1 <= m <= p:
        raise ValueError(f"need 1 <= m <= p, got m={m}, p={p}")
    _as_cov(sigma, "sigma", p)
    snr_db = _as_float(snr_db, "snr_db")
    h = np.random.default_rng(_as_int(seed, "seed")).standard_normal((m, p))
    signal_power = float(np.trace(h @ sigma.entries @ h.T))
    snr = _snr_ratio(snr_db)
    noise_var = signal_power / (m * snr) if snr else math.inf
    if not sys.float_info.min <= noise_var <= sys.float_info.max:
        raise NumericalError(
            f"noise variance s^2 = {noise_var!r} at snr_db={snr_db!r} "
            "is not a normal positive finite float"
        )
    return LinearModel(h, CovMatrix(noise_var * np.eye(m)))


def _snr_ratio(snr_db: float) -> float:
    """10^(snr_db / 10) by Python's float power, or inf where that overflows."""
    try:
        return 10.0 ** (snr_db / 10.0)
    except OverflowError:
        return math.inf


def _accepting(what: str, *types: type) -> Callable[[object, str], object]:
    def check(value: object, name: str) -> object:
        if isinstance(value, types) and not isinstance(value, bool):
            return value
        raise ConfigError(f"{name} must be {what}, got {value!r}")

    return check


def _ints(value: object, name: str) -> tuple[int, ...]:
    # Text iterates too, by character or byte value, so it is refused whole.
    try:
        if not isinstance(value, (str, bytes, bytearray)):
            return tuple(_as_int(m, "every m", ConfigError) for m in value)
    except TypeError:
        pass
    raise ConfigError(f"{name} must be a sequence of integers, got {value!r}")


def _parse_m_values(text: str) -> tuple[int, ...]:
    return tuple(int(tok, 10) for tok in text.split(",") if tok.strip())


_path = _accepting("a path", str, os.PathLike)
_optional_path = _accepting("a path", str, os.PathLike, type(None))
# annotation: (parse config-file text, check a field's value and name, echo in [meta])
_KINDS = {
    "int": (lambda t: int(t, 10), lambda v, name: _as_int(v, name, ConfigError), str),
    "float": (float, lambda v, name: _as_float(v, name, ConfigError), lambda v: _fmt(float(v))),
    "tuple[int, ...]": (_parse_m_values, _ints, lambda v: ",".join(map(str, v))),
    "str | None": (lambda t: t or None, _optional_path, lambda v: "" if v is None else str(v)),
    "str": (str, _path, str),
}


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Sweep parameters; field names double as the config-file keys. A field's
    annotation picks its parser, type check and ``[meta]`` echo from ``_KINDS``,
    and a field without a default is a required key."""

    p: int
    m_values: tuple[int, ...]
    r: int = 100
    snr_db: float = 20.0
    trials: int = 100
    seed: int = 0
    epsilon: float = EmConfig.epsilon
    l_max: int = EmConfig.l_max
    alpha: float = 0.5
    sigma_csv: str | None = None
    sigma0_csv: str | None = None
    output: str = "results.txt"

    def __post_init__(self) -> None:
        for f in fields(self):
            object.__setattr__(self, f.name, _KINDS[f.type][1](getattr(self, f.name), f.name))
        if self.p < 2:
            raise ConfigError(f"p must be at least 2, got {self.p}")
        if not self.m_values:
            raise ConfigError("m_values must name at least one m")
        if len(set(self.m_values)) != len(self.m_values):
            raise ConfigError(f"m_values must not repeat an m, got {self.m_values}")
        for m in self.m_values:
            if not 1 <= m <= self.p:
                raise ConfigError(f"every m must satisfy 1 <= m <= p={self.p}, got {m}")
        if self.r < 1:
            raise ConfigError(f"r must be at least 1, got {self.r}")
        if self.trials < 1:
            raise ConfigError(f"trials must be at least 1, got {self.trials}")
        snr = _snr_ratio(self.snr_db)
        if not (math.isfinite(snr) and snr > 0.0):
            raise ConfigError(
                f"10^(snr_db/10) must be positive and finite, got snr_db={self.snr_db}"
            )
        if not 0.0 < self.epsilon <= sys.float_info.max:
            raise ConfigError(f"epsilon must be positive and finite, got {self.epsilon}")
        if self.l_max < 1:
            raise ConfigError(f"l_max must be at least 1, got {self.l_max}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must lie in [0, 1], got {self.alpha}")
        if not Path(self.output).name:
            raise ConfigError(f"output must name a file, got {self.output!r}")
        if Path(self.output).suffix == ".csv":
            raise ConfigError(f"output must not end in .csv, got {self.output!r}")


CONFIG_KEYS = tuple(f.name for f in fields(ExperimentConfig))


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Read a flat ``key = value`` UTF-8 config file into a string mapping.

    A leading byte-order mark is skipped. ``#`` starts a comment that runs
    to the end of its line; lines left blank are ignored. Keys must be
    ExperimentConfig field names, each at most once.
    """
    mapping: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise ConfigError(f"{path}: non-UTF-8 byte {byte:#04x} at offset {exc.start}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in mapping:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        mapping[key] = value.strip()
    return mapping


def config_from_mapping(mapping: Mapping[str, str]) -> ExperimentConfig:
    """Build a validated ExperimentConfig from string key/value pairs."""
    config_fields = {f.name: f for f in fields(ExperimentConfig)}
    unknown = sorted(set(mapping) - set(config_fields))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    missing = [k for k, f in config_fields.items() if f.default is MISSING and k not in mapping]
    if missing:
        raise ConfigError(f"missing required config keys: {', '.join(missing)}")
    kwargs = {}
    for key, value in mapping.items():
        try:
            kwargs[key] = _KINDS[config_fields[key].type][0](value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key!r}: {value!r}") from exc
    return ExperimentConfig(**kwargs)


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of one (m, trial) cell of the sweep."""

    m: int
    trial: int
    latent_kl_em: float
    latent_kl_prior_tree: float
    latent_kl_oracle_tree: float
    iterations_used: int
    stop_reason: StopReason


@dataclass(frozen=True)
class TrialFailure:
    m: int
    trial: int
    error: str


@dataclass(frozen=True)
class ColumnStats:
    mean: float
    stderr: float


@dataclass(frozen=True)
class MAggregate:
    """Per-m statistics over the successful trials: ``columns`` maps each
    result column's name to its mean and standard error, in table order."""

    m: int
    count: int
    columns: dict[str, ColumnStats]


# Each result column's name in the output tables, with the TrialRecord field
# it holds, in table order.
_RESULT_COLUMNS = (
    ("kl_em", "latent_kl_em"),
    ("kl_prior", "latent_kl_prior_tree"),
    ("kl_oracle", "latent_kl_oracle_tree"),
    ("iterations", "iterations_used"),
)


@dataclass(frozen=True, eq=False)
class SweepResult:
    config: ExperimentConfig
    records: tuple[TrialRecord, ...]
    failures: tuple[TrialFailure, ...]

    @cached_property
    def aggregates(self) -> tuple[MAggregate, ...]:
        """One MAggregate per m of ``config.m_values`` with a record, in that order."""
        aggregates = []
        for m in self.config.m_values:
            group = [rec for rec in self.records if rec.m == m]
            if group:
                columns = {
                    name: _column_stats([getattr(rec, field) for rec in group])
                    for name, field in _RESULT_COLUMNS
                }
                aggregates.append(MAggregate(m, len(group), columns))
        return tuple(aggregates)


def _column_stats(values: list[float]) -> ColumnStats:
    # statistics sums exactly, so each figure is the exact one correctly
    # rounded: a column of equal values has that value as its mean and a
    # standard error of exactly 0.0.
    stderr = statistics.stdev(values) / math.sqrt(len(values)) if len(values) > 1 else 0.0
    return ColumnStats(mean=float(statistics.mean(values)), stderr=stderr)


TraceHook = Callable[[int, int, EmTrace], None]


def run_sweep(
    config: ExperimentConfig,
    *,
    on_trace: TraceHook | None = None,
) -> SweepResult:
    """Run the full comparison sweep described by ``config``.

    For every m in ``m_values`` and every trial index, a fresh mixing matrix
    and a fresh observation set are drawn from seeds derived from
    ``config.seed``, the iteration runs from the corrupted prior, and the
    trial records the divergence of the learned tree from the truth next to
    the two baselines (tree fitted to the prior, oracle tree fitted to the
    truth). Per-trial numerical failures are recorded and excluded; the
    sweep only fails when every attempted trial failed.

    ``on_trace`` receives (m, trial, trace) for each successful trial in
    deterministic order. Results are deterministic functions of the config.
    """
    with _naming_file("ground-truth covariance", config.sigma_csv):
        if config.sigma_csv is None:
            sigma = generate_ground_truth(config.p, derive_seed(config.seed, "sigma"))
        else:
            sigma = _as_cov(CovMatrix(read_matrix_csv(config.sigma_csv)), "sigma_csv", config.p)
        kl_oracle_tree = kl_gaussian(sigma, chow_liu(sigma))
    with _naming_file("prior covariance", config.sigma0_csv):
        if config.sigma0_csv is None:
            sigma0 = generate_prior(sigma, config.alpha, derive_seed(config.seed, "prior"))
        else:
            sigma0 = _as_cov(
                CovMatrix(read_matrix_csv(config.sigma0_csv)), "sigma0_csv", config.p
            )
        em_config = EmConfig(sigma0=sigma0, epsilon=config.epsilon, l_max=config.l_max)
        kl_prior_tree = kl_gaussian(sigma, em_config.prior_fit)
    if kl_oracle_tree > kl_prior_tree + 1e-9:
        raise NumericalError(
            "oracle tree is worse than the prior tree; tree fit is broken"
        )

    records: list[TrialRecord] = []
    failures: list[TrialFailure] = []
    for m in config.m_values:
        for trial in range(config.trials):
            try:
                model = generate_mixing(
                    config.p, m, config.snr_db, sigma,
                    derive_seed(config.seed, "mixing", m, trial),
                )
                obs = sample_observations(
                    model, sigma, config.r,
                    derive_seed(config.seed, "observations", m, trial),
                )
                trace = run_em(em_config, model, obs, ground_truth=sigma)
            except (ValueError, NumericalError) as exc:
                failures.append(
                    TrialFailure(m=m, trial=trial, error=f"{type(exc).__name__}: {exc}")
                )
                continue
            if on_trace is not None:
                on_trace(m, trial, trace)
            records.append(
                TrialRecord(
                    m=m,
                    trial=trial,
                    latent_kl_em=trace.final.latent_kl,
                    latent_kl_prior_tree=kl_prior_tree,
                    latent_kl_oracle_tree=kl_oracle_tree,
                    iterations_used=len(trace.iterations),
                    stop_reason=trace.stop_reason,
                )
            )
    if not records:
        raise NumericalError(
            f"all {len(failures)} trials failed; first failure: {failures[0].error}"
        )
    return SweepResult(config=config, records=tuple(records), failures=tuple(failures))


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def emit_results(result: SweepResult, path: str | Path) -> tuple[Path, Path]:
    """Write the result document at ``path`` and the per-trial CSV next to it.

    The CSV (same name, ``.csv`` suffix) has the header
    ``m,trial,kl_em,kl_prior,kl_oracle,iterations,stop_reason`` and one row
    per successful trial; numeric cells carry 17 significant digits so a
    re-parse reproduces them exactly. The document has a ``[meta]`` section
    (config echo, tool version, SNR definition, generation timestamp), the
    per-m aggregate table, and a ``[data]`` section referencing the CSV.
    Everything except the ``generated_at`` line is a deterministic function
    of the sweep result.
    """
    doc_path = Path(path)
    if doc_path.suffix == ".csv":
        raise ValueError("result document path must not end in .csv")
    csv_path = doc_path.with_suffix(".csv")

    csv_lines = [",".join(["m", "trial", *(name for name, _ in _RESULT_COLUMNS), "stop_reason"])]
    for rec in result.records:
        # _fmt writes an int such as iterations_used as a plain integer.
        cells = [_fmt(getattr(rec, field)) for _, field in _RESULT_COLUMNS]
        csv_lines.append(",".join([str(rec.m), str(rec.trial), *cells, rec.stop_reason.value]))

    meta_pairs = [
        ("tool", f"treecov {__version__}"),
        ("generated_at", datetime.datetime.now(datetime.timezone.utc).isoformat()),
        ("snr_definition", SNR_DEFINITION),
        ("rng", "numpy PCG64 (numpy.random.default_rng)"),
    ]
    for f in fields(ExperimentConfig):
        meta_pairs.append((f.name, _KINDS[f.type][2](getattr(result.config, f.name))))
    meta_pairs.append(("trials_ok", str(len(result.records))))
    meta_pairs.append(("trials_failed", str(len(result.failures))))

    doc_lines = ["[meta]"]
    doc_lines.extend(f"{key} = {text}" for key, text in meta_pairs)
    doc_lines.append("")
    doc_lines.append("[aggregates]")
    doc_lines.append(
        ",".join(["m", "count", *(f"mean_{name},se_{name}" for name, _ in _RESULT_COLUMNS)])
    )
    for agg in result.aggregates:
        cells = [f"{_fmt(col.mean)},{_fmt(col.stderr)}" for col in agg.columns.values()]
        doc_lines.append(",".join([str(agg.m), str(agg.count), *cells]))
    if result.failures:
        doc_lines.append("")
        doc_lines.append("[failures]")
        doc_lines.append("m,trial,error")
        for failure in result.failures:
            doc_lines.append(f"{failure.m},{failure.trial},{failure.error}")
    doc_lines.append("")
    doc_lines.append("[data]")
    doc_lines.append(f"csv = {csv_path.name}")

    try:
        csv_path.write_text("\n".join(csv_lines) + "\n", encoding="utf-8")
        doc_path.write_text("\n".join(doc_lines) + "\n", encoding="utf-8")
    except OSError as exc:
        raise OSError(f"failed to write results near {doc_path}: {exc}") from exc
    return doc_path, csv_path
