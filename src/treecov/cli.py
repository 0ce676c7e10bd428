"""Command-line interface.

Subcommands: ``sweep`` runs the full synthetic comparison experiment from a
config file (every config key has an override flag of the same name),
``chowliu`` fits a single tree approximation to a covariance CSV, and ``em``
runs the iterative fit on prepared CSV inputs.

Exit codes: 0 success, 1 configuration error, 2 numerical failure (every
trial failed), 3 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .em import EmConfig, run_em
from .experiment import (
    CONFIG_KEYS,
    ConfigError,
    config_from_mapping,
    emit_results,
    parse_config_file,
    run_sweep,
)
from .gaussian import CovMatrix, NumericalError, kl_gaussian
from .linear import (
    LinearModel,
    _naming_file,
    read_matrix_csv,
    read_observations,
    write_matrix_csv,
)
from .tree import chow_liu

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors, which collides with the
    # numerical-failure code; route them through ConfigError instead.
    def error(self, message: str):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="treecov", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run the comparison experiment")
    sweep.add_argument("--config", help="flat key = value config file")
    for key in CONFIG_KEYS:
        sweep.add_argument(f"--{key}", help=f"override config key {key}")
    sweep.set_defaults(func=_cmd_sweep)

    chowliu = sub.add_parser("chowliu", help="fit one tree approximation")
    chowliu.add_argument("input", help="covariance matrix CSV")
    chowliu.add_argument("--cov_out", help="write the tree covariance CSV here")
    chowliu.add_argument("--edges_out", help="write the tree edges (u,v lines) here")
    chowliu.set_defaults(func=_cmd_chowliu)

    em = sub.add_parser("em", help="run the iterative fit on CSV inputs")
    em.add_argument("--sigma0", required=True, help="prior covariance CSV")
    em.add_argument("--h", required=True, help="mixing matrix CSV")
    em.add_argument("--d", required=True, help="noise covariance CSV")
    em.add_argument("--obs", required=True, help="observations CSV, one sample per row")
    em.add_argument("--epsilon", type=float, default=EmConfig.epsilon, help="stopping threshold")
    em.add_argument("--l_max", type=int, default=EmConfig.l_max, help="iteration cap")
    em.add_argument("--sigma_out", help="write the final tree covariance CSV here")
    em.add_argument("--trace_out", help="write the per-iteration trace CSV here")
    em.set_defaults(func=_cmd_em)
    return parser


def _check_output_dirs(*paths: str | Path | None) -> None:
    """Raise OSError naming the first output path whose directory is missing
    or that is a directory itself, so that a command fails before it
    computes or writes anything."""
    for path in map(Path, filter(None, paths)):
        if not path.parent.is_dir():
            raise OSError(f"output directory {str(path.parent)!r} does not exist")
        if path.is_dir():
            raise OSError(f"output path {str(path)!r} is a directory")


def _cmd_sweep(args: argparse.Namespace) -> int:
    mapping = parse_config_file(args.config) if args.config else {}
    for key in CONFIG_KEYS:
        value = getattr(args, key)
        if value is not None:
            mapping[key] = value
    config = config_from_mapping(mapping)
    _check_output_dirs(config.output, Path(config.output).with_suffix(".csv"))
    result = run_sweep(config)
    doc_path, csv_path = emit_results(result, Path(config.output))
    for agg in result.aggregates:
        print(
            f"m={agg.m}: mean kl_em={agg.latent_kl_em.mean:.6g} "
            f"vs kl_prior={agg.latent_kl_prior_tree.mean:.6g} "
            f"(oracle {agg.latent_kl_oracle_tree.mean:.6g}, "
            f"{agg.iterations_used.mean:.3g} iterations, n={agg.count})"
        )
    if result.failures:
        print(f"{len(result.failures)} trial(s) failed and were excluded")
    print(f"wrote {doc_path} and {csv_path}")
    return EXIT_OK


def _cmd_chowliu(args: argparse.Namespace) -> int:
    _check_output_dirs(args.cov_out, args.edges_out)
    with _naming_file("covariance", args.input):
        sigma = CovMatrix(read_matrix_csv(args.input))
        fit = chow_liu(sigma)
    print(f"kl = {kl_gaussian(sigma, fit):.12g}")
    print("edges = " + " ".join(f"{u}-{v}" for u, v in fit.tree.edges))
    if args.cov_out:
        write_matrix_csv(fit.entries, args.cov_out)
        print(f"wrote {args.cov_out}")
    if args.edges_out:
        write_matrix_csv(fit.tree.edges, args.edges_out)
        print(f"wrote {args.edges_out}")
    return EXIT_OK


def _cmd_em(args: argparse.Namespace) -> int:
    _check_output_dirs(args.sigma_out, args.trace_out)
    h = read_matrix_csv(args.h)
    (m, p), of_h = h.shape, f"of the mixing matrix from {args.h}"
    with _naming_file("prior covariance", args.sigma0):
        sigma0 = CovMatrix(read_matrix_csv(args.sigma0))
        if sigma0.dim != p:
            raise ConfigError(f"dimension {sigma0.dim} != p={p} {of_h}")
    config = EmConfig(sigma0=sigma0, epsilon=args.epsilon, l_max=args.l_max)
    with _naming_file("prior covariance", args.sigma0):
        config.prior_fit  # the one tree fit of the prior, whose errors name its file
    with _naming_file("noise covariance", args.d):
        noise = CovMatrix(read_matrix_csv(args.d))
        if noise.dim != m:
            raise ConfigError(f"dimension {noise.dim} != m={m} {of_h}")
    with _naming_file("mixing matrix", args.h):
        model = LinearModel(h, noise)
    with _naming_file("observations", args.obs):
        obs = read_observations(args.obs)
        if obs.m != m:
            raise ConfigError(f"dimension {obs.m} != m={m} {of_h}")
        # S_Y's one factor, which run_em reuses; a singular S_Y names the file.
        obs.empirical
    trace = run_em(config, model, obs)
    final = trace.final
    print(
        f"stopped after {len(trace.iterations)} iteration(s): "
        f"{trace.stop_reason.value}, final obs_kl = {final.obs_kl:.12g}"
    )
    if args.sigma_out:
        write_matrix_csv(final.sigma_tree.entries, args.sigma_out)
        print(f"wrote {args.sigma_out}")
    if args.trace_out:
        lines = ["iteration,obs_kl,step_kl"]
        lines.extend(
            f"{rec.index},{rec.obs_kl:.17g},{rec.step_kl:.17g}"
            for rec in trace.iterations
        )
        Path(args.trace_out).write_text("\n".join(lines) + "\n", encoding="ascii")
        print(f"wrote {args.trace_out}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
