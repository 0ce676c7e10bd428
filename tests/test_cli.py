"""Exit codes and file outputs of the command-line interface."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import treecov.experiment
from treecov import (
    CovMatrix,
    LinearModel,
    RankDeficientError,
    chow_liu,
    read_matrix_csv,
    read_observations,
    sample_observations,
    write_matrix_csv,
)
from treecov.cli import main
from treecov.linear import PARALLEL_READ_BYTES
from treecov.experiment import generate_ground_truth, generate_prior


@pytest.fixture
def sigma_csv(tmp_path):
    sigma = generate_ground_truth(4, seed=21)
    path = tmp_path / "sigma.csv"
    write_matrix_csv(sigma.entries, path)
    return path


def bad_output_paths(tmp_path):
    """An output path in a missing directory and one that is a directory,
    each with the path its error must name."""
    (tmp_path / "dir").mkdir()
    return [(tmp_path / "absent" / "out.csv", tmp_path / "absent"), (tmp_path / "dir",) * 2]


@pytest.fixture
def em_inputs(tmp_path):
    sigma = generate_ground_truth(3, seed=22)
    sigma0 = generate_prior(sigma, 0.5, seed=23)
    h = np.random.default_rng(24).standard_normal((2, 3))
    model = LinearModel(h, CovMatrix(0.2 * np.eye(2)))
    obs = sample_observations(model, sigma, 50, seed=25)
    paths = {}
    for name, matrix in [
        ("sigma0", sigma0.entries),
        ("h", h),
        ("d", model.d.entries),
        ("obs", obs.samples),
    ]:
        paths[name] = tmp_path / f"{name}.csv"
        write_matrix_csv(matrix, paths[name])
    return paths


class TestChowliuCommand:
    def test_happy_path_writes_outputs(self, tmp_path, sigma_csv, capsys):
        cov_out = tmp_path / "tree.csv"
        edges_out = tmp_path / "edges.csv"
        code = main(
            ["chowliu", str(sigma_csv), "--cov_out", str(cov_out), "--edges_out", str(edges_out)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "kl = " in out and "edges = " in out
        fitted = CovMatrix(read_matrix_csv(cov_out))
        assert np.array_equal(np.diag(fitted.entries), np.diag(read_matrix_csv(sigma_csv)))
        edge_lines = edges_out.read_text().strip().split("\n")
        assert len(edge_lines) == 3
        for line in edge_lines:
            u, v = line.split(",")
            assert 0 <= int(u) < int(v) < 4

    def test_edges_file_text_for_a_chain(self, tmp_path):
        # Correlations 0.8 on 0-1 and 0.5 on 1-2 make 0-1-2 the best tree.
        path = tmp_path / "chain.csv"
        write_matrix_csv(np.array([[1.0, 0.8, 0.4], [0.8, 1.0, 0.5], [0.4, 0.5, 1.0]]), path)
        edges_out = tmp_path / "edges.csv"
        assert main(["chowliu", str(path), "--edges_out", str(edges_out)]) == 0
        assert edges_out.read_bytes() == b"0,1\n1,2\n"

    def test_edges_file_is_sorted_not_in_acceptance_order(self, tmp_path):
        # Kruskal accepts 1-2 (correlation 0.9) before 0-2 (0.2); the file
        # lists the sorted edge tuple.
        path = tmp_path / "sigma.csv"
        write_matrix_csv(np.array([[1.0, 0.1, 0.2], [0.1, 1.0, 0.9], [0.2, 0.9, 1.0]]), path)
        edges_out = tmp_path / "edges.csv"
        assert main(["chowliu", str(path), "--edges_out", str(edges_out)]) == 0
        assert edges_out.read_bytes() == b"0,2\n1,2\n"

    def test_missing_input_is_an_io_error(self, tmp_path):
        assert main(["chowliu", str(tmp_path / "absent.csv")]) == 3

    def test_indefinite_input_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        write_matrix_csv(np.array([[1.0, 2.0], [2.0, 1.0]]), path)
        assert main(["chowliu", str(path)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_non_finite_input_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "nan.csv"
        write_matrix_csv(np.array([[1.0, np.nan], [np.nan, 1.0]]), path)
        assert main(["chowliu", str(path)]) == 1
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("missing, written", [
        ("--cov_out", "--edges_out"), ("--edges_out", "--cov_out"),
    ])
    def test_missing_output_directory_fails_before_the_fit(
        self, tmp_path, sigma_csv, capsys, monkeypatch, missing, written
    ):
        def no_fit(sigma):
            raise AssertionError("chow_liu called despite a bad output path")

        monkeypatch.setattr("treecov.cli.chow_liu", no_fit)
        ok_path = tmp_path / "written.csv"
        for bad, named in bad_output_paths(tmp_path):
            code = main(["chowliu", str(sigma_csv), written, str(ok_path), missing, str(bad)])
            assert code == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("i/o error:") and repr(str(named)) in captured.err
            assert not ok_path.exists()


class TestEmCommand:
    def test_happy_path_writes_trace(self, tmp_path, em_inputs, capsys):
        sigma_out = tmp_path / "fit.csv"
        trace_out = tmp_path / "trace.csv"
        code = main(
            [
                "em",
                "--sigma0", str(em_inputs["sigma0"]),
                "--h", str(em_inputs["h"]),
                "--d", str(em_inputs["d"]),
                "--obs", str(em_inputs["obs"]),
                "--l_max", "6",
                "--epsilon", "1e-9",
                "--sigma_out", str(sigma_out),
                "--trace_out", str(trace_out),
            ]
        )
        assert code == 0
        assert "stopped after" in capsys.readouterr().out
        CovMatrix(read_matrix_csv(sigma_out))
        lines = trace_out.read_text().strip().split("\n")
        assert lines[0] == "iteration,obs_kl,step_kl"
        assert 2 <= len(lines) <= 7
        assert lines[1].startswith("1,") and lines[1].endswith(",inf")
        for lineno, line in enumerate(lines[1:], 1):
            cells = line.split(",")
            assert int(cells[0]) == lineno
            assert float(cells[1]) >= 0.0

    def test_cap_of_one_fits_one_tree(self, em_inputs, monkeypatch):
        # The prior's tree is fitted once, where its errors name the file,
        # and a cap of one iterate refits nothing.
        fits = []

        def counting(sigma):
            fits.append(sigma)
            return chow_liu(sigma)

        for module in ("treecov.cli", "treecov.em"):
            monkeypatch.setattr(f"{module}.chow_liu", counting)
        inputs = [f"--{name}={path}" for name, path in em_inputs.items()]
        assert main(["em", *inputs, "--l_max", "1"]) == 0
        assert len(fits) == 1

    def test_factors_the_sample_covariance_once(self, em_inputs, monkeypatch):
        # The check that names the --obs file builds S_Y's covariance, and
        # every E-step of the run reuses that one factor.
        s_y = read_observations(em_inputs["obs"]).centered_cov
        built = []
        post_init = CovMatrix.__post_init__

        def counting(cov):
            built.append(np.array_equal(cov.entries, s_y))
            post_init(cov)

        monkeypatch.setattr(CovMatrix, "__post_init__", counting)
        inputs = [f"--{name}={path}" for name, path in em_inputs.items()]
        assert main(["em", *inputs, "--l_max", "4", "--epsilon", "1e-9"]) == 0
        assert sum(built) == 1

    @pytest.mark.parametrize("missing, written", [
        ("--trace_out", "--sigma_out"), ("--sigma_out", "--trace_out"),
    ])
    def test_missing_output_directory_fails_before_the_fit(
        self, tmp_path, em_inputs, capsys, monkeypatch, missing, written
    ):
        def no_fit(*args, **kwargs):
            raise AssertionError("run_em called despite a bad output path")

        monkeypatch.setattr("treecov.cli.run_em", no_fit)
        ok_path = tmp_path / "written.csv"
        inputs = [f"--{name}={path}" for name, path in em_inputs.items()]
        for bad, named in bad_output_paths(tmp_path):
            code = main(["em", *inputs, written, str(ok_path), missing, str(bad)])
            assert code == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("i/o error:") and repr(str(named)) in captured.err
            assert not ok_path.exists()

    # The cap and threshold are checked before the observations are read.
    @pytest.mark.parametrize("obs_exists", [True, False], ids=["obs", "missing-obs"])
    def test_nonpositive_epsilon_is_a_config_error(self, tmp_path, em_inputs, capsys, obs_exists):
        obs = em_inputs["obs"] if obs_exists else tmp_path / "absent.csv"
        code = main(
            [
                "em",
                "--sigma0", str(em_inputs["sigma0"]),
                "--h", str(em_inputs["h"]),
                "--d", str(em_inputs["d"]),
                "--obs", str(obs),
                "--epsilon", "0",
            ]
        )
        assert code == 1
        assert "epsilon" in capsys.readouterr().err

    def test_unparseable_flag_is_a_config_error(self, em_inputs):
        code = main(
            [
                "em",
                "--sigma0", str(em_inputs["sigma0"]),
                "--h", str(em_inputs["h"]),
                "--d", str(em_inputs["d"]),
                "--obs", str(em_inputs["obs"]),
                "--epsilon", "abc",
            ]
        )
        assert code == 1

    def test_missing_observations_are_an_io_error_naming_the_file(
        self, tmp_path, em_inputs, capsys
    ):
        obs = tmp_path / "absent.csv"
        code = main(
            [
                "em",
                "--sigma0", str(em_inputs["sigma0"]),
                "--h", str(em_inputs["h"]),
                "--d", str(em_inputs["d"]),
                "--obs", str(obs),
            ]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("i/o error:") and repr(str(obs)) in err

    def test_missing_required_flag_is_a_config_error(self, em_inputs):
        assert main(["em", "--sigma0", str(em_inputs["sigma0"])]) == 1

    @pytest.mark.parametrize(
        "name, bad, named",
        [
            ("h", "inf", "mixing matrix"),
            ("h", "nan", "mixing matrix"),
            ("obs", "nan", "observations"),
        ],
    )
    def test_non_finite_input_is_a_config_error(self, em_inputs, capsys, name, bad, named):
        path = em_inputs[name]
        lines = path.read_text().splitlines()
        cells = lines[1].split(",")
        cells[0] = bad
        lines[1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        code = main(
            [
                "em",
                "--sigma0", str(em_inputs["sigma0"]),
                "--h", str(em_inputs["h"]),
                "--d", str(em_inputs["d"]),
                "--obs", str(em_inputs["obs"]),
            ]
        )
        assert code == 1
        assert named in capsys.readouterr().err

    def test_non_ascii_observations_name_the_file(self, em_inputs, capsys):
        em_inputs["obs"].write_bytes("3,\u00e9\n".encode("utf-8"))
        code = main(
            [
                "em",
                "--sigma0", str(em_inputs["sigma0"]),
                "--h", str(em_inputs["h"]),
                "--d", str(em_inputs["d"]),
                "--obs", str(em_inputs["obs"]),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert str(em_inputs["obs"]) in err
        assert "non-ASCII byte 0xc3" in err

    @pytest.mark.skipif(
        not (hasattr(os, "fork") and sys.platform.startswith("linux")),
        reason="helper processes need os.fork on Linux",
    )
    def test_large_observation_file_gives_the_outputs_of_a_serial_read(
        self, tmp_path, monkeypatch, capsys
    ):
        sigma = generate_ground_truth(10, seed=26)
        sigma0 = generate_prior(sigma, 0.5, seed=27)
        h = np.random.default_rng(28).standard_normal((8, 10))
        model = LinearModel(h, CovMatrix(0.2 * np.eye(8)))
        inputs = {
            "sigma0": sigma0.entries,
            "h": h,
            "d": model.d.entries,
            "obs": sample_observations(model, sigma, 7000, seed=29).samples,
        }
        flags = []
        for name, matrix in inputs.items():
            write_matrix_csv(matrix, tmp_path / f"{name}.csv")
            flags.append(f"--{name}={tmp_path / f'{name}.csv'}")
        assert (tmp_path / "obs.csv").stat().st_size >= PARALLEL_READ_BYTES
        pids = []
        fork = os.fork

        def recording_fork():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", recording_fork)
        outputs = {}
        for cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            out = tmp_path / f"cpus{cpus}"
            out.mkdir()
            code = main(
                ["em", *flags, "--l_max", "6", "--epsilon", "1e-9",
                 "--sigma_out", str(out / "fit.csv"), "--trace_out", str(out / "trace.csv")]
            )
            assert code == 0
            outputs[cpus] = [(out / name).read_bytes() for name in ("fit.csv", "trace.csv")]
        assert "stopped after" in capsys.readouterr().out
        assert len(pids) == 2
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert outputs[1] == outputs[2]


def write_sweep_config(tmp_path, **overrides):
    values = dict(
        p=4, m_values="2,3", r=40, trials=2, seed=5, l_max=6,
        output=str(tmp_path / "results.txt"),
    )
    values.update(overrides)
    path = tmp_path / "sweep.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    return path


class TestSweepCommand:
    def test_happy_path(self, tmp_path, capsys):
        config = write_sweep_config(tmp_path)
        assert main(["sweep", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        assert "m=2:" in out and "m=3:" in out and "wrote" in out
        doc = (tmp_path / "results.txt").read_text()
        assert doc.startswith("[meta]")
        csv_lines = (tmp_path / "results.csv").read_text().strip().split("\n")
        assert len(csv_lines) == 1 + 4

    def test_flag_overrides_config_value(self, tmp_path):
        config = write_sweep_config(tmp_path)
        out = tmp_path / "override.txt"
        code = main(
            ["sweep", "--config", str(config), "--trials", "1", "--output", str(out)]
        )
        assert code == 0
        csv_lines = out.with_suffix(".csv").read_text().strip().split("\n")
        assert len(csv_lines) == 1 + 2

    def test_flags_alone_suffice(self, tmp_path):
        out = tmp_path / "flagged.txt"
        code = main(
            [
                "sweep", "--p", "4", "--m_values", "2", "--r", "40",
                "--trials", "1", "--seed", "5", "--output", str(out),
            ]
        )
        assert code == 0
        assert out.exists()

    def test_unknown_config_key_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "sweep.cfg"
        path.write_text("p = 4\nm_values = 2\nbogus = 1\n")
        assert main(["sweep", "--config", str(path)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_bad_flag_value_is_a_config_error(self, tmp_path):
        config = write_sweep_config(tmp_path)
        assert main(["sweep", "--config", str(config), "--p", "four"]) == 1

    @pytest.mark.parametrize("snr_db", ["4000", "-4000"])
    def test_snr_beyond_float_range_is_a_config_error(self, tmp_path, capsys, snr_db):
        # 10^(snr_db/10) overflows at +4000 dB and underflows to 0 at -4000 dB.
        code = main(
            [
                "sweep", "--p", "4", "--m_values", "2", "--trials", "2",
                f"--snr_db={snr_db}", "--output", str(tmp_path / "out.txt"),
            ]
        )
        assert code == 1
        assert "config error:" in capsys.readouterr().err

    def test_non_utf8_config_file_is_a_config_error_naming_it(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"p = 4\nm_values = 2 # caf\xe9\n")
        assert main(["sweep", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == f"config error: {path}: non-UTF-8 byte 0xe9 at offset 24\n"

    def test_missing_config_file_is_an_io_error(self, tmp_path):
        assert main(["sweep", "--config", str(tmp_path / "absent.cfg")]) == 3

    def test_csv_output_path_fails_before_the_sweep_runs(self, tmp_path, capsys, monkeypatch):
        def no_sweep(config):
            raise AssertionError("run_sweep called despite a .csv output path")

        monkeypatch.setattr("treecov.cli.run_sweep", no_sweep)
        config = write_sweep_config(tmp_path)
        code = main(["sweep", "--config", str(config), "--output", str(tmp_path / "out.csv")])
        assert code == 1
        assert "must not end in .csv" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("out", ["", "."])
    def test_output_without_a_file_name_fails_before_the_sweep_runs(
        self, tmp_path, capsys, monkeypatch, out
    ):
        def no_sweep(config):
            raise AssertionError("run_sweep called despite an output with no file name")

        monkeypatch.setattr("treecov.cli.run_sweep", no_sweep)
        config = write_sweep_config(tmp_path)
        assert main(["sweep", "--config", str(config), "--output", out]) == 1
        assert capsys.readouterr().err == f"config error: output must name a file, got {out!r}\n"

    def test_missing_output_directory_fails_before_the_sweep_runs(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_sweep(config):
            raise AssertionError("run_sweep called despite a bad output path")

        monkeypatch.setattr("treecov.cli.run_sweep", no_sweep)
        config = write_sweep_config(tmp_path)
        out = tmp_path / "absent" / "results.txt"
        code = main(["sweep", "--config", str(config), "--output", str(out)])
        assert code == 3
        assert "i/o error:" in capsys.readouterr().err
        assert not out.parent.exists()
        # The output, or the per-trial CSV written next to it, is a directory.
        (tmp_path / "outdir").mkdir()
        (tmp_path / "res.csv").mkdir()
        for out, named, unwritten in [
            (tmp_path / "outdir", tmp_path / "outdir", tmp_path / "outdir.csv"),
            (tmp_path / "res.txt", tmp_path / "res.csv", tmp_path / "res.txt"),
        ]:
            code = main(["sweep", "--config", str(config), "--output", str(out)])
            assert code == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"i/o error: output path {str(named)!r} is a directory\n"
            assert not unwritten.exists()

    def test_no_parameters_is_a_config_error(self):
        assert main(["sweep"]) == 1

    def test_failed_trials_are_counted_and_named(self, tmp_path, capsys, monkeypatch):
        # Every m = 2 mixing draw is rank deficient; its trials fail by name
        # and the m = 3 trials still run.
        def deficient_at_two(h, d):
            if h.shape[0] == 2:
                raise RankDeficientError("H is numerically rank deficient")
            return LinearModel(h, d)

        monkeypatch.setattr(treecov.experiment, "LinearModel", deficient_at_two)
        out = tmp_path / "results.txt"
        code = main(
            [
                "sweep", "--p", "4", "--m_values", "2,3", "--trials", "2",
                "--output", str(out),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "m=3:" in printed and "m=2:" not in printed
        assert "2 trial(s) failed and were excluded" in printed
        doc = out.read_text()
        failures = doc.split("[failures]\n", 1)[1].split("\n\n", 1)[0].splitlines()
        assert failures == [
            "m,trial,error",
            "2,0,RankDeficientError: H is numerically rank deficient",
            "2,1,RankDeficientError: H is numerically rank deficient",
        ]

    def test_all_trials_failing_is_a_numerical_error(self, tmp_path, capsys):
        # One sample per trial cannot produce a positive definite empirical
        # covariance, so every trial fails.
        config = write_sweep_config(tmp_path, r=1, m_values="2", trials=2)
        assert main(["sweep", "--config", str(config)]) == 2
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("snr_db", ["3080", "-3080"])
    def test_extreme_snr_is_a_numerical_error(self, tmp_path, capsys, snr_db):
        # The noise variance (or the samples' second moment) leaves the float
        # range: every trial fails by name and no numpy warning is printed.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(
                [
                    "sweep", "--p", "4", "--m_values", "2", "--trials", "2",
                    f"--snr_db={snr_db}", "--output", str(tmp_path / "out.txt"),
                ]
            )
        assert code == 2
        err = capsys.readouterr().err
        assert "numerical failure: all 2 trials failed" in err
        assert "noise variance s^2" in err or "second moment overflows" in err


class TestParserBehavior:
    def test_unknown_subcommand_is_a_config_error(self, capsys):
        assert main(["bogus"]) == 1
        assert "config error" in capsys.readouterr().err

    def test_no_subcommand_is_a_config_error(self):
        assert main([]) == 1

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        assert "sweep" in capsys.readouterr().out

    def test_module_entry_point_runs_from_checkout(self):
        # The README's fallback when the console script is not installed.
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.run(
            [sys.executable, "-m", "treecov.cli", "--help"],
            cwd=root, env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        assert "chowliu" in proc.stdout

    def test_console_script_is_installed(self):
        exe = shutil.which("treecov")
        if exe is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "chowliu" in proc.stdout


ASYMMETRIC = "covariance asymmetry 1.000e+00 exceeds tolerance 1e-10"
INDEFINITE = "covariance is not positive definite"
# Unit variances, positive definite, with one correlation 1 - 5e-14 between
# vertices 0 and 1 that the tree fit refuses.
NEAR_ONE = 1.0 - 5e-14
DEGENERATE_2 = [[1.0, NEAR_ONE], [NEAR_ONE, 1.0]]
DEGENERATE_3 = [[1.0, NEAR_ONE, 0.0], [NEAR_ONE, 1.0, 0.0], [0.0, 0.0, 1.0]]
DEGENERATE = "correlation 0.99999999999995 between 0 and 1 is numerically degenerate"


@pytest.mark.parametrize(
    "command, flag, content, label, message",
    [
        ("sweep", "--sigma_csv", [[1.0, 2.0], [3.0, 1.0]], "ground-truth covariance", ASYMMETRIC),
        ("sweep", "--sigma0_csv", [[1.0, 2.0], [2.0, 1.0]], "prior covariance", INDEFINITE),
        ("em", "--sigma0", [[1.0, 2.0], [3.0, 1.0]], "prior covariance", ASYMMETRIC),
        ("em", "--d", [[1.0, 2.0], [3.0, 1.0]], "noise covariance", ASYMMETRIC),
        ("em", "--d", [[1.0, 2.0], [2.0, 1.0]], "noise covariance", INDEFINITE),
        ("chowliu", None, [[1.0, 2.0], [3.0, 1.0]], "covariance", ASYMMETRIC),
        ("chowliu", None, [[1.0]], "covariance", "need at least two vertices, got 1"),
        ("chowliu", None, DEGENERATE_2, "covariance", DEGENERATE),
        ("em", "--sigma0", DEGENERATE_3, "prior covariance", DEGENERATE),
        ("sweep", "--sigma0_csv", DEGENERATE_2, "prior covariance", DEGENERATE),
        ("sweep", "--sigma_csv", DEGENERATE_2, "ground-truth covariance", DEGENERATE),
        ("sweep", "--sigma_csv", np.eye(3), "ground-truth covariance",
         "has shape (3, 3), expected (2, 2)"),
    ],
)
def test_invalid_covariance_file_is_named(
    tmp_path, em_inputs, capsys, command, flag, content, label, message
):
    bad = tmp_path / "bad.csv"
    write_matrix_csv(np.array(content), bad)
    if command == "sweep":
        argv = ["sweep", "--p", "2", "--m_values", "1", "--trials", "2",
                "--output", str(tmp_path / "results.txt"), flag, str(bad)]
    elif command == "em":
        argv = ["em"]
        for name, path in em_inputs.items():
            argv += [f"--{name}", str(bad if f"--{name}" == flag else path)]
    else:
        argv = ["chowliu", str(bad)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"config error: {label} from {bad}: {message}\n"


def test_one_latent_dimension_names_the_prior_file(tmp_path, capsys):
    paths = {}
    for name, matrix in [("sigma0", [[1.0]]), ("h", [[1.0]]), ("d", [[0.2]]),
                         ("obs", [[1.0], [-2.0], [0.5]])]:
        paths[name] = tmp_path / f"{name}.csv"
        write_matrix_csv(np.array(matrix), paths[name])
    argv = ["em"]
    for name, path in paths.items():
        argv += [f"--{name}", str(path)]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"config error: prior covariance from {paths['sigma0']}: "
        "need at least two vertices, got 1\n"
    )


@pytest.mark.parametrize(
    "h, message",
    [
        ([[1.0, np.nan, 0.0], [0.0, 1.0, 0.0]], "mixing matrix H has a non-finite entry"),
        ([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]], "H is numerically rank deficient"),
        (np.ones((4, 3)), "observation dimension m=4 exceeds latent dimension p=3"),
    ],
    ids=["non-finite", "rank-deficient", "more-rows-than-columns"],
)
def test_invalid_mixing_matrix_names_the_file(em_inputs, capsys, h, message):
    h = np.array(h)
    write_matrix_csv(h, em_inputs["h"])
    write_matrix_csv(np.eye(len(h)), em_inputs["d"])
    argv = ["em"]
    for name, path in em_inputs.items():
        argv += [f"--{name}", str(path)]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"config error: mixing matrix from {em_inputs['h']}: {message}\n"
    )


@pytest.mark.parametrize(
    "flag, content, label, mismatch",
    [
        ("--d", np.eye(3), "noise covariance", "dimension 3 != m=2"),
        ("--sigma0", np.eye(4), "prior covariance", "dimension 4 != p=3"),
        ("--obs", np.ones((5, 3)), "observations", "dimension 3 != m=2"),
    ],
)
def test_dimension_mismatch_names_the_file(
    tmp_path, em_inputs, capsys, flag, content, label, mismatch
):
    bad = tmp_path / "bad.csv"
    write_matrix_csv(content, bad)
    argv = ["em"]
    for name, path in em_inputs.items():
        argv += [f"--{name}", str(bad if f"--{name}" == flag else path)]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"config error: {label} from {bad}: {mismatch} "
        f"of the mixing matrix from {em_inputs['h']}\n"
    )


@pytest.mark.parametrize(
    "samples, message",
    [
        ([[1.0, np.nan], [2.0, 3.0], [4.0, 5.0]], "observations have a non-finite entry"),
        (
            [[1e200, 1.0], [2.0, 3.0], [4.0, 5.0]],
            "observations' second moment overflows the float range",
        ),
        (
            [[1.0, 2.0], [3.0, 5.0]],
            "centered sample covariance is singular: rank 1 of 2 (deficit 1) from r=2 samples",
        ),
    ],
    ids=["non-finite", "overflow", "too-few-samples"],
)
def test_invalid_observations_name_the_file(em_inputs, capsys, samples, message):
    write_matrix_csv(np.array(samples), em_inputs["obs"])
    argv = ["em"]
    for name, path in em_inputs.items():
        argv += [f"--{name}", str(path)]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"config error: observations from {em_inputs['obs']}: {message}\n"
    )
