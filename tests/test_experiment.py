"""Scenario generation, config parsing, the comparison sweep, and emission.

The oracle tree fit minimizes the divergence from the truth over the whole
tree family, so it lower-bounds every per-trial result; several tests lean
on that ordering.
"""

from __future__ import annotations

import itertools
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import treecov.experiment
from treecov import (
    ConfigError,
    CovMatrix,
    ExperimentConfig,
    LinearModel,
    NumericalError,
    RankDeficientError,
    SweepResult,
    chow_liu,
    emit_results,
    kl_gaussian,
    run_sweep,
    sample_observations,
    write_matrix_csv,
)
from treecov.em import EmMonotonicityWarning, StopReason
from treecov.experiment import (
    _RESULT_COLUMNS,
    CONFIG_KEYS,
    ColumnStats,
    config_from_mapping,
    derive_seed,
    generate_ground_truth,
    generate_mixing,
    generate_prior,
    parse_config_file,
)
from treecov.tree import SpanningTree, TreeCovMatrix, prufer_decode, tree_covariance


def small_config(**overrides) -> ExperimentConfig:
    base = dict(p=4, m_values=(2, 3), r=50, trials=3, seed=123, l_max=8)
    base.update(overrides)
    return ExperimentConfig(**base)


def patch_flaky_mixing(monkeypatch) -> None:
    """Make every m = 2 trial of a sweep fail in generate_mixing."""
    original = treecov.experiment.generate_mixing

    def flaky_mixing(p, m, snr_db, sigma, seed):
        if m == 2:
            raise NumericalError("synthetic breakdown")
        return original(p, m, snr_db, sigma, seed)

    monkeypatch.setattr(treecov.experiment, "generate_mixing", flaky_mixing)


IDENTITY_MODEL = LinearModel(np.eye(2), CovMatrix(np.eye(2)))


@pytest.mark.parametrize(
    "call, named",
    [
        pytest.param(
            lambda: sample_observations(IDENTITY_MODEL, CovMatrix(np.eye(2)), 3, seed=2.5),
            "seed", id="sample_observations",
        ),
        pytest.param(lambda: generate_ground_truth(3.0, 1), "p", id="ground_truth-p"),
        pytest.param(lambda: generate_ground_truth(3, 1.0), "seed", id="ground_truth-seed"),
        pytest.param(
            lambda: generate_prior(CovMatrix(np.eye(2)), 0.5, "1"), "seed", id="prior"
        ),
        pytest.param(
            lambda: generate_mixing(2, 2, 20.0, CovMatrix(np.eye(2)), 0.0), "seed", id="mixing"
        ),
        pytest.param(lambda: prufer_decode([0], 3.0), "num_vertices", id="prufer_decode"),
        pytest.param(lambda: derive_seed(1.5, "x"), "master", id="derive_seed"),
        pytest.param(lambda: generate_ground_truth(3, True), "seed", id="ground_truth-bool"),
        pytest.param(
            lambda: generate_mixing(4.0, 2, 20.0, CovMatrix(np.eye(4)), 0), "p", id="mixing-p"
        ),
        pytest.param(
            lambda: generate_mixing(4, 2.5, 20.0, CovMatrix(np.eye(4)), 0), "m", id="mixing-m"
        ),
        pytest.param(
            lambda: generate_mixing(4, True, 20.0, CovMatrix(np.eye(4)), 0), "m",
            id="mixing-m-bool",
        ),
    ],
)
def test_generators_reject_non_integer_seeds_and_counts_by_name(call, named):
    with pytest.raises(ValueError, match=rf"^{named} must be an integer"):
        call()


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(0, "sigma") == derive_seed(0, "sigma")

    def test_labels_decorrelate(self):
        seeds = {
            derive_seed(0, "sigma"),
            derive_seed(0, "prior"),
            derive_seed(0, "mixing", 5, 0),
            derive_seed(0, "mixing", 5, 1),
            derive_seed(0, "observations", 5, 0),
            derive_seed(1, "sigma"),
        }
        assert len(seeds) == 6

    def test_fits_in_63_bits(self):
        for master in range(20):
            assert 0 <= derive_seed(master, "x") < 2**63

    @pytest.mark.parametrize("integer", [np.int64, np.int32, np.uint8])
    def test_numpy_integer_parts_match_python_ints(self, integer):
        assert derive_seed(0, "mixing", 5, 0) == 1081270873283760506
        assert derive_seed(0, "mixing", integer(5), integer(0)) == 1081270873283760506


class TestGenerateGroundTruth:
    def test_unit_variances(self):
        sigma = generate_ground_truth(5, seed=3)
        assert np.array_equal(np.diag(sigma.entries), np.ones(5))

    def test_is_exactly_tree_structured(self):
        sigma = generate_ground_truth(6, seed=7)
        fit = chow_liu(sigma)
        assert kl_gaussian(sigma, fit) < 1e-9
        precision = np.linalg.inv(sigma.entries)
        scale = np.abs(precision).max()
        strong = {
            (u, v)
            for u in range(6)
            for v in range(u + 1, 6)
            if abs(precision[u, v]) > 1e-8 * scale
        }
        assert strong == set(fit.tree.edges)
        assert len(strong) == 5

    def test_edge_correlations_in_declared_range(self):
        sigma = generate_ground_truth(7, seed=11)
        for u, v in chow_liu(sigma).tree.edges:
            assert 0.5 - 1e-12 <= abs(sigma.entries[u, v]) <= 0.95 + 1e-12

    def test_deterministic_and_seed_sensitive(self):
        a = generate_ground_truth(5, seed=13)
        b = generate_ground_truth(5, seed=13)
        c = generate_ground_truth(5, seed=14)
        assert np.array_equal(a.entries, b.entries)
        assert not np.array_equal(a.entries, c.entries)

    def test_rejects_single_vertex(self):
        with pytest.raises(ValueError, match="at least two"):
            generate_ground_truth(1, seed=0)

    def test_returns_the_tree_covariance_it_builds(self):
        # So the truth keeps its closed-form log-det and sparse precision,
        # and the oracle tree fit of it reproduces it bit for bit.
        sigma = generate_ground_truth(8, seed=5)
        assert isinstance(sigma, TreeCovMatrix)
        assert kl_gaussian(sigma, chow_liu(sigma)) == 0.0


class TestGeneratePrior:
    def test_zero_weight_returns_truth_unchanged(self):
        sigma = generate_ground_truth(5, seed=17)
        assert np.array_equal(generate_prior(sigma, 0.0, seed=1).entries, sigma.entries)

    def test_full_weight_keeps_only_the_diagonal(self):
        sigma = generate_ground_truth(5, seed=17)
        prior = generate_prior(sigma, 1.0, seed=1)
        np.testing.assert_allclose(np.diag(prior.entries), np.diag(sigma.entries), atol=1e-12)
        assert not np.allclose(prior.entries, sigma.entries, atol=1e-3)

    def test_interpolates_linearly(self):
        sigma = generate_ground_truth(5, seed=17)
        perturbation = generate_prior(sigma, 1.0, seed=1).entries
        half = generate_prior(sigma, 0.5, seed=1).entries
        np.testing.assert_allclose(half, 0.5 * sigma.entries + 0.5 * perturbation, atol=1e-12)

    def test_rejects_weight_outside_unit_interval(self):
        sigma = generate_ground_truth(3, seed=0)
        for alpha in (-0.1, 1.1):
            with pytest.raises(ValueError, match="mixing weight"):
                generate_prior(sigma, alpha, seed=0)

    def test_weight_enters_as_a_python_float(self):
        sigma = generate_ground_truth(4, seed=0)
        with pytest.raises(ValueError, match="^alpha must be a real number, got '0.5'$"):
            generate_prior(sigma, "0.5", seed=0)
        # A float32 weight is applied as the double of equal value, not in float32.
        weight = np.float32(0.1)
        got = generate_prior(sigma, weight, seed=2).entries
        assert np.array_equal(got, generate_prior(sigma, float(weight), seed=2).entries)


class TestGenerateMixing:
    @pytest.mark.parametrize("snr_db", [
        0.0, 20.0, pytest.param(np.float32(15.5), id="np.float32(15.5)"),
    ])
    def test_hits_the_target_snr(self, snr_db):
        sigma = generate_ground_truth(6, seed=19)
        model = generate_mixing(6, 4, snr_db, sigma, seed=2)
        signal = float(np.trace(model.h @ sigma.entries @ model.h.T))
        noise = float(np.trace(model.d.entries))
        assert signal / noise == pytest.approx(10.0 ** (float(snr_db) / 10.0), rel=1e-9)

    def test_noise_is_white(self):
        sigma = generate_ground_truth(5, seed=19)
        model = generate_mixing(5, 3, 10.0, sigma, seed=3)
        d = model.d.entries
        assert model.h.shape == (3, 5)
        np.testing.assert_allclose(d, d[0, 0] * np.eye(3), atol=1e-15)

    def test_deterministic(self):
        sigma = generate_ground_truth(5, seed=19)
        a = generate_mixing(5, 3, 20.0, sigma, seed=4)
        b = generate_mixing(5, 3, 20.0, sigma, seed=4)
        assert np.array_equal(a.h, b.h)
        assert np.array_equal(a.d.entries, b.d.entries)

    def test_a_rank_deficient_draw_is_not_redrawn(self, monkeypatch):
        calls = []

        def deficient(h, d):
            calls.append(h)
            raise RankDeficientError("H is numerically rank deficient")

        monkeypatch.setattr(treecov.experiment, "LinearModel", deficient)
        sigma = generate_ground_truth(10, seed=0)
        with pytest.raises(RankDeficientError, match="H is numerically rank deficient"):
            generate_mixing(10, 5, 20.0, sigma, seed=7)
        assert len(calls) == 1

    @pytest.mark.parametrize("snr_db", [
        -4000.0, -3300.0, 3100.0, 4000.0,
        pytest.param(np.float64(-4000.0), id="np.float64(-4000.0)"),
        pytest.param(np.float64(4000.0), id="np.float64(4000.0)"),
        pytest.param(np.float32(-4000.0), id="np.float32(-4000.0)"),
        pytest.param(np.float32(4000.0), id="np.float32(4000.0)"),
    ])
    def test_snr_beyond_the_float_range_fails_by_name(self, snr_db):
        # 10^(snr_db / 10) underflows to 0.0 or overflows Python's float power;
        # a numpy SNR enters as the Python float of equal value.
        named = rf"^noise variance s\^2 = (inf|0\.0) at snr_db={float(snr_db)!r} is not"
        with pytest.raises(NumericalError, match=named):
            generate_mixing(4, 2, snr_db, generate_ground_truth(4, 1), 3)

    def test_rejects_bad_channel_count(self):
        sigma = generate_ground_truth(4, seed=0)
        with pytest.raises(ValueError, match="1 <= m <= p"):
            generate_mixing(4, 0, 20.0, sigma, seed=0)
        with pytest.raises(ValueError, match="1 <= m <= p"):
            generate_mixing(4, 5, 20.0, sigma, seed=0)

    def test_rejects_dimension_mismatch(self):
        sigma = generate_ground_truth(4, seed=0)
        with pytest.raises(ValueError, match="dimension"):
            generate_mixing(5, 3, 20.0, sigma, seed=0)


class TestExperimentConfig:
    def test_coerces_m_values_to_int_tuple(self):
        config = ExperimentConfig(
            p=np.int64(5), m_values=[np.int64(2), 3], r=np.int32(20), trials=np.int16(2),
            seed=np.uint8(3), l_max=np.int64(5),
        )
        assert config.m_values == (2, 3)
        assert all(type(m) is int for m in config.m_values)
        counts = (config.p, config.r, config.trials, config.seed, config.l_max)
        assert counts == (5, 20, 2, 3, 5) and all(type(n) is int for n in counts)

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(p=1),
            dict(m_values=(0,)),
            dict(m_values=(5,)),
            dict(r=0),
            dict(trials=0),
            dict(epsilon=0.0),
            dict(l_max=0),
            dict(alpha=1.5),
            dict(snr_db=math.nan),
            dict(snr_db=math.inf),
            dict(epsilon=math.nan),
            dict(epsilon=math.inf),
            dict(snr_db=4000.0),
            dict(snr_db=-4000.0),
            dict(m_values=()),
            dict(m_values=(2, 2)),
            dict(output="results.csv"),
            dict(output=""),
            dict(output="."),
            dict(snr_db=np.float64(4000.0)),
            dict(snr_db=np.float64(-4000.0)),
            dict(snr_db=np.float32(4000.0)),
            dict(snr_db=np.float32(-4000.0)),
        ],
    )
    def test_rejects_invalid_fields(self, overrides):
        base = dict(p=4, m_values=(2,))
        base.update(overrides)
        with pytest.raises(ConfigError):
            ExperimentConfig(**base)

    @pytest.mark.parametrize(
        "field, value, named",
        [
            ("p", 4.0, "p must be an integer"),
            ("r", 20.5, "r must be an integer"),
            ("trials", 2.5, "trials must be an integer"),
            ("seed", 1.5, "seed must be an integer"),
            ("l_max", 2.5, "l_max must be an integer"),
            ("m_values", (2.5,), "every m must be an integer"),
            ("m_values", (2, "3"), "every m must be an integer"),
            ("m_values", 5, "m_values must be a sequence of integers"),
            ("p", True, "p must be an integer"),
            ("r", True, "r must be an integer"),
            ("trials", True, "trials must be an integer"),
            ("seed", False, "seed must be an integer"),
            ("l_max", True, "l_max must be an integer"),
            ("m_values", (2, True), "every m must be an integer"),
            ("m_values", "23", "m_values must be a sequence of integers"),
            ("m_values", b"23", "m_values must be a sequence of integers"),
            ("m_values", bytearray(b"23"), "m_values must be a sequence of integers"),
        ],
    )
    def test_rejects_non_integer_counts_by_name(self, field, value, named):
        base = dict(p=4, m_values=(2,), trials=2)
        base[field] = value
        with pytest.raises(ConfigError, match=named):
            ExperimentConfig(**base)

    @pytest.mark.parametrize(
        "field, value, named",
        [
            ("snr_db", "20", "snr_db must be a real number"),
            ("snr_db", None, "snr_db must be a real number"),
            ("epsilon", "0.1", "epsilon must be a real number"),
            ("alpha", "0.5", "alpha must be a real number"),
            ("output", None, "output must be a path"),
            ("sigma_csv", 3, "sigma_csv must be a path"),
            ("sigma0_csv", b"prior.csv", "sigma0_csv must be a path"),
            ("snr_db", True, "snr_db must be a real number"),
            ("epsilon", True, "epsilon must be a real number"),
            ("alpha", False, "alpha must be a real number"),
        ],
    )
    def test_rejects_non_numeric_and_non_path_fields_by_name(self, field, value, named):
        base = dict(p=4, m_values=(2,))
        base[field] = value
        with pytest.raises(ConfigError, match=named):
            ExperimentConfig(**base)

    @pytest.mark.parametrize(
        "field, named",
        [
            ("snr_db", "positive and finite, got snr_db=1000"),
            ("epsilon", "epsilon must be positive and finite"),
            ("alpha", "alpha must lie in"),
        ],
    )
    def test_rejects_ints_beyond_the_float_range_by_name(self, field, named):
        base = dict(p=3, m_values=(2,))
        base[field] = 10**400
        with pytest.raises(ConfigError, match=named):
            ExperimentConfig(**base)

    def test_accepts_numpy_scalars_and_path_objects(self):
        config = ExperimentConfig(
            p=4, m_values=(2,), snr_db=np.float64(20.0), epsilon=np.float32(0.125),
            alpha=np.float64(0.5), output=Path("out/results.txt"),
        )
        reals = (config.snr_db, config.epsilon, config.alpha)
        assert reals == (20.0, 0.125, 0.5) and all(type(x) is float for x in reals)


CONFIG_TEXT = """\
# comparison sweep
p = 6
m_values = 3, 4, 5

r = 80
snr_db = 15.5
trials = 7
seed = 42
epsilon = 0.05
l_max = 12
alpha = 0.25
output = out/results.txt
"""


class TestConfigParsing:
    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text(CONFIG_TEXT)
        config = config_from_mapping(parse_config_file(path))
        assert config.p == 6
        assert config.m_values == (3, 4, 5)
        assert config.r == 80
        assert config.snr_db == 15.5
        assert config.trials == 7
        assert config.seed == 42
        assert config.epsilon == 0.05
        assert config.l_max == 12
        assert config.alpha == 0.25
        assert config.sigma_csv is None
        assert config.output == "out/results.txt"

    def test_readme_example_config_parses(self, tmp_path):
        # README's sweep.cfg verbatim, trailing comments included.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("where `sweep.cfg` is flat", 1)[1].split("```\n", 2)[1]
        assert "#" in block
        path = tmp_path / "sweep.cfg"
        path.write_text(block)
        config = config_from_mapping(parse_config_file(path))
        assert config.p == 10
        assert config.m_values == (5, 6, 7, 8, 9)
        assert config.r == 100
        assert config.alpha == 0.5
        assert config.output == "results.txt"

    def test_readme_command_line_names_every_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Command line\n", 1)[1].split("\n## ", 1)[0]
        named = set(re.findall(r"^(\w+) = ", section, re.M)) | set(re.findall(r"`(\w+)`", section))
        assert set(CONFIG_KEYS) <= named

    def test_rejects_unknown_key(self, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text("p = 4\nm_values = 2\nbogus = 1\n")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_file(path)

    def test_rejects_duplicate_key(self, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text("p = 4\np = 5\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_file(path)

    def test_rejects_non_utf8_byte_naming_the_path(self, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_bytes(b"p = 4\nm_values = \xff2\n")
        with pytest.raises(ConfigError) as excinfo:
            parse_config_file(path)
        assert str(excinfo.value) == f"{path}: non-UTF-8 byte 0xff at offset 17"

    def test_a_leading_byte_order_mark_is_skipped(self, tmp_path):
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        plain.write_text(CONFIG_TEXT, encoding="utf-8")
        marked.write_text(CONFIG_TEXT, encoding="utf-8-sig")
        assert marked.read_bytes()[:3] == b"\xef\xbb\xbf"
        assert parse_config_file(marked) == parse_config_file(plain)

    def test_rejects_line_without_assignment(self, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text("p 4\n")
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_file(path)

    def test_mapping_requires_p_and_m_values(self):
        with pytest.raises(ConfigError, match="missing required"):
            config_from_mapping({"p": "4"})
        with pytest.raises(ConfigError, match="missing required"):
            config_from_mapping({"m_values": "2"})

    def test_mapping_rejects_unknown_and_bad_values(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            config_from_mapping({"p": "4", "m_values": "2", "zzz": "1"})
        with pytest.raises(ConfigError, match="bad value"):
            config_from_mapping({"p": "four", "m_values": "2"})

    def test_empty_path_means_unset(self):
        config = config_from_mapping({"p": "4", "m_values": "2", "sigma_csv": ""})
        assert config.sigma_csv is None


class TestRunSweep:
    def test_produces_ordered_complete_records(self):
        result = run_sweep(small_config())
        assert [(rec.m, rec.trial) for rec in result.records] == [
            (2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2),
        ]
        assert result.failures == ()
        assert [agg.m for agg in result.aggregates] == [2, 3]
        assert all(agg.count == 3 for agg in result.aggregates)

    def test_oracle_lower_bounds_every_trial(self):
        result = run_sweep(small_config())
        for rec in result.records:
            assert rec.latent_kl_oracle_tree <= rec.latent_kl_em + 1e-9
            assert rec.latent_kl_oracle_tree <= rec.latent_kl_prior_tree + 1e-9
            assert rec.latent_kl_em >= 0.0
            assert 1 <= rec.iterations_used <= 8
            assert rec.stop_reason in (StopReason.EPSILON_REACHED, StopReason.LMAX_REACHED)

    def test_deterministic(self):
        a = run_sweep(small_config())
        b = run_sweep(small_config())
        assert a.records == b.records
        assert a.aggregates == b.aggregates

    def test_a_float32_snr_gives_the_records_of_the_equal_python_float(self):
        # 15.5 is exact in float32; the sweep must not compute s^2 in float32.
        expected = run_sweep(small_config(snr_db=15.5))
        assert run_sweep(small_config(snr_db=np.float32(15.5))).records == expected.records

    def test_records_do_not_depend_on_trial_count(self):
        # A trial's record is a function of (config, m, trial) alone.
        short = run_sweep(small_config(p=6, m_values=(4,), trials=7))
        long = run_sweep(small_config(p=6, m_values=(4,), trials=20))
        assert len(short.records) == 7
        assert long.records[:7] == short.records

    def test_aggregates_match_recomputation(self):
        result = run_sweep(small_config())
        group = [rec.latent_kl_em for rec in result.records if rec.m == 2]
        agg = result.aggregates[0]
        assert agg.columns["kl_em"].mean == pytest.approx(np.mean(group), rel=1e-15)
        assert agg.columns["kl_em"].stderr == pytest.approx(
            np.std(group, ddof=1) / np.sqrt(len(group)), rel=1e-12
        )

    def test_a_constant_column_has_its_value_as_mean_and_no_stderr(self):
        # One truth gives every record the same kl_prior and kl_oracle. A
        # float mean and std of ten copies read 2.013222935878514 and 1.5e-16.
        result = run_sweep(ExperimentConfig(p=10, m_values=(5,), trials=10))
        constant = set()
        for agg in result.aggregates:
            for name, field in _RESULT_COLUMNS:
                values = {getattr(rec, field) for rec in result.records if rec.m == agg.m}
                if len(values) == 1:
                    constant.add(name)
                    assert agg.columns[name] == ColumnStats(mean=values.pop(), stderr=0.0)
        assert constant >= {"kl_prior", "kl_oracle"}

    def test_em_never_beats_the_best_tree_when_the_truth_is_not_a_tree(self, tmp_path):
        # A blend of two generated trees is no tree, so the oracle tree's
        # divergence from it is the approximation gap, and no tree the
        # iteration returns can come closer to the truth than that.
        beta, p = 0.3, 10
        sigma_a, sigma_b = (
            generate_ground_truth(p, derive_seed(seed, "sigma")).entries for seed in (0, 1)
        )
        path = tmp_path / "sigma.csv"
        write_matrix_csv((1 - beta) * sigma_a + beta * sigma_b, path)
        result = run_sweep(
            ExperimentConfig(p=p, m_values=(5, 7, 9), trials=5, sigma_csv=str(path))
        )
        assert result.failures == ()
        assert len(result.records) == 15
        for rec in result.records:
            assert rec.latent_kl_oracle_tree > 0.0
            assert rec.latent_kl_em >= rec.latent_kl_oracle_tree - 1e-9

    def test_trace_hook_sees_every_trial_in_order(self):
        seen = []
        result = run_sweep(
            small_config(), on_trace=lambda m, trial, trace: seen.append((m, trial, trace))
        )
        assert [(m, t) for m, t, _ in seen] == [(rec.m, rec.trial) for rec in result.records]
        for (_, _, trace), rec in zip(seen, result.records):
            assert trace.final.latent_kl == rec.latent_kl_em
            assert len(trace.iterations) == rec.iterations_used

    def test_full_observation_beats_the_corrupted_prior(self, monkeypatch):
        # With H = I, tiny noise, many samples, and a fully corrupted prior,
        # the iteration must land far closer to the truth than the prior fit.
        def identity_mixing(p, m, snr_db, sigma, seed):
            return LinearModel(np.eye(p), CovMatrix(1e-4 * np.eye(p)))

        monkeypatch.setattr(treecov.experiment, "generate_mixing", identity_mixing)
        config = small_config(
            p=4, m_values=(4,), r=10_000, trials=1, alpha=1.0, l_max=30, snr_db=40.0
        )
        result = run_sweep(config)
        rec = result.records[0]
        assert rec.latent_kl_em < 0.2 * rec.latent_kl_prior_tree

    def test_no_trial_fails_from_low_to_extreme_snr(self):
        # Conditioning must stay valid as the noise vanishes: m = p and
        # 400 dB make the posterior covariance numerically singular.
        for snr_db in (-10.0, 20.0, 100.0, 140.0, 400.0):
            result = run_sweep(small_config(m_values=(2, 4), snr_db=snr_db))
            assert result.failures == (), f"{snr_db} dB: {result.failures[0].error}"
            assert len(result.records) == 6

    @pytest.mark.parametrize("snr_db", [
        3080.0, -3080.0,
        pytest.param(np.float64(3080.0), id="np.float64(3080.0)"),
        pytest.param(np.float32(-3080.0), id="np.float32(-3080.0)"),
    ])
    def test_extreme_snr_fails_every_trial_by_name(self, snr_db):
        # s^2 underflows to 0 at +3080 dB; at -3080 dB it overflows, or the
        # samples' second moment does. Either way no numpy warning escapes.
        named = (
            r"NumericalError: noise variance s\^2 = .* at snr_db=-?3080\.0 "
            r"|ValueError: observations' second moment overflows"
        )
        sigma = generate_ground_truth(4, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=f"all 2 trials failed; first failure: ({named})"):
                run_sweep(small_config(m_values=(2,), trials=2, snr_db=snr_db))
            for seed in range(20):
                with pytest.raises((NumericalError, ValueError)) as excinfo:
                    model = generate_mixing(4, 2, snr_db, sigma, seed)
                    sample_observations(model, sigma, 100, seed)
                assert re.match(named, f"{excinfo.type.__name__}: {excinfo.value}")

    def test_every_trial_with_too_few_samples_fails_by_name(self):
        # r = 3 samples: m = 4 and m = 3 leave S_Y singular, m = 2 does not.
        # So few samples let the centered objective rise between iterates.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EmMonotonicityWarning)
            result = run_sweep(
                ExperimentConfig(p=10, m_values=(2, 3, 4), r=3, trials=20, seed=3)
            )
        assert [(f.m, f.trial) for f in result.failures] == [
            (m, trial) for m in (3, 4) for trial in range(20)
        ]
        for f in result.failures:
            assert f.error == (
                "NotPositiveDefiniteError: centered sample covariance is singular: "
                f"rank 2 of {f.m} (deficit {f.m - 2}) from r=3 samples"
            )
        assert [(agg.m, agg.count) for agg in result.aggregates] == [(2, 20)]

    def test_records_partial_failures(self, monkeypatch):
        patch_flaky_mixing(monkeypatch)
        result = run_sweep(small_config())
        assert len(result.failures) == 3
        assert all(f.m == 2 for f in result.failures)
        assert "synthetic breakdown" in result.failures[0].error
        assert [agg.m for agg in result.aggregates] == [3]

    def test_raises_when_every_trial_fails(self, monkeypatch):
        def broken_mixing(p, m, snr_db, sigma, seed):
            raise NumericalError("synthetic breakdown")

        monkeypatch.setattr(treecov.experiment, "generate_mixing", broken_mixing)
        with pytest.raises(NumericalError, match="all 6 trials failed"):
            run_sweep(small_config())

    def test_an_oracle_tree_worse_than_the_prior_tree_is_named(self, monkeypatch):
        # The truth's fit becomes the worst of the 1296 labelled trees on six
        # vertices: 1.247 nats from the default seed's truth, against 0.759
        # for the prior's tree.
        def worst_tree(sigma):
            fits = (
                tree_covariance(sigma, SpanningTree(6, prufer_decode(seq, 6)))
                for seq in itertools.product(range(6), repeat=4)
            )
            return max(fits, key=lambda fit: kl_gaussian(sigma, fit))

        monkeypatch.setattr(treecov.experiment, "chow_liu", worst_tree)
        with pytest.raises(NumericalError, match="^oracle tree is worse than the prior tree"):
            run_sweep(ExperimentConfig(p=6, m_values=(3,)))

    def test_loads_covariances_from_csv(self, tmp_path):
        sigma = generate_ground_truth(4, seed=99)
        sigma_path = tmp_path / "sigma.csv"
        write_matrix_csv(sigma.entries, sigma_path)
        config = small_config(
            m_values=(2,), trials=2, sigma_csv=str(sigma_path), sigma0_csv=str(sigma_path)
        )
        result = run_sweep(config)
        rec = result.records[0]
        # Prior equals truth here, so both baselines coincide.
        assert rec.latent_kl_prior_tree == pytest.approx(rec.latent_kl_oracle_tree, abs=1e-12)

    def test_rejects_wrong_csv_shape(self, tmp_path):
        sigma = generate_ground_truth(3, seed=99)
        sigma_path = tmp_path / "sigma.csv"
        write_matrix_csv(sigma.entries, sigma_path)
        with pytest.raises(ValueError, match="sigma_csv has dimension 3, expected 4$"):
            run_sweep(small_config(sigma_csv=str(sigma_path)))


class TestEmitResults:
    def test_writes_document_and_csv(self, tmp_path):
        result = run_sweep(small_config())
        doc_path, csv_path = emit_results(result, tmp_path / "results.txt")
        assert doc_path == tmp_path / "results.txt"
        assert csv_path == tmp_path / "results.csv"
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == "m,trial,kl_em,kl_prior,kl_oracle,iterations,stop_reason"
        assert len(lines) == 1 + len(result.records)
        first = lines[1].split(",")
        assert first[0] == "2" and first[1] == "0"
        assert float(first[2]) == result.records[0].latent_kl_em
        assert float(first[3]) == result.records[0].latent_kl_prior_tree
        assert float(first[4]) == result.records[0].latent_kl_oracle_tree
        assert int(first[5]) == result.records[0].iterations_used
        assert first[6] in ("EpsilonReached", "LmaxReached")

    def test_document_sections_and_metadata(self, tmp_path):
        result = run_sweep(small_config())
        doc_path, csv_path = emit_results(result, tmp_path / "results.txt")
        text = doc_path.read_text()
        assert text.startswith("[meta]\n")
        assert "[aggregates]" in text
        assert "[failures]" not in text
        assert f"csv = {csv_path.name}" in text
        assert "snr_definition = " in text
        assert "m_values = 2,3" in text
        assert "trials_ok = 6" in text
        assert "trials_failed = 0" in text
        agg_lines = text.split("[aggregates]\n")[1].strip().split("\n")
        assert agg_lines[0].startswith("m,count,mean_kl_em,se_kl_em")
        assert len(agg_lines) >= 3

    def test_failures_section_present_when_trials_fail(self, tmp_path, monkeypatch):
        patch_flaky_mixing(monkeypatch)
        result = run_sweep(small_config())
        doc_path, _ = emit_results(result, tmp_path / "results.txt")
        text = doc_path.read_text()
        assert "[failures]" in text
        assert "synthetic breakdown" in text

    def test_rejects_csv_document_path(self, tmp_path):
        result = run_sweep(small_config(m_values=(2,), trials=1))
        with pytest.raises(ValueError, match="must not end in .csv"):
            emit_results(result, tmp_path / "results.csv")

    def test_unwritable_csv_is_an_os_error_naming_the_document(self, tmp_path):
        result = SweepResult(config=small_config(), records=(), failures=())
        (tmp_path / "results.csv").mkdir()
        doc_path = tmp_path / "results.txt"
        with pytest.raises(OSError) as excinfo:
            emit_results(result, doc_path)
        assert str(excinfo.value).startswith(f"failed to write results near {doc_path}: ")
        assert not doc_path.exists()

    def test_deterministic_except_timestamp(self, tmp_path):
        result = run_sweep(small_config())
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        doc_a, csv_a = emit_results(result, tmp_path / "a" / "results.txt")
        doc_b, csv_b = emit_results(result, tmp_path / "b" / "results.txt")
        stable_a = [l for l in doc_a.read_text().splitlines() if not l.startswith("generated_at")]
        stable_b = [l for l in doc_b.read_text().splitlines() if not l.startswith("generated_at")]
        assert csv_a.read_bytes() == csv_b.read_bytes()
        assert stable_a == stable_b

    def test_meta_echo_parses_back_to_the_config(self, tmp_path):
        config = ExperimentConfig(
            p=4, m_values=(3, 2), snr_db=12.5, epsilon=np.float32(0.1), sigma0_csv=None,
            output=tmp_path / "results.txt",
        )
        result = SweepResult(config=config, records=(), failures=())
        doc_path, _ = emit_results(result, config.output)
        meta = doc_path.read_text().split("\n\n", 1)[0].splitlines()[1:]
        echoed = dict(line.split(" = ", 1) for line in meta)
        parsed = config_from_mapping({key: echoed[key] for key in CONFIG_KEYS})
        for key in CONFIG_KEYS:
            value = getattr(config, key)
            if isinstance(value, Path):
                value = str(value)
            assert getattr(parsed, key) == value, key

    def test_empty_sweep_emits_header_only_csv(self, tmp_path):
        # run_sweep never returns this (a config names at least one m and
        # a sweep with no successful trial raises); emit_results accepts it.
        result = SweepResult(config=small_config(), records=(), failures=())
        _, csv_path = emit_results(result, tmp_path / "results.txt")
        assert csv_path.read_text() == "m,trial,kl_em,kl_prior,kl_oracle,iterations,stop_reason\n"
