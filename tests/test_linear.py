"""Observation model, sampling, empirical statistics, and CSV matrix I/O.

The average log-likelihood computed directly from samples serves as the
oracle for the observation-space divergence on pre-centered data.
"""

from __future__ import annotations

import functools
import io
import math
import os
import re
import signal
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from treecov import (
    CovMatrix,
    LinearModel,
    NotPositiveDefiniteError,
    ObservationSet,
    RankDeficientError,
    chow_liu,
    kl_gaussian,
    read_matrix_csv,
    read_observations,
    sample_observations,
    write_matrix_csv,
)
from treecov import linear
from treecov.linear import (
    PARALLEL_READ_BYTES,
    ROW_BLOCK,
    observation_cov,
)

from _helpers import no_mixing_model, one_shot_samples, one_shot_second_moment, random_spd


def average_log_likelihood(obs: ObservationSet, cov: np.ndarray) -> float:
    """Sample-average zero-mean Gaussian log density, computed directly."""
    _, logdet = np.linalg.slogdet(cov)
    quad = np.sum(obs.samples * np.linalg.solve(cov, obs.samples.T).T, axis=1)
    return float(np.mean(-0.5 * (cov.shape[0] * math.log(2.0 * math.pi) + logdet + quad)))


def observation_kl(obs: ObservationSet, model: LinearModel, sigma: CovMatrix) -> float:
    """Observation-space divergence D(N(0, S_Y) || N(0, H sigma H^T + D))."""
    return kl_gaussian(obs.empirical, observation_cov(model, sigma))


def exact_cov_observations(target: CovMatrix) -> ObservationSet:
    """2m synthetic samples whose centered covariance equals target exactly."""
    m = target.dim
    columns = math.sqrt(m) * target.chol.T
    return ObservationSet(np.vstack([columns, -columns]))


class TestLinearModel:
    def test_rejects_more_rows_than_columns(self):
        with pytest.raises(ValueError, match="exceeds"):
            LinearModel(np.ones((3, 2)), CovMatrix(np.eye(3)))

    def test_square_model_allowed(self):
        model = LinearModel(np.eye(3), CovMatrix(np.eye(3)))
        assert model.m == model.p == 3

    @pytest.mark.parametrize(
        "shape, message",
        [((3,), "H must be a matrix, got shape (3,)"), ((0, 3), "H needs at least one row")],
        ids=["one-dimensional", "no-rows"],
    )
    def test_rejects_a_shape_that_is_no_mixing_matrix(self, shape, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            LinearModel(np.ones(shape), CovMatrix(np.eye(1)))

    def test_rejects_rank_deficiency(self):
        h = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])
        with pytest.raises(RankDeficientError, match="rank deficient"):
            LinearModel(h, CovMatrix(np.eye(2)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_entries(self, bad):
        h = np.eye(2, 3)
        h[1, 2] = bad
        with pytest.raises(ValueError, match="mixing matrix"):
            LinearModel(h, CovMatrix(np.eye(2)))

    def test_rejects_noise_dimension_mismatch(self):
        with pytest.raises(ValueError, match="noise covariance"):
            LinearModel(np.eye(2, 3), CovMatrix(np.eye(3)))

    def test_h_is_immutable(self):
        model = LinearModel(np.eye(2, 3), CovMatrix(np.eye(2)))
        with pytest.raises(ValueError):
            model.h[0, 0] = 2.0


class TestObservationSet:
    def test_statistics_identity_is_exact(self):
        rng = np.random.default_rng(0)
        obs = ObservationSet(rng.standard_normal((40, 3)))
        assert obs.r == 40
        mean = obs.samples.mean(axis=0)
        expected = obs.second_moment - np.outer(mean, mean)
        assert np.array_equal(obs.centered_cov, expected)

    def test_second_moment_matches_definition(self):
        y = np.array([[1.0, 0.0], [0.0, 2.0]])
        obs = ObservationSet(y)
        np.testing.assert_allclose(obs.second_moment, np.diag([0.5, 2.0]))

    def test_single_sample_has_zero_centered_cov(self):
        obs = ObservationSet(np.array([[1.0, 2.0]]))
        np.testing.assert_allclose(obs.centered_cov, np.zeros((2, 2)), atol=1e-15)

    def test_rejects_empty_or_one_dimensional(self):
        with pytest.raises(ValueError):
            ObservationSet(np.zeros((0, 2)))
        with pytest.raises(ValueError):
            ObservationSet(np.zeros(5))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_entries(self, bad):
        y = np.ones((4, 2))
        y[2, 0] = bad
        with pytest.raises(ValueError, match="observations"):
            ObservationSet(y)

    def test_rejects_overflowing_second_moment(self):
        y = np.full((3, 2), 1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="second moment overflows"):
                ObservationSet(y)


class TestSampleObservations:
    def test_deterministic_given_seed(self):
        model = LinearModel(np.eye(2, 3), CovMatrix(np.eye(2)))
        sigma = random_spd(np.random.default_rng(1), 3)
        a = sample_observations(model, sigma, 50, seed=42)
        b = sample_observations(model, sigma, 50, seed=42)
        assert np.array_equal(a.samples, b.samples)

    def test_seeds_change_the_draw(self):
        model = LinearModel(np.eye(2, 3), CovMatrix(np.eye(2)))
        sigma = random_spd(np.random.default_rng(1), 3)
        a = sample_observations(model, sigma, 50, seed=42)
        b = sample_observations(model, sigma, 50, seed=43)
        assert not np.array_equal(a.samples, b.samples)

    def test_law_of_large_numbers_identity_model(self):
        model = LinearModel(np.eye(3), CovMatrix(1e-12 * np.eye(3)))
        obs = sample_observations(model, CovMatrix(np.eye(3)), 100_000, seed=5)
        assert np.max(np.abs(obs.centered_cov - np.eye(3))) < 0.05

    def test_centered_cov_converges_to_observation_cov(self):
        # Frobenius error against H Sigma H^T + D over three decades of r.
        sigma = random_spd(np.random.default_rng(2), 4)
        model = LinearModel(
            np.random.default_rng(3).standard_normal((2, 4)), CovMatrix(0.1 * np.eye(2))
        )
        target = observation_cov(model, sigma).entries
        scale = np.linalg.norm(target)
        errors = []
        for r in (100, 1000, 10000):
            obs = sample_observations(model, sigma, r, seed=1000 + r)
            err = np.linalg.norm(obs.centered_cov - target)
            assert err <= 3.0 / math.sqrt(r) * scale
            errors.append(err)
        assert errors[2] < errors[0]

    def test_rejects_bad_sample_count(self):
        model = LinearModel(np.eye(2), CovMatrix(np.eye(2)))
        with pytest.raises(ValueError, match="at least one"):
            sample_observations(model, CovMatrix(np.eye(2)), 0, seed=0)

    @pytest.mark.parametrize("bad", [2.5, 3.0, "3", True])
    def test_rejects_non_integer_sample_count_by_name(self, bad):
        model = LinearModel(np.eye(2), CovMatrix(np.eye(2)))
        with pytest.raises(ValueError, match="r must be an integer"):
            sample_observations(model, CovMatrix(np.eye(2)), bad, seed=0)
        assert sample_observations(model, CovMatrix(np.eye(2)), np.int64(3), seed=0).r == 3

    def test_rejects_dimension_mismatch(self):
        model = LinearModel(np.eye(2, 3), CovMatrix(np.eye(2)))
        with pytest.raises(ValueError, match="dimension"):
            sample_observations(model, CovMatrix(np.eye(2)), 10, seed=0)


def cli_fit_shaped_problem() -> tuple[LinearModel, CovMatrix]:
    """A p=40, m=30 model and latent covariance, the shape of cli_fit's input."""
    rng = np.random.default_rng(21)
    sigma = random_spd(rng, 40)
    return LinearModel(rng.standard_normal((30, 40)), CovMatrix(0.1 * np.eye(30))), sigma


def random_bit_patterns(rows: int, cols: int) -> np.ndarray:
    """float64 matrix of random bit patterns, its NaNs zeroed: NaN payloads
    and signs are not part of the text format."""
    bits = np.random.default_rng(29).integers(0, 2**64, size=(rows, cols), dtype=np.uint64)
    matrix = bits.view(np.float64)
    matrix[np.isnan(matrix)] = 0.0
    return matrix


def traced_peak(call) -> int:
    """Peak bytes that ``call()`` held above its start, as tracemalloc sees numpy's buffers."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


class TestRowBlocks:
    @pytest.mark.parametrize(
        "r", [1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 3 * ROW_BLOCK + 5]
    )
    def test_blocked_path_matches_the_one_shot_oracles(self, r):
        sigma = random_spd(np.random.default_rng(4), 6)
        model = LinearModel(
            np.random.default_rng(5).standard_normal((4, 6)), CovMatrix(0.1 * np.eye(4))
        )
        obs = sample_observations(model, sigma, r, seed=17)
        y = one_shot_samples(model, sigma, r, 17)
        assert obs.samples.tobytes() == y.tobytes()
        second, mean = one_shot_second_moment(y), y.mean(axis=0)
        centered = second - np.outer(mean, mean)
        if r <= ROW_BLOCK:
            assert obs.second_moment.tobytes() == second.tobytes()
            assert obs.centered_cov.tobytes() == centered.tobytes()
        else:
            for got, want in ((obs.second_moment, second), (obs.centered_cov, centered)):
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(second))

    def test_sampling_holds_one_copy_plus_a_block(self):
        model, sigma = cli_fit_shaped_problem()
        r = 4 * ROW_BLOCK
        peak = traced_peak(lambda: sample_observations(model, sigma, r, seed=3))
        # The returned samples, which the set keeps without a copy, and one
        # block's p=40 draws and their product: 1.67 copies of the samples.
        # A second copy would read 2.26.
        assert peak < 1.8 * r * model.m * 8

    def test_sampling_at_cli_fit_size_holds_about_one_copy(self):
        # At r=20000 blocks of 4096 rows held 1.54 copies of the samples;
        # blocks of 256 hold 1.04.
        model, sigma = cli_fit_shaped_problem()
        r = 20_000
        peak = traced_peak(lambda: sample_observations(model, sigma, r, seed=3))
        assert peak < 1.1 * r * model.m * 8

    def test_summarising_holds_one_copy_plus_a_block(self):
        model, sigma = cli_fit_shaped_problem()
        y = np.array(sample_observations(model, sigma, 4 * ROW_BLOCK, seed=3).samples)
        peak = traced_peak(lambda: ObservationSet(y))
        assert peak < 1.5 * y.nbytes


class TestObservationCov:
    def test_zero_mixing_returns_noise(self):
        model = no_mixing_model(CovMatrix(np.diag([2.0, 3.0])), 3)
        result = observation_cov(model, CovMatrix(np.eye(3)))
        np.testing.assert_allclose(result.entries, np.diag([2.0, 3.0]))

    def test_identity_mixing(self):
        model = LinearModel(np.eye(2), CovMatrix(np.eye(2)))
        result = observation_cov(model, CovMatrix(np.eye(2)))
        np.testing.assert_allclose(result.entries, 2.0 * np.eye(2))

    def test_row_mixing(self):
        model = LinearModel(np.array([[1.0, 1.0]]), CovMatrix(np.array([[0.5]])))
        result = observation_cov(model, CovMatrix(np.eye(2)))
        np.testing.assert_allclose(result.entries, np.array([[2.5]]))

    def test_rejects_dimension_mismatch(self):
        model = LinearModel(np.eye(2, 3), CovMatrix(np.eye(2)))
        with pytest.raises(ValueError, match="dimension"):
            observation_cov(model, CovMatrix(np.eye(2)))


class TestEmpiricalGaussian:
    def test_reports_rank_deficit_with_too_few_samples(self):
        obs = ObservationSet(np.random.default_rng(0).standard_normal((2, 3)))
        with pytest.raises(NotPositiveDefiniteError, match="deficit"):
            obs.empirical

    def test_rejects_constant_samples(self):
        obs = ObservationSet(np.ones((10, 2)))
        with pytest.raises(NotPositiveDefiniteError):
            obs.empirical

    def test_recovers_isotropic_covariance(self):
        rng = np.random.default_rng(8)
        obs = ObservationSet(math.sqrt(2.0) * rng.standard_normal((10_000, 2)))
        cov = obs.empirical
        assert np.max(np.abs(cov.entries - 2.0 * np.eye(2))) < 0.15


class TestObservationKl:
    def test_zero_for_exactly_matching_statistics(self):
        sigma = random_spd(np.random.default_rng(4), 3)
        model = LinearModel(
            np.random.default_rng(5).standard_normal((2, 3)), CovMatrix(0.2 * np.eye(2))
        )
        obs = exact_cov_observations(observation_cov(model, sigma))
        assert observation_kl(obs, model, sigma) < 1e-9

    def test_decreases_with_sample_size(self):
        sigma = random_spd(np.random.default_rng(6), 3)
        model = LinearModel(
            np.random.default_rng(7).standard_normal((2, 3)), CovMatrix(0.2 * np.eye(2))
        )
        values = [
            observation_kl(sample_observations(model, sigma, r, seed=9), model, sigma)
            for r in (100, 1000, 10000)
        ]
        assert values[0] > values[1] > values[2]

    def test_scaling_the_candidate_increases_divergence(self):
        sigma = random_spd(np.random.default_rng(6), 3)
        model = LinearModel(
            np.random.default_rng(7).standard_normal((2, 3)), CovMatrix(0.2 * np.eye(2))
        )
        obs = sample_observations(model, sigma, 500, seed=10)
        base = observation_kl(obs, model, sigma)
        scaled = observation_kl(obs, model, CovMatrix(100.0 * sigma.entries))
        assert scaled > base

    def test_argmin_matches_likelihood_argmax_on_centered_data(self):
        # With the empirical mean removed, minimizing the divergence and
        # maximizing the sample-average log likelihood pick the same
        # candidate from any finite set.
        rng = np.random.default_rng(11)
        sigma = random_spd(rng, 4)
        model = LinearModel(rng.standard_normal((3, 4)), CovMatrix(0.3 * np.eye(3)))
        raw = sample_observations(model, sigma, 200, seed=12)
        centered = ObservationSet(raw.samples - raw.samples.mean(axis=0))
        candidates = [sigma, chow_liu(sigma)] + [random_spd(rng, 4) for _ in range(4)]
        div = [observation_kl(centered, model, c) for c in candidates]
        lik = [
            average_log_likelihood(centered, observation_cov(model, c).entries)
            for c in candidates
        ]
        assert int(np.argmin(div)) == int(np.argmax(lik))


class TestMatrixCsv:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(13)
        matrix = rng.standard_normal((4, 3)) * np.array([1e-30, 1.0, 1e30])
        matrix[0, 1] = math.pi
        path = tmp_path / "matrix.csv"
        write_matrix_csv(matrix, path)
        assert np.array_equal(read_matrix_csv(path), matrix)

    def test_writes_full_precision_decimal(self, tmp_path):
        path = tmp_path / "pi.csv"
        write_matrix_csv(np.array([[math.pi]]), path)
        assert path.read_text().strip() == "3.1415926535897931"

    def test_no_header_one_sample_per_row(self, tmp_path):
        path = tmp_path / "obs.csv"
        write_matrix_csv(np.array([[1.0, 2.0], [3.0, 4.0]]), path)
        lines = path.read_text().strip().split("\n")
        assert lines == ["1,2", "3,4"]

    def test_rejects_ragged_rows(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(ValueError, match="ragged"):
            read_matrix_csv(path)

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_matrix_csv(path)

    def test_rejects_non_numeric(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,x\n")
        with pytest.raises(ValueError, match="non-numeric"):
            read_matrix_csv(path)

    @pytest.mark.parametrize("rows", [0, 5000])
    def test_rejects_non_ascii_naming_the_path_and_byte(self, tmp_path, rows):
        # 5000 clean rows push the bad byte past the first decoded chunk.
        path = tmp_path / "accent.csv"
        path.write_bytes(b"1,2\n" * rows + "3,\u00e9\n".encode("utf-8"))
        with pytest.raises(ValueError, match="non-ASCII byte 0xc3") as excinfo:
            read_matrix_csv(path)
        assert str(path) in str(excinfo.value)

    def test_rejects_one_dimensional_input(self, tmp_path):
        with pytest.raises(ValueError, match="2-d"):
            write_matrix_csv(np.ones(3), tmp_path / "vec.csv")

    def test_skips_blank_and_whitespace_only_lines(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("\n1,2\n\n   \n\t\n3,4\n\n")
        assert np.array_equal(read_matrix_csv(path), [[1.0, 2.0], [3.0, 4.0]])

    def test_accepts_crlf_padding_and_no_final_newline(self, tmp_path):
        path = tmp_path / "loose.csv"
        path.write_bytes(b" 1 , 2\r\n3,\t4 \r\n5,6")
        assert np.array_equal(read_matrix_csv(path), [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])

    @pytest.mark.parametrize(
        "text", ["# header\n1,2\n", "1,2 # note\n", "1,2,\n3,4,\n", "1,,2\n", ","]
    )
    def test_rejects_comments_and_empty_cells_naming_the_path(self, tmp_path, text):
        path = tmp_path / "cells.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="non-numeric") as excinfo:
            read_matrix_csv(path)
        assert str(path) in str(excinfo.value)

    def test_single_row_and_single_column_stay_matrices(self, tmp_path):
        path = tmp_path / "line.csv"
        path.write_text("1,2,3\n")
        assert read_matrix_csv(path).shape == (1, 3)
        path.write_text("1\n2\n3\n")
        assert read_matrix_csv(path).shape == (3, 1)

    def test_random_bit_patterns_round_trip_bit_for_bit(self, tmp_path):
        matrix = random_bit_patterns(200, 25)
        path = tmp_path / "bits.csv"
        write_matrix_csv(matrix, path)
        assert np.array_equal(read_matrix_csv(path).view(np.uint64), matrix.view(np.uint64))

    @pytest.mark.parametrize(
        "matrix, text",
        [
            (np.zeros((0, 3)), b""),
            (np.zeros((3, 0)), b"\n\n\n"),
            (np.zeros((0, 0)), b""),
            (np.arange(12.0).reshape(3, 4).T, b"0,4,8\n1,5,9\n2,6,10\n3,7,11\n"),
            (np.arange(12.0).reshape(3, 4)[:, ::2], b"0,2\n4,6\n8,10\n"),
            ([[1, 2], [3, 4]], b"1,2\n3,4\n"),
            ([[True, False]], b"1,0\n"),
            (np.array([[1.5]], dtype=np.float32), b"1.5\n"),
        ],
        ids=[
            "no-rows", "no-columns", "empty", "transposed", "strided", "integers",
            "booleans", "float32",
        ],
    )
    def test_writes_golden_bytes_for_edge_inputs(self, tmp_path, matrix, text):
        path = tmp_path / "edge.csv"
        write_matrix_csv(matrix, path)
        assert path.read_bytes() == text

    def test_writes_golden_bytes_for_special_values(self, tmp_path):
        path = tmp_path / "special.csv"
        write_matrix_csv(np.array([[-0.0, 5e-324], [np.nan, np.inf], [-np.inf, 0.1]]), path)
        assert path.read_bytes() == (
            b"-0,4.9406564584124654e-324\nnan,inf\n-inf,0.10000000000000001\n"
        )

    def test_read_observations_of_a_small_file_keeps_only_the_statistics(self, tmp_path):
        # A file under PARALLEL_READ_BYTES is read serially on every machine;
        # the set it gives holds no samples, as a set from helpers does.
        path = tmp_path / "obs.csv"
        write_matrix_csv(np.random.default_rng(14).standard_normal((30, 3)), path)
        assert read_observations(path).samples is None
        assert _outcome(path, read_observations) == _outcome(path, _observations)


def _csv_text(matrix: np.ndarray) -> bytes:
    """``matrix`` in write_matrix_csv's format."""
    with io.BytesIO() as buf:
        np.savetxt(buf, matrix, fmt="%.17g", delimiter=",")
        return buf.getvalue()


def _first_rows(text: bytes, rows: int) -> bytes:
    """The first ``rows`` lines of ``text``."""
    end = -1
    for _ in range(rows):
        end = text.index(b"\n", end + 1)
    return text[: end + 1]


# Each file exceeds 1.5 * PARALLEL_READ_BYTES, so three usable CPUs give
# three ranges, and its fault sits in the last one. Every file of more than
# a few rows has a row block that straddles two helpers' ranges: the r rows
# split into near-equal thirds among the helpers, and into near-equal
# blocks of at most ROW_BLOCK rows for read_observations. The block-sized
# files are made wide enough to pass that size.
_BODY = _csv_text(np.random.default_rng(31).standard_normal((5500, 16)))
_TAIL = _csv_text(np.random.default_rng(32).standard_normal((3, 16)))
_FOUR_BLOCKS = _csv_text(np.random.default_rng(33).standard_normal((4 * ROW_BLOCK + 1, 128)))
LARGE_FILES = {
    "blank-and-whitespace-lines": _BODY + b"\n  \n\t\n" + _TAIL + b"\n\n",
    "crlf-no-final-newline": (_BODY + _TAIL).replace(b"\n", b"\r\n")[:-2],
    "ragged-row": _BODY + b"1,2\n" + _TAIL,
    "non-numeric-cell": _BODY + b"1" + b",x" * 15 + b"\n" + _TAIL,
    "non-ascii-byte": _BODY + "3,é\n".encode("utf-8") + _TAIL,
    "nan-cell": _BODY + b"1" + b",nan" * 15 + b"\n" + _TAIL,
    "blank-last-range": _BODY + b" \n" * (len(_BODY) * 3 // 8),
    "random-bit-patterns": _csv_text(random_bit_patterns(6000, 16)),
    # One block, so its rows come from all three helpers.
    "one-block-of-wide-rows": _csv_text(
        np.random.default_rng(34).standard_normal((ROW_BLOCK - 96, 600))
    ),
    "four-blocks-less-one-row": _first_rows(_FOUR_BLOCKS, 4 * ROW_BLOCK - 1),
    "four-blocks-and-one-row": _FOUR_BLOCKS,
}


def test_every_large_file_splits_into_three_ranges():
    small = {name: len(text) for name, text in LARGE_FILES.items()
             if len(text) <= 1.5 * PARALLEL_READ_BYTES}
    assert small == {}


def _observations(path):
    """What read_observations must match: the statistics of the serial read."""
    return ObservationSet(read_matrix_csv(path))


def _outcome(path, read):
    """The bits of the observation set ``read(path)`` returns, or its error message."""
    try:
        got = read(path)
    except ValueError as exc:
        return str(exc)
    stats = (got.second_moment, got.centered_cov)
    return (got.r, got.m) + tuple(a.tobytes() for a in stats)


def _matrix_outcome(path):
    """The bits of read_matrix_csv(path), or its error message up to the
    fault's kind: the path and, say, "ragged rows"."""
    try:
        got = read_matrix_csv(path)
    except ValueError as exc:
        return ": ".join(str(exc).split(": ")[:2])
    return got.shape, got.tobytes()


def _cells_outcome(path):
    """What read_matrix_csv must give, found without it: the bits of every
    non-blank line's cells as float() parses them, or the path and the kind
    of the fault that stops the parse."""
    lines = [line for line in path.read_bytes().splitlines() if line.strip()]
    try:
        text = [line.decode("ascii") for line in lines]
    except UnicodeDecodeError as exc:
        return f"{path}: non-ASCII byte {exc.object[exc.start]:#04x}"
    if len({line.count(",") for line in text}) > 1:
        return f"{path}: ragged rows"
    try:
        rows = np.array([[float(cell) for cell in line.split(",")] for line in text])
    except ValueError:
        return f"{path}: non-numeric cell"
    return rows.shape, rows.tobytes()


# Each reader's outcome with the oracle it must match. read_observations
# must give the statistics of the serial read whether or not its helpers
# run; read_matrix_csv never forks and must give the file's cells.
READERS = {
    "read_matrix_csv": (_matrix_outcome, _cells_outcome),
    "read_observations": (
        functools.partial(_outcome, read=read_observations),
        functools.partial(_outcome, read=_observations),
    ),
}


def _reader_cases(names):
    """(reader, name) for every reader and name. A read_matrix_csv case's
    id is the bare name; a read_observations case's id adds the reader."""
    return [
        pytest.param(reader, name, id=name if reader == "read_matrix_csv" else f"{name}-{reader}")
        for reader in sorted(READERS)
        for name in names
    ]


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(
    not (hasattr(os, "fork") and sys.platform.startswith("linux")),
    reason="helper processes need os.fork on Linux",
)
class TestParallelRead:
    @pytest.fixture
    def forks(self, monkeypatch):
        """Pin three usable CPUs and record each fork's pid, -1 for a failed one."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        pids: list[int] = []
        fork = os.fork

        def recording_fork():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", recording_fork)
        return pids

    @pytest.mark.parametrize("reader, name", _reader_cases(sorted(LARGE_FILES)))
    @pytest.mark.parametrize("failure", ["none", "fork-raises", "helper-killed"])
    def test_matches_the_serial_read_and_leaves_no_child(
        self, tmp_path, monkeypatch, forks, reader, name, failure
    ):
        read, oracle = READERS[reader]
        path = tmp_path / f"{name}.csv"
        path.write_bytes(LARGE_FILES[name])
        expected = oracle(path)
        fork = os.fork
        if failure == "fork-raises":
            def second_fork_fails():
                if forks:
                    raise OSError("fork refused")
                return fork()

            monkeypatch.setattr(os, "fork", second_fork_fails)
        elif failure == "helper-killed":
            def kill_the_second():
                pid = fork()
                if pid and len(forks) == 2:
                    os.kill(pid, signal.SIGKILL)
                return pid

            monkeypatch.setattr(os, "fork", kill_the_second)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = read(path)
        _assert_no_child_left()
        if reader == "read_matrix_csv":
            assert forks == []
        else:
            assert len(forks) == (1 if failure == "fork-raises" else 3)
        assert got == expected

    @pytest.mark.parametrize(
        "reader, case", _reader_cases(["small-file", "one-cpu", "thread-running", "not-linux"])
    )
    def test_reads_serially_when_helpers_cannot_help(
        self, tmp_path, monkeypatch, forks, reader, case
    ):
        read, oracle = READERS[reader]
        path = tmp_path / "obs.csv"
        path.write_bytes(_BODY[: _BODY.index(b"\n", 1000) + 1] if case == "small-file" else _BODY)
        expected = oracle(path)
        if case == "one-cpu":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        elif case == "not-linux":
            monkeypatch.setattr(sys, "platform", "darwin")
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        if case == "thread-running":
            thread.start()
        try:
            got = read(path)
            if reader == "read_observations":
                assert read_observations(path).samples is None
        finally:
            stop.set()
            if thread.is_alive():
                thread.join(timeout=10)
        assert not thread.is_alive()
        assert forks == []
        assert got == expected

    def test_ranges_of_different_widths_fall_back(self, tmp_path, monkeypatch, forks):
        # A 17-column half of len(_BODY) - 1 bytes puts the split of two
        # ranges exactly where _BODY's 16 columns end, so each helper
        # parses its own range.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        row = b"1" + b",1" * 16 + b"\n"
        size = len(_BODY) - 1
        wide = row * (size // len(row) - 1)
        wide += b" " * (size - len(wide) - len(row)) + row
        path = tmp_path / "wide.csv"
        path.write_bytes(_BODY + wide)
        expected = _outcome(path, _observations)
        assert "ragged rows" in expected
        assert _outcome(path, read_observations) == expected
        assert len(forks) == 2
        _assert_no_child_left()

    def test_a_helper_stopping_mid_row_falls_back(self, tmp_path, monkeypatch, forks):
        # Each helper sends its header and then half its rows' bytes plus 3,
        # so its stream stops inside a float and it still exits 0. Reading on
        # from the next helper's stream would shift every later row; the
        # file must be read serially instead.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        send_rows = linear._send_rows

        def stops_mid_row(path, start, stop, out):
            buf = io.BytesIO()
            send_rows(path, start, stop, buf)
            sent = buf.getvalue()
            out.write(sent[: linear._HEADER.size + (len(sent) - linear._HEADER.size) // 2 + 3])

        monkeypatch.setattr(linear, "_send_rows", stops_mid_row)
        path = tmp_path / "obs.csv"
        path.write_bytes(_BODY)
        assert len(_BODY) >= PARALLEL_READ_BYTES
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _outcome(path, read_observations)
        assert len(forks) == 2
        _assert_no_child_left()
        assert got == _outcome(path, _observations)

    def test_helpers_reaped_by_the_kernel_fall_back(self, tmp_path, monkeypatch, forks):
        # With SIGCHLD ignored the kernel reaps each helper as it exits, so
        # waitpid finds no child and no helper's exit status is known; the
        # file must then be read serially.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        reap, statuses = linear._reap, []

        def recording_reap(pid):
            statuses.append(reap(pid))
            return statuses[-1]

        monkeypatch.setattr(linear, "_reap", recording_reap)
        path = tmp_path / "obs.csv"
        path.write_bytes(_BODY)
        previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            got = _outcome(path, read_observations)
        finally:
            signal.signal(signal.SIGCHLD, previous)
        assert len(forks) == 2
        assert statuses == [None, None]
        _assert_no_child_left()
        assert got == _outcome(path, _observations)

    def test_streams_observations_through_one_row_block(self, tmp_path, monkeypatch, forks):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        path = tmp_path / "obs.csv"
        r, m = 16 * ROW_BLOCK, 16
        path.write_bytes(_first_rows(_BODY, r))
        block, moment = ROW_BLOCK * m * 8, m * m * 8
        bound = 2 * block + 4 * moment + 64 * 1024
        got = []
        peak = traced_peak(lambda: got.append(read_observations(path)))
        assert len(forks) == 2
        assert got[0].samples is None and got[0].r == r
        # The row-block buffer and the C-ordered transpose of it that each
        # block's product takes, a few m x m and length-m arrays, and 64 KiB
        # for the pipes' file objects, the header buffer and one line read
        # while splitting. Holding the r x m array, 3.8 times that, fails it.
        assert r * m * 8 > 3 * bound
        assert peak < bound

    def test_reading_a_cli_fit_sized_file_holds_under_a_quarter_mib(
        self, tmp_path, monkeypatch, forks
    ):
        # treecov em's input at the benchmark's shape: 20000 x 30, about
        # 12 MB of text. Blocks of 4096 rows held 1902 KiB here, 256 hold
        # about 151 KiB.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        model, sigma = cli_fit_shaped_problem()
        path = tmp_path / "obs.csv"
        write_matrix_csv(sample_observations(model, sigma, 20_000, seed=3).samples, path)
        forks.clear()
        got = []
        peak = traced_peak(lambda: got.append(read_observations(path)))
        assert len(forks) == 2
        assert got[0].samples is None and got[0].r == 20_000
        assert peak < 256 * 1024


def _specials(rows: int, cols: int) -> np.ndarray:
    """Signed zeros, infinities, nan, subnormals and the extremes of the
    float range, scattered among normal draws."""
    rng = np.random.default_rng(35)
    values = np.array(
        [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072009e-308,
         2.2250738585072014e-308, np.finfo(float).max, -np.finfo(float).max, 0.1, 1.0]
    )
    matrix = rng.standard_normal((rows, cols))
    mask = rng.random((rows, cols)) < 0.5
    matrix[mask] = rng.choice(values, size=int(mask.sum()))
    return matrix


# Rows of 16 float64 columns in PARALLEL_READ_BYTES. The matrices below reach
# 1.5 times that, so three usable CPUs split each into three row ranges, the
# caller's and two helpers', each of at least half the threshold. Their row
# counts fall one below, on and one above a multiple of three.
_THRESHOLD_ROWS = PARALLEL_READ_BYTES // (16 * 8)
_EVEN = 3 * (_THRESHOLD_ROWS // 2 + 1)
LARGE_MATRICES = {
    "random-bit-patterns": lambda: random_bit_patterns(_EVEN + 1, 16),
    "specials": lambda: _specials(_EVEN - 1, 16),
    "sixteen-decades": lambda: (
        np.random.default_rng(36).standard_normal((_EVEN, 16))
        * 10.0 ** np.random.default_rng(37).integers(-8, 8, size=(_EVEN, 16))
    ),
    # A non-contiguous view: its columns are rows of the array beneath.
    "transposed": lambda: np.random.default_rng(38).standard_normal((16, _EVEN + 1)).T,
}


@functools.cache
def _large_matrix(name: str) -> tuple[np.ndarray, bytes]:
    """The matrix called ``name`` and its text as ``_csv_text`` formats it."""
    matrix = LARGE_MATRICES[name]()
    return matrix, _csv_text(matrix)


def _short_text(rows, out):
    """A helper's work that sends its range's text and as much again less
    one byte of junk, and stops. The caller must cut the junk from the
    file, not merely write the range over it."""
    text = _csv_text(rows)
    out.write(text + b"x" * (len(text) - 1))
    raise OSError("helper stopped early")


@pytest.mark.skipif(
    not (hasattr(os, "fork") and sys.platform.startswith("linux")),
    reason="helper processes need os.fork on Linux",
)
class TestParallelWrite:
    forks = TestParallelRead.forks

    @pytest.mark.parametrize("name", sorted(LARGE_MATRICES))
    @pytest.mark.parametrize(
        "failure", ["none", "fork-raises", "helper-killed", "short-output"]
    )
    def test_matches_the_serial_write_and_leaves_no_child(
        self, tmp_path, monkeypatch, forks, name, failure
    ):
        matrix, expected = _large_matrix(name)
        assert matrix.nbytes >= PARALLEL_READ_BYTES
        fork = os.fork
        if failure == "fork-raises":
            def second_fork_fails():
                if forks:
                    raise OSError("fork refused")
                return fork()

            monkeypatch.setattr(os, "fork", second_fork_fails)
        elif failure == "helper-killed":
            def kill_the_second():
                pid = fork()
                if pid and len(forks) == 2:
                    os.kill(pid, signal.SIGKILL)
                return pid

            monkeypatch.setattr(os, "fork", kill_the_second)
        elif failure == "short-output":
            monkeypatch.setattr(linear, "_send_text", _short_text)
        path = tmp_path / f"{name}.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            write_matrix_csv(matrix, path)
        _assert_no_child_left()
        assert len(forks) == (1 if failure == "fork-raises" else 2)
        assert path.read_bytes() == expected

    @pytest.mark.parametrize(
        "case", ["small-matrix", "one-cpu", "thread-running", "not-linux", "fifo"]
    )
    def test_writes_serially_when_helpers_cannot_help(self, tmp_path, monkeypatch, forks, case):
        matrix, expected = _large_matrix("sixteen-decades")
        if case == "small-matrix":
            matrix = matrix[: _THRESHOLD_ROWS - 1]
            expected = _first_rows(expected, _THRESHOLD_ROWS - 1)
        elif case == "one-cpu":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        elif case == "not-linux":
            monkeypatch.setattr(sys, "platform", "darwin")
        path = tmp_path / "matrix.csv"
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        if case == "thread-running":
            thread.start()
        try:
            if case == "fifo":
                # A pipe cannot be cut back to a range's start.
                fifo = tmp_path / "matrix.fifo"
                os.mkfifo(fifo)
                with open(path, "wb") as sink:
                    cat = subprocess.Popen(["cat", str(fifo)], stdout=sink)
                    try:
                        write_matrix_csv(matrix, fifo)
                    finally:
                        assert cat.wait(timeout=60) == 0
            else:
                write_matrix_csv(matrix, path)
        finally:
            stop.set()
            if thread.is_alive():
                thread.join(timeout=10)
        assert not thread.is_alive()
        assert forks == []
        assert path.read_bytes() == expected

    def test_caller_failure_kills_and_reaps_every_helper(self, tmp_path, monkeypatch, forks):
        def broken_copy(pipe, fh):
            raise RuntimeError("copy broke")

        monkeypatch.setattr(linear, "_copy", broken_copy)
        matrix, _ = _large_matrix("sixteen-decades")
        with pytest.raises(RuntimeError, match="copy broke"):
            write_matrix_csv(matrix, tmp_path / "matrix.csv")
        assert len(forks) == 2
        _assert_no_child_left()

    def test_caller_os_error_rewrites_the_whole_file_serially(
        self, tmp_path, monkeypatch, forks
    ):
        def copy_fails(pipe, fh):
            fh.write(b"junk")
            raise OSError("pipe read failed")

        monkeypatch.setattr(linear, "_copy", copy_fails)
        matrix, expected = _large_matrix("sixteen-decades")
        path = tmp_path / "matrix.csv"
        write_matrix_csv(matrix, path)
        assert len(forks) == 2
        _assert_no_child_left()
        assert path.read_bytes() == expected

    # Each process gets at least half of PARALLEL_READ_BYTES, whatever the
    # number of usable CPUs.
    @pytest.mark.parametrize(
        "rows, helpers", [(_THRESHOLD_ROWS * 6 // 5, 1), (_THRESHOLD_ROWS * 2, 3)]
    )
    def test_gives_each_process_at_least_half_the_threshold(
        self, tmp_path, monkeypatch, forks, rows, helpers
    ):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        matrix = np.random.default_rng(39).standard_normal((rows, 16))
        path = tmp_path / "matrix.csv"
        write_matrix_csv(matrix, path)
        assert len(forks) == helpers
        _assert_no_child_left()
        assert path.read_bytes() == _csv_text(matrix)

    def test_caller_holds_one_pipe_chunk_beyond_a_small_margin(
        self, tmp_path, monkeypatch, forks
    ):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        matrix, expected = _large_matrix("sixteen-decades")
        path = tmp_path / "matrix.csv"
        peak = traced_peak(lambda: write_matrix_csv(matrix, path))
        assert len(forks) == 1
        assert path.read_bytes() == expected
        # One 64 KiB pipe chunk, the header, the pipe's file object, and what
        # the serial write holds itself (11 KB: the file object and one row's
        # temporaries). Holding the helper's half of the text adds 1.2 MB.
        assert peak < 64 * 1024 + 32 * 1024
