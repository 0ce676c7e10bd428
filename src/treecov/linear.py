"""Noisy linear observation model y = H x + w and its sufficient statistics.

H mixes a p-dimensional latent Gaussian into m <= p observed channels and w
is independent Gaussian noise. This module holds the model representation,
seeded sampling, empirical statistics of an observation set, and the flat
CSV matrix format used by the command-line tools.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import os
import signal
import struct
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, NoReturn, TypeVar

import numpy as np

from .gaussian import (
    CovMatrix, NotPositiveDefiniteError, _as_cov, _as_int, _check_type, _real_array,
)

RANK_RTOL = 1e-10
# Rows per block when observations are drawn, summarised or streamed from
# helper processes: beyond the r x m samples, if any, only one block's
# temporaries are held. A block's draws, their product and its transpose
# copy grow with the block, and the r x m statistics reassociate once r
# exceeds it. Peak memory that sample_observations held above its 4.58 MiB
# output at p=40, m=30, r=20000 (tracemalloc, 2-vCPU VM):
#
#     block rows   4096      1024      512       256
#     peak above   2.59 MB   0.67 MB   0.35 MB   0.20 MB
#
# At 256 rows read_observations held 151 KiB for that 11.7 MB file, against
# 1902 KiB at 4096, and kept its time (median 86.3 against 89.8 ms over 12
# interleaved reads); a draw took about 1 ms more (23.8 against 22.8 ms).
# Every sweep at r <= 256 has one block and so the one-shot sums.
ROW_BLOCK = 256
# Observation files of at least this many bytes are parsed in helper
# processes (see read_observations; read_matrix_csv never forks), and
# matrices of at least this many float64 bytes are formatted in them (see
# write_matrix_csv). The forks and the helpers' exits cost a few ms, so
# _processes gives each process at least half of this many bytes: on a
# 2-vCPU VM two helpers tied the serial read at 1 MiB (median 24.7 against
# 25.5 ms), lost at 0.5 MiB (17.7 against 14.0) and won at 2 MiB (41.3
# against 57.4). The write breaks even sooner, as 1 MiB of float64 is about
# 2.7 MiB of text and formatting is slower than parsing: the caller and one
# helper tied the serial write at 128 KiB of float64 (median 15.4 against
# 16.4 ms) and won at 1 MiB (87.5 against 142.8).
PARALLEL_READ_BYTES = 1 << 20
# A read helper's (rows, cols) header, ahead of its float64 rows.
_HEADER = struct.Struct("=qq")
_T = TypeVar("_T")


class RankDeficientError(ValueError):
    """A mixing matrix fails the numerical full-row-rank test."""


@dataclass(frozen=True, eq=False)
class LinearModel:
    """Observation map y = H x + w with w ~ N(0, D).

    H must be a real, finite m x p matrix with m <= p and full numerical
    row rank (smallest singular value above 1e-10 times the largest, else
    RankDeficientError).

    Parameters
    ----------
    h : np.ndarray
        Mixing matrix, shape (m, p).
    d : CovMatrix
        Noise covariance, a CovMatrix of dimension m, else ValueError naming it.
    """

    h: np.ndarray
    d: CovMatrix

    def __post_init__(self) -> None:
        h = _real_array(self.h, "mixing matrix H")
        if h.ndim != 2:
            raise ValueError(f"H must be a matrix, got shape {h.shape}")
        if not np.all(np.isfinite(h)):
            raise ValueError("mixing matrix H has a non-finite entry")
        m, p = h.shape
        if m < 1:
            raise ValueError("H needs at least one row")
        if m > p:
            raise ValueError(f"observation dimension m={m} exceeds latent dimension p={p}")
        _as_cov(self.d, "noise covariance", m)
        sv = np.linalg.svd(h, compute_uv=False)
        if sv[-1] <= RANK_RTOL * sv[0]:
            raise RankDeficientError("H is numerically rank deficient")
        h.setflags(write=False)
        object.__setattr__(self, "h", h)

    @property
    def m(self) -> int:
        return self.h.shape[0]

    @property
    def p(self) -> int:
        return self.h.shape[1]


@dataclass(frozen=True, eq=False)
class ObservationSet:
    """R stacked observation rows with cached sufficient statistics.

    ``second_moment`` is the uncentered (1/R) sum of y y^T used by the
    iterative update; ``centered_cov`` is second_moment - mean mean^T, the
    sample covariance S_Y. Both are kept because the model is zero-mean yet
    finite samples have a nonzero empirical mean. ``empirical`` is S_Y,
    factored on first use for every E-step on the set. Samples with a complex
    or non-finite entry, or whose second moment overflows the float range,
    are rejected.

    The constructor keeps a private copy of the samples. It sums y^T y and
    the column sums of y over near-equal row blocks of at most
    ``ROW_BLOCK`` = 256 rows, so it holds the copy plus one block's
    temporaries, and divides both sums by R. With r <= 256 there is one
    block and the mean and moment are bit for bit the one-shot
    ``y.mean(axis=0)`` and y^T y / r; above that the block sums reassociate
    them, which moves them by roundoff only.

    A set from ``read_observations`` has the same statistics, bit for bit,
    but holds no samples: ``samples`` is None.
    """

    samples: np.ndarray | None
    r: int = field(init=False)
    mean: np.ndarray = field(init=False)
    second_moment: np.ndarray = field(init=False)
    centered_cov: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        y = _real_array(self.samples, "observations")
        if y.ndim != 2 or y.shape[0] < 1 or y.shape[1] < 1:
            raise ValueError(f"samples must be a nonempty R x m array, got shape {y.shape}")
        _summarise(self, y, len(y), _blocks_of(y))

    @property
    def m(self) -> int:
        return self.second_moment.shape[0]

    @functools.cached_property
    def empirical(self) -> CovMatrix:
        """S_Y as a covariance, factored the first time it is read.

        S_Y must be positive definite, which requires more samples than the
        observation dimension; otherwise the error reports the rank deficit.
        With r <= m samples S_Y has rank at most r - 1, so it is refused before
        any factorization, whose outcome would rest on roundoff.
        """
        cause = None
        if self.r > self.m:
            try:
                return CovMatrix(self.centered_cov)
            except NotPositiveDefiniteError as exc:
                cause = exc
        rank = min(int(np.linalg.matrix_rank(self.centered_cov)), self.r - 1)
        raise NotPositiveDefiniteError(
            f"centered sample covariance is singular: rank {rank} of {self.m} "
            f"(deficit {self.m - rank}) from r={self.r} samples"
        ) from cause


def _blocks_of(y: np.ndarray) -> Iterator[np.ndarray]:
    return (y[i:j] for i, j in _row_blocks(len(y)))


def _summarise(
    obs: ObservationSet, samples: np.ndarray | None, r: int, blocks: Iterable[np.ndarray]
) -> ObservationSet:
    """Fill ``obs`` with the statistics of r rows that arrive as ``blocks``,
    the C-ordered row blocks of ``_row_blocks(r)`` in order, and keep
    ``samples`` (read-only) as its samples.

    Each block is checked for a non-finite entry before it is added, so a
    block may be a buffer that is refilled once the next one is asked for.
    """
    total = second = None
    with np.errstate(over="ignore", invalid="ignore"):
        for block in blocks:
            if not np.all(np.isfinite(block)):
                raise ValueError("observations have a non-finite entry")
            # Each block's y^T is a C-ordered copy: see sample_observations.
            # The first block's sums start the totals, so a lone block gives
            # the one-shot sums exactly (adding it to zeros would turn a
            # -0.0 into +0.0).
            if second is None:
                total, second = block.sum(axis=0), _gram(block)
            else:
                total += block.sum(axis=0)
                second += _gram(block)
        second /= r
    if not np.all(np.isfinite(second)):
        raise ValueError("observations' second moment overflows the float range")
    second = (second + second.T) / 2.0
    mean = total / r
    centered = second - np.outer(mean, mean)
    for arr in (samples, mean, second, centered):
        if arr is not None:
            arr.setflags(write=False)
    object.__setattr__(obs, "samples", samples)
    object.__setattr__(obs, "r", r)
    object.__setattr__(obs, "mean", mean)
    object.__setattr__(obs, "second_moment", second)
    object.__setattr__(obs, "centered_cov", centered)
    return obs


def _row_blocks(r: int) -> list[tuple[int, int]]:
    """Bounds (i, j) of consecutive row blocks covering r rows.

    Their sizes differ by at most one and none exceeds ROW_BLOCK (256), so
    r <= 256 gives one block. Near-equal sizes keep every block of a split
    above one row: numpy computes a one-row product as a matrix-vector
    product, whose bits differ from those of the same row inside a
    matrix-matrix product.
    """
    n = -(-r // ROW_BLOCK)
    return [(r * k // n, r * (k + 1) // n) for k in range(n)]


def _gram(block: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(block.T) @ block


def sample_observations(
    model: LinearModel, sigma_true: CovMatrix, r: int, seed: int
) -> ObservationSet:
    """Draw r independent samples of y = H x + w.

    x ~ N(0, sigma_true) and w ~ N(0, D) are realized by applying the
    Cholesky factors to standard normal draws from numpy's PCG64 generator
    (``numpy.random.default_rng``); all r latent rows are drawn before the
    r noise rows, so a seed fixes the output bit for bit.

    The r x m output is filled in near-equal row blocks of at most
    ``ROW_BLOCK`` = 256 rows: every latent block, then each block's noise,
    added in place just before ``_summarise`` adds that block into the
    column sums and y^T y. Besides the samples, only one block's draws and
    products are held, about 4% of the output at p=40, m=30, r=20000, and
    the returned set keeps the samples without a copy. The blocks
    consume the generator's stream in the order one r-row draw would, and
    each row is the same row-wise product, so the samples are bit for bit
    those of the one-shot draw at any r; ``model`` must be a LinearModel and
    ``sigma_true`` a p-dim CovMatrix.
    """
    _check_type(model, LinearModel, "model")
    _as_cov(sigma_true, "sigma_true", model.p)
    r = _as_int(r, "r")
    if r < 1:
        raise ValueError(f"need at least one sample, got r={r}")
    # Every product takes C-ordered operands. numpy's OpenBLAS (0.3.31) hands
    # a product with a transposed operand to its worker thread from about
    # 2^19 multiply-adds, a plain one only from about 2^20, and a woken
    # worker spins for ~0.1 s beside the caller. At r=100, p=m=80 the
    # transposed forms woke it in every sweep cell; on a loaded 2-vCPU host
    # that spinning halved the sweep's throughput.
    rng = np.random.default_rng(_as_int(seed, "seed"))
    c = np.ascontiguousarray
    chol_t, h_t, noise_t = c(sigma_true.chol.T), c(model.h.T), c(model.d.chol.T)
    y = np.empty((r, model.m))
    blocks = _row_blocks(r)
    for i, j in blocks:
        np.matmul(rng.standard_normal((j - i, model.p)) @ chol_t, h_t, out=y[i:j])

    def noisy_blocks() -> Iterator[np.ndarray]:
        for i, j in blocks:
            y[i:j] += rng.standard_normal((j - i, model.m)) @ noise_t
            yield y[i:j]

    return _summarise(object.__new__(ObservationSet), y, r, noisy_blocks())


def observation_cov(model: LinearModel, sigma: CovMatrix) -> CovMatrix:
    """Covariance of y under latent CovMatrix ``sigma`` of dimension p: H sigma H^T + D.

    ``model`` is not type-checked: any object with ``h``, ``d`` and ``p`` will do.
    """
    hs = model.h @ _as_cov(sigma, "sigma", model.p).entries @ model.h.T
    return CovMatrix((hs + hs.T) / 2.0 + model.d.entries)


def write_matrix_csv(matrix: np.ndarray, path: str | Path) -> None:
    """Write a real rectangular matrix as comma-separated rows, no header;
    a complex one is rejected by name.

    Each value is formatted with 17 significant digits, enough for an exact
    float64 round trip (the format contract asks for at least 12).
    Observation sets are written with one sample per row.

    A matrix bound for a seekable file is split into as many near-equal row
    ranges as ``_processes`` allows for its float64 bytes, at most one per
    row: two or more only from ``PARALLEL_READ_BYTES`` up, and only where
    ``read_observations`` would fork helpers. Then one forked helper per
    later range formats its range into its own memory while the caller
    formats the first range into the file, and the caller appends each
    helper's text in range order, one pipe chunk at a time. Every range goes
    through the same ``np.savetxt`` call, so the bytes are exactly the
    serial write's. If any helper could not be forked or did not exit 0,
    the file is cut back to empty and the caller formats the whole matrix
    with that one call, as it does for smaller matrices, such as every
    covariance. No helper outlives the call.
    """
    a = _real_array(matrix, "matrix to write", copy=False)
    if a.ndim != 2:
        raise ValueError(f"need a 2-d array, got shape {a.shape}")
    # An open handle, because given a path ending in .gz savetxt compresses.
    with open(path, "wb") as fh:
        n = min(_processes(a.nbytes), len(a)) if fh.seekable() else 1
        if n > 1:
            (i, j), *later = [(len(a) * k // n, len(a) * (k + 1) // n) for k in range(n)]

            def append_later(pipes: list[BinaryIO]) -> bool:
                _savetxt(fh, a[i:j])
                for pipe in pipes:
                    _copy(pipe, fh)
                return True

            works = [functools.partial(_send_text, a[start:stop]) for start, stop in later]
            if _in_helpers(works, append_later):
                return
            fh.seek(0)
            fh.truncate()
        _savetxt(fh, a)


def _savetxt(fh: BinaryIO, rows: np.ndarray) -> None:
    np.savetxt(fh, rows, fmt="%.17g", delimiter=",")


def _send_text(rows: np.ndarray, out: BinaryIO) -> None:
    """Format ``rows`` in memory, so that the caller need not be reading
    yet, then send the text to ``out``."""
    buf = io.BytesIO()
    _savetxt(buf, rows)
    out.write(buf.getbuffer())


def _copy(pipe: BinaryIO, fh: BinaryIO) -> None:
    """Copy what ``pipe`` sends, up to its end, to ``fh`` through one buffer
    of a Linux pipe's default capacity."""
    chunk = memoryview(bytearray(1 << 16))
    while n := pipe.readinto(chunk):
        fh.write(chunk[:n])


def read_matrix_csv(path: str | Path) -> np.ndarray:
    """Read a matrix in write_matrix_csv's format, skipping blank lines.

    The file is always read in the calling process. Every error names the
    path: a non-ASCII byte, ragged rows, a non-numeric cell or an empty file.
    """
    with open(path, "r", encoding="ascii") as fh:
        try:
            matrix = _parse_lines(fh)
        except UnicodeDecodeError as exc:
            byte = exc.object[exc.start]
            raise ValueError(f"{path}: non-ASCII byte {byte:#04x}") from exc
        except ValueError as exc:
            kind = "ragged rows" if "columns changed" in str(exc) else "non-numeric cell"
            raise ValueError(f"{path}: {kind}: {exc}") from exc
    if matrix is None:
        raise ValueError(f"{path}: empty matrix file")
    return matrix


@contextlib.contextmanager
def _naming_file(label: str, path: str | os.PathLike | None) -> Iterator[None]:
    """Raise a ValueError from the block again, of the same class, with the
    label and the path of the file its input was read from first, unless it
    names that path first already, as read_matrix_csv's errors do. A path of
    None, an input generated rather than read, names nothing."""
    try:
        yield
    except ValueError as exc:
        if path is None or str(exc).startswith(f"{path}: "):
            raise
        raise type(exc)(f"{label} from {path}: {exc}") from exc


def read_observations(path: str | Path) -> ObservationSet:
    """The observation set of a file in write_matrix_csv's format, one
    sample per row: ``ObservationSet(read_matrix_csv(path))``, with the same
    statistics bit for bit and the same error messages.

    The file is split at line boundaries into as many byte ranges as
    ``_processes`` allows for its size, the same rule ``write_matrix_csv``
    sizes its row ranges by: two or more only from ``PARALLEL_READ_BYTES``
    up, on Linux, with at least two usable CPUs and no other Python thread
    running. Then one forked helper per range parses it exactly as
    ``read_matrix_csv`` would and sends back its rows. The caller's process
    holds no r x m array: it takes the helpers' rows through one reusable
    buffer of at most ``ROW_BLOCK`` = 256 rows, in the row blocks
    ``ObservationSet`` sums over, and adds each block into the column sums
    and y^T y, so it holds about 150 KiB for a 20000 x 30 file. No helper
    outlives the call. Elsewhere, and if the helpers fail (one could not be
    forked or did not exit 0, or their rows differ in width), the file is
    read by ``read_matrix_csv`` and the array is dropped once it is
    summarised. Either way the set holds no samples
    (``samples`` is None), so it is the same on every machine.
    """
    ranges = _helper_ranges(path)
    if ranges:
        obs = _read_in_helpers(path, ranges)
        if obs is not None:
            return obs
    y = read_matrix_csv(path)
    return _summarise(object.__new__(ObservationSet), None, len(y), _blocks_of(y))


def _parse_lines(text: Iterable[str]) -> np.ndarray | None:
    """The rows of the non-blank lines of ``text``, or None if there are none."""
    lines = filter(str.strip, text)
    first = next(lines, None)
    if first is None:
        return None
    return np.loadtxt(itertools.chain([first], lines), delimiter=",", comments=None, ndmin=2)


def _processes(nbytes: int) -> int:
    """How many processes, the caller's among them, should format or parse
    ``nbytes`` at once: one per usable CPU, but none with less than half of
    ``PARALLEL_READ_BYTES``, so two or more exactly from
    ``PARALLEL_READ_BYTES`` up. 1 where no helper may be forked.

    Helpers are forked only on Linux and only while no other Python thread
    runs: a fork copies only the calling thread, and a lock another thread
    holds stays held in the child.
    """
    if not (hasattr(os, "fork") and sys.platform.startswith("linux")):
        return 1
    if threading.active_count() > 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), 2 * nbytes // PARALLEL_READ_BYTES))


def _helper_ranges(path: str | Path) -> list[tuple[int, int]]:
    """Byte ranges of ``path`` for the helper processes, each starting a line:
    as many as ``_processes`` allows for the file's size.

    Empty when ``read_matrix_csv`` applies: ``_processes`` gives 1, the file
    cannot be read, or its lines are too long to split.
    """
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            n = _processes(size)
            starts = [0]
            for k in range(1, n):
                # A range ends just after a newline, so CRLF stays whole and
                # universal newlines split each range as they split the file.
                fh.seek(max(size * k // n, starts[-1]))
                fh.readline()
                if fh.tell() < size:
                    starts.append(fh.tell())
    except (OSError, ValueError):
        return []
    return list(zip(starts, starts[1:] + [size])) if len(starts) > 1 else []


def _read_in_helpers(
    path: str | Path, ranges: list[tuple[int, int]]
) -> ObservationSet | None:
    """The observation set of the rows that one forked helper per range
    parses, or None on any failure.

    Each helper writes a (rows, cols) header and then its float64 rows to a
    pipe. The running sum of the headers' row counts places each helper's
    rows in the file, and each row block of ``_row_blocks(r)`` is filled in
    one buffer by one exact read per helper whose rows overlap it. So a
    helper whose output ends early, even mid-row, fails alone and the file
    is read serially, where reading on from the next pipe would shift every
    later row. What summarising the blocks raises is raised after every
    helper is gone.
    """

    def summarise(pipes: list[BinaryIO]) -> ObservationSet | None:
        header = bytearray(_HEADER.size)
        shapes = []
        for pipe in pipes:
            _read_exactly(pipe, header)
            shapes.append(_HEADER.unpack(header))
        cols = {c for _, c in shapes}
        if len(cols) != 1:
            return None
        m = cols.pop()
        starts = list(itertools.accumulate((rows for rows, _ in shapes), initial=0))
        r = starts[-1]
        blocks = _row_blocks(r)
        buffer = np.empty((max(j - i for i, j in blocks), m))

        def filled_blocks() -> Iterator[np.ndarray]:
            for i, j in blocks:
                for pipe, first, end in zip(pipes, starts, starts[1:]):
                    if first < j and i < end:
                        _read_exactly(pipe, buffer[max(first, i) - i : min(end, j) - i])
                yield buffer[: j - i]

        return _summarise(object.__new__(ObservationSet), None, r, filled_blocks())

    works = [functools.partial(_send_rows, path, start, stop) for start, stop in ranges]
    return _in_helpers(works, summarise)


def _send_rows(path: str | Path, start: int, stop: int, out: BinaryIO) -> None:
    """Parse bytes [start, stop) of ``path`` and send a (rows, cols) header
    and the float64 rows to ``out``; ValueError if the range holds no row."""
    with open(path, "rb") as fh:
        fh.seek(start)
        data = fh.read(stop - start)
    matrix = _parse_lines(io.TextIOWrapper(io.BytesIO(data), encoding="ascii"))
    if matrix is None:
        raise ValueError("no row in this range")
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    out.write(_HEADER.pack(*matrix.shape))
    out.write(memoryview(matrix).cast("B"))


def _in_helpers(
    works: list[Callable[[BinaryIO], None]], consume: Callable[[list[BinaryIO]], _T]
) -> _T | None:
    """Fork one helper per work, each running ``work(out)`` with ``out`` the
    write end of its own pipe, and return ``consume(pipes)``, the read ends
    in the works' order; None unless every helper exited 0, and None if a
    pipe or fork failed or ``consume`` raised OSError. The read ends are
    buffered, so a ``readinto`` comes back short only where a helper's
    output ends.

    Any other exception propagates. Either way every pipe is closed first,
    so that a helper with output still to send fails its write and exits,
    and then every helper is reaped, killed first unless ``consume``
    returned, so no helper outlives the call.
    """
    pipes: list[BinaryIO] = []
    pids: list[int] = []
    consumed = False
    try:
        for work in works:
            rfd, wfd = os.pipe()
            pipes.append(open(rfd, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _helper_main(work, wfd, pipes)
            finally:
                os.close(wfd)
            pids.append(pid)
        result = consume(pipes)
        consumed = True
    except OSError:
        return None
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            if not consumed:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
        statuses = [_reap(pid) for pid in pids]
    return result if all(status == 0 for status in statuses) else None


def _helper_main(
    work: Callable[[BinaryIO], None], fd: int, inherited: list[BinaryIO]
) -> NoReturn:
    """Body of a forked helper: run ``work`` on ``fd`` and exit, 0 only if
    it returned.

    The helper first closes the read ends it inherited, its own among them,
    so that a write finds no reader, and fails, once the caller is gone.
    """
    code = 1
    try:
        for pipe in inherited:
            pipe.close()
        with open(fd, "wb", closefd=False) as out:
            work(out)
        code = 0
    finally:
        # Never return into the caller's stack, and flush none of its buffers.
        os._exit(code)


def _read_exactly(pipe: BinaryIO, buffer: bytearray | np.ndarray) -> None:
    """Fill the C-contiguous ``buffer`` from ``pipe``, a read end from
    ``_in_helpers``; OSError if the helper's output ends first."""
    view = memoryview(buffer).cast("B")
    if pipe.readinto(view) != len(view):
        raise OSError("a helper's output ended early")


def _reap(pid: int) -> int | None:
    """Wait for child ``pid``: its wait status, or None if it was already reaped."""
    try:
        return os.waitpid(pid, 0)[1]
    except ChildProcessError:
        return None
