"""Respondent sets: aggregation, loading, normalization, targets, splits.

A respondent set is an ``(X, T)`` pair shaped like a training batch:
float64 ``X`` (n, 3) holds the three aggregate factor-group means
(strategic, tactical, operational), float64 ``T`` (n, 1) the target
outcomes, or None.  Raw aggregate values live in [-1, 5]: the
questionnaire scale is 1..5, but the bundled survey data contains values
down to -1, so the loader accepts that wider range.

Outcome labels for the bundled data were never published.  Training
therefore uses documented surrogate targets: +0.9 (success) when the
mean of the three aggregates reaches a threshold, -0.9 (failure)
otherwise.  Every report built on these labels carries a caveat.
"""

from __future__ import annotations

import csv
import io
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .tables import (
    ALL_FACTORS,
    EMBEDDED_TESTING,
    EMBEDDED_TRAINING,
    FACTOR_GROUPS,
)

RAW_MIN = -1.0
RAW_MAX = 5.0
TARGET_MIN = -1.0
TARGET_MAX = 1.0

SUCCESS_TARGET = 0.9
FAILURE_TARGET = -0.9
SURROGATE_THRESHOLD = 2.5  # the default success threshold on the raw aggregates' mean

CSV_COLUMNS = ("strategic", "tactical", "operational")
CSV_TARGET_COLUMN = "target"
_CSV_TARGETED = CSV_COLUMNS + (CSV_TARGET_COLUMN,)

# Per-column bounds of a targeted CSV row; an input-only row uses the first three.
_CSV_LOW = (RAW_MIN, RAW_MIN, RAW_MIN, TARGET_MIN)
_CSV_HIGH = (RAW_MAX, RAW_MAX, RAW_MAX, TARGET_MAX)

Respondents = tuple[np.ndarray, np.ndarray | None]


def check_finite_number(name: str, value) -> None:
    """Reject anything but an int or float within the finite float range,
    naming the field: bools, NaN, infinities and huge ints all fail."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise ValueError(f"{name} must be a finite number, got {value!r}")


def check_integer(name: str, value, low: int) -> None:
    """Reject anything but an int of at least ``low``, naming the field: a
    bool is an int to Python, so it is refused by name."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        bound = "non-negative" if low == 0 else f"at least {low}"
        raise ValueError(f"{name} must be {bound}, got {value!r}")


def first_out_of_range(values: np.ndarray, lo, hi) -> int | None:
    """Flat (row-major) index of the first value outside [lo, hi] (bounds
    broadcast, so they may be per column), or None.  NaN counts as outside."""
    bad = ~((values >= lo) & (values <= hi))
    return int(np.argmax(bad)) if bad.any() else None


@dataclass(frozen=True)
class NormalizationMap:
    """Affine input scaling v -> (v - offset) / scale, shared by training
    and prediction so both see identical coordinates."""

    offset: float = 2.0
    scale: float = 3.0

    def __post_init__(self):
        check_finite_number("normalization offset", self.offset)
        check_finite_number("normalization scale", self.scale)
        if self.scale == 0:
            raise ValueError(f"normalization scale must be non-zero, got {self.scale!r}")

    def apply(self, v):
        """Scale a value or, elementwise, an array of values."""
        return (v - self.offset) / self.scale


@dataclass
class Dataset:
    """Training and testing respondent sets plus the input normalization in
    effect (None in raw coordinates).  Zero testing rows mean no test split."""

    training: Respondents
    testing: Respondents
    normalization: NormalizationMap | None = None


@dataclass(frozen=True)
class QuestionnaireResponse:
    """Scores for all 33 questionnaire factors, keyed by canonical factor id."""

    scores: dict[str, float]

    def __post_init__(self):
        unknown = sorted(self.scores.keys() - ALL_FACTORS)
        if unknown:
            raise ValueError(f"unknown factor id(s): {', '.join(unknown)}")
        if len(self.scores) < len(ALL_FACTORS):  # no unknown id, so some are missing
            missing = [f for f in ALL_FACTORS if f not in self.scores]
            raise ValueError(f"missing factor(s): {', '.join(missing)}")
        for factor, score in self.scores.items():
            if not RAW_MIN <= score <= RAW_MAX:  # NaN fails every comparison too
                raise ValueError(
                    f"factor {factor}: score {score} outside [{RAW_MIN:g}, {RAW_MAX:g}]"
                )

    def group_mean(self, group: str) -> float:
        factors = FACTOR_GROUPS[group]
        return sum(self.scores[f] for f in factors) / len(factors)


def aggregate_questionnaire(resp: QuestionnaireResponse) -> tuple[float, float, float]:
    """Reduce a full questionnaire to its group means, in ``FACTOR_GROUPS`` order."""
    return tuple(resp.group_mean(group) for group in FACTOR_GROUPS)


def load_embedded() -> Dataset:
    """The bundled 52-row training and 23-row testing tables, raw, untargeted."""
    training = np.array([row[1:] for row in EMBEDDED_TRAINING], dtype=float)
    testing = np.array([row[1:] for row in EMBEDDED_TESTING], dtype=float)
    return Dataset((training, None), (testing, None))


def _parse_cell(raw: str, row_num: int, column: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"row {row_num}, column '{column}': malformed number {raw!r}") from None


def _open_path(path: Path, mode: str, opened: Path | None = None, **kwargs):
    """``path.open()``, or ``opened.open()`` in its place, with every error naming
    ``path``, that of a path ``open()`` refuses (a NUL byte, a lone surrogate) too."""
    try:
        return (opened or path).open(mode, **kwargs)
    except OSError as exc:
        exc.filename = str(path)
        raise
    except ValueError as exc:
        raise ValueError(f"{str(path)!r}: {exc}") from None


@contextmanager
def _replacing(path: Path):
    """A UTF-8 text file, the sibling ``path`` + ``.part``, that ``os.replace`` moves
    over ``path`` once the block completes, and that a block that raises removes.
    A path ``open()`` refuses, or a directory, fails here, before the block runs."""
    if path.is_dir():
        path.open("w")  # raises IsADirectoryError now, not at os.replace
    part = path.with_name(path.name + ".part")
    fh = _open_path(path, "w", part, encoding="utf-8")
    try:
        with fh:
            yield fh
        os.replace(part, path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise


def _read_text(path: Path) -> str:
    """A UTF-8 file's text from one read of its bytes; a bad byte's error names its line."""
    with _open_path(path, "rb", buffering=0) as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        done = data[:exc.start]
        line = 1 + done.count(b"\n") + done.count(b"\r") - done.count(b"\r\n")
        raise ValueError(f"{path}: line {line}: not UTF-8 ({exc.reason})") from None


def _loadtxt_cells(text: str) -> tuple[tuple[str, ...], np.ndarray]:
    """Header and cells of a well-formed respondent CSV's text in one np.loadtxt
    pass, else ValueError or csv.Error.  loadtxt rejects ``1_0``, Unicode digits,
    quoted cells and lone ``\\r`` line ends, which float() or the csv reader
    accept, but skips blank lines, parses cells past the csv field limit and
    strips \\x1c-\\x1f around a number, which float() rejects."""
    # No StringIO (4 bytes a character); a quote may end the header on a later line.
    head, _, body = text.partition("\n")
    header = tuple(h.strip() for h in next(csv.reader([head]), ()))
    lines = body.removesuffix("\n").split("\n")
    if ('"' in head or "\r" in head[:-1] or header not in (CSV_COLUMNS, _CSV_TARGETED)
            or "" in lines or "\r" in lines or any(sep in body for sep in "\x1c\x1d\x1e\x1f")
            or max(map(len, lines)) > csv.field_size_limit()):
        raise ValueError("not a plain respondent file")
    cells = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    if cells.shape[1] != len(header):
        raise ValueError("column count differs from the header")
    return header, cells


def _csv_rows(path: Path, text: str) -> tuple[tuple[str, ...], np.ndarray]:
    """Header and cells of ``text`` by the csv reader and float(), row by row, or the error."""
    rows: list[list[float]] = []
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = tuple(h.strip() for h in next(reader, ()))
        if header not in (CSV_COLUMNS, _CSV_TARGETED):
            raise ValueError(
                f"{path}: bad header {','.join(header)!r}, expected "
                f"{','.join(CSV_COLUMNS)} or {','.join(_CSV_TARGETED)}"
            )
        for row_num, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise ValueError(f"row {row_num}: expected {len(header)} columns, found {len(row)}")
            rows.append([_parse_cell(raw, row_num, column) for column, raw in zip(header, row)])
    except csv.Error as exc:
        raise ValueError(f"{path}: {exc}") from None
    return header, np.array(rows, dtype=float).reshape(-1, len(header))


def load_csv(path: str | Path) -> Respondents:
    """Load a respondent set from a CSV file.

    The header must be ``strategic,tactical,operational``, optionally
    followed by a ``target`` column (T is None without it).  Inputs must
    lie in [-1, 5] and targets in [-1, 1].  Errors name the offending row
    (1-based, counting data rows) and column.  The whole file is decoded,
    then every cell parsed, before any range is checked, so a non-UTF-8 byte
    is reported first and a malformed cell next.
    """
    path = Path(path)
    text = _read_text(path)
    try:
        header, cells = _loadtxt_cells(text)
    except (csv.Error, ValueError):
        header, cells = _csv_rows(path, text)
    ncols = len(header)
    lo, hi = _CSV_LOW[:ncols], _CSV_HIGH[:ncols]
    bad = first_out_of_range(cells, lo, hi)
    if bad is not None:
        r, c = divmod(bad, ncols)
        raise ValueError(
            f"row {r + 1}, column '{header[c]}': value {float(cells[r, c])} "
            f"outside [{lo[c]:g}, {hi[c]:g}]"
        )
    # Contiguous like every other batch; products on strided views may round differently.
    X = np.ascontiguousarray(cells[:, :3])
    return X, (np.ascontiguousarray(cells[:, 3:]) if header == _CSV_TARGETED else None)


def normalize(respondents: Respondents) -> tuple[Respondents, NormalizationMap]:
    """Apply the fixed affine map v -> (v - 2) / 3 to all inputs.

    The map sends the declared raw range [-1, 5] onto [-1, 1].  It is
    intentionally data-independent, so a stored model can reapply the
    identical transform at prediction time.  Targets are left untouched.
    """
    X, T = respondents
    nmap = NormalizationMap()
    return (nmap.apply(X), T), nmap


def assign_surrogate_targets(respondents: Respondents,
                             threshold: float = SURROGATE_THRESHOLD) -> Respondents:
    """Label raw respondents with the documented surrogate outcome rule.

    success (+0.9) when mean(strategic, tactical, operational) >= threshold,
    failure (-0.9) otherwise.  Expects raw, un-normalized inputs; any
    existing targets are replaced.  The threshold must be a finite number.
    """
    check_finite_number("surrogate threshold", threshold)
    X, _ = respondents
    # The explicit column sum keeps the rounding of (s + t + o) / 3.0.
    mean = (X[:, 0] + X[:, 1] + X[:, 2]) / 3.0
    T = np.where(mean >= threshold, SUCCESS_TARGET, FAILURE_TARGET).reshape(-1, 1)
    return X, T


def split_70_30(respondents: Respondents, seed: int) -> tuple[Respondents, Respondents]:
    """Seeded shuffle, then ceil(0.7 n) respondents to train and the rest to test.

    Not used for the bundled data, whose 52/23 partition is already
    materialized.
    """
    X, T = respondents
    n = X.shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 respondents to split, got {n}")
    check_integer("seed", seed, 0)  # default_rng's own message does not name the seed
    order = np.random.default_rng(seed).permutation(n)
    cut = (7 * n + 9) // 10  # ceil(0.7 n) in exact integer arithmetic
    train, test = order[:cut], order[cut:]
    if T is None:
        return (X[train], None), (X[test], None)
    return (X[train], T[train]), (X[test], T[test])


def as_training_batch(respondents: Respondents) -> tuple[np.ndarray, np.ndarray]:
    """A targeted respondent set as an (X, T) batch: inputs of shape (n, 3)
    and targets of shape (n, 1)."""
    X, T = respondents
    if T is None:
        raise ValueError("respondent set has no target column")
    return X, T


def prepared_embedded(threshold: float = SURROGATE_THRESHOLD) -> Dataset:
    """Bundled data ready to train on: surrogate targets plus normalization."""
    raw = load_embedded()
    training, nmap = normalize(assign_surrogate_targets(raw.training, threshold))
    testing, _ = normalize(assign_surrogate_targets(raw.testing, threshold))
    return Dataset(training, testing, nmap)


def load_questionnaire_csv(path: str | Path) -> QuestionnaireResponse:
    """Read a ``factor_id,score`` CSV covering all 33 canonical factors.

    Duplicate, unknown or missing factor ids are errors naming the id.
    """
    path = Path(path)
    scores: dict[str, float] = {}
    reader = csv.reader(io.StringIO(_read_text(path), newline=""))
    try:
        if tuple(h.strip() for h in next(reader, ())) != ("factor_id", "score"):
            raise ValueError(f"{path}: expected header 'factor_id,score'")
        for row_num, row in enumerate(reader, start=1):
            if len(row) != 2:
                raise ValueError(f"row {row_num}: expected 2 columns, found {len(row)}")
            factor = row[0].strip()
            if factor in scores:
                raise ValueError(f"row {row_num}: duplicate factor id '{factor}'")
            scores[factor] = _parse_cell(row[1], row_num, "score")
    except csv.Error as exc:
        raise ValueError(f"{path}: {exc}") from None
    return QuestionnaireResponse(scores)
