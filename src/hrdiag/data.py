"""Survey patterns: aggregation, loading, normalization, targets, splits.

A :class:`Pattern` is one respondent reduced to the three aggregate
factor-group means (strategic, tactical, operational) plus an optional
target outcome.  Raw aggregate values live in [-1, 5]: the questionnaire
scale is 1..5, but the bundled survey data contains values down to -1,
so the loader accepts that wider range and merely warns below 1.

Outcome labels for the bundled data were never published.  Training
therefore uses documented surrogate targets: +0.9 (success) when the
mean of the three aggregates reaches a threshold, -0.9 (failure)
otherwise.  Every report built on these labels carries a caveat.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, replace
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

CSV_COLUMNS = ("strategic", "tactical", "operational")
CSV_TARGET_COLUMN = "target"


@dataclass(frozen=True)
class Pattern:
    """Aggregate scores for one respondent, with an optional target outcome."""

    strategic: float
    tactical: float
    operational: float
    target: float | None = None

    def __post_init__(self):
        for name in CSV_COLUMNS:
            _check_range(name, getattr(self, name), RAW_MIN, RAW_MAX)
        if self.target is not None:
            _check_range(CSV_TARGET_COLUMN, self.target, TARGET_MIN, TARGET_MAX)

    @property
    def inputs(self) -> tuple[float, float, float]:
        return (self.strategic, self.tactical, self.operational)


def _check_range(column: str, v: float, lo: float, hi: float) -> None:
    if not lo <= v <= hi:  # NaN fails every comparison, so it is rejected too
        raise ValueError(f"column '{column}': value {v} outside [{lo:g}, {hi:g}]")


@dataclass(frozen=True)
class NormalizationMap:
    """Affine input scaling v -> (v - offset) / scale, shared by training
    and prediction so both see identical coordinates."""

    offset: float = 2.0
    scale: float = 3.0

    def __post_init__(self):
        if not (math.isfinite(self.offset) and math.isfinite(self.scale) and self.scale != 0):
            raise ValueError(
                f"normalization needs a finite offset and a finite non-zero scale, "
                f"got offset {self.offset!r} and scale {self.scale!r}"
            )

    def apply(self, v: float) -> float:
        return (v - self.offset) / self.scale

    def apply_pattern(self, p: Pattern) -> Pattern:
        return Pattern(
            self.apply(p.strategic), self.apply(p.tactical), self.apply(p.operational),
            p.target,
        )


@dataclass
class Dataset:
    """Training and testing pattern lists plus the input normalization in
    effect (None while patterns are still in raw coordinates)."""

    training: list[Pattern]
    testing: list[Pattern]
    normalization: NormalizationMap | None = None


@dataclass(frozen=True)
class QuestionnaireResponse:
    """Scores for all 33 questionnaire factors, keyed by canonical factor id."""

    scores: dict[str, float]

    def __post_init__(self):
        unknown = sorted(set(self.scores) - set(ALL_FACTORS))
        if unknown:
            raise ValueError(f"unknown factor id(s): {', '.join(unknown)}")
        missing = [f for f in ALL_FACTORS if f not in self.scores]
        if missing:
            raise ValueError(f"missing factor(s): {', '.join(missing)}")
        for factor, score in self.scores.items():
            if not math.isfinite(score):
                raise ValueError(f"factor {factor}: score must be finite")
            if not RAW_MIN <= score <= RAW_MAX:
                raise ValueError(
                    f"factor {factor}: score {score} outside [{RAW_MIN:g}, {RAW_MAX:g}]"
                )

    def group_mean(self, group: str) -> float:
        factors = FACTOR_GROUPS[group]
        return sum(self.scores[f] for f in factors) / len(factors)


def aggregate_questionnaire(resp: QuestionnaireResponse) -> Pattern:
    """Reduce a full questionnaire to the three factor-group means."""
    return Pattern(
        resp.group_mean("strategic"),
        resp.group_mean("tactical"),
        resp.group_mean("operational"),
    )


def load_embedded() -> Dataset:
    """The bundled 52-row training and 23-row testing tables, raw, untargeted."""
    training = [Pattern(s, t, o) for _, s, t, o in EMBEDDED_TRAINING]
    testing = [Pattern(s, t, o) for _, s, t, o in EMBEDDED_TESTING]
    return Dataset(training, testing)


def _parse_cell(raw: str, row_num: int, column: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"row {row_num}, column '{column}': malformed number {raw!r}") from None


def load_csv(path: str | Path) -> list[Pattern]:
    """Load patterns from a CSV file.

    The header must be ``strategic,tactical,operational``, optionally
    followed by a ``target`` column.  Values are checked by
    :class:`Pattern`: inputs in [-1, 5] (values below 1 trigger a single
    summary warning), targets in [-1, 1].  Errors name the offending row
    (1-based, counting data rows) and column.
    """
    path = Path(path)
    targeted = CSV_COLUMNS + (CSV_TARGET_COLUMN,)
    patterns: list[Pattern] = []
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = tuple(h.strip() for h in next(reader, ()))
        if header not in (CSV_COLUMNS, targeted):
            raise ValueError(
                f"{path}: bad header {','.join(header)!r}, expected "
                f"{','.join(CSV_COLUMNS)} or {','.join(targeted)}"
            )
        for row_num, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise ValueError(f"row {row_num}: expected {len(header)} columns, found {len(row)}")
            values = [_parse_cell(raw, row_num, column) for column, raw in zip(header, row)]
            try:
                patterns.append(Pattern(*values))
            except ValueError as exc:
                raise ValueError(f"row {row_num}, {exc}") from None
    sub_one = sum(v < 1.0 for p in patterns for v in p.inputs)
    if sub_one:
        warnings.warn(
            f"{path}: {sub_one} input value(s) below the 1..5 questionnaire scale "
            f"(accepted; declared range is [{RAW_MIN:g}, {RAW_MAX:g}])",
            stacklevel=2,
        )
    return patterns


def normalize(patterns: list[Pattern]) -> tuple[list[Pattern], NormalizationMap]:
    """Apply the fixed affine map v -> (v - 2) / 3 to all inputs.

    The map sends the declared raw range [-1, 5] onto [-1, 1].  It is
    intentionally data-independent, so a stored model can reapply the
    identical transform at prediction time.  Targets are left untouched.
    """
    nmap = NormalizationMap()
    return [nmap.apply_pattern(p) for p in patterns], nmap


def assign_surrogate_targets(patterns: list[Pattern], threshold: float = 2.5) -> list[Pattern]:
    """Label raw patterns with the documented surrogate outcome rule.

    success (+0.9) when mean(strategic, tactical, operational) >= threshold,
    failure (-0.9) otherwise.  Expects raw, un-normalized patterns.
    """
    out = []
    for p in patterns:
        mean = (p.strategic + p.tactical + p.operational) / 3.0
        y = SUCCESS_TARGET if mean >= threshold else FAILURE_TARGET
        out.append(replace(p, target=y))
    return out


def split_70_30(patterns: list[Pattern], seed: int) -> tuple[list[Pattern], list[Pattern]]:
    """Seeded shuffle, then ceil(0.7 n) patterns to train and the rest to test.

    Not used for the bundled data, whose 52/23 partition is already
    materialized.
    """
    n = len(patterns)
    if n < 2:
        raise ValueError(f"need at least 2 patterns to split, got {n}")
    order = np.random.default_rng(seed).permutation(n)
    cut = (7 * n + 9) // 10  # ceil(0.7 n) in exact integer arithmetic
    train = [patterns[i] for i in order[:cut]]
    test = [patterns[i] for i in order[cut:]]
    return train, test


def as_training_batch(patterns: list[Pattern]) -> tuple[np.ndarray, np.ndarray]:
    """Patterns as an (X, T) batch: inputs of shape (n, 3) and targets of
    shape (n, 1).  Every pattern needs a target."""
    for i, p in enumerate(patterns):
        if p.target is None:
            raise ValueError(f"pattern {i} has no target")
    X = np.array([p.inputs for p in patterns], dtype=float).reshape(-1, len(CSV_COLUMNS))
    T = np.array([p.target for p in patterns], dtype=float).reshape(-1, 1)
    return X, T


def prepared_embedded(threshold: float = 2.5) -> Dataset:
    """Bundled data ready to train on: surrogate targets plus normalization."""
    raw = load_embedded()
    training = assign_surrogate_targets(raw.training, threshold)
    testing = assign_surrogate_targets(raw.testing, threshold)
    training_n, nmap = normalize(training)
    testing_n, _ = normalize(testing)
    return Dataset(training_n, testing_n, nmap)


def load_questionnaire_csv(path: str | Path) -> QuestionnaireResponse:
    """Read a ``factor_id,score`` CSV covering all 33 canonical factors.

    Duplicate, unknown or missing factor ids are errors naming the id.
    """
    path = Path(path)
    scores: dict[str, float] = {}
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != ("factor_id", "score"):
            raise ValueError(f"{path}: expected header 'factor_id,score'")
        for row_num, row in enumerate(reader, start=1):
            if len(row) != 2:
                raise ValueError(f"row {row_num}: expected 2 columns, found {len(row)}")
            factor = row[0].strip()
            if factor in scores:
                raise ValueError(f"row {row_num}: duplicate factor id '{factor}'")
            scores[factor] = _parse_cell(row[1], row_num, "score")
    return QuestionnaireResponse(scores)
