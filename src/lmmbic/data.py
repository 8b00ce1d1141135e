"""Containers for grouped longitudinal data and delimited-file ingestion.

A dataset is a collection of subject blocks.  Rows within a block share
one subject id and one subject-level covariate value, and responses from
different subjects are independent, so everything downstream works block
by block and the full n x n covariance matrix is never assembled.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

REQUIRED_COLUMNS = ("subject", "x", "c", "y")


class DataFormatError(ValueError):
    """An input file cannot be parsed into a dataset."""


def _readonly(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class SubjectBlock:
    """All observations for one subject.

    Attributes:
        id: subject identifier, unique within a dataset.
        x: within-subject covariate, one value per observation.
        c: subject-level covariate, constant across the block.
        y: responses, aligned with x.
    """

    id: str
    x: np.ndarray
    c: float
    y: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", _readonly(self.x))
        object.__setattr__(self, "y", _readonly(self.y))
        object.__setattr__(self, "c", float(self.c))
        if self.x.ndim != 1 or self.y.ndim != 1:
            raise ValueError(f"subject {self.id!r}: x and y must be one-dimensional")
        if self.x.shape != self.y.shape:
            raise ValueError(
                f"subject {self.id!r}: x has {self.x.size} rows but y has {self.y.size}"
            )
        if self.x.size == 0:
            raise ValueError(f"subject {self.id!r} has no observations")
        if not (np.isfinite(self.x).all() and np.isfinite(self.y).all()):
            raise ValueError(f"subject {self.id!r} contains non-finite values")
        if not math.isfinite(self.c):
            raise ValueError(f"subject {self.id!r} has a non-finite covariate")

    @property
    def n_obs(self) -> int:
        return self.x.size


@dataclass(frozen=True, eq=False)
class Dataset:
    """An ordered collection of subject blocks with unique ids."""

    subjects: tuple[SubjectBlock, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "subjects", tuple(self.subjects))
        if not self.subjects:
            raise ValueError("a dataset needs at least one subject")
        ids = [s.id for s in self.subjects]
        if len(set(ids)) != len(ids):
            raise ValueError("subject ids must be unique")

    @property
    def n_subjects(self) -> int:
        return len(self.subjects)

    @property
    def n_obs(self) -> int:
        return sum(s.n_obs for s in self.subjects)

    def subject_covariates(self) -> np.ndarray:
        return np.array([s.c for s in self.subjects])


def _infer_delimiter(header_line: str) -> str:
    for cand in ("\t", ";", ","):
        if cand in header_line:
            return cand
    return ","


def _floats(path: Path, column: str, values: list[str], lines: list[int]) -> np.ndarray:
    """One column's values as floats; a failure names its first bad line."""
    try:
        return np.array(list(map(float, values)))
    except ValueError:
        for raw, line in zip(values, lines):
            try:
                float(raw)
            except ValueError:
                raise DataFormatError(
                    f"{path}:{line}: column {column!r} has non-numeric value {raw.strip()!r}"
                ) from None
        raise


def read_dataset(path: str | Path) -> Dataset:
    """Read a delimited text file with columns subject, x, c and y.

    The header is the first non-blank line, and the delimiter (comma,
    semicolon or tab) is inferred from it; data rows whose fields are all
    blank are skipped.
    Rows are grouped by subject in order of first appearance and
    the within-subject row order is preserved.  The subject-level
    covariate must be constant within each subject.

    Raises:
        DataFormatError: on a missing column, an empty subject id, an
            unparsable number or a subject whose c value changes between
            rows, each reported with the line it is first found on.
    """
    path = Path(path)
    # utf-8-sig drops the byte-order mark that spreadsheet exports write
    with path.open(newline="", encoding="utf-8-sig") as handle:
        blank = 0
        while (first := handle.readline()).isspace():
            blank += 1
        if not first:
            raise DataFormatError(f"{path}: file is empty")
        handle.seek(0)
        reader = csv.reader(handle, delimiter=_infer_delimiter(first))
        header = [h.strip() for h in next(islice(reader, blank, None))]
        for column in REQUIRED_COLUMNS:
            if column not in header:
                raise DataFormatError(f"{path}: missing column {column!r}")
        index = [header.index(column) for column in REQUIRED_COLUMNS]
        width = max(index) + 1
        rows: list[list[str]] = []
        lines: list[int] = []
        for row in reader:
            # a row whose fields are all blank is skipped, as the header
            # search skips a blank line
            if "".join(row).strip():
                rows.append(row)
                lines.append(reader.line_num)

    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    for row in rows:
        if len(row) < width:
            row += [""] * (width - len(row))
    columns = list(zip(*rows))
    subjects = [s.strip() for s in columns[index[0]]]
    if "" in subjects:
        raise DataFormatError(f"{path}:{lines[subjects.index('')]}: empty subject id")
    x, c, y = (
        _floats(path, column, columns[i], lines)
        for column, i in zip(REQUIRED_COLUMNS[1:], index[1:])
    )
    # head[k] is the row on which row k's subject first appears; that row
    # is compared with nothing, so a nan c there fails as non-finite
    first_row: dict[str, int] = {}
    head = np.array([first_row.setdefault(s, k) for k, s in enumerate(subjects)])
    changed = np.flatnonzero((c != c[head]) & (head != np.arange(head.size)))
    if changed.size:
        k = changed[0]
        raise DataFormatError(
            f"{path}:{lines[k]}: subject {subjects[k]!r} has inconsistent c "
            f"({float(c[k])!r} after {float(c[head[k]])!r})"
        )
    # rows ordered by subject in order of first appearance, then by row
    order = np.argsort(head, kind="stable")
    cuts = np.flatnonzero(np.diff(head[order])) + 1
    blocks = tuple(
        SubjectBlock(id=subjects[k], x=xs, c=c[k], y=ys)
        for k, xs, ys in zip(first_row.values(), np.split(x[order], cuts), np.split(y[order], cuts))
    )
    return Dataset(subjects=blocks)
