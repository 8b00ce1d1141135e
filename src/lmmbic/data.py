"""Grouped longitudinal data as read-only columns, and delimited-file ingestion.

A dataset holds its observations subject after subject in two columns, x
and y; subject i's rows are bounds[i]:bounds[i+1], and its id and
subject-level covariate are ids[i] and c[i].  Responses from different
subjects are independent, so the likelihood is a sum over subjects, and
over observation grids where subjects share one; the full n x n
covariance matrix is never assembled.  Only this module knows the
layout: Dataset.subjects gives one SubjectBlock view per subject, and
Dataset.grids says which subjects share an observation grid.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Iterable, Sequence
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from itertools import chain, zip_longest
from pathlib import Path

import numpy as np

REQUIRED_COLUMNS = ("subject", "x", "c", "y")


class DataFormatError(ValueError):
    """An input file cannot be parsed into a dataset."""


def _readonly(values, dtype=float) -> np.ndarray:
    """A read-only C-ordered copy of values: the one way this package freezes an array."""
    arr = np.array(values, dtype=dtype, order="C")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class SubjectBlock:
    """All observations for one subject, as a plain record; Dataset checks it.

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

    @property
    def n_obs(self) -> int:
        return self.x.size


def _problem(ids, c, x, y, x_sizes, y_sizes, flat) -> str | None:
    """What is wrong with a dataset's columns, or None.

    x and y hold the subjects' values one after another, x_sizes and
    y_sizes how many each subject has, and flat whether its x and y were
    one-dimensional.  Of the subjects that fail a check, the first is
    named, with the first check it fails in the order below.
    """
    if not ids:
        return "a dataset needs at least one subject"
    if len(set(ids)) != len(ids):
        return "subject ids must be unique"
    nonfinite = np.zeros(len(ids), dtype=bool)
    # offsets into x and y agree up to the first subject whose sizes differ,
    # and that subject fails before its values are looked at
    for values, sizes in ((x, x_sizes), (y, y_sizes)):
        nonfinite[np.repeat(np.arange(len(ids)), sizes)[~np.isfinite(values)]] = True
    fails = np.stack([~flat, x_sizes != y_sizes, x_sizes == 0, nonfinite, ~np.isfinite(c)])
    bad = np.flatnonzero(fails.any(axis=0))
    if not bad.size:
        return None
    i = bad[0]
    return (
        f"subject {ids[i]!r}: x and y must be one-dimensional",
        f"subject {ids[i]!r}: x has {x_sizes[i]} rows but y has {y_sizes[i]}",
        f"subject {ids[i]!r} has no observations",
        f"subject {ids[i]!r} contains non-finite values",
        f"subject {ids[i]!r} has a non-finite covariate",
    )[np.argmax(fails[:, i])]


class Dataset:
    """The observations of N subjects with unique ids, as read-only columns.

    Attributes:
        ids: the subject ids, a tuple in subject order.
        c: (N,) subject-level covariates.
        x, y: (n,) within-subject covariate and response, subject after
            subject, within-subject order preserved.
        bounds: (N+1,) row offsets: subject i's rows are bounds[i]:bounds[i+1].

    Dataset(subjects=blocks) copies SubjectBlocks into columns and
    Dataset.from_columns takes columns; both check the data the same way,
    and so do pickle and copy, which rebuild a copy from its columns.
    Attributes cannot be assigned and every array is read-only, so
    anything computed from a dataset never goes stale.
    """

    def __init__(self, subjects: Iterable[SubjectBlock]):
        blocks = tuple(subjects)
        xs = [np.asarray(b.x, dtype=float) for b in blocks]
        ys = [np.asarray(b.y, dtype=float) for b in blocks]
        self._fill(
            [b.id for b in blocks],
            [b.c for b in blocks],
            np.concatenate([np.empty(0), *(a.ravel() for a in xs)]),
            np.concatenate([np.empty(0), *(a.ravel() for a in ys)]),
            [a.size for a in xs],
            [a.size for a in ys],
            [a.ndim == b.ndim == 1 for a, b in zip(xs, ys)],
        )

    @classmethod
    def from_columns(cls, ids, sizes, c, x, y) -> Dataset:
        """Subject i with id ids[i], covariate c[i] and the next sizes[i]
        values of the (n,) columns x and y."""
        data = cls.__new__(cls)
        flat = [np.ndim(x) == np.ndim(y) == 1] * len(sizes)
        data._fill(ids, c, np.ravel(x), np.ravel(y), sizes, sizes, flat)
        return data

    def _fill(self, ids, c, x, y, x_sizes, y_sizes, flat) -> None:
        ids, c, x, y = tuple(ids), _readonly(c), _readonly(x), _readonly(y)
        x_sizes, y_sizes = np.asarray(x_sizes, dtype=int), np.asarray(y_sizes, dtype=int)
        problem = _problem(ids, c, x, y, x_sizes, y_sizes, np.asarray(flat, dtype=bool))
        if problem is not None:
            raise ValueError(problem)
        bounds = _readonly(np.concatenate([[0], np.cumsum(x_sizes)]), dtype=int)
        self.__dict__.update(ids=ids, c=c, x=x, y=y, bounds=bounds)

    def __reduce__(self):
        return type(self).from_columns, (self.ids, np.diff(self.bounds), self.c, self.x, self.y)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @cached_property
    def subjects(self) -> tuple[SubjectBlock, ...]:
        """One SubjectBlock per subject, its x and y views of the columns."""
        b = self.bounds.tolist()
        return tuple(
            SubjectBlock(id=sid, x=self.x[lo:hi], c=ci, y=self.y[lo:hi])
            for sid, ci, lo, hi in zip(self.ids, self.c.tolist(), b, b[1:])
        )

    @cached_property
    def grids(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """(x, members) per distinct observation grid, in order of first
        appearance: the grid's x values and the read-only indices, in
        dataset order, of the subjects whose x equals them byte for byte."""
        raw, width, b = self.x.tobytes(), self.x.itemsize, self.bounds.tolist()
        by_grid: dict[bytes, list[int]] = {}
        for i, (lo, hi) in enumerate(zip(b, b[1:])):
            by_grid.setdefault(raw[width * lo:width * hi], []).append(i)
        return tuple(
            (self.x[b[m[0]]:b[m[0] + 1]], _readonly(m, dtype=int)) for m in by_grid.values()
        )

    @property
    def n_subjects(self) -> int:
        return len(self.ids)

    @property
    def n_obs(self) -> int:
        return self.x.size


def _infer_delimiter(header_line: str) -> str:
    for cand in ("\t", ";", ","):
        if cand in header_line:
            return cand
    return ","


def _floats(path: Path, column: str, values: Sequence[str], lines: Sequence[int]) -> np.ndarray:
    """One column's values as finite floats; a failure names its first bad line."""
    try:
        arr = np.array(list(map(float, values)))
        if np.isfinite(arr).all():
            return arr
    except ValueError:
        pass
    for raw, line in zip(values, lines):
        try:
            finite = math.isfinite(float(raw))
        except ValueError:
            finite = None
        if not finite:
            kind = "non-numeric" if finite is None else "non-finite"
            raise DataFormatError(
                f"{path}:{line}: column {column!r} has {kind} value {raw.strip()!r}"
            )


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
            unparsable or non-finite number or a subject whose c value
            changes between rows, each reported with the line it is first
            found on.
    """
    path = Path(path)
    # utf-8-sig drops the byte-order mark that spreadsheet exports write
    with path.open(newline="", encoding="utf-8-sig") as handle:
        numbered = ((k, line) for k, line in enumerate(handle, 1) if not line.isspace())
        start, first = next(numbered, (0, ""))
        if not first:
            raise DataFormatError(f"{path}: file is empty")
        # one reader from the header on, so its line_num counts from line start
        reader = csv.reader(chain([first], handle), delimiter=_infer_delimiter(first))
        header = [h.strip() for h in next(reader)]
        for column in REQUIRED_COLUMNS:
            if column not in header:
                raise DataFormatError(f"{path}: missing column {column!r}")
        # a row whose fields are all blank is skipped, as a blank line before
        # the header is; each kept row under the line it ends on
        rows = {start - 1 + reader.line_num: row for row in reader if "".join(row).strip()}

    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    lines = list(rows)
    # a short row reads as blank fields: zip_longest pads each column, and
    # the header row reaches every required column
    columns = list(zip_longest(header, *rows.values(), fillvalue=""))
    values = [columns[header.index(column)][1:] for column in REQUIRED_COLUMNS]
    subjects = [s.strip() for s in values[0]]
    if "" in subjects:
        raise DataFormatError(f"{path}:{lines[subjects.index('')]}: empty subject id")
    x, c, y = (
        _floats(path, column, raw, lines)
        for column, raw in zip(REQUIRED_COLUMNS[1:], values[1:])
    )
    # head[k] is the row on which row k's subject first appears
    first_row: dict[str, int] = {}
    head = np.array([first_row.setdefault(s, k) for k, s in enumerate(subjects)])
    changed = np.flatnonzero(c != c[head])
    if changed.size:
        k = changed[0]
        raise DataFormatError(
            f"{path}:{lines[k]}: subject {subjects[k]!r} has inconsistent c "
            f"({float(c[k])!r} after {float(c[head[k]])!r})"
        )
    # rows ordered by subject in order of first appearance, then by row
    order = np.argsort(head, kind="stable")
    firsts = list(first_row.values())
    return Dataset.from_columns(first_row, np.bincount(head)[firsts], c[firsts], x[order], y[order])
