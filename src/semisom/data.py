"""Dataset ingestion, normalization, label masking and fold assignment.

Two on-disk formats are supported: a restricted ARFF subset (numeric
feature attributes plus one nominal class attribute, ``%`` comments,
case-insensitive keywords) and headered CSV, both UTF-8, a leading byte
order mark skipped. Patterns are kept as a float matrix; labels are
integer ids into ``class_names`` with ``NO_CLASS`` marking unlabeled rows.

One table reader and one row reader serve both formats; a format keeps
only its header and its class rule, which maps a label field to a class
id. The table reader, ``_read_table``, hands the body to the compiled
scanner, ``_kernel.scan``, in one pass; it accepts a strict subset of CSV
and of ``float()``'s spellings, and raises ``ValueError`` for anything
else, or when no library is loaded. The row reader, ``_read_rows``, then
reads the records ``csv`` splits with ``float()``, and is the reference:
the two give the same data bit for bit wherever the scanner accepts a
file.
"""

from __future__ import annotations

import codecs
import contextlib
import csv
import re
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import _kernel
from .model import NO_CLASS


class DataFormatError(ValueError):
    """Raised for malformed dataset files."""


@contextlib.contextmanager
def _utf8_text(path):
    """Raise ``DataFormatError`` naming ``path`` for a ``UnicodeDecodeError``
    inside, which reading a file that is not UTF-8 text raises."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text: {exc}") from None


@dataclass(frozen=True)
class NormStats:
    """Per-dimension ranges recorded when a dataset was normalized."""

    mins: np.ndarray
    maxs: np.ndarray


@dataclass(frozen=True)
class Dataset:
    patterns: np.ndarray
    labels: np.ndarray
    class_names: tuple[str, ...]
    dim_names: tuple[str, ...]
    norm_stats: NormStats | None = None

    def __post_init__(self):
        object.__setattr__(self, "patterns",
                           np.asarray(self.patterns, dtype=float))
        object.__setattr__(self, "labels",
                           np.asarray(self.labels, dtype=np.int64))
        if self.patterns.ndim != 2:
            raise ValueError("patterns must be a 2-D matrix")
        if len(self.labels) != len(self.patterns):
            raise ValueError("labels and patterns disagree in length")

    def __len__(self) -> int:
        return len(self.patterns)

    @property
    def dim(self) -> int:
        return self.patterns.shape[1]

    @property
    def n_labeled(self) -> int:
        return int(np.count_nonzero(self.labels != NO_CLASS))

    def subset(self, indices: np.ndarray) -> Dataset:
        return replace(self, patterns=self.patterns[indices],
                       labels=self.labels[indices])


@dataclass(frozen=True)
class FoldPlan:
    """Cross-validation assignment: one fold index per pattern per repeat."""

    repeats: int
    k: int
    assignments: np.ndarray  # shape (repeats, n_patterns)

    def test_indices(self, repeat: int, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments[repeat] == fold)

    def train_indices(self, repeat: int, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments[repeat] != fold)

    def iter_folds(self):
        for repeat in range(self.repeats):
            for fold in range(self.k):
                yield repeat, fold


_NOMINAL_RE = re.compile(r"^\{(.*)\}$")
# An attribute declaration: a quoted name (spaces allowed) or a bare one,
# then the type.
_ATTRIBUTE_RE = re.compile(r"""('[^']*'|"[^"]*"|[^\s'"]\S*)\s+(\S.*)$""")


def _strip_quotes(token: str) -> str:
    if len(token) >= 2 and token[0] == token[-1] and token[0] in "'\"":
        return token[1:-1]
    return token


def _require_finite(path, patterns: np.ndarray,
                    rows: list[tuple[int, list[str]]],
                    names: list[str]) -> None:
    """Reject ``nan``/``inf`` values, naming the first line holding one."""
    if np.isfinite(patterns).all():
        return
    r, c = np.argwhere(~np.isfinite(patterns))[0]
    raise DataFormatError(
        f"{path}:{rows[r][0]}: non-finite value {patterns[r, c]} in "
        f"{names[c]!r}")


def load_arff(path) -> Dataset:
    """Load the ARFF subset: numeric attributes plus one nominal class.

    The class attribute is the one named ``class`` (any case) or, failing
    that, the last declared attribute, which must be nominal. Any other
    nominal attribute is rejected. Malformed lines, ``nan`` and ``inf``
    included, raise ``DataFormatError`` carrying the offending line number.
    """
    path = Path(path)
    attrs: list[tuple[str, list[str] | None]] = []  # (name, nominal values)
    lines: list[tuple[int, str]] = []  # data lines: (line number, text)
    in_data = False
    with _utf8_text(path), path.open(encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("%"):
                continue
            if not in_data and line.startswith("@"):
                head, _, rest = line.partition(" ")
                keyword = head.lower()
                if keyword == "@relation":
                    continue
                if keyword == "@data":
                    in_data = True
                    continue
                if keyword == "@attribute":
                    decl = _ATTRIBUTE_RE.match(rest.strip())
                    if decl is None:
                        raise DataFormatError(
                            f"{path}:{lineno}: malformed attribute declaration")
                    name = _strip_quotes(decl.group(1))
                    spec = decl.group(2).strip()
                    nominal = _NOMINAL_RE.match(spec)
                    if nominal:
                        values = [_strip_quotes(v.strip())
                                  for v in nominal.group(1).split(",")]
                        attrs.append((name, values))
                    elif spec.lower() in ("numeric", "real", "integer"):
                        attrs.append((name, None))
                    else:
                        raise DataFormatError(
                            f"{path}:{lineno}: unsupported attribute type "
                            f"{spec!r}")
                    continue
                raise DataFormatError(
                    f"{path}:{lineno}: unknown directive {head!r}")
            if in_data:
                lines.append((lineno, line))
            else:
                raise DataFormatError(
                    f"{path}:{lineno}: data before @data section")
    if not attrs:
        raise DataFormatError(f"{path}: no attribute declarations")

    class_idx = next((i for i, (name, _) in enumerate(attrs)
                      if name.lower() == "class"), len(attrs) - 1)
    class_name, class_values = attrs[class_idx]
    if class_values is None:
        raise DataFormatError(
            f"{path}: class attribute {class_name!r} is not nominal")
    for name, values in attrs:
        if values is not None and name != class_name:
            raise DataFormatError(
                f"{path}: non-numeric feature attribute {name!r}")
    feature_idx = [i for i in range(len(attrs)) if i != class_idx]
    if not feature_idx:
        raise DataFormatError(f"{path}: no numeric feature attributes")
    if not lines:
        raise DataFormatError(f"{path}: no data rows")

    value_ids = {v: i for i, v in enumerate(class_values)}

    def class_id(field: str) -> int:
        value = _strip_quotes(field.strip())
        if value not in value_ids:
            raise ValueError(f"undeclared class value {value!r}")
        return value_ids[value]

    names = [name for name, _ in attrs]
    try:
        # The lines are stripped and hold no line break: one record each.
        patterns, labels = _read_table(
            "\n".join(line for _, line in lines).encode("utf-8"), 0,
            len(attrs), class_idx, class_id)
    except ValueError:
        rows = [(lineno, next(csv.reader([line]))) for lineno, line in lines]
        patterns, labels = _read_rows(path, rows, names, class_idx, class_id,
                                      "attribute")
    return Dataset(
        patterns=patterns,
        labels=labels,
        class_names=tuple(class_values),
        dim_names=tuple(names[i] for i in feature_idx),
    )


def _read_table(text: bytes, start: int, width: int, class_idx: int | None,
                class_id):
    """Patterns and label ids of the records of ``text[start:]``, in one
    pass of the compiled scanner; ``class_id`` maps each distinct label
    field, unquoted, to its id.

    Raises ``ValueError`` for any text the row reader might read
    differently: text the scanner refuses (another field count, a quote
    left open, a number outside its grammar or not finite), no records, a
    label field ``class_id`` refuses, and any text when no library is
    loaded. The caller then hands the records to ``_read_rows``.
    """
    patterns, spans = _kernel.scan(text, start, width, class_idx)
    if not len(patterns):
        raise ValueError("no data rows")
    if class_idx is None:
        return patterns, np.full(len(patterns), NO_CLASS, dtype=np.int64)
    fields, codes = _label_fields(text, spans)
    ids = [class_id(field) for field in fields]
    return patterns, np.array(ids, dtype=np.int64)[codes]


def _label_fields(text: bytes, spans: np.ndarray):
    """The distinct label fields of the scanned records, unquoted as
    ``csv`` unquotes them, in order of first appearance, and each record's
    index into them. Raises ``UnicodeDecodeError`` for a field that is not
    UTF-8."""
    tokens = list(map(text.__getitem__, map(slice, *spans.T.tolist())))
    seen = {token: i for i, token in enumerate(dict.fromkeys(tokens))}
    codes = np.fromiter(map(seen.__getitem__, tokens), dtype=np.int64,
                        count=len(tokens))
    fields = [(token[1:-1].replace(b'""', b'"') if token[:1] == b'"'
               else token).decode("utf-8") for token in seen]
    return fields, codes


def _read_rows(path, rows: list[tuple[int, list[str]]], names: list[str],
               class_idx: int | None, class_id, noun: str):
    """Patterns and label ids of the ``(line number, fields)`` records,
    with ``float()`` per cell and ``class_id`` per label field.

    The reference for ``_read_table``. Errors name the line: a record of
    another width than ``names``, then its cells left to right, then its
    label (the ``ValueError`` of ``class_id``), and last the first value
    that is not finite.
    """
    feature_idx = [i for i in range(len(names)) if i != class_idx]
    patterns = np.empty((len(rows), len(feature_idx)))
    labels = np.full(len(rows), NO_CLASS, dtype=np.int64)
    for r, (lineno, fields) in enumerate(rows):
        if len(fields) != len(names):
            raise DataFormatError(
                f"{path}:{lineno}: expected {len(names)} fields, "
                f"got {len(fields)}")
        for c, i in enumerate(feature_idx):
            try:
                patterns[r, c] = float(fields[i])
            except ValueError:
                raise DataFormatError(
                    f"{path}:{lineno}: non-numeric value {fields[i]!r} in "
                    f"{noun} {names[i]!r}") from None
        if class_idx is not None:
            try:
                labels[r] = class_id(fields[class_idx])
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: {exc}") from None
    _require_finite(path, patterns, rows, [names[i] for i in feature_idx])
    return patterns, labels


def load_csv(path, label_column: str | None = None) -> Dataset:
    """Load a headered numeric CSV, optionally with one label column.

    Without an explicit ``label_column`` a column named ``class`` (any
    case) is used when present; otherwise every row is unlabeled. Class
    ids follow first appearance order. Malformed lines, ``nan`` and ``inf``
    included, raise ``DataFormatError`` carrying the offending line number.
    """
    path = Path(path)
    try:
        return _read_csv_table(path, label_column)
    except ValueError:
        # The scanner refused the file: the row reader decides, and names
        # the bad line if there is one.
        with _utf8_text(path):
            return _read_csv_rows(path, label_column)


# A record of the scanner's grammar: fields without a quote, or quoted
# from end to end with "" for a quote, and no line break but its end.
_FIELD = rb'(?:"(?:[^"\r\n]|"")*"|[^",\r\n]*)'
_RECORD_RE = re.compile(rb"%s(?:,%s)*\r?\n?" % (_FIELD, _FIELD))


def _read_csv_table(path: Path, label_column: str | None) -> Dataset:
    """Read the header with ``csv`` and the body with ``_read_table``.

    The header is the first non-empty record. Raises ``ValueError`` for
    any file the row reader might read differently: a header outside the
    scanner's grammar, text that is not UTF-8, and whatever
    ``_read_table`` refuses.
    """
    raw = path.read_bytes()
    start = len(codecs.BOM_UTF8) if raw.startswith(codecs.BOM_UTF8) else 0
    while raw.startswith((b"\n", b"\r\n"), start):
        start = raw.index(b"\n", start) + 1
    end = raw.find(b"\n", start) + 1 or len(raw)
    line = raw[start:end]
    if not line or not _RECORD_RE.fullmatch(line):
        raise ValueError("no header the scanner reads")
    header, class_idx = _csv_columns(
        path, next(csv.reader([line.decode("utf-8")])), label_column)
    return _csv_dataset(header, class_idx, lambda class_id: _read_table(
        raw, end, len(header), class_idx, class_id))


def _csv_columns(path, header: list[str], label_column: str | None):
    """Stripped header and the index of the label column or None."""
    header = [h.strip() for h in header]
    if label_column is not None:
        if label_column not in header:
            raise DataFormatError(
                f"{path}: no column named {label_column!r}")
        class_idx = header.index(label_column)
    else:
        class_idx = next((i for i, h in enumerate(header)
                          if h.lower() == "class"), None)
    if len(header) <= (class_idx is not None):  # no column but the label
        raise DataFormatError(f"{path}: no feature columns")
    return header, class_idx


def _csv_dataset(header: list[str], class_idx: int | None,
                 read) -> Dataset:
    """The dataset of the patterns and labels ``read(class_id)`` returns,
    under the CSV class rule: label fields, stripped, numbered in order of
    first appearance."""
    ids: dict[str, int] = {}
    patterns, labels = read(
        lambda field: ids.setdefault(field.strip(), len(ids)))
    return Dataset(
        patterns=patterns,
        labels=labels,
        class_names=tuple(ids),
        dim_names=tuple(h for i, h in enumerate(header) if i != class_idx),
    )


def _read_csv_rows(path: Path, label_column: str | None) -> Dataset:
    """Read the file with ``csv`` and the body with ``_read_rows``; errors
    name the line a record starts on."""
    with path.open(encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        table, lineno = [], 1
        for fields in reader:
            if fields:
                table.append((lineno, fields))
            lineno = reader.line_num + 1
    if not table:
        raise DataFormatError(f"{path}: empty file")
    header, class_idx = _csv_columns(path, table[0][1], label_column)
    if len(table) == 1:
        raise DataFormatError(f"{path}: no data rows")
    return _csv_dataset(header, class_idx, lambda class_id: _read_rows(
        path, table[1:], header, class_idx, class_id, "column"))


def normalize(ds: Dataset) -> Dataset:
    """Scale every dimension to [0, 1]; constant dimensions map to 0.5.

    The observed ranges are recorded so test patterns can be scaled the
    same way later. Already-normalized data passes through unchanged.
    """
    if len(ds) < 1:
        raise ValueError("cannot normalize an empty dataset")
    mins = ds.patterns.min(axis=0)
    maxs = ds.patterns.max(axis=0)
    stats = NormStats(mins=mins, maxs=maxs)
    return replace(ds, patterns=apply_norm(stats, ds.patterns),
                   norm_stats=stats)


def apply_norm(stats: NormStats, patterns: np.ndarray) -> np.ndarray:
    """Scale ``patterns`` with previously recorded ranges, clamped to [0, 1].

    A range wider than the largest float, such as ``[-1e308, 1e308]``, is
    scaled by halves, ``(x/2 - min/2) / (max/2 - min/2)``. A value far
    outside a narrow (say subnormal) range scales to an infinity, which
    is clamped as any value outside the range is.
    """
    patterns = np.asarray(patterns, dtype=float)
    with np.errstate(over="ignore"):
        span = stats.maxs - stats.mins
        scaled = patterns - stats.mins
        wide = np.isinf(span)
        if wide.any():
            half = stats.mins[wide] / 2
            span[wide] = stats.maxs[wide] / 2 - half
            scaled[..., wide] = patterns[..., wide] / 2 - half
        scaled /= np.where(span > 0.0, span, 1.0)
    scaled = np.where(span > 0.0, scaled, 0.5)
    return np.clip(scaled, 0.0, 1.0, out=scaled)


def mask_labels(ds: Dataset, fraction: float, seed: int) -> Dataset:
    """Keep labels on a random ``fraction`` of patterns, hide the rest.

    ``round(fraction * n)`` labels survive, at least one whenever the
    fraction is positive. The input must be fully labeled; it is left
    untouched and keeps serving as ground truth.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must lie in [0, 1], got {fraction}")
    if np.any(ds.labels == NO_CLASS):
        raise ValueError("mask_labels requires a fully labeled dataset")
    n = len(ds)
    kept = int(round(fraction * n))
    if fraction > 0.0:
        kept = max(kept, 1)
    rng = np.random.default_rng(seed)
    chosen = rng.choice(n, size=kept, replace=False)
    labels = np.full(n, NO_CLASS, dtype=np.int64)
    labels[chosen] = ds.labels[chosen]
    return replace(ds, labels=labels)


def kfold_split(ds: Dataset, repeats: int, k: int, seed: int) -> FoldPlan:
    """Assign every pattern to one of ``k`` folds, ``repeats`` times over.

    Each repeat shuffles independently; fold sizes differ by at most one.
    Raises ``ValueError`` for fewer than two folds or one repeat.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    n = len(ds)
    if n < k:
        raise ValueError(f"cannot split {n} patterns into {k} folds")
    rng = np.random.default_rng(seed)
    assignments = np.empty((repeats, n), dtype=np.int64)
    for repeat in range(repeats):
        order = rng.permutation(n)
        for fold, chunk in enumerate(np.array_split(order, k)):
            assignments[repeat, chunk] = fold
    return FoldPlan(repeats=repeats, k=k, assignments=assignments)
