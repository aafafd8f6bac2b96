"""Dataset ingestion, normalization, label masking and fold assignment.

Two on-disk formats are supported: a restricted ARFF subset (numeric
feature attributes plus one nominal class attribute, ``%`` comments,
case-insensitive keywords) and headered CSV. Patterns are kept as a float
matrix; labels are integer ids into ``class_names`` with ``NO_CLASS``
marking unlabeled rows.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import re
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

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
    with _utf8_text(path), path.open(encoding="utf-8") as fh:
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
    try:
        patterns, labels = _read_arff_table(lines, len(attrs), class_idx,
                                            value_ids)
    except ValueError:
        # The C reader refused the lines, or they hold something the row
        # reader may read differently or reject: the row reader decides,
        # and names the bad line if there is one.
        patterns, labels = _read_arff_rows(path, lines, attrs, class_idx,
                                           feature_idx, value_ids)
    return Dataset(
        patterns=patterns,
        labels=labels,
        class_names=tuple(class_values),
        dim_names=tuple(attrs[i][0] for i in feature_idx),
    )


def _read_arff_table(lines: list[tuple[int, str]], width: int,
                     class_idx: int, value_ids: dict[str, int]):
    """Patterns and label ids of the ARFF data lines, in one numpy pass.

    Raises ``ValueError`` for any line the row reader might read
    differently or reject: one the C reader refuses (another field count
    included), a quoted field spanning lines, the control characters of
    ``_FLOAT_REFUSES``, non-finite values and undeclared class values.
    """
    text = [line for _, line in lines]
    if any(c.decode() in line for line in text for c in _FLOAT_REFUSES):
        raise ValueError("control character in the data")
    fields = [("lo", float, (class_idx,)), ("cls", object),
              ("hi", float, (width - 1 - class_idx,))]
    table = np.loadtxt(text, dtype=fields, delimiter=",", comments=None,
                       quotechar='"', ndmin=1)
    if len(table) != len(text):
        raise ValueError("a quoted field spans lines")
    patterns = np.concatenate([table["lo"], table["hi"]], axis=1)
    if not np.isfinite(patterns).all():
        raise ValueError("non-finite value")
    tokens, inverse = np.unique(table["cls"], return_inverse=True)
    ids = [value_ids.get(_strip_quotes(t.strip()), -1)
           for t in tokens.tolist()]
    if -1 in ids:
        raise ValueError("undeclared class value")
    return patterns, np.array(ids, dtype=np.int64)[inverse]


def _read_arff_rows(path, lines: list[tuple[int, str]],
                    attrs: list[tuple[str, list[str] | None]],
                    class_idx: int, feature_idx: list[int],
                    value_ids: dict[str, int]):
    """Patterns and label ids line by line, with ``csv`` and ``float()``;
    errors name the line."""
    rows = [(lineno, next(csv.reader([line]))) for lineno, line in lines]
    patterns = np.empty((len(rows), len(feature_idx)))
    labels = np.empty(len(rows), dtype=np.int64)
    for r, (lineno, fields) in enumerate(rows):
        if len(fields) != len(attrs):
            raise DataFormatError(
                f"{path}:{lineno}: expected {len(attrs)} fields, "
                f"got {len(fields)}")
        for c, i in enumerate(feature_idx):
            try:
                patterns[r, c] = float(fields[i])
            except ValueError:
                raise DataFormatError(
                    f"{path}:{lineno}: non-numeric value {fields[i]!r} in "
                    f"attribute {attrs[i][0]!r}") from None
        token = _strip_quotes(fields[class_idx].strip())
        if token not in value_ids:
            raise DataFormatError(
                f"{path}:{lineno}: undeclared class value {token!r}")
        labels[r] = value_ids[token]
    _require_finite(path, patterns, rows, [attrs[i][0] for i in feature_idx])
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
        # The C reader refused the file, or accepted something the row
        # reader may read differently: the row reader decides, and names
        # the bad line if there is one.
        with _utf8_text(path):
            return _read_csv_rows(path, label_column)


# Around a number numpy's C reader skips U+001C..U+001F as whitespace;
# ``float()`` refuses them.
_FLOAT_REFUSES = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _read_csv_table(path: Path, label_column: str | None) -> Dataset:
    """Parse the body with numpy's C reader, in one pass and no Python loop.

    Raises ``ValueError`` for any file the row reader might read
    differently: one the C reader refuses (rows of another width than the
    header included), non-finite values, no data rows, and the characters
    above.
    """
    raw = path.read_bytes()
    if any(c in raw for c in _FLOAT_REFUSES):
        raise ValueError("control character in the file")
    with io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8",
                          newline="") as fh:
        header = next((row for row in csv.reader(fh) if row), None)
        if header is None:
            raise ValueError("empty file")
        header, class_idx, feature_idx = _csv_columns(path, header,
                                                      label_column)
        # Without a data line numpy would warn; the row reader reports it.
        first = next((line for line in fh if line.strip("\r\n")), None)
        if first is None:
            raise ValueError("no data rows")
        # One structured row per line: the C reader then insists on the
        # header's column count.
        k = len(feature_idx) if class_idx is None else class_idx
        fields = [("lo", float, (k,))]
        if class_idx is not None:
            fields += [("cls", object), ("hi", float, (len(feature_idx) - k,))]
        table = np.loadtxt(itertools.chain((first,), fh), dtype=fields,
                           delimiter=",", comments=None, quotechar='"',
                           ndmin=1)
    if class_idx is None:
        patterns = table["lo"]
        labels = np.full(len(patterns), NO_CLASS, dtype=np.int64)
        class_names: tuple[str, ...] = ()
    else:
        patterns = np.concatenate([table["lo"], table["hi"]], axis=1)
        labels, class_names = _class_ids(table["cls"])
    if not np.isfinite(patterns).all():
        raise ValueError("non-finite value")
    return Dataset(
        patterns=patterns,
        labels=labels,
        class_names=class_names,
        dim_names=tuple(header[i] for i in feature_idx),
    )


def _class_ids(tokens: np.ndarray) -> tuple[np.ndarray, tuple[str, ...]]:
    """Ids of the stripped tokens, numbered in order of first appearance."""
    raw, first, inverse = np.unique(tokens, return_index=True,
                                    return_inverse=True)
    names = [token.strip() for token in raw.tolist()]
    ids: dict[str, int] = {}
    for k in np.argsort(first).tolist():
        ids.setdefault(names[k], len(ids))
    return (np.array([ids[name] for name in names], dtype=np.int64)[inverse],
            tuple(ids))


def _csv_columns(path, header: list[str], label_column: str | None):
    """Stripped header, index of the label column or None, feature indices."""
    header = [h.strip() for h in header]
    if label_column is not None:
        if label_column not in header:
            raise DataFormatError(
                f"{path}: no column named {label_column!r}")
        class_idx = header.index(label_column)
    else:
        class_idx = next((i for i, h in enumerate(header)
                          if h.lower() == "class"), None)
    feature_idx = [i for i in range(len(header)) if i != class_idx]
    if not feature_idx:
        raise DataFormatError(f"{path}: no feature columns")
    return header, class_idx, feature_idx


def _read_csv_rows(path: Path, label_column: str | None) -> Dataset:
    """Parse row by row with ``csv`` and ``float()``; errors name the line."""
    with path.open(encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        table = [(lineno, row) for lineno, row in enumerate(reader, start=1)
                 if row]
    if not table:
        raise DataFormatError(f"{path}: empty file")
    header, class_idx, feature_idx = _csv_columns(path, table[0][1],
                                                  label_column)
    body = table[1:]
    if not body:
        raise DataFormatError(f"{path}: no data rows")

    class_names: list[str] = []
    value_ids: dict[str, int] = {}
    patterns = np.empty((len(body), len(feature_idx)))
    labels = np.full(len(body), NO_CLASS, dtype=np.int64)
    for r, (lineno, fields) in enumerate(body):
        if len(fields) != len(header):
            raise DataFormatError(
                f"{path}:{lineno}: expected {len(header)} fields, "
                f"got {len(fields)}")
        for c, i in enumerate(feature_idx):
            try:
                patterns[r, c] = float(fields[i])
            except ValueError:
                raise DataFormatError(
                    f"{path}:{lineno}: non-numeric value {fields[i]!r} in "
                    f"column {header[i]!r}") from None
        if class_idx is not None:
            token = fields[class_idx].strip()
            if token not in value_ids:
                value_ids[token] = len(class_names)
                class_names.append(token)
            labels[r] = value_ids[token]
    _require_finite(path, patterns, body, [header[i] for i in feature_idx])
    return Dataset(
        patterns=patterns,
        labels=labels,
        class_names=tuple(class_names),
        dim_names=tuple(header[i] for i in feature_idx),
    )


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
    scaled by halves, ``(x/2 - min/2) / (max/2 - min/2)``.
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
