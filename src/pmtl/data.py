"""Dataset ingestion, alignment, scaling, batching, and synthetic data.

File contracts
--------------
features CSV      header ``id,f0,...,f{d-1}``, UTF-8, ``.`` decimal point.
features binary   magic ``PMTL``, version u16, n u32, d u32, then per id a
                  u16 byte length + UTF-8 bytes, then n*d float64 values
                  row-major; everything little-endian.
labels CSV        header ``id,Amusement,...,Triumph,age,country`` with the
                  ten emotion columns in the canonical order below; emotion
                  values in [0, 1], age an integer, country one of the four
                  exact tokens in COUNTRIES.
predictions CSV   same columns as labels, but age is a float value read with
                  the emotions, which are not range-checked.

Sample ids are unique; the canonical ordering everywhere is lexicographic
by id, so results never depend on file row order. ``_read_rows`` reads all
three CSV layouts; the age and country fields of labels are checked once, after.

Memory contract: each feature matrix is held once, from load to training.
The binary loader checks the payload size against the header, then reads the
file into one float64 (n, d) array; the CSV loader counts the rows, then fills
one (n, d) array a block of BLOCK_VALUES values at a time, with scratch of
about 80 bytes per value of a block. Only the csv-module loop it falls back
on, which reports value errors by line, holds rows plus a stacked copy.
Joining keeps a loaded array whose ids are sorted and gathers a sorted copy
otherwise. Standardizing writes in place; the z-score fit needs a small scratch.
Finiteness checks (``all_finite``) take one sum of squares and, only if it
overflows, scan fixed blocks, with no flag per value.
A sweep holds one cell's features at a time: it loads a cell's files just
before the cell runs, and drops them before it loads another cell's. A
standardization sweep keeps the raw data and standardizes one copy per cell.
Predicting holds one block of at most 255 rows and no caches (``model.predict``).
Training holds no copy of a batch: ``train_run`` reorders the train rows in
place into each epoch's shuffled order (``permute_rows``, one row of scratch),
so a batch is a slice of them, and puts them back in their order before it
returns or raises. ``linear_backward`` forms xᵀ·dy in blocks of 1024 to 2047
weight rows, so OpenBLAS packs one block of xᵀ at a time, not the batch.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import json
import math
import os
import struct
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .decimals import parse_decimals
from .errors import ConfigError, DataError, DataFormatError, ShapeError, check_fields
from .rng import RngStream

EMOTIONS = (
    "Amusement", "Awe", "Awkwardness", "Distress", "Excitement",
    "Fear", "Horror", "Sadness", "Surprise", "Triumph",
)
COUNTRIES = ("USA", "China", "SouthAfrica", "Venezuela")
COUNTRY_TO_ID = {name: i for i, name in enumerate(COUNTRIES)}

LABEL_HEADER = ("id",) + EMOTIONS + ("age", "country")

FEATURE_MAGIC = b"PMTL"
FEATURE_VERSION = 1
FEATURE_HEADER = "<HII"  # version, n, d

STANDARDIZE_MODES = ("none", "zscore", "minmax")


def check_mode(mode) -> str:
    """``mode``, if it is one of STANDARDIZE_MODES; else ConfigError."""
    if mode not in STANDARDIZE_MODES:
        raise ConfigError(f"standardize mode must be one of {STANDARDIZE_MODES}, got {mode!r}")
    return mode


def fmt_float(x: float) -> str:
    """Shortest decimal string that round-trips the float64 exactly."""
    return repr(float(x))


@contextlib.contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Write ``path`` atomically: yield a temporary file in the same
    directory and move it over ``path`` with ``os.replace`` only once the
    block has finished. If the block raises, the temporary file is deleted
    and an existing ``path`` is left as it was."""
    tmp = f"{os.fspath(path)}.{os.urandom(4).hex()}.tmp"
    try:
        with open(tmp, mode.replace("w", "x"), **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def write_text(text: str, path) -> None:
    with atomic_open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def write_json(obj, path) -> None:
    """``obj`` as indented JSON with sorted keys and a final newline."""
    with atomic_open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- tables -----------------------------------------------------------------


@dataclass(frozen=True)
class FeatureTable:
    ids: tuple[str, ...]
    features: np.ndarray  # (n, d) float64

    def __post_init__(self):
        if len(self.ids) != self.features.shape[0]:
            raise ShapeError("FeatureTable", (len(self.ids),), self.features.shape)

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class LabelTable:
    ids: tuple[str, ...]
    emotion: np.ndarray   # (n, 10) in [0, 1]
    age: np.ndarray       # (n,) int64 years
    country: np.ndarray   # (n,) int64 class ids

    def __len__(self) -> int:
        return len(self.ids)

    def index(self) -> dict[str, int]:
        return {sid: i for i, sid in enumerate(self.ids)}


@dataclass(frozen=True)
class AgeScaler:
    """Standardization of age targets, fit on training labels only."""

    mean: float
    std: float

    def scale(self, years):
        return (np.asarray(years, dtype=np.float64) - self.mean) / self.std

    def descale(self, scaled):
        return np.asarray(scaled, dtype=np.float64) * self.std + self.mean

    @classmethod
    def fit(cls, years) -> "AgeScaler":
        years = np.asarray(years, dtype=np.float64)
        std = float(years.std())
        return cls(mean=float(years.mean()), std=std if std > 0.0 else 1.0)


@dataclass(frozen=True)
class Standardizer:
    """Per-feature affine transform fit on the train split.

    zscore: (x - mean) / std; minmax: maps the train range onto [-1, 1].
    Zero-spread features are centered but not scaled and recorded in
    ``degenerate_columns``. A center or spread that overflows is a DataError.
    """

    mode: str
    center: np.ndarray
    scale: np.ndarray
    degenerate_columns: tuple[int, ...] = ()

    def apply(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """(x - center) / scale, into ``out`` (which may be ``x``) if given. On
        a split the fit did not see this can overflow: DataError names the
        first column that did."""
        out = np.empty_like(x) if out is None else out
        try:
            with np.errstate(over="raise"):
                np.subtract(x, self.center, out=out)
                out /= self.scale
        except FloatingPointError:  # raised once the whole operation has run
            column = int(np.argmax(np.isinf(out).any(axis=0)))
            raise DataError(f"feature f{column}: values overflow the {self.mode} "
                            "standardization") from None
        return out

    @classmethod
    def fit(cls, train_x: np.ndarray, mode: str) -> "Standardizer":
        check_mode(mode)
        d = train_x.shape[1]
        if mode == "none":
            return cls(mode, np.zeros(d), np.ones(d))
        with np.errstate(over="ignore", invalid="ignore"):  # checked for finiteness below
            if mode == "zscore":
                center = train_x.mean(axis=0)
                # numpy sums a lone or a non-C-contiguous column pairwise
                rowwise = d > 1 and train_x.flags.c_contiguous
                spread = _column_std(train_x, center) if rowwise else train_x.std(axis=0)
            else:  # minmax onto [-1, 1]
                lo = train_x.min(axis=0)
                hi = train_x.max(axis=0)
                center = (lo + hi) / 2.0
                spread = (hi - lo) / 2.0
        bad = ~(np.isfinite(center) & np.isfinite(spread))
        if bad.any():
            raise DataError(f"feature f{int(np.argmax(bad))}: values overflow the {mode} fit")
        degenerate = spread == 0.0
        scale = np.where(degenerate, 1.0, spread)
        return cls(mode, center, scale, tuple(np.nonzero(degenerate)[0].tolist()))


FIT_CHUNK = 1 << 15  # elements of scratch per block of the z-score fit (256 KiB)


def all_finite(a: np.ndarray) -> bool:
    """``np.isfinite(a).all()`` for a contiguous ``a``, with no flag per
    element: a finite sum of squares, which cannot cancel, answers True; if
    it overflows, a scratch of FIT_CHUNK flags scans the blocks."""
    flat = a.reshape(-1)
    with np.errstate(all="ignore"):  # the sum may overflow, and callers may raise on that
        if math.isfinite(np.dot(flat, flat)):
            return True
    scratch = np.empty(min(flat.size, FIT_CHUNK), dtype=bool)
    blocks = (flat[i:i + FIT_CHUNK] for i in range(0, flat.size, FIT_CHUNK))
    return all(np.isfinite(block, out=scratch[:block.size]).all() for block in blocks)


def _column_std(x: np.ndarray, center: np.ndarray) -> np.ndarray:
    """``x.std(axis=0)`` of a C-contiguous x with d > 1, bit for bit, without
    its (n, d) temporary. numpy adds such rows in order along axis 0, so a
    reduction over a block whose row 0 carries the running sum and whose
    other rows hold the next squared deviations continues the sequence."""
    n, d = x.shape
    k = max(1, FIT_CHUNK // d - 1)
    scratch = np.empty((k + 1, d))
    total = np.zeros(d)
    for start in range(0, n, k):
        rows = x[start:start + k]
        block = scratch[:len(rows) + 1]
        block[0] = total
        squares = block[1:]
        np.subtract(rows, center, out=squares)
        squares *= squares
        np.add.reduce(block, axis=0, out=total)
    total /= n
    return np.sqrt(total, out=total)


@dataclass(frozen=True)
class SplitPart:
    """One aligned partition: features plus (optionally) labels."""

    ids: tuple[str, ...]
    x: np.ndarray
    y_emotion: np.ndarray | None
    y_age: np.ndarray | None
    y_country: np.ndarray | None

    @property
    def labeled(self) -> bool:
        return self.y_emotion is not None

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class SplitDataset:
    train: SplitPart
    val: SplitPart
    age_scaler: AgeScaler
    standardizer: Standardizer | None = None

    @property
    def dim(self) -> int:
        return self.train.x.shape[1]


# -- CSV / binary loaders ---------------------------------------------------


def _parse_float(token: str, path, line_no, col):
    try:
        v = float(token)
    except ValueError:
        raise DataFormatError(f"column {col!r}: cannot parse {token!r} as float", path, line_no)
    if not math.isfinite(v):
        raise DataFormatError(f"column {col!r}: non-finite value {token!r}", path, line_no)
    return v


@contextlib.contextmanager
def _open_csv(path):
    """Yield ``(header, reader)`` for the UTF-8 CSV file at ``path``. An
    empty file, bytes that are not UTF-8, or a record the csv module rejects
    (a field over its size limit) raise DataFormatError."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise DataFormatError("empty file", path, 1)
            yield header, reader
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"not valid UTF-8: {exc}", path) from None
    except csv.Error as exc:
        raise DataFormatError(f"malformed CSV: {exc}", path, reader.line_num) from None


def _csv_records(reader, n_fields: int, path):
    """``(line number, row)`` of each record after the header, blank rows
    skipped. A row without ``n_fields`` fields or with a repeated id raises
    DataFormatError."""
    seen = set()
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != n_fields:
            raise DataFormatError(f"expected {n_fields} fields, got {len(row)}", path, line_no)
        if row[0] in seen:
            raise DataFormatError(f"duplicate id {row[0]!r}", path, line_no)
        seen.add(row[0])
        yield line_no, row


CSV_ONLY = '"\r'  # csv quoting, and a line end where the csv module splits a record
BLOCK_VALUES = 1 << 12  # values per block of the CSV pass


def _decimal_rows(path, d: int, tail: int = 0):
    """``(ids, values, tails)`` of the rows of the CSV file at ``path``: the
    ``d`` values after each id in one (n, d) array, filled by
    ``parse_decimals`` a block of lines at a time, and the last ``tail``
    fields of each line. None where the csv-module loop must read the file:
    a CSV_ONLY character, a line of other fields or with one over the csv
    limit, a duplicate id, invalid UTF-8, or a value that is not finite or
    that ``parse_decimals`` rejects."""
    ids, tails, limit = [], [], csv.field_size_limit()
    try:
        # a line of a wide table outgrows the default 8 KiB buffer, and readline slows
        with open(path, "rb", buffering=1 << 16) as fh:
            if b"\r" in fh.readline().rstrip(b"\r\n"):  # the header ends at a lone CR
                return None
            start, n, end = fh.tell(), 0, b"\n"
            for chunk in iter(lambda: fh.read(1 << 16), b""):
                n, end = n + chunk.count(b"\n"), chunk[-1:]
            values = np.empty((n + (end != b"\n"), d))
            fh.seek(start)
            k = max(1, BLOCK_VALUES // max(d, 1))
            for row in range(0, len(values), k):
                block = []
                for line in itertools.islice(fh, k):
                    sid, _, rest = line.rstrip(b"\r\n").partition(b",")
                    vals, *last = rest.rsplit(b",", tail)
                    if (not vals or len(last) != tail
                            or len(line) > limit and max(map(len, line.split(b","))) > limit):
                        return None
                    ids.append(sid.decode("utf-8"))
                    if tail:
                        tails.append([t.decode("utf-8") for t in last])
                    block.append(vals)
                parse_decimals(block, values[row:row + k].reshape(-1))
    except ValueError:  # UnicodeDecodeError included
        return None
    fields = "".join(ids) + "".join(itertools.chain.from_iterable(tails))
    if len(set(ids)) < len(ids) or any(c in fields for c in CSV_ONLY) or not all_finite(values):
        return None
    return ids, values, tails


def _csv_dim(path) -> int:
    """The width d of a features CSV, whose header must be ``id,f0..f{d-1}``."""
    with _open_csv(path) as (header, _):
        if not header or header[0] != "id":
            raise DataFormatError(f"first header column must be 'id', got {header[:1]}", path, 1)
        d = len(header) - 1
        if header != ["id"] + [f"f{j}" for j in range(d)]:
            raise DataFormatError(f"header must be id,f0..f{d - 1}", path, 1)
        return d


def _read_rows(path, n_values: int, tail: int = 0):
    """``(ids, values, tails)`` of the CSV at ``path``, from ``_decimal_rows``
    or, where it refuses the file, the csv-module loop, which gives every error:
    ``_parse_float`` on each of the ``n_values`` values, tail fields as strings."""
    fast = _decimal_rows(path, n_values, tail)
    if fast is not None:
        return fast
    ids, rows, tails = [], [], []
    with _open_csv(path) as (header, reader):
        for line_no, row in _csv_records(reader, 1 + n_values + tail, path):
            ids.append(row[0])
            rows.append(np.array([_parse_float(t, path, line_no, c)
                                  for t, c in zip(row[1:], header[1:1 + n_values])]))
            tails.append(row[1 + n_values:])
    return ids, np.array(rows, dtype=np.float64).reshape(len(ids), n_values), tails


def load_features_csv(path) -> FeatureTable:
    ids, features, _ = _read_rows(path, _csv_dim(path))
    return FeatureTable(ids=tuple(ids), features=features)


def save_features_csv(table: FeatureTable, path) -> None:
    with atomic_open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id"] + [f"f{j}" for j in range(table.dim)])
        for sid, row in zip(table.ids, table.features):
            writer.writerow([sid] + [fmt_float(v) for v in row])


def save_features_binary(table: FeatureTable, path) -> None:
    n, d = table.features.shape
    with atomic_open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack(FEATURE_HEADER, FEATURE_VERSION, n, d))
        for sid in table.ids:
            raw = sid.encode("utf-8")
            if len(raw) > 0xFFFF:
                raise DataError(f"id too long for binary format: {sid[:32]!r}...")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
        fh.write(np.ascontiguousarray(table.features, dtype="<f8").tobytes())


def read_header(head: bytes, magic: bytes, fmt: str, version: int, path) -> list:
    """The fields of a binary file's header ``head``: ``magic``, then the
    struct ``fmt``, whose first field is the format ``version``."""
    if head[:4] != magic:
        raise DataFormatError(f"bad magic {head[:4]!r}, expected {magic!r}", path)
    try:
        found, *fields = struct.unpack_from(fmt, head, 4)
    except struct.error:
        raise DataFormatError("truncated header", path) from None
    if found != version:
        raise DataFormatError(f"unsupported version {found}", path)
    return fields


def load_features_binary(path) -> FeatureTable:
    with open(path, "rb") as fh:
        n, d = read_header(fh.read(14), FEATURE_MAGIC, FEATURE_HEADER, FEATURE_VERSION, path)
        ids = []
        seen = set()
        for _ in range(n):
            prefix = fh.read(2)
            length = int.from_bytes(prefix, "little")
            raw = fh.read(length)
            if len(prefix) < 2 or len(raw) < length:
                raise DataFormatError("truncated id table", path)
            try:
                sid = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise DataFormatError("invalid UTF-8 in id table", path)
            if sid in seen:
                raise DataFormatError(f"duplicate id {sid!r}", path)
            seen.add(sid)
            ids.append(sid)
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        expected = n * d * 8
        if left != expected:
            raise DataFormatError(f"payload is {left} bytes, expected {expected}", path)
        features = np.empty((n, d), dtype="<f8")
        if fh.readinto(features) != expected:
            raise DataFormatError("truncated payload", path)
    if not all_finite(features):
        raise DataFormatError("non-finite feature values", path)
    return FeatureTable(ids=tuple(ids), features=features.astype(np.float64, copy=False))


def load_features(path) -> FeatureTable:
    """Dispatch on content: binary blob if the magic matches, else CSV."""
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head == FEATURE_MAGIC:
        return load_features_binary(path)
    return load_features_csv(path)


def feature_dim(path) -> int:
    """The width of the features file at ``path``, by the loaders' header
    checks alone: no row is read."""
    with open(path, "rb") as fh:
        head = fh.read(14)
    if head[:4] == FEATURE_MAGIC:
        return read_header(head, FEATURE_MAGIC, FEATURE_HEADER, FEATURE_VERSION, path)[1]
    return _csv_dim(path)


def _load_label_rows(path, age_kind):
    """(ids, emotion (n, 10), age (n,), country ids (n,)) of a file in the
    labels layout: for labels ``age_kind`` is ``int`` and the emotions lie
    in [0, 1]; for predictions it is ``float``, a value like the emotions.
    An age, country or emotion range error names the first bad row by id."""
    n_values = len(EMOTIONS) + (age_kind is float)
    with _open_csv(path) as (header, _):
        if tuple(header) != LABEL_HEADER:
            raise DataFormatError(f"header must be {','.join(LABEL_HEADER)}", path, 1)
    ids, values, tails = _read_rows(path, n_values, len(LABEL_HEADER) - 1 - n_values)
    try:
        ages = [int(t[0]) for t in tails] if age_kind is int else values[:, -1]
        countries = [COUNTRY_TO_ID[t[-1]] for t in tails]
    except (KeyError, ValueError):  # walk the rows to name the first bad one
        for sid, t in zip(ids, tails):
            try:
                if age_kind is int:
                    int(t[0])
            except ValueError:
                raise DataFormatError(f"id {sid!r}: age {t[0]!r} is not an integer", path)
            if t[-1] not in COUNTRY_TO_ID:
                raise DataFormatError(f"id {sid!r}: country {t[-1]!r} not in {COUNTRIES}", path)
        raise
    try:
        age = np.array(ages, dtype=np.int64 if age_kind is int else np.float64)
    except OverflowError:
        raise DataFormatError("age out of range", path) from None
    emotion = values[:, :len(EMOTIONS)].copy()
    bad = ((emotion < 0.0) | (emotion > 1.0)).any(axis=1)
    if age_kind is int and bad.any():
        raise DataFormatError(f"id {ids[int(np.argmax(bad))]!r}: emotion outside [0, 1]", path)
    return tuple(ids), emotion, age, np.array(countries, dtype=np.int64)


def load_labels_csv(path) -> LabelTable:
    return LabelTable(*_load_label_rows(path, int))


def load_predictions_csv(path):
    """(ids, emotion (n, 10), age_years (n,), country_ids (n,)) of a file in
    the labels layout whose ages may be fractional."""
    return _load_label_rows(path, float)


def _save_label_rows(path, ids, emotion, age_texts, country_ids) -> None:
    with atomic_open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LABEL_HEADER)
        for sid, emo, age, country in zip(ids, emotion, age_texts, country_ids):
            writer.writerow([sid, *map(fmt_float, emo), age, COUNTRIES[int(country)]])


def save_labels_csv(table: LabelTable, path) -> None:
    _save_label_rows(path, table.ids, table.emotion, (str(int(a)) for a in table.age),
                     table.country)


def save_predictions_csv(ids, emotion, age_years, country_ids, path) -> None:
    _save_label_rows(path, ids, emotion, map(fmt_float, age_years), country_ids)


# -- joining and scaling ----------------------------------------------------


def build_part(features: FeatureTable, labels: LabelTable | None, split: str) -> SplitPart:
    """The rows of ``features`` in id order, labeled if ``labels`` is given."""
    ids, x = features.ids, features.features
    if any(a >= b for a, b in zip(ids, ids[1:])):  # else already sorted: no copy
        order = np.argsort(np.array(ids, dtype=object))
        ids = tuple(ids[i] for i in order)
        x = x[order]
    if labels is None:
        return SplitPart(ids=ids, x=x, y_emotion=None, y_age=None, y_country=None)
    label_index = labels.index()
    missing = [sid for sid in ids if sid not in label_index]
    if missing:
        preview = ", ".join(missing[:10])
        more = "" if len(missing) <= 10 else f" (+{len(missing) - 10} more)"
        raise DataError(f"{split} split: no label for ids [{preview}]{more}")
    rows = np.array([label_index[sid] for sid in ids], dtype=np.int64)
    return SplitPart(
        ids=ids,
        x=x,
        y_emotion=labels.emotion[rows],
        y_age=labels.age[rows].astype(np.float64),
        y_country=labels.country[rows],
    )


def join_splits(features: dict[str, FeatureTable], labels: LabelTable) -> SplitDataset:
    """Align the train and val features with labels, in lexicographic id
    order, copying a table's rows only if its ids are unsorted. Every id
    must be labeled; the age scaler is fit on the train labels."""
    for required in ("train", "val"):
        if required not in features:
            raise DataError(f"missing {required!r} feature table")
    dims = {name: tbl.dim for name, tbl in features.items()}
    if len(set(dims.values())) != 1:
        raise DataError(f"feature dimensionality differs across splits: {dims}")
    if not len(features["train"]):
        raise DataError("empty train split")
    counts = Counter(sid for tbl in features.values() for sid in tbl.ids)
    dup = sorted(sid for sid, c in counts.items() if c > 1)
    if dup:
        raise DataError(f"splits share ids: {dup[:10]}")

    train = build_part(features["train"], labels, "train")
    val = build_part(features["val"], labels, "val")
    return SplitDataset(train=train, val=val, age_scaler=AgeScaler.fit(train.y_age))


def standardize(ds: SplitDataset, mode: str, copy: bool = False) -> SplitDataset:
    """Fit feature standardization on the train split and apply it to both
    splits in place, so ``ds`` is consumed, or with ``copy`` into new arrays
    (made once the fit's scratch is freed), leaving ``ds`` as it was."""
    std = Standardizer.fit(ds.train.x, mode)
    train, val = (replace(part, x=std.apply(part.x, out=None if copy else part.x))
                  for part in (ds.train, ds.val))
    return replace(ds, train=train, val=val, standardizer=std)


def batches(n: int, batch_size: int, rng: RngStream) -> list[np.ndarray]:
    """Shuffled minibatch index lists for one epoch; the last batch may be
    short. A batch size larger than n yields a single full batch."""
    order = rng.permutation(n)
    return [order[i:i + batch_size] for i in range(0, n, batch_size)]


def permute_rows(a: np.ndarray, p: np.ndarray) -> None:
    """Reorder the rows of ``a`` in place into ``a[p]``, for ``p`` an integer
    array that permutes ``range(len(a))``, through one row of scratch: each
    cycle of ``p`` is walked once and its rows move one place along it."""
    p = p.tolist()
    row = np.empty(a.shape[1:], a.dtype)
    for start in range(len(p)):
        if p[start] == start:  # a fixed point, or a cycle already moved
            continue
        row[...] = a[start]
        i = start
        while (j := p[i]) != start:
            a[i] = a[j]
            p[i], i = i, j
        a[i] = row
        p[i] = i


# -- synthetic data ---------------------------------------------------------


@dataclass(frozen=True)
class SynthSpec:
    """Planted-structure dataset: all three label sets are monotone
    functions of a shared low-rank latent, so they are learnable from the
    features by construction."""

    n_train: int = 2000
    n_val: int = 500
    n_test: int = 0
    dim: int = 64
    rank: int = 8
    seed: int = 0
    feature_noise: float = 0.05
    emotion_noise: float = 0.1
    age_noise: float = 0.5
    country_noise: float = 0.3

    def __post_init__(self):
        check_fields(self)
        if self.rank > self.dim:
            raise ConfigError(f"rank {self.rank} exceeds dim {self.dim}")
        if min(self.n_train, self.n_val) < 2 or self.n_test < 0:
            raise ConfigError("need n_train, n_val >= 2 and n_test >= 0")
        for name in ("feature_noise", "emotion_noise", "age_noise", "country_noise"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")


AGE_MIN, AGE_MAX = 20, 39


def synth_tables(spec: SynthSpec) -> tuple[dict[str, FeatureTable], LabelTable]:
    """Generate per-split feature tables and one combined label table.

    Per sample: latent z ~ N(0, I_rank); features = z A + noise. Emotion is
    a sigmoid of z W_e (plus pre-squash noise, clipped into [0, 1]); age is
    an affine readout of z rounded and clamped into [20, 39]; country is
    the argmax of four noisy linear scores.
    """
    rng = RngStream(spec.seed)
    r, d = spec.rank, spec.dim
    mix = rng.normal_matrix(r, d) / math.sqrt(r)
    w_emotion = rng.normal_matrix(r, len(EMOTIONS)) * 1.2
    w_age = rng.normal(r) / math.sqrt(r)
    w_country = rng.normal_matrix(r, len(COUNTRIES)) * 1.5

    features: dict[str, FeatureTable] = {}
    ids_all: list[str] = []
    emotion_all, age_all, country_all = [], [], []
    counts = (("train", spec.n_train), ("val", spec.n_val), ("test", spec.n_test))
    for split, n in counts:
        if n == 0:
            continue
        z = rng.normal_matrix(n, r)
        x = z @ mix + spec.feature_noise * rng.normal_matrix(n, d)
        emo_logits = z @ w_emotion + spec.emotion_noise * rng.normal_matrix(n, len(EMOTIONS))
        emotion = np.clip(1.0 / (1.0 + np.exp(-emo_logits)), 0.0, 1.0)
        age_raw = 29.5 + 4.5 * (z @ w_age) + spec.age_noise * rng.normal(n)
        age = np.clip(np.round(age_raw), AGE_MIN, AGE_MAX).astype(np.int64)
        scores = z @ w_country + spec.country_noise * rng.normal_matrix(n, len(COUNTRIES))
        country = np.argmax(scores, axis=1).astype(np.int64)

        ids = tuple(f"{split}_{i:05d}" for i in range(n))
        features[split] = FeatureTable(ids=ids, features=x)
        ids_all.extend(ids)
        emotion_all.append(emotion)
        age_all.append(age)
        country_all.append(country)

    labels = LabelTable(
        ids=tuple(ids_all),
        emotion=np.concatenate(emotion_all, axis=0),
        age=np.concatenate(age_all),
        country=np.concatenate(country_all),
    )
    return features, labels


def synth_dataset(spec: SynthSpec) -> SplitDataset:
    features, labels = synth_tables(spec)
    return join_splits(features, labels)
