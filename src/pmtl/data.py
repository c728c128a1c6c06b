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
by id, so results never depend on file row order, and ``build_part`` is the
one join of ids to label rows. The age target's z-score is a one-column
Standardizer. ``_read_rows`` reads all three CSV layouts, and only it chooses
between the fast pass (CsvRows) and the csv-module loop; the age and country
fields of labels are checked once, after.

Memory contract: a split's rows are the loaded rows, never written; every reader
takes what it needs by ndarray's call, ``part.take(at, axis=0, out=buf,
mode="clip")`` ("raise" would gather through a temporary), and the part
standardizes the taken rows in ``buf``. For training, a CSV file's rows are one
float64 (n, d) array, which the CSV loader (CsvRows) counts the rows for, then
fills a block of BLOCK_VALUES values at a time, with scratch of about 80 bytes
per value of a block; a blank line seen while counting leaves the file to the
csv-module loop before any array is sized. A binary file's are a FileRows: the
loader checks the header, the id table, the payload size and finiteness in one
pass of FIT_CHUNK values and keeps the descriptor open; ``take`` reads rows with
``os.preadv``. Such a file must not be rewritten in place while it is read; one
replaced through ``os.replace`` leaves the open file as it was. Eval reads
either once, in file order (``load_features`` with a consumer): a CSV file's
rows are parsed into predict's block. A CSV file that the fast pass refuses,
even part-way, is read afresh from the csv-module loop's array, once the refused
pass and its array or block are freed. An (n, d) array that cannot be allocated
is a DataError naming the file. Only the csv-module loop, which reports value
errors by line, holds rows plus a stacked copy. Joining keeps the loaded rows;
every part keeps a map from id order to its loaded rows. The standardization
fit streams the train rows through a FIT_CHUNK scratch. Finiteness checks
(``all_finite``) take one sum and, only if it overflows, scan fixed blocks, with
no flag per value. A sweep holds one cell's features at a time: it loads a
cell's files just before the cell runs, and drops them before it loads another
cell's; a standardization sweep holds them once, raw, with one Standardizer per
mode. Predicting holds one block of ``model.PREDICT_ROWS`` rows and no caches.
Training takes each batch into its step plan's input buffer. ``linear_backward``
forms xᵀ·dy in blocks of 1024 to 2047 weight rows, so OpenBLAS packs one block
of xᵀ at a time, not the batch.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import json
import math
import operator
import os
import re
import struct
import weakref
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .decimals import parse_decimals
from .errors import ConfigError, DataError, DataFormatError, check_fields
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
    features: np.ndarray | FileRows | CsvRows  # (n, d) float64, in the order of ids

    def __post_init__(self):
        if len(self.ids) != self.features.shape[0]:
            raise DataError(f"{len(self.ids)} ids for {self.features.shape[0]} feature rows")

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


@dataclass(frozen=True)
class Standardizer:
    """Per-feature affine transform fit on the train split; the age target's
    is a one-column zscore one (``join_splits``), which ``predict`` inverts.

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

    def invert(self, y: np.ndarray) -> np.ndarray:
        """y * scale + center: standardized values back in their own units."""
        return y * self.scale + self.center

    @classmethod
    def fit(cls, train, mode: str) -> "Standardizer":
        """Fit on ``train``, an (n, d) array, a FileRows or a SplitPart, with
        the bits of numpy's ``mean``, ``std``, ``min`` and ``max`` over axis 0
        of its rows in id order. numpy sums a lone or a non-C-contiguous column
        pairwise, so a lone column (read whole, 8n bytes) and such an array
        are fit by numpy; other rows ``_row_stats`` streams in blocks."""
        check_mode(mode)
        n, d = train.shape
        if mode == "none":
            return cls(mode, np.zeros(d), np.ones(d))
        if d == 1:
            train = train.take(np.arange(n), axis=0, mode="clip")
        with np.errstate(over="ignore", invalid="ignore"):  # checked for finiteness below
            if isinstance(train, np.ndarray) and (d == 1 or not train.flags.c_contiguous):
                stats = ((train.mean(axis=0), train.std(axis=0)) if mode == "zscore"
                         else (train.min(axis=0), train.max(axis=0)))
            else:
                stats = _row_stats(train, mode)
            if mode == "zscore":
                center, spread = stats
            else:  # minmax onto [-1, 1]
                lo, hi = stats
                center, spread = (lo + hi) / 2.0, (hi - lo) / 2.0
        bad = ~(np.isfinite(center) & np.isfinite(spread))
        if bad.any():
            raise DataError(f"feature f{int(np.argmax(bad))}: values overflow the {mode} fit")
        degenerate = spread == 0.0
        scale = np.where(degenerate, 1.0, spread)
        return cls(mode, center, scale, tuple(np.nonzero(degenerate)[0].tolist()))


FIT_CHUNK = 1 << 15  # elements of scratch per block of the fit and the open pass (256 KiB)


def all_finite(a: np.ndarray) -> bool:
    """``np.isfinite(a).all()`` for a contiguous ``a``, with no flag per
    element: a finite sum answers True (numpy's sum, not a dot that OpenBLAS
    threads); if it overflows, a scratch of FIT_CHUNK flags scans the blocks."""
    flat = a.reshape(-1)
    with np.errstate(all="ignore"):  # the sum may overflow, and callers may raise on that
        if math.isfinite(np.add.reduce(flat)):
            return True
    scratch = np.empty(min(flat.size, FIT_CHUNK), dtype=bool)
    blocks = (flat[i:i + FIT_CHUNK] for i in range(0, flat.size, FIT_CHUNK))
    return all(np.isfinite(block, out=scratch[:block.size]).all() for block in blocks)


def _row_stats(source, mode: str):
    """The mean and std (zscore) or the min and max (minmax) over axis 0 of
    the rows of ``source``, d > 1, taken a block at a time. numpy reduces
    such rows in order, from 0 for a sum and from the first row for a min
    or max, so a reduction over a block whose row 0 carries the running
    result and whose other rows hold the next rows continues the sequence."""
    n, d = source.shape
    k = max(1, FIT_CHUNK // d - 1)
    scratch = np.empty((k + 1, d))

    def fold(*totals, center=None):
        """Each ``(ufunc, running result)`` of ``totals`` over the rows, or
        over their squared deviations from ``center``; the results."""
        for start in range(0, n, k):
            block = scratch[:min(k, n - start) + 1]
            rows = source.take(np.arange(start, start + len(block) - 1), axis=0,
                               out=block[1:], mode="clip")
            if center is not None:
                rows -= center
                rows *= rows
            for ufunc, total in totals:
                block[0] = total
                ufunc.reduce(block, axis=0, out=total)
        return [total for _, total in totals]

    if mode == "minmax":
        first = source.take(np.arange(1), axis=0, mode="clip")[0]
        return fold((np.minimum, first), (np.maximum, first.copy()))
    center = fold((np.add, np.zeros(d)))[0] / n
    total = fold((np.add, np.zeros(d)), center=center)[0] / n
    return center, np.sqrt(total, out=total)


class _Descriptor:
    """A read-only descriptor of ``path``, closed once nothing refers to it."""

    def __init__(self, path):
        self.fd = os.open(path, os.O_RDONLY)
        weakref.finalize(self, os.close, self.fd)


@dataclass(frozen=True, eq=False)
class FileRows:
    """The rows of a binary features file, from ``load_features_binary``,
    in file order. They stay in the file: ``take`` reads them through the
    descriptor that the load opened, so they come from the file that was
    opened even if ``path`` is replaced."""

    path: object
    descriptor: _Descriptor
    shape: tuple[int, int]
    offset: int  # of file row 0

    def __len__(self) -> int:
        return self.shape[0]

    def take(self, indices, axis=0, out=None, mode="raise") -> np.ndarray:
        """Rows ``indices`` into ``out`` (None: a new array), by ndarray's call;
        ``mode`` is ignored. One ``os.preadv`` reads each run of consecutive file
        rows; a short one, from a file cut while it is open, is a DataFormatError."""
        if operator.index(axis):
            raise ValueError(f"FileRows.take reads rows (axis 0), not axis {axis}")
        out = np.empty((len(indices), self.shape[1])) if out is None else out
        at = np.asarray(indices).tolist()
        width, start = 8 * self.shape[1], 0
        for stop in range(1, len(at) + 1):
            if stop < len(at) and at[stop] == at[stop - 1] + 1:
                continue  # the run goes on
            offset = self.offset + at[start] * width
            if os.preadv(self.descriptor.fd, [out[start:stop]], offset) != (stop - start) * width:
                raise DataFormatError(f"payload ends before row {at[start]:,}", self.path)
            start = stop
        if not np.little_endian:
            out.byteswap(inplace=True)
        return out


@dataclass(frozen=True)
class SplitPart:
    """One aligned partition in id order, labeled or not. ``rows`` are the
    loaded rows (an array or a FileRows), never written: the part's row i
    is ``rows[order[i]]``. ``take`` reads the part's rows by ndarray's call
    and applies ``standardizer``, if any, to them in ``out``."""

    ids: tuple[str, ...]
    rows: np.ndarray | FileRows
    y_emotion: np.ndarray | None
    y_age: np.ndarray | None
    y_country: np.ndarray | None
    order: np.ndarray
    standardizer: Standardizer | None = None

    @property
    def labeled(self) -> bool:
        return self.y_emotion is not None

    @property
    def shape(self) -> tuple[int, int]:
        return self.rows.shape

    def __len__(self) -> int:
        return len(self.ids)

    def take(self, indices, axis=0, out=None, mode="raise") -> np.ndarray:
        """Rows ``indices`` of the part, standardized, into ``out`` (None: a
        new array). Mode "none" is the identity, so it is not applied."""
        out = self.rows.take(self.order[indices], axis=axis, out=out, mode=mode)
        std = self.standardizer
        return out if std is None or std.mode == "none" else std.apply(out, out=out)


@dataclass(frozen=True)
class SplitDataset:
    train: SplitPart
    val: SplitPart
    age_scaler: Standardizer  # one column, zscore: the train ages

    @property
    def dim(self) -> int:
        return self.train.rows.shape[1]


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


def _rows_array(n: int, d: int, path) -> np.ndarray:
    """An uninitialized (n, d) array for the rows of the file at ``path``;
    DataError if it does not fit in memory."""
    try:
        return np.empty((n, d))
    except MemoryError:
        raise DataError(f"{path}: {n:,} rows of {d:,} values do not fit in memory") from None


CSV_ONLY = '"\r'  # csv quoting, and a line end where the csv module splits a record
BLOCK_VALUES = 1 << 12  # values per block of the CSV pass
BLANK_LINE = re.compile(rb"\n\r?\n")  # seen by a regex at about the speed of a count
READ_BUFFER = 1 << 16  # a line of a wide table outgrows the default 8 KiB, and readline slows


class _Refused(Exception):
    """A CSV file that the fast pass does not read; the csv-module loop reads it."""


class CsvRows:
    """The rows of the CSV file open in ``fh`` (binary, READ_BUFFER bytes of
    buffer), counted on opening: the ``d`` values after each id, parsed by
    ``parse_decimals`` BLOCK_VALUES values at a time as ``take`` asks for the
    rows that follow those it read last. ``ids`` and ``tails`` (each line's
    last ``tail`` fields) grow with them. _Refused where the csv-module loop
    must read the file: on opening, for a blank line or a header that ends at a
    lone CR; in ``take``, for a CSV_ONLY character, a line of other fields or
    with one over the csv limit, invalid UTF-8, a value that is not finite or
    that ``parse_decimals`` rejects, or, with the last row, a duplicate id."""

    def __init__(self, fh, d: int, tail: int = 0):
        self.fh, self.tail, self.ids, self.tails = fh, tail, [], []
        if b"\r" in fh.readline().rstrip(b"\r\n"):  # the header ends at a lone CR
            raise _Refused
        start, n, end = fh.tell(), 0, b"\n"
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            if BLANK_LINE.search(end + chunk[:2]) or BLANK_LINE.search(chunk):
                raise _Refused  # the csv-module loop skips a blank line
            n, end = n + chunk.count(b"\n"), (end + chunk[-2:])[-2:]
        fh.seek(start)
        self.shape = (n + (not end.endswith(b"\n")), d)

    def __len__(self) -> int:
        return self.shape[0]

    def take(self, indices, axis=0, out=None, mode="raise") -> np.ndarray:
        """The next ``len(indices)`` rows, which ``indices`` must number, into
        ``out`` (None: a new array), by ndarray's call; ``mode`` is ignored."""
        first, (n, d) = len(self.ids), (len(indices), self.shape[1])
        if operator.index(axis) or not np.array_equal(indices, np.arange(first, first + n)):
            raise ValueError("CsvRows reads its rows once, in file order, along axis 0")
        out = np.empty((n, d)) if out is None else out
        k, limit = max(1, BLOCK_VALUES // max(d, 1)), csv.field_size_limit()
        try:
            for row in range(0, n, k):
                block = []
                for line in itertools.islice(self.fh, min(k, n - row)):
                    sid, _, rest = line.rstrip(b"\r\n").partition(b",")
                    vals, *last = rest.rsplit(b",", self.tail)
                    if (not vals or len(last) != self.tail
                            or len(line) > limit and max(map(len, line.split(b","))) > limit):
                        raise _Refused
                    self.ids.append(sid.decode("utf-8"))
                    if self.tail:
                        self.tails.append([t.decode("utf-8") for t in last])
                    block.append(vals)
                parse_decimals(block, out[row:row + k].reshape(-1))
        except ValueError:  # UnicodeDecodeError included
            raise _Refused from None
        fields = "".join(self.ids[first:]) + "".join(itertools.chain(*self.tails[first:]))
        if (any(c in fields for c in CSV_ONLY) or not all_finite(out)
                or len(self.ids) == len(self) and len(set(self.ids)) < len(self)):
            raise _Refused
        return out


def _csv_dim(path) -> int:
    """The width d of a features CSV, whose header must be ``id,f0..f{d-1}``."""
    with _open_csv(path) as (header, _):
        if not header or header[0] != "id":
            raise DataFormatError(f"first header column must be 'id', got {header[:1]}", path, 1)
        d = len(header) - 1
        if any(name != f"f{j}" for j, name in enumerate(itertools.islice(header, 1, None))):
            raise DataFormatError(f"header must be id,f0..f{d - 1}", path, 1)
        return d


def _read_rows(path, n_values: int, tail: int = 0, consume=None):
    """``(ids, rows, tails, result)`` of the CSV at ``path``: its ids, its rows
    of ``n_values`` values, each line's last ``tail`` fields, and what
    ``consume`` returns once it has read the rows, once, in file order, by
    ndarray's ``take`` (without it, ``result`` is the rows in one array). The
    rows are the file's CsvRows or, where that refuses the file, even
    part-way, the csv-module loop's array, which ``consume`` reads afresh; the
    refused pass and what it read are freed before the loop runs."""
    try:
        with open(path, "rb", buffering=READ_BUFFER) as fh:
            rows = CsvRows(fh, n_values, tail)
            result = consume(rows) if consume else rows.take(
                np.arange(len(rows)), out=_rows_array(len(rows), n_values, path))
            return rows.ids, rows, rows.tails, result
    except _Refused:
        rows = None  # with the ids it read, before the loop reads
    ids, rows, tails = _csv_module_rows(path, n_values, tail)
    return ids, rows, tails, consume(rows) if consume else rows


def _csv_module_rows(path, n_values: int, tail: int = 0):
    """``(ids, values, tails)`` of the CSV at ``path`` by the csv-module loop,
    which gives every error: ``_parse_float`` on each of the ``n_values``
    values, tail fields as strings."""
    ids, rows, tails = [], [], []
    with _open_csv(path) as (header, reader):
        for line_no, row in _csv_records(reader, 1 + n_values + tail, path):
            ids.append(row[0])
            rows.append(np.array([_parse_float(t, path, line_no, c)
                                  for t, c in zip(row[1:], header[1:1 + n_values])]))
            tails.append(row[1 + n_values:])
    return ids, np.array(rows, dtype=np.float64).reshape(len(ids), n_values), tails


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
    """The table of the binary features file at ``path``, whose features
    stay in the file as a FileRows. One pass checks the header, the id table,
    the payload size and, FIT_CHUNK values at a time, that every value is
    finite; the descriptor it opens stays open for the FileRows."""
    descriptor = _Descriptor(path)
    with open(descriptor.fd, "rb", closefd=False) as fh:
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
        offset = fh.tell()
        left, expected = os.fstat(descriptor.fd).st_size - offset, n * d * 8
        if left != expected:
            raise DataFormatError(f"payload is {left} bytes, expected {expected}", path)
        scratch = np.empty(min(n * d, FIT_CHUNK), "<f8")
        for start in range(0, n * d, FIT_CHUNK):
            block = scratch[:min(FIT_CHUNK, n * d - start)]
            if fh.readinto(block) != block.nbytes:
                raise DataFormatError("truncated payload", path)
            if not all_finite(block):
                raise DataFormatError("non-finite feature values", path)
    return FeatureTable(ids=tuple(ids), features=FileRows(path, descriptor, (n, d), offset))


def load_features(path, consume=None):
    """The table of the features file at ``path``: binary if the magic
    matches, else CSV. With ``consume``, ``(table, consume(rows))``:
    ``consume`` reads ``rows``, the file's rows, once, in file order, by
    ndarray's ``take``, and ``table`` holds the file's ids and those rows: a
    binary file's FileRows, or a CSV file's as ``_read_rows`` gives them."""
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head == FEATURE_MAGIC:
        table = load_features_binary(path)
        return table if consume is None else (table, consume(table.features))
    ids, rows, _, result = _read_rows(path, _csv_dim(path), consume=consume)
    if consume is None:
        return FeatureTable(tuple(ids), result)
    return FeatureTable(tuple(ids), rows), result


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
    ids, _, tails, values = _read_rows(path, n_values, len(LABEL_HEADER) - 1 - n_values)
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
    """The rows of ``features`` in id order, labeled if ``labels`` is given.
    The rows stay as loaded; ``order`` maps id order to them (arange for sorted ids)."""
    ids, order = features.ids, np.arange(len(features.ids))
    if any(a >= b for a, b in zip(ids, ids[1:])):  # else already sorted
        order = np.argsort(np.array(ids, dtype=object))
        ids = tuple(ids[i] for i in order)
    if labels is None:
        return SplitPart(ids, features.features, None, None, None, order)
    label_index = {sid: i for i, sid in enumerate(labels.ids)}
    missing = [sid for sid in ids if sid not in label_index]
    if missing:
        preview = ", ".join(missing[:10])
        more = "" if len(missing) <= 10 else f" (+{len(missing) - 10} more)"
        raise DataError(f"{split} split: no label for ids [{preview}]{more}")
    at = np.array([label_index[sid] for sid in ids], dtype=np.int64)
    return SplitPart(
        ids=ids,
        rows=features.features,
        y_emotion=labels.emotion[at],
        y_age=labels.age[at].astype(np.float64),
        y_country=labels.country[at],
        order=order,
    )


def join_splits(features: dict[str, FeatureTable], labels: LabelTable) -> SplitDataset:
    """Align the train and val features with labels, in lexicographic id
    order (``build_part``). Every id must be labeled; the age scaler is a
    one-column zscore Standardizer fit on the train ages."""
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
    return SplitDataset(train, val, Standardizer.fit(train.y_age.reshape(-1, 1), "zscore"))


def standardize(ds: SplitDataset, mode: str) -> SplitDataset:
    """``ds`` with feature standardization under ``mode``, fit on the train
    part's rows as loaded and set as both parts' ``standardizer``, which each
    part's ``take`` applies to the rows it reads. The rows are shared, and
    ``ds`` is left as it was."""
    std = Standardizer.fit(replace(ds.train, standardizer=None), mode)
    return replace(ds, train=replace(ds.train, standardizer=std),
                   val=replace(ds.val, standardizer=std))


def batches(n: int, batch_size: int, rng: RngStream) -> list[np.ndarray]:
    """Shuffled minibatch index lists for one epoch; the last batch may be
    short. A batch size larger than n yields a single full batch."""
    order = rng.permutation(n)
    return [order[i:i + batch_size] for i in range(0, n, batch_size)]


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
