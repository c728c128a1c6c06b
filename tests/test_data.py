"""Loaders, alignment, standardization, batching, synthetic data."""

import csv
import decimal
import io
import itertools
import math
import platform
import re
import struct
import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pmtl.data import (
    COUNTRIES,
    EMOTIONS,
    FEATURE_MAGIC,
    FIT_CHUNK,
    FeatureTable,
    FileRows,
    LabelTable,
    Standardizer,
    SynthSpec,
    all_finite,
    batches,
    build_part,
    feature_dim,
    join_splits,
    load_features,
    load_features_binary,
    load_labels_csv,
    load_predictions_csv,
    save_features_binary,
    save_features_csv,
    save_labels_csv,
    save_predictions_csv,
    standardize,
    synth_dataset,
    synth_tables,
)
import pmtl.cli
import pmtl.data
import pmtl.decimals
from pmtl.errors import DataError, DataFormatError
from pmtl.rng import RngStream


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def values(table):
    """The (n, d) features of ``table``, an array or a FileRows, as a new array."""
    return table.features.take(np.arange(len(table)), axis=0)


@pytest.fixture
def feature_csv(tmp_path):
    return write(tmp_path / "feat.csv",
                 "id,f0,f1\n"
                 "b,1.5,-2.25\n"
                 "a,0.125,3.0\n")


@pytest.fixture
def label_csv(tmp_path):
    header = "id," + ",".join(EMOTIONS) + ",age,country\n"
    emo = ",".join(["0.5"] * 10)
    return write(tmp_path / "labels.csv",
                 header
                 + f"a,{emo},25,USA\n"
                 + f"b,{emo},31,China\n")


def test_load_features_csv(feature_csv):
    table = load_features(feature_csv)
    assert table.ids == ("b", "a")  # file order preserved at load time
    assert table.dim == 2
    assert table.features.dtype == np.float64
    assert table.features[0].tolist() == [1.5, -2.25]


def test_features_csv_round_trip(tmp_path, rng_np):
    table = FeatureTable(
        ids=("x1", "x2", "x3"),
        features=rng_np.standard_normal((3, 5)),
    )
    path = tmp_path / "rt.csv"
    save_features_csv(table, path)
    back = load_features(path)
    assert back.ids == table.ids
    # repr-based serialization round-trips float64 exactly
    assert np.array_equal(back.features, table.features)


def test_features_binary_round_trip_bit_exact(tmp_path, rng_np):
    table = FeatureTable(
        ids=("x1", "utf8-ïd", "x3"),
        features=rng_np.standard_normal((3, 7)),
    )
    path = tmp_path / "rt.bin"
    save_features_binary(table, path)
    back = load_features_binary(path)
    assert back.ids == table.ids
    assert isinstance(back.features, FileRows)
    assert values(back).tobytes() == table.features.tobytes()
    # save again: identical bytes
    path2 = tmp_path / "rt2.bin"
    save_features_binary(FeatureTable(back.ids, values(back)), path2)
    assert path.read_bytes() == path2.read_bytes()


def test_load_features_dispatches_on_magic(tmp_path, rng_np):
    table = FeatureTable(ids=("a",), features=rng_np.standard_normal((1, 3)))
    csv_path = tmp_path / "t.csv"
    bin_path = tmp_path / "t.bin"
    save_features_csv(table, csv_path)
    save_features_binary(table, bin_path)
    assert np.array_equal(values(load_features(csv_path)), values(load_features(bin_path)))


@pytest.mark.parametrize("body,fragment", [
    ("id,f0\na,1.0\na,2.0\n", "duplicate id"),
    ("id,f0\na,1.0,9.9\n", "expected 2 fields"),
    ("id,f0\na,abc\n", "cannot parse"),
    ("id,f0\na,nan\n", "non-finite"),
    ("id,g0\na,1.0\n", "header"),
    ("", "empty"),
    ("id,f0\na,1.0\nb,2\x00.0\n", re.escape(r"column 'f0': cannot parse '2\x00.0' as float")),
    pytest.param('id,f0\na,"' + "1" * 200_000 + "\n", "malformed CSV",
                 id="field-over-csv-limit"),
    pytest.param("id,f0\na,0." + "0" * 200_000 + "\n", "malformed CSV",
                 id="unquoted-field-over-csv-limit"),
])
def test_features_csv_errors_carry_location(tmp_path, body, fragment):
    path = write(tmp_path / "bad.csv", body)
    with pytest.raises(DataFormatError, match=fragment):
        load_features(path)


def test_features_csv_error_line_numbers(tmp_path):
    path = write(tmp_path / "bad.csv", "id,f0\na,1.0\nb,xyz\n")
    with pytest.raises(DataFormatError) as info:
        load_features(path)
    assert info.value.line == 3
    assert str(path) in str(info.value)


def test_binary_truncation_rejected(tmp_path, rng_np):
    table = FeatureTable(ids=("a", "b"), features=rng_np.standard_normal((2, 3)))
    path = tmp_path / "t.bin"
    save_features_binary(table, path)
    blob = path.read_bytes()
    for cut in (3, 8, 12, len(blob) - 5):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(blob[:cut])
        with pytest.raises(DataFormatError):
            load_features_binary(bad)


def test_feature_dim_reads_the_header_only(tmp_path):
    # the rows are not read: a bad row or a short payload does not matter
    csv_path, bin_path = tmp_path / "t.csv", tmp_path / "t.bin"
    write(csv_path, "id,f0,f1,f2\na,1,2,x\n")
    save_features_binary(FeatureTable(ids=("a",), features=np.zeros((1, 5))), bin_path)
    bin_path.write_bytes(bin_path.read_bytes()[:-8])
    assert (feature_dim(csv_path), feature_dim(bin_path)) == (3, 5)
    with pytest.raises(DataFormatError, match="payload"):
        load_features(bin_path)
    # and it checks the header as the loaders do
    for text, message in (("id,f1\n", "header must be id,f0"), ("", "empty file")):
        write(csv_path, text)
        for read in (feature_dim, load_features):
            with pytest.raises(DataFormatError, match=message):
                read(csv_path)
    bin_path.write_bytes(FEATURE_MAGIC + b"\x02\x00" + bytes(8))
    for read in (feature_dim, load_features):
        with pytest.raises(DataFormatError, match="unsupported version 2"):
            read(bin_path)


def test_binary_load_holds_one_copy(tmp_path, rng_np, traced_peak):
    # the copy is the file: the load holds the ids and one FIT_CHUNK block of
    # scratch, however many values the rows hold (it held all of them once)
    for n, d in ((400, 512), (400, 4096), (4000, 512)):
        table = FeatureTable(ids=tuple(f"s{i:04d}" for i in range(n)),
                             features=rng_np.standard_normal((n, d)))
        path = tmp_path / f"t{n}x{d}.bin"
        save_features_binary(table, path)
        back, peak = traced_peak(lambda: load_features(path))
        assert values(back).tobytes() == table.features.tobytes()
        assert peak <= 8 * FIT_CHUNK + 256 * n + 32_768, (n, d)


def test_binary_load_checks_finiteness_in_fixed_scratch(tmp_path, rng_np, traced_peak):
    table = FeatureTable(ids=tuple(f"s{i:04d}" for i in range(400)),
                         features=rng_np.standard_normal((400, 512)))
    path = tmp_path / "t.bin"
    save_features_binary(table, path)
    _, peak = traced_peak(lambda: load_features(path))
    # the ids, one FIT_CHUNK block and its flags; a flag per value would be 1/8 more
    assert peak <= 1.06 * table.features.nbytes


@pytest.mark.parametrize("n", [0, 1, FIT_CHUNK - 1, FIT_CHUNK, 2 * FIT_CHUNK + 3])
def test_all_finite_scans_every_block(n):
    x = np.ones(n)
    assert all_finite(x) and all_finite(x.reshape(1, n))
    for i in sorted({0, n // 2, n - 1}) if n else ():
        for bad in (np.nan, np.inf, -np.inf):
            y = x.copy()
            y[i] = bad
            assert not all_finite(y), (i, bad)


@pytest.mark.parametrize("n", [1, 2, FIT_CHUNK + 5])
def test_all_finite_on_values_whose_squares_overflow(n):
    # at 1e308 the sum itself is inf from n = 2 on, so the blocks are
    # scanned; no warning, no error
    for value in (1e200, 1e308):
        x = np.full(n, value)
        with np.errstate(over="raise", invalid="raise"):
            assert all_finite(x) and all_finite(-x)
            for i in sorted({0, n // 2, n - 1}):
                for bad in (np.nan, np.inf, -np.inf):
                    y = x.copy()
                    y[i] = bad
                    assert not all_finite(y), (i, value, bad)


def test_csv_load_holds_rows_and_one_stacked_copy(tmp_path, rng_np, traced_peak):
    table = FeatureTable(ids=tuple(f"s{i:04d}" for i in range(200)),
                         features=rng_np.standard_normal((200, 256)))
    path = tmp_path / "t.csv"
    save_features_csv(table, path)
    back, peak = traced_peak(lambda: load_features(path))
    assert np.array_equal(back.features, table.features)
    assert peak <= 2.5 * back.features.nbytes


def test_quoted_csv_load_holds_rows_and_one_stacked_copy(tmp_path, rng_np, traced_peak):
    # quoting sends the file to the csv-module loop
    features = rng_np.standard_normal((200, 256))
    path = tmp_path / "t.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, quoting=csv.QUOTE_ALL)
        writer.writerow(["id"] + [f"f{j}" for j in range(256)])
        writer.writerows([f"s{i:04d}"] + [repr(float(v)) for v in row]
                         for i, row in enumerate(features))
    back, peak = traced_peak(lambda: load_features(path))
    assert back.features.tobytes() == features.tobytes()
    assert peak <= 2.5 * back.features.nbytes


def test_csv_load_fills_one_array(tmp_path, rng_np, traced_peak):
    table = FeatureTable(ids=tuple(f"s{i:04d}" for i in range(2000)),
                         features=rng_np.standard_normal((2000, 256)))
    path = tmp_path / "t.csv"
    save_features_csv(table, path)
    back, peak = traced_peak(lambda: load_features(path))
    assert back.features.tobytes() == table.features.tobytes()
    assert peak <= 1.5 * back.features.nbytes


def test_csv_of_blank_lines_falls_back_before_allocating(tmp_path, capsys, traced_peak):
    # 1,000,000 blank lines under a 100,000-column header hold no row: the
    # count pass sees the first blank line and leaves the file to the csv
    # loop, which skips them, before it sizes an array of 10^11 values
    header = "id," + ",".join(f"f{j}" for j in range(100_000)) + "\n"
    blank, empty = write(tmp_path / "blank.csv", header + "\n" * 1_000_000), tmp_path / "v.csv"
    write(empty, header)
    _, labels = synth_tables(SynthSpec(n_train=4, n_val=2, dim=4, rank=2))
    save_labels_csv(labels, tmp_path / "labels.csv")
    code, peak = traced_peak(lambda: pmtl.cli.main([
        "train", "--train-features", str(blank), "--val-features", str(empty),
        "--labels", str(tmp_path / "labels.csv"), "--out", str(tmp_path / "o")]))
    assert (code, capsys.readouterr().err) == (2, "pmtl: error: empty train split\n")
    assert peak < 10 << 20


def _rows_across_a_chunk_end(newline, before=0):
    """Rows of ``id,value`` whose last full line ends ``before`` bytes before
    byte 2**16 of the file's body, followed by a blank line; the lines end
    with ``newline``."""
    line, end = f"a0000,1.5{newline}", (1 << 16) - before
    rows, size = [], 0
    while size + len(line) <= end:
        rows.append(f"a{len(rows):04d},1.5{newline}")
        size += len(line)
    pad = end - size  # widen the last value so that the line ends there
    rows[-1] = rows[-1].replace("1.5", "1.5" + "0" * pad)
    return "".join(rows) + newline + f"z,2.0{newline}"


@pytest.mark.parametrize("body", [
    "\na,1.0\n", "a,1.0\n\nb,2.0\n", "a,1.0\r\n\r\nb,2.0\r\n", "a,1.0\nb,2.0\n\n",
    _rows_across_a_chunk_end("\n"), _rows_across_a_chunk_end("\r\n"),
    _rows_across_a_chunk_end("\r\n", before=1),
], ids=["first", "middle", "crlf", "last", "chunk-end", "chunk-end-crlf", "chunk-in-crlf"])
def test_blank_line_is_seen_before_the_array_is_sized(tmp_path, monkeypatch, body):
    path = write(tmp_path / "t.csv", "id,f0\n" + body)
    expected = load_features(path)  # the csv loop skips blank lines
    monkeypatch.setattr(pmtl.data, "_rows_array", None)  # sized nothing
    with open(path, "rb") as fh, pytest.raises(pmtl.data._Refused):
        pmtl.data.CsvRows(fh, 1)  # refused on opening, before any row is taken
    got = load_features(path)
    assert got.ids == expected.ids and got.features.tobytes() == expected.features.tobytes()
    assert len(got.ids) == body.count(",")


@pytest.mark.parametrize("n,d,tail", [
    (1, 2**32 - 1, b"\x01\x00a" + bytes(16)),  # promises ~34 GB of payload
    (2**32 - 1, 2**32 - 1, b"\x01"),            # id table cut short
], ids=["huge-payload", "huge-id-table"])
def test_huge_binary_header_fails_before_allocating(tmp_path, n, d, tail):
    path = tmp_path / "huge.bin"
    path.write_bytes(FEATURE_MAGIC + struct.pack("<HII", 1, n, d) + tail)
    tracemalloc.start()
    try:
        with pytest.raises(DataFormatError, match="payload|truncated"):
            load_features(path)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


ADVERSARIAL_TOKENS = (
    "-0.0", "5e-324", "1e-400", "-1e-400", "1_0", "1__0", "_1", "\u0661\u0662\u0663",
    "\uff11\uff12\uff13", " 1.5 ", "\t2\n", "+.5", "5.", "1E5", "0x10", "", "abc",
    "infinity", "-inf", "nan", "1e400", "1.5e", "\x1c1.5", "1.5\x1f",
)


def _reference_float(token):
    """Per-token parse: the float, or None where the loader must reject it."""
    try:
        value = float(token)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def test_csv_values_bit_equal_to_per_token_float(tmp_path):
    rng = np.random.default_rng(21)
    bits = rng.integers(0, 2**64, size=3000, dtype=np.uint64).view(np.float64)
    finite = bits[np.isfinite(bits)].tolist()
    tokens = [fmt % v for v in finite for fmt in ("%r", "%.17g", "%.25g")]
    tokens += [t for t in ADVERSARIAL_TOKENS if _reference_float(t) is not None]
    d = 50
    tokens += ["0.0"] * (-len(tokens) % d)
    rows = [tokens[i:i + d] for i in range(0, len(tokens), d)]
    path = tmp_path / "tokens.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id"] + [f"f{j}" for j in range(d)])
        writer.writerows([f"r{i}"] + row for i, row in enumerate(rows))
    expected = np.array([[_reference_float(t) for t in row] for row in rows])
    assert load_features(path).features.tobytes() == expected.tobytes()


def _near_halfway_tokens(count, seed):
    """Decimals of 17 to 19 digits just below and above values halfway
    between two float64: the long double nearest such a decimal is often
    the halfway value itself, which rounds to float64 by ties-to-even."""
    rng = np.random.default_rng(seed)
    exact, tokens = decimal.Context(prec=100), []
    mantissas, shifts = rng.integers(2**52, 2**53, count), rng.integers(1, 60, count)
    for m, k in zip(mantissas.tolist(), shifts.tolist()):
        midpoint = exact.divide(2 * m + 1, 2 ** k)  # (m + 1/2) * 2**(1 - k)
        for digits in (17, 18, 19):
            for rounding in (decimal.ROUND_FLOOR, decimal.ROUND_CEILING):
                near = decimal.Context(prec=digits, rounding=rounding).plus(midpoint)
                tokens.append(format(near, "f"))
    return tokens


def test_csv_near_halfway_values_bit_equal_to_per_token_float(tmp_path):
    tokens = _near_halfway_tokens(500, 5) + [
        "0." + "0" * 27 + "1", "-0." + "0" * 30 + "25", "1" + "0" * 19 + ".5",
        "0.000000000000000000000000001", "9223372036854775807", "-9223372036854775808"]
    tokens += ["0"] * (-len(tokens) % 10)
    rows = [tokens[i:i + 10] for i in range(0, len(tokens), 10)]
    path = tmp_path / "tokens.csv"
    path.write_text("id," + ",".join(f"f{j}" for j in range(10)) + "\n" + "".join(
        f"r{i}," + ",".join(row) + "\n" for i, row in enumerate(rows)), encoding="utf-8")
    expected = np.array([[float(t) for t in row] for row in rows])
    for exact in (True, False) if pmtl.decimals.EXACT_SCALE else (False,):
        with mock.patch.object(pmtl.decimals, "EXACT_SCALE", exact):
            assert load_features(path).features.tobytes() == expected.tobytes(), exact


@pytest.mark.parametrize("token", ["1.2.3", ".-5", "5.-", "1-2", "--5", "-", ".", "-.", "+-5",
                                   "1e5e5", "1.5e", "e5", "-e"])
def test_csv_malformed_decimals_go_to_the_csv_loop(tmp_path, token):
    path = write(tmp_path / "bad.csv", f"id,f0,f1\na,1.0,2.0\nb,1.0,{token}\n")
    for exact in (True, False) if pmtl.decimals.EXACT_SCALE else (False,):
        with mock.patch.object(pmtl.decimals, "EXACT_SCALE", exact):
            with pytest.raises(DataFormatError, match="column 'f1': cannot parse") as info:
                load_features(path)
        assert info.value.line == 3


@pytest.mark.parametrize("token", ["\r1e5", "1e5\r", "1\re5", " 1e5", '"1e5"', "1e5\x00"])
def test_csv_exponent_values_with_other_bytes_agree_with_the_csv_loop(tmp_path, token):
    # float parses these values, so the pass must see the other byte first
    path = write(tmp_path / "odd.csv", f"id,f0,f1\na,1.0,2.0\nb,{token},3.0\n")
    for exact in (True, False) if pmtl.decimals.EXACT_SCALE else (False,):
        with mock.patch.object(pmtl.decimals, "EXACT_SCALE", exact):
            assert _outcome("features", path) == _csv_loop_outcome("features", path), exact


def test_csv_rows_of_another_width_go_to_the_csv_loop(tmp_path):
    # three values in one row and one in the next still make two per row on average
    path = write(tmp_path / "uneven.csv", "id,f0,f1\na,1.5,2.5,3.5\nb,4.5\n")
    with pytest.raises(DataFormatError, match="expected 3 fields, got 4") as info:
        load_features(path)
    assert info.value.line == 2


@pytest.mark.parametrize("token", [t for t in ADVERSARIAL_TOKENS
                                   if _reference_float(t) is None])
def test_csv_rejects_what_per_token_float_rejects(tmp_path, token):
    path = tmp_path / "bad.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([["id", "f0", "f1"], ["a", "1.0", "2.0"],
                                  ["b", "1.0", token]])
    with pytest.raises(DataFormatError, match="column 'f1'") as info:
        load_features(path)
    assert info.value.line == 3


def _reference_table(text):
    """The csv module's rows, each value parsed on its own by ``float``."""
    rows = [row for row in csv.reader(io.StringIO(text, newline="")) if row][1:]
    return (tuple(row[0] for row in rows),
            np.array([[_reference_float(t) for t in row[1:]] for row in rows]))


REFERENCE_TEXTS = {
    "quoted": 'id,f0,f1\na,"1.5",-2.0\nb,"3e-5","0.1"\n',
    "lf": "id,f0,f1\na,1.5,-2.0\nb,3e-5,0.1\n",
    "crlf": "id,f0,f1\r\na,1.5,-2.0\r\nb,3e-5,0.1\r\n",
    "cr": "id,f0,f1\ra,1.5,-2.0\rb,3e-5,0.1",
    "blank-lines": "id,f0,f1\n\na,1.5,-2.0\n\r\n\rb,3e-5,0.1\n\n",
    "one-column": "id,f0\na,1.5\nb,-0.0\nc,5e-324\n",
    "late-underscore": "id,f0,f1\na,1.5,-2.0\nb,3e-5,0.1\nc,2.5,1_0\n",
    "non-ascii-ids": "id,f0,f1\n\u00efd,1.5,-2.0\n\u4e2d\u6587,3e-5,0.1\n\U0001f600,2.5,1.0\n",
}


@pytest.mark.parametrize("text", REFERENCE_TEXTS.values(), ids=REFERENCE_TEXTS.keys())
def test_csv_load_matches_per_token_reference(tmp_path, text):
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode("utf-8"))
    ids, expected = _reference_table(text)
    table = load_features(path)
    assert table.ids == ids
    assert table.features.tobytes() == expected.tobytes()


@pytest.mark.parametrize("text,ids,shape", [
    ("id,f0,f1,f2\n\n", (), (0, 3)),
    ("id\na\nb\n", ("a", "b"), (2, 0)),
], ids=["header-only", "no-columns"])
def test_csv_load_without_values_warns_nothing(tmp_path, text, ids, shape):
    path = write(tmp_path / "t.csv", text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = load_features(path)
    assert table.ids == ids
    assert table.features.shape == shape


def test_csv_tests_pass_with_every_value_through_float(tmp_path):
    # the branch taken where long double arithmetic has no 64-bit significand
    with mock.patch.object(pmtl.decimals, "EXACT_SCALE", False):
        test_csv_values_bit_equal_to_per_token_float(tmp_path)
        for text in REFERENCE_TEXTS.values():
            test_csv_load_matches_per_token_reference(tmp_path, text)


@pytest.mark.skipif(platform.machine() != "x86_64", reason="x87 long double only")
def test_long_double_branch_is_taken_on_x86_64():
    assert pmtl.decimals.EXACT_SCALE


def test_csv_load_holds_the_array_and_one_block(tmp_path, rng_np, traced_peak):
    table = FeatureTable(ids=tuple(f"s{i:04d}" for i in range(1000)),
                         features=rng_np.standard_normal((1000, 1024)))
    path = tmp_path / "t.csv"
    save_features_csv(table, path)
    back, peak = traced_peak(lambda: load_features(path))
    assert back.features.tobytes() == table.features.tobytes()
    assert peak <= 1.1 * back.features.nbytes


@pytest.fixture(scope="module")
def feature_file_bytes(tmp_path_factory):
    table = FeatureTable(ids=("a", "b2", "utf8-\u00efd"),
                         features=np.random.default_rng(3).standard_normal((3, 4)))
    root = tmp_path_factory.mktemp("feat")
    save_features_csv(table, root / "real.csv")
    save_features_binary(table, root / "real.bin")
    return {"csv": (root / "real.csv").read_bytes(), "bin": (root / "real.bin").read_bytes()}


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_corrupted_feature_file_loads_or_raises_data_format_error(
        feature_file_bytes, tmp_path, data):
    blob = bytearray(feature_file_bytes[data.draw(st.sampled_from(["csv", "bin"]),
                                                  label="format")])
    if data.draw(st.booleans(), label="truncate"):
        del blob[data.draw(st.integers(0, len(blob) - 1), label="keep"):]
    else:
        for pos in data.draw(st.lists(st.integers(0, len(blob) - 1), min_size=1,
                                      max_size=4), label="positions"):
            blob[pos] ^= data.draw(st.integers(1, 255), label="xor")
    path = tmp_path / "fuzzed"
    path.write_bytes(bytes(blob))
    try:
        table = load_features(path)
    except DataFormatError:
        return
    x = values(table)
    assert x.dtype == np.float64
    assert x.shape == (len(table.ids), table.dim)
    assert np.isfinite(x).all()


def _write_fails_partway(monkeypatch, table):
    """Make each writer below raise once it has written part of its file:
    the CSV writers at their 50th value, the binary one at its last id."""
    calls = itertools.count()

    def fmt_float(x):
        if next(calls) == 50:
            raise OSError("no space left on device")
        return repr(float(x))
    monkeypatch.setattr(pmtl.data, "fmt_float", fmt_float)
    return replace(table, ids=table.ids[:-1] + ("x" * 0x10000,))


WRITERS = {
    "features-csv": lambda features, labels, path: save_features_csv(features, path),
    "features-binary": lambda features, labels, path: save_features_binary(features, path),
    "labels": lambda features, labels, path: save_labels_csv(labels, path),
    "predictions": lambda features, labels, path: save_predictions_csv(
        labels.ids, labels.emotion, labels.age, labels.country, path),
}


@pytest.mark.parametrize("writer", WRITERS.values(), ids=WRITERS.keys())
def test_failed_data_write_leaves_old_file(tmp_path, monkeypatch, writer):
    features, labels = synth_tables(SynthSpec(n_train=20, n_val=2, dim=4, rank=2))
    path = tmp_path / "out"
    writer(features["train"], labels, path)
    before = path.read_bytes()
    with pytest.raises((OSError, DataError)):
        writer(_write_fails_partway(monkeypatch, features["train"]), labels, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


@pytest.mark.parametrize("kind,rows", [("features-csv", "20 rows of 4"),
                                       ("labels", "22 rows of 10"),
                                       ("predictions", "22 rows of 11")])
def test_rows_that_do_not_fit_in_memory_are_a_data_error(tmp_path, request, kind, rows):
    features, labels = synth_tables(SynthSpec(n_train=20, n_val=2, dim=4, rank=2))
    path = tmp_path / "rows"
    WRITERS[kind](features["train"], labels, path)
    request.getfixturevalue("refuse_tables")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: {rows} values do not fit "
                                        "in memory$"):
        LOADERS.get(kind, load_features)(path)


LOADERS = {"labels": load_labels_csv, "predictions": load_predictions_csv}


def _load_consumed(path):
    """The ids of ``load_features(path, consume)``'s table and the rows that
    ``consume`` took, one ``take`` a row."""
    def consume(rows):
        out = np.empty(rows.shape)
        for i in range(len(rows)):
            rows.take(np.arange(i, i + 1), axis=0, out=out[i:i + 1])
        return out
    table, taken = load_features(path, consume)
    return table.ids, taken


def _outcome(kind, path):
    """What ``kind``'s loader gives for ``path``: its arrays' bytes, or the
    message of the DataFormatError it raises."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = {**LOADERS, "features": load_features, "consumed": _load_consumed}[kind](path)
    except DataFormatError as exc:
        return str(exc)
    if kind == "labels":
        result = (result.ids, result.emotion, result.age, result.country)
    elif kind == "features":
        result = (result.ids, result.features)
    ids, *arrays = result
    return ids, [(a.dtype, a.shape, a.tobytes()) for a in arrays]


def _csv_loop_outcome(kind, path):
    with mock.patch.object(pmtl.data, "CsvRows", side_effect=pmtl.data._Refused):
        return _outcome(kind, path)


def test_load_labels(label_csv):
    labels = load_labels_csv(label_csv)
    assert labels.ids == ("a", "b")
    assert labels.emotion.shape == (2, 10)
    assert labels.age.tolist() == [25, 31]
    assert labels.country.tolist() == [0, 1]


def test_labels_round_trip(tmp_path, rng_np):
    table = LabelTable(
        ids=("s1", "s2", "s3", "s4"),
        emotion=rng_np.uniform(0, 1, size=(4, 10)),
        age=np.array([20, 39, 25, 30]),
        country=np.array([0, 1, 2, 3]),
    )
    path = tmp_path / "labels.csv"
    save_labels_csv(table, path)
    back = load_labels_csv(path)
    assert back.ids == table.ids
    assert np.array_equal(back.emotion, table.emotion)
    assert np.array_equal(back.age, table.age)
    assert np.array_equal(back.country, table.country)


@pytest.mark.parametrize("age,country,message", [
    pytest.param("25.5", "USA", "age '25.5' is not an integer", id="25.5-USA-not an integer"),
    pytest.param("25", "usa", f"country 'usa' not in {COUNTRIES}", id="25-usa-country"),
    pytest.param("25", "Brazil", f"country 'Brazil' not in {COUNTRIES}", id="25-Brazil-country"),
])
def test_labels_field_validation(tmp_path, age, country, message):
    # checked once after the read, so both paths name the row by its id
    header = "id," + ",".join(EMOTIONS) + ",age,country\n"
    emo = ",".join(["0.5"] * 10)
    path = write(tmp_path / "bad.csv", header + f"z,{emo},30,USA\na,{emo},{age},{country}\n")
    assert _outcome("labels", path) == _csv_loop_outcome("labels", path) == (
        f"{path}: id 'a': {message}")


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_label_value_errors_come_before_age_and_country_errors(tmp_path, kind):
    header = "id," + ",".join(EMOTIONS) + ",age,country\n"
    emo = ",".join(["0.5"] * 10)
    path = write(tmp_path / "bad.csv",
                 header + f"a,{emo},25.5,Brazil\nb,{emo[:-3]}abc,30,USA\n")
    expected = f"{path}:3: column 'Triumph': cannot parse 'abc' as float"
    assert _outcome(kind, path) == _csv_loop_outcome(kind, path) == expected


def test_labels_age_out_of_range(tmp_path):
    header = "id," + ",".join(EMOTIONS) + ",age,country\n"
    emo = ",".join(["0.5"] * 10)
    path = write(tmp_path / "bad.csv", header + f"a,{emo},{2**63},USA\n")
    assert _outcome("labels", path) == _csv_loop_outcome("labels", path) == (
        f"{path}: age out of range")


@pytest.mark.parametrize("token,message", [
    ("abc", "column 'age': cannot parse 'abc' as float"),
    ("inf", "column 'age': non-finite value 'inf'"),
])
def test_predicted_age_is_parsed_with_the_emotions(tmp_path, token, message):
    header = "id," + ",".join(EMOTIONS) + ",age,country\n"
    emo = ",".join(["0.5"] * 10)
    path = write(tmp_path / "bad.csv", header + f"a,{emo},25.5,USA\nb,{emo},{token},China\n")
    assert _outcome("predictions", path) == _csv_loop_outcome("predictions", path) == (
        f"{path}:3: {message}")


@pytest.mark.parametrize("token,fragment", [
    ("abc", "column 'Triumph': cannot parse 'abc' as float"),
    ("inf", "column 'Triumph': non-finite value 'inf'"),
])
def test_labels_emotion_parse_errors_name_the_column(tmp_path, token, fragment):
    header = "id," + ",".join(EMOTIONS) + ",age,country\n"
    emo = ",".join(["0.5"] * 9 + [token])
    path = write(tmp_path / "bad.csv", header + f"a,{emo},25,USA\n")
    with pytest.raises(DataFormatError, match=fragment) as info:
        load_labels_csv(path)
    assert info.value.line == 2


def test_labels_emotion_range_enforced(tmp_path):
    header = "id," + ",".join(EMOTIONS) + ",age,country\n"
    emo = ",".join(["0.5"] * 9 + ["1.01"])
    path = write(tmp_path / "bad.csv", header + f"a,{emo},25,USA\n")
    with pytest.raises(DataFormatError, match="outside"):
        load_labels_csv(path)


def test_predictions_round_trip(tmp_path, rng_np):
    ids = ("p1", "p2")
    emotion = rng_np.uniform(0, 1, size=(2, 10))
    age = np.array([24.75, 31.2])
    country = np.array([3, 0])
    path = tmp_path / "preds.csv"
    save_predictions_csv(ids, emotion, age, country, path)
    r_ids, r_emotion, r_age, r_country = load_predictions_csv(path)
    assert r_ids == ids
    assert np.array_equal(r_emotion, emotion)
    assert np.array_equal(r_age, age)  # fractional ages survive
    assert np.array_equal(r_country, country)


@pytest.fixture(scope="module")
def label_file_bytes(tmp_path_factory):
    rng = np.random.default_rng(8)
    table = LabelTable(ids=("a", "b2", "utf8-\u00efd", "d"),
                       emotion=rng.uniform(0, 1, size=(4, 10)),
                       age=np.array([20, 39, 25, 31]), country=np.array([0, 1, 2, 3]))
    root = tmp_path_factory.mktemp("labels")
    save_labels_csv(table, root / "labels.csv")
    save_predictions_csv(table.ids, table.emotion * 0.9 + 0.05, table.age + 0.25,
                         table.country, root / "predictions.csv")
    return {kind: (root / f"{kind}.csv").read_bytes() for kind in LOADERS}


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_labels_and_predictions_load_without_the_csv_loop(label_file_bytes, tmp_path, kind):
    path = tmp_path / "f.csv"
    path.write_bytes(label_file_bytes[kind])
    with mock.patch.object(pmtl.data, "_csv_records", side_effect=AssertionError):
        fast = _outcome(kind, path)
    assert fast == _csv_loop_outcome(kind, path)


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_quoted_label_files_load_like_plain_ones(label_file_bytes, tmp_path, kind):
    # QUOTE_ALL sends the file to the csv-module loop, where an id may hold a comma
    plain = tmp_path / "plain.csv"
    plain.write_bytes(label_file_bytes[kind])
    rows = list(csv.reader(io.StringIO(label_file_bytes[kind].decode("utf-8"), newline="")))
    rows[2][0] = "b,2"
    quoted = tmp_path / "quoted.csv"
    with open(quoted, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, quoting=csv.QUOTE_ALL).writerows(rows)
    ids, arrays = _outcome(kind, plain)
    assert _outcome(kind, quoted) == (ids[:1] + ("b,2",) + ids[2:], arrays)


# (header, rows) -> lines, for edits that the fast pass refuses: on opening (a
# blank line, a header ending at a lone CR) or part-way, at the next-to-last row
REFUSED_EDITS = {
    "blank-line": lambda header, rows: [header, *rows[:-1], "", rows[-1]],
    "header-lone-cr": lambda header, rows: [header + "\r" + rows[0], *rows[1:]],
    "quoted-id": lambda header, rows: [header, *rows[:-2], '"' + rows[-2].replace(",", '",', 1),
                                       rows[-1]],
    "spaced-value": lambda header, rows: [header, *rows[:-2], rows[-2].replace(",", ", ", 1),
                                          rows[-1]],
    "duplicate-id": lambda header, rows: [header, *rows[:-1], rows[-2].split(",")[0] + ","
                                          + rows[-1].split(",", 1)[1]],
}


@pytest.mark.parametrize("edit", sorted(REFUSED_EDITS))
@pytest.mark.parametrize("kind", ["features", "consumed", "labels", "predictions"])
def test_every_csv_reader_gives_the_csv_loop_outcome_of_a_refused_file(
        feature_file_bytes, label_file_bytes, tmp_path, kind, edit):
    text = {**label_file_bytes, "features": feature_file_bytes["csv"],
            "consumed": feature_file_bytes["csv"]}[kind].decode("utf-8")
    header, *rows = text.splitlines()
    path = write(tmp_path / "refused.csv", "\n".join(REFUSED_EDITS[edit](header, rows)) + "\n")
    loop = mock.patch.object(pmtl.data, "_csv_module_rows", wraps=pmtl.data._csv_module_rows)
    with loop as module_rows:
        got = _outcome(kind, path)
    assert module_rows.called  # the fast pass refused the file
    assert got == _csv_loop_outcome(kind, path)
    if edit == "duplicate-id":
        assert got.endswith(f"duplicate id {rows[-2].split(',')[0]!r}")


@pytest.mark.parametrize("kind,row,fields", [
    ("labels", "a,,30,USA", 4), ("predictions", "a,,USA", 3)])
def test_label_row_without_values_fails_without_warning(tmp_path, kind, row, fields):
    # the fast pass finds no values before the label fields; the csv-module loop reports it
    path = write(tmp_path / "short.csv", "id," + ",".join(EMOTIONS) + f",age,country\n{row}\n")
    assert _outcome(kind, path).endswith(f"expected 13 fields, got {fields}")


TOKENS = st.one_of(
    st.sampled_from(["", " 0.5", "0.5 ", "+0.5", "-0.0", "5e-1", "1_0", "0x1p3", "nan", "-inf",
                     "1e400", "1e-400", "30", "30.0", " 30", "3_0", "\u0663\u0660", "1e1",
                     "USA", "usa", "China ", '"0.5"', '"USA"', "0.5\r", "\x1c0.5", "\x0c0.5",
                     "0.5,0.5", "a\n", "\u00a00.5"]),
    st.text(alphabet="0123456789.eE+-_ ,\r\n\"\x00naifUSChin", max_size=5))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), kind=st.sampled_from(sorted(LOADERS)))
def test_label_fast_pass_agrees_with_the_csv_loop(label_file_bytes, tmp_path, data, kind):
    lines = label_file_bytes[kind].decode("utf-8").split("\n")
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        row = data.draw(st.integers(0, len(lines) - 1), label="row")
        fields = lines[row].split(",")
        fields[data.draw(st.integers(0, len(fields) - 1), label="field")] = data.draw(TOKENS)
        lines[row] = ",".join(fields)
    path = tmp_path / "fuzzed.csv"
    path.write_bytes("\n".join(lines).encode("utf-8"))
    assert _outcome(kind, path) == _csv_loop_outcome(kind, path)


def _midpoint(m, k):
    """The decimal digits of (2m + 1) / 2**k, which lies halfway between two
    float64 for 2**52 <= m < 2**53."""
    if k <= 0:
        return str((2 * m + 1) << -k)
    digits = str((2 * m + 1) * 5 ** k).rjust(k + 1, "0")
    return digits[:-k] + "." + digits[-k:]


FEATURE_TOKENS = st.one_of(
    st.tuples(st.floats(allow_nan=False, allow_infinity=False),
              st.sampled_from(["%r", "%.17g", "%.25g", "%e"])).map(lambda p: p[1] % p[0]),
    st.tuples(st.sampled_from(["", "-", "+"]), st.text("0123456789", min_size=1, max_size=30),
              st.integers(-1, 30)).map(
        lambda p: p[0] + (p[1] if p[2] < 0 else p[1][:p[2]] + "." + p[1][p[2]:])),
    st.builds(_midpoint, st.integers(2**52, 2**53 - 1), st.integers(-11, 30)),
    st.sampled_from(["9007199254740993", "-4503599627370496.5", "-0.0", "-0", "0.0", ".5",
                     "5.", "+.5", "-.5", "\r", "0.5\r", "1\r2", "", "-", ".", "-.", "1.2.3",
                     "1-2", "1e400", "1e-400", "1_0", " 0.5", "nan", "-inf", '"0.5"', "\x00",
                     "9" * 19, "-" + "9" * 19, "9223372036854775808", "-9223372036854775808"]),
    st.text(alphabet="0123456789.eE+-, \r\n\"", max_size=6))


@pytest.mark.parametrize("exact", [True, False], ids=["long-double", "float-only"])
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_feature_fast_pass_agrees_with_the_csv_loop(feature_file_bytes, tmp_path, data, exact):
    if exact and not pmtl.decimals.EXACT_SCALE:
        pytest.skip("long double arithmetic here has no 64-bit significand")
    lines = feature_file_bytes["csv"].decode("utf-8").split("\n")
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        row = data.draw(st.integers(0, len(lines) - 1), label="row")
        fields = lines[row].split(",")
        fields[data.draw(st.integers(0, len(fields) - 1), label="field")] = data.draw(
            FEATURE_TOKENS, label="token")
        lines[row] = ",".join(fields)
    text = "\n".join(lines)
    if data.draw(st.booleans(), label="cut the final newline"):
        text = text.rstrip("\n")
    path = tmp_path / "fuzzed.csv"
    path.write_bytes(text.encode("utf-8"))
    with mock.patch.object(pmtl.decimals, "EXACT_SCALE", exact):
        assert _outcome("features", path) == _csv_loop_outcome("features", path)


def make_features(ids, offset=0.0):
    n = len(ids)
    values = np.arange(n * 3, dtype=np.float64).reshape(n, 3) + offset
    return FeatureTable(ids=tuple(ids), features=values)


def make_labels(ids, rng=None):
    rng = rng or np.random.default_rng(0)
    n = len(ids)
    return LabelTable(
        ids=tuple(ids),
        emotion=rng.uniform(0, 1, size=(n, 10)),
        age=rng.integers(20, 40, size=n),
        country=rng.integers(0, 4, size=n),
    )


def rows_of(part):
    """The rows of a split part in id order, as its readers take them."""
    return part.take(np.arange(len(part)), axis=0)


def test_join_sorts_ids_lexicographically():
    features = {"train": make_features(["c", "a", "b"]),
                "val": make_features(["z", "y"], offset=100.0)}
    labels = make_labels(["a", "b", "c", "y", "z"])
    ds = join_splits(features, labels)
    assert ds.train.ids == ("a", "b", "c")
    assert ds.val.ids == ("y", "z")
    # features follow their ids through the sort, and the loaded rows stay as they are
    assert rows_of(ds.train)[0].tolist() == [3.0, 4.0, 5.0]  # id "a" was row 1
    assert ds.train.rows is features["train"].features


def test_join_aligns_labels_by_id():
    features = {"train": make_features(["b", "a"]), "val": make_features(["c"], 50.0)}
    labels = make_labels(["c", "a", "b"])
    ds = join_splits(features, labels)
    for i, sid in enumerate(ds.train.ids):
        assert np.array_equal(ds.train.y_emotion[i], labels.emotion[labels.ids.index(sid)])


def test_join_missing_label_lists_ids():
    features = {"train": make_features(["a", "b"]), "val": make_features(["c"], 50.0)}
    labels = make_labels(["a", "c"])
    with pytest.raises(DataError, match="b"):
        join_splits(features, labels)


def test_join_rejects_shared_ids_across_splits():
    features = {"train": make_features(["a", "b"]), "val": make_features(["b"], 50.0)}
    with pytest.raises(DataError, match="share"):
        join_splits(features, make_labels(["a", "b"]))


def test_join_unlabeled_test_passes_through():
    # the part ``eval`` predicts on may lack labels: its ids pass through,
    # sorted, with their feature rows
    features = make_features(["t2", "t1"], 20.0)
    part = build_part(features, None, "eval")
    assert not part.labeled
    assert part.ids == ("t1", "t2")
    assert np.array_equal(rows_of(part), features.features[::-1])
    # given labels, every id needs one
    with pytest.raises(DataError, match="t2"):
        build_part(features, make_labels(["a", "t1"]), "eval")


def test_age_scaler_fit_on_train_only():
    features = {"train": make_features(["a", "b"]), "val": make_features(["c"], 50.0)}
    labels = make_labels(["a", "b", "c"])
    ds = join_splits(features, labels)
    train_ages = ds.train.y_age
    assert ds.age_scaler.mode == "zscore"
    assert ds.age_scaler.center.tolist() == [train_ages.mean()]
    assert ds.age_scaler.scale.tolist() == [train_ages.std()]


def test_age_scaler_round_trip(age_scaler):
    scaler = age_scaler(29.5, 4.25)
    ages = np.array([20.0, 29.5, 39.0])
    assert np.allclose(scaler.invert(scaler.apply(ages)), ages, atol=1e-12)
    # degenerate spread falls back to std 1
    assert Standardizer.fit(np.array([[30.0], [30.0], [30.0]]), "zscore").scale.tolist() == [1.0]


@pytest.mark.parametrize("kind", ["integer", "uniform", "constant"])
def test_age_scaler_has_the_bits_of_numpys_1d_mean_and_std(kind):
    # a lone column is summed pairwise, as numpy sums a 1-D array; a fit that
    # streamed the ages row by row (``_row_stats``) would give other bits
    rng = np.random.default_rng(29)
    for n in (*range(1, 300), 1_000, 2_000, 4_097, 20_000, 65_537):
        years = {"integer": lambda: rng.integers(18, 90, n).astype(np.float64),
                 "uniform": lambda: rng.uniform(18.0, 90.0, n),
                 "constant": lambda: np.full(n, 41.0)}[kind]()
        scaler = Standardizer.fit(years.reshape(-1, 1), "zscore")
        mean, std = years.mean(), years.std()
        assert scaler.center.tobytes() == mean.tobytes(), n
        assert scaler.scale.tobytes() == (std if std > 0 else np.float64(1.0)).tobytes(), n
        assert scaler.degenerate_columns == (() if std > 0 else (0,))
        std = std if std > 0 else 1.0
        scaled = scaler.apply(years.reshape(-1, 1))
        assert scaled.tobytes() == ((years - mean) / std).tobytes(), n
        assert scaler.invert(scaled[:, 0]).tobytes() == (scaled[:, 0] * std + mean).tobytes(), n


def test_standardize_zscore_train_stats():
    ds = synth_dataset(SynthSpec(n_train=100, n_val=30, dim=8, rank=3, seed=1))
    out = standardize(ds, "zscore")
    assert np.abs(rows_of(out.train).mean(axis=0)).max() < 1e-10
    assert np.abs(rows_of(out.train).std(axis=0) - 1.0).max() < 1e-9
    # val transformed with train stats, not its own
    assert np.abs(rows_of(out.val).mean(axis=0)).max() > 1e-6


def test_standardize_minmax_range():
    ds = synth_dataset(SynthSpec(n_train=100, n_val=30, dim=8, rank=3, seed=1))
    out = standardize(ds, "minmax")
    assert rows_of(out.train).min() >= -1.0 - 1e-12
    assert rows_of(out.train).max() <= 1.0 + 1e-12


def test_standardize_none_is_identity():
    ds = synth_dataset(SynthSpec(n_train=50, n_val=20, dim=4, rank=2, seed=2))
    before = {split: getattr(ds, split).rows.copy() for split in ("train", "val")}
    out = standardize(ds, "none")
    for split, x in before.items():
        assert rows_of(getattr(out, split)).tobytes() == x.tobytes()
        assert getattr(ds, split).rows.tobytes() == x.tobytes()  # the input is left as it was
    assert out.train.standardizer.mode == "none"


def test_standardize_no_leakage():
    spec = SynthSpec(n_train=80, n_val=40, dim=6, rank=3, seed=3)
    std_a = standardize(synth_dataset(spec), "zscore").train.standardizer
    # mutate val features; train-derived stats must not move
    ds = synth_dataset(spec)
    ds_mut = replace(ds, val=replace(ds.val, rows=ds.val.rows + 1000.0))
    std_b = standardize(ds_mut, "zscore").train.standardizer
    assert np.array_equal(std_a.center, std_b.center)
    assert np.array_equal(std_a.scale, std_b.scale)


def test_standardize_zero_variance_flagged():
    x = np.ones((10, 3))
    x[:, 1] = np.arange(10.0)
    std = Standardizer.fit(x, "zscore")
    assert std.degenerate_columns == (0, 2)
    applied = std.apply(x)
    assert np.allclose(applied[:, 0], 0.0)  # centered, unscaled
    assert np.allclose(applied[:, 1].std(), 1.0)


def test_standardizer_apply_makes_one_array(rng_np, traced_peak):
    x = rng_np.standard_normal((500, 256)) * 3.0 + 1.0
    std = Standardizer.fit(x, "zscore")
    out, peak = traced_peak(lambda: std.apply(x))
    assert out.tobytes() == ((x - std.center) / std.scale).tobytes()
    assert peak <= 1.1 * out.nbytes


@pytest.mark.parametrize("mode", ["none", "zscore", "minmax"])
def test_join_and_standardize_sorted_input_copy_nothing(mode, traced_peak):
    features, labels = synth_tables(SynthSpec(n_train=1600, n_val=400, dim=512, rank=4))
    raw = {split: table.features.copy() for split, table in features.items()}
    feature_bytes = sum(x.nbytes for x in raw.values())
    ds, peak = traced_peak(lambda: standardize(join_splits(features, labels), mode))
    assert peak <= 0.1 * feature_bytes
    # the parts hold the loaded arrays as they were loaded, and take them
    # with the bits of a standardizer applied to copies
    expected = Standardizer.fit(raw["train"], mode)
    for split in ("train", "val"):
        part = getattr(ds, split)
        assert part.rows is features[split].features
        assert part.rows.tobytes() == raw[split].tobytes()
        assert rows_of(part).tobytes() == expected.apply(raw[split]).tobytes()


@pytest.mark.parametrize("mode", ["zscore", "minmax"])
def test_load_join_and_standardize_shuffled_csv_hold_one_copy(tmp_path, mode, traced_peak):
    # a CSV in shuffled id order: the parts keep the loaded arrays and a map
    # from id order to their rows; gathering a sorted copy traced 2.08x
    features, labels = synth_tables(SynthSpec(n_train=2000, n_val=500, dim=512, rank=4))
    for split, table in features.items():
        order = np.random.default_rng(len(split)).permutation(len(table))
        save_features_csv(FeatureTable(tuple(table.ids[i] for i in order),
                                       table.features[order]), tmp_path / f"{split}.csv")
    feature_bytes = sum(table.features.nbytes for table in features.values())

    def load_join_and_standardize():
        tables = {split: load_features(tmp_path / f"{split}.csv") for split in ("train", "val")}
        return standardize(join_splits(tables, labels), mode)
    ds, peak = traced_peak(load_join_and_standardize)
    assert peak <= 1.2 * feature_bytes
    expected = Standardizer.fit(features["train"].features, mode)
    for split in ("train", "val"):
        part = getattr(ds, split)
        assert part.order is not None and part.ids == features[split].ids
        assert rows_of(part).tobytes() == expected.apply(features[split].features).tobytes()


@pytest.mark.parametrize("shape", [
    (1, 4), (2, 3), (2, 6373), (5, 7), (3, 40000), (1001, 300), (4000, 33),
    (100000, 2), (1, 1), (2, 1), (70000, 1),
], ids=str)
def test_zscore_fit_bit_equal_to_numpy(shape):
    rng = np.random.default_rng(sum(shape))
    x = rng.standard_normal(shape) * rng.uniform(0.1, 50.0, shape[1]) + rng.normal(0, 9, shape[1])
    for array in (x, np.asfortranarray(x)):
        std = Standardizer.fit(array, "zscore")
        assert std.center.tobytes() == array.mean(axis=0).tobytes()
        spread = array.std(axis=0)
        assert std.scale.tobytes() == np.where(spread == 0.0, 1.0, spread).tobytes()


@pytest.mark.parametrize("mode,value", [("zscore", 1e300), ("minmax", 1e308)])
def test_fit_that_overflows_names_the_column(rng_np, mode, value):
    # the column's spread overflows to inf: raised rather than scaled to zeros
    x = rng_np.standard_normal((20, 5))
    x[:3, 2] = value
    x[3, 2] = -value
    with pytest.raises(DataError, match=f"^feature f2: values overflow the {mode} fit$"):
        Standardizer.fit(x, mode)


@pytest.mark.parametrize("out", ["new", "in-place"])
def test_apply_that_overflows_names_the_column(rng_np, out):
    # a split the fit did not see: -1.7e308 against a center of 1e307
    train = rng_np.standard_normal((10, 4))
    train[:, 1] = 1e307
    std = Standardizer.fit(train, "minmax")
    x = rng_np.standard_normal((6, 4))
    x[4, 1] = -1.7e308
    with pytest.raises(DataError,
                       match="^feature f1: values overflow the minmax standardization$"):
        std.apply(x, out=None if out == "new" else x)


def test_zscore_fit_scratch_is_fixed(rng_np, traced_peak):
    x = rng_np.standard_normal((4000, 300))
    _, peak = traced_peak(lambda: Standardizer.fit(x, "zscore"))
    # the block scratch, numpy's own iteration buffer and a few (d,) vectors
    assert peak <= 8 * (FIT_CHUNK + np.getbufsize()) + 10 * x[0].nbytes < x.nbytes / 10


def test_batches_sizes_and_coverage():
    rng = RngStream(0)
    parts = batches(10, 4, rng)
    assert [len(b) for b in parts] == [4, 4, 2]
    assert sorted(np.concatenate(parts).tolist()) == list(range(10))


def test_batches_oversized_batch():
    parts = batches(5, 100, RngStream(1))
    assert len(parts) == 1 and len(parts[0]) == 5


def test_batches_deterministic_and_epochs_differ():
    a = batches(20, 6, RngStream(9))
    b = batches(20, 6, RngStream(9))
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    stream = RngStream(9)
    epoch1 = np.concatenate(batches(20, 6, stream))
    epoch2 = np.concatenate(batches(20, 6, stream))
    assert not np.array_equal(epoch1, epoch2)
    # every sample exactly once per epoch
    assert sorted(epoch2.tolist()) == list(range(20))


def test_synth_deterministic():
    spec = SynthSpec(n_train=60, n_val=20, dim=10, rank=4, seed=5)
    f1, l1 = synth_tables(spec)
    f2, l2 = synth_tables(spec)
    for split in f1:
        assert f1[split].features.tobytes() == f2[split].features.tobytes()
    assert l1.emotion.tobytes() == l2.emotion.tobytes()
    assert np.array_equal(l1.age, l2.age)
    assert np.array_equal(l1.country, l2.country)


def test_synth_label_ranges():
    ds = synth_dataset(SynthSpec(n_train=300, n_val=100, dim=16, rank=5, seed=6))
    assert ds.train.y_emotion.min() >= 0.0
    assert ds.train.y_emotion.max() <= 1.0
    assert ds.train.y_age.min() >= 20
    assert ds.train.y_age.max() <= 39
    # all four countries present for n >= 200
    assert set(np.unique(ds.train.y_country)) == {0, 1, 2, 3}


def test_synth_test_split_optional():
    spec = SynthSpec(n_train=50, n_val=20, n_test=30, dim=8, rank=3, seed=7)
    features, labels = synth_tables(spec)
    assert set(features) == {"train", "val", "test"}
    assert len(features["test"]) == 30
    # synthetic test labels are known and written with the others
    assert set(features["test"].ids) <= set(labels.ids)
    assert set(synth_tables(SynthSpec(n_train=50, n_val=20, dim=8, rank=3))[0]) == {"train", "val"}
    ds = synth_dataset(spec)
    assert (len(ds.train), len(ds.val)) == (50, 20)


def test_synth_validation():
    with pytest.raises(ValueError):
        SynthSpec(rank=100, dim=10)
    with pytest.raises(ValueError):
        SynthSpec(n_train=1)
    with pytest.raises(ValueError):
        SynthSpec(feature_noise=-0.1)


def ridge_ccc_oracle(ds):
    """Closed-form ridge regression from features to emotion targets;
    returns the validation mean CCC. Entirely independent of the model
    code: plain linear algebra on the raw arrays."""
    x = np.hstack([ds.train.rows, np.ones((len(ds.train), 1))])
    y = ds.train.y_emotion
    lam = 1e-3
    w = np.linalg.solve(x.T @ x + lam * np.eye(x.shape[1]), x.T @ y)
    xv = np.hstack([ds.val.rows, np.ones((len(ds.val), 1))])
    pred = xv @ w
    cccs = []
    for j in range(y.shape[1]):
        p, t = pred[:, j], ds.val.y_emotion[:, j]
        cov = ((p - p.mean()) * (t - t.mean())).mean()
        denom = p.var() + t.var() + (p.mean() - t.mean()) ** 2
        cccs.append(2 * cov / denom)
    return float(np.mean(cccs))


def test_synth_features_predict_labels():
    # planted structure: a closed-form linear probe must find real signal
    ds = synth_dataset(SynthSpec(n_train=400, n_val=150, dim=24, rank=6, seed=8))
    assert ridge_ccc_oracle(ds) > 0.3


def test_feature_table_shape_guard(rng_np):
    with pytest.raises(Exception):
        FeatureTable(ids=("a", "b"), features=rng_np.standard_normal((3, 2)))
