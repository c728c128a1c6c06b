"""Checkpoint container: bit-exact round-trips and corruption handling."""

import struct
import types

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pmtl.checkpoint
from pmtl.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from pmtl.data import Standardizer
from pmtl.errors import DataFormatError, PmtlError
from pmtl.model import ModelConfig, init_params, param_shapes, predict
from pmtl.rng import RngStream


@pytest.fixture
def saved(tmp_path, tiny_config, age_scaler):
    params = init_params(tiny_config, RngStream(1))
    scaler = age_scaler(29.731, 4.128)
    std = Standardizer(
        mode="zscore",
        center=np.linspace(-1, 1, tiny_config.input_dim),
        scale=np.linspace(0.5, 2.0, tiny_config.input_dim),
        degenerate_columns=(2,),
    )
    path = tmp_path / "model.pmck"
    save_checkpoint(path, params, tiny_config, scaler, std)
    return path, params, tiny_config, scaler, std


def test_round_trip_bit_exact(saved):
    path, params, config, scaler, std = saved
    ck = load_checkpoint(path)
    assert ck.config == config
    assert set(ck.params) == set(params)
    for name, v in params.items():
        assert v.dtype == np.float64
        assert np.array_equal(ck.params[name], v), name
    assert ck.age_scaler.center.tolist() == scaler.center.tolist() == [29.731]
    assert ck.age_scaler.scale.tolist() == scaler.scale.tolist() == [4.128]
    assert ck.standardizer.mode == "zscore"
    assert np.array_equal(ck.standardizer.center, std.center)
    assert np.array_equal(ck.standardizer.scale, std.scale)
    assert ck.standardizer.degenerate_columns == (2,)


def test_save_is_deterministic(tmp_path, tiny_config, age_scaler):
    params = init_params(tiny_config, RngStream(3))
    scaler = age_scaler(30.0, 5.0)
    p1 = tmp_path / "a.pmck"
    p2 = tmp_path / "b.pmck"
    save_checkpoint(p1, params, tiny_config, scaler)
    save_checkpoint(p2, params, tiny_config, scaler)
    assert p1.read_bytes() == p2.read_bytes()


def test_resave_after_load_identical_bytes(saved, tmp_path):
    path, *_ = saved
    ck = load_checkpoint(path)
    path2 = tmp_path / "again.pmck"
    save_checkpoint(path2, ck.params, ck.config, ck.age_scaler, ck.standardizer)
    assert path.read_bytes() == path2.read_bytes()


def test_no_standardizer_is_allowed(tmp_path, tiny_config, age_scaler):
    params = init_params(tiny_config, RngStream(2))
    path = tmp_path / "bare.pmck"
    save_checkpoint(path, params, tiny_config, age_scaler(30.0, 5.0))
    ck = load_checkpoint(path)
    assert ck.standardizer is None


def test_preserves_exact_float_values(tmp_path, tiny_config, age_scaler):
    params = init_params(tiny_config, RngStream(2))
    # values that expose any text/float round-trip sloppiness
    params["shared0.w"][0, 0] = 0.1 + 0.2
    params["shared0.w"][0, 1] = np.nextafter(1.0, 2.0)
    scaler = age_scaler(1.0 / 3.0, np.nextafter(4.5, 5.0))
    path = tmp_path / "exact.pmck"
    save_checkpoint(path, params, tiny_config, scaler)
    ck = load_checkpoint(path)
    assert ck.params["shared0.w"][0, 0] == 0.1 + 0.2
    assert ck.params["shared0.w"][0, 1] == np.nextafter(1.0, 2.0)
    assert ck.age_scaler.center[0] == 1.0 / 3.0
    assert ck.age_scaler.scale[0] == np.nextafter(4.5, 5.0)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.pmck"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(DataFormatError, match="magic"):
        load_checkpoint(path)


def payload_size(blob):
    (header_len,) = struct.unpack_from("<I", blob, 6)
    return len(blob) - 10 - header_len


def test_truncated_payload_rejected(saved, tmp_path):
    path, *_ = saved
    blob = path.read_bytes()
    clipped = tmp_path / "clipped.pmck"
    clipped.write_bytes(blob[:-16])
    size = payload_size(blob)
    with pytest.raises(DataFormatError,
                       match=f"payload is {size - 16} bytes, the tables need {size}$"):
        load_checkpoint(clipped)


def test_trailing_bytes_rejected(saved, tmp_path):
    path, *_ = saved
    padded = tmp_path / "padded.pmck"
    padded.write_bytes(path.read_bytes() + b"\x00" * 8)
    size = payload_size(path.read_bytes())
    with pytest.raises(DataFormatError,
                       match=f"payload is {size + 8} bytes, the tables need {size}$"):
        load_checkpoint(padded)


def test_magic_constant():
    assert MAGIC == b"PMCK"


def test_payload_is_the_tensors_in_sorted_name_order(saved):
    path, params, *_ = saved
    blob = path.read_bytes()
    (header_len,) = struct.unpack_from("<I", blob, 6)
    start = 10 + header_len
    ordered = np.concatenate([params[name].reshape(-1) for name in sorted(params)])
    assert blob[start:start + ordered.nbytes] == ordered.astype("<f8").tobytes()


def test_load_gives_the_training_layout_and_its_predictions(saved):
    path, params, config, scaler, _ = saved
    ck = load_checkpoint(path)
    assert ck.params.layout == params.layout == param_shapes(config)
    assert list(ck.params) == list(params)
    x = np.random.default_rng(0).standard_normal((9, config.input_dim))
    want, got = (predict(p, config, x, scaler) for p in (params, ck.params))
    for key in ("emotion", "age_years", "country"):
        assert getattr(got, key).tobytes() == getattr(want, key).tobytes(), key


def test_load_holds_the_file_and_one_copy_of_each_table(tmp_path, traced_peak, age_scaler):
    config = ModelConfig(input_dim=1024)
    std = Standardizer(mode="zscore", center=np.zeros(1024), scale=np.ones(1024))
    path = tmp_path / "wide.pmck"
    save_checkpoint(path, init_params(config, RngStream(2)), config, age_scaler(30.0, 5.0), std)
    _, peak = traced_peak(lambda: load_checkpoint(path))
    assert peak <= 2.2 * path.stat().st_size


def test_load_checks_finiteness_in_fixed_scratch(tmp_path, traced_peak, age_scaler):
    config = ModelConfig(input_dim=1024)
    std = Standardizer(mode="zscore", center=np.zeros(1024), scale=np.ones(1024))
    path = tmp_path / "wide.pmck"
    save_checkpoint(path, init_params(config, RngStream(2)), config, age_scaler(30.0, 5.0), std)
    _, peak = traced_peak(lambda: load_checkpoint(path))
    # the file and one copy of each table; a flag per parameter would add 1/8 of the file
    assert peak <= 2.05 * path.stat().st_size


def test_unsorted_tensor_index_rejected(saved, tmp_path, rewrite_header):
    path, *_ = saved
    swapped = rewrite_header(path, tmp_path / "swapped.pmck", lambda h: h["tensors"].reverse())
    # the first entry stored is the last by name
    with pytest.raises(DataFormatError, match=r"tensors holds \['shared1.w', \[5, 4\]\], "
                                              r"where the config implies \['age_hidden0.b'"):
        load_checkpoint(swapped)


def test_failed_save_leaves_existing_checkpoint(saved, monkeypatch):
    path, params, config, scaler, std = saved
    before = path.read_bytes()

    def disk_full(*args):
        raise OSError("no space left on device")

    # the failure strikes after the magic has been written
    monkeypatch.setattr(pmtl.checkpoint, "struct", types.SimpleNamespace(pack=disk_full))
    with pytest.raises(OSError, match="no space"):
        save_checkpoint(path, params, config, scaler, std)
    assert path.read_bytes() == before
    assert sorted(p.name for p in path.parent.iterdir()) == [path.name]


@pytest.mark.parametrize("edit,fragment", [
    pytest.param(lambda h: h.update(tensors=[[1, 2]]), r"tensors holds \[1, 2\]",
                 id="tensors-malformed"),
    (lambda h: h.update(config=dict(h["config"], input_dim=7)), "shared0.w"),
    pytest.param(lambda h: h.update(aux=[["standardizer.center", [3]],
                                         ["standardizer.scale", [9]]]),
                 r"aux holds \['standardizer.center', \[3\]\]", id="aux-width"),
    (lambda h: h["age_scaler"].update(mean=float("nan")), "non-finite"),
    pytest.param(lambda h: h.update(aux=h["aux"][::-1]),
                 r"aux holds \['standardizer.scale', \[6\]\], where the config implies "
                 r"\['standardizer.center'", id="aux-unsorted"),
    pytest.param(lambda h: h.update(aux=[["a", [-1]], *h["aux"]]),
                 r"aux holds \['a', \[-1\]\]", id="aux-negative"),
    # the standardizer dropped while its arrays stay: eval would score unscaled features
    pytest.param(lambda h: h.update(standardizer=None),
                 r"aux holds \['standardizer.center', \[6\]\], where the config implies "
                 "nothing", id="standardizer-dropped"),
    pytest.param(lambda h: h.update(aux=[["a", [0]], *h["aux"]]), r"aux holds \['a', \[0\]\]",
                 id="aux-extra-empty"),
    pytest.param(lambda h: h["tensors"].append(["extra.w", [1]]),
                 r"tensors holds \['extra.w', \[1\]\], where the config implies nothing",
                 id="tensors-extra"),
])
def test_inconsistent_checkpoint_header_rejected(saved, tmp_path, rewrite_header, edit,
                                                fragment):
    path, *_ = saved
    with pytest.raises(DataFormatError, match=fragment):
        load_checkpoint(rewrite_header(path, tmp_path / "bad.pmck", edit))


@pytest.mark.parametrize("fault,fragment", [("missing", "shared1.w"), ("nan", "non-finite")])
def test_missing_or_non_finite_tensor_rejected(saved, tmp_path, rewrite_header, fault,
                                               fragment):
    path, params, config, scaler, std = saved
    bad = tmp_path / "bad.pmck"
    if fault == "missing":
        rewrite_header(path, bad, lambda h: h.update(
            tensors=[entry for entry in h["tensors"] if entry[0] != "shared1.w"]))
    else:
        params["shared0.w"][0, 0] = np.nan
        save_checkpoint(bad, params, config, scaler, std)
    with pytest.raises(DataFormatError, match=fragment):
        load_checkpoint(bad)


@pytest.fixture(scope="module")
def checkpoint_bytes(tmp_path_factory, age_scaler):
    config = ModelConfig(input_dim=3, shared_dims=(2,), age_head_dims=(2, 1),
                         emotion_hidden=2, country_hidden=2)
    path = tmp_path_factory.mktemp("ck") / "real.pmck"
    std = Standardizer(mode="zscore", center=np.zeros(3), scale=np.ones(3))
    save_checkpoint(path, init_params(config, RngStream(0)), config,
                    age_scaler(30.0, 4.0), std)
    return path.read_bytes()


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_corrupted_checkpoint_loads_or_raises_pmtl_error(checkpoint_bytes, tmp_path, data):
    blob = bytearray(checkpoint_bytes)
    if data.draw(st.booleans(), label="truncate"):
        del blob[data.draw(st.integers(0, len(blob) - 1), label="keep"):]
    else:
        for pos in data.draw(st.lists(st.integers(0, len(blob) - 1), min_size=1,
                                      max_size=4), label="positions"):
            blob[pos] ^= data.draw(st.integers(1, 255), label="xor")
    path = tmp_path / "fuzzed.pmck"
    path.write_bytes(bytes(blob))
    try:
        load_checkpoint(path)
    except PmtlError:
        pass
