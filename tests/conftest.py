import json
import struct
import tracemalloc

import numpy as np
import pytest

from pmtl.data import Standardizer, SynthSpec, standardize, synth_dataset
from pmtl.model import ModelConfig


@pytest.fixture
def tiny_config():
    """Smallest config that still exercises every layer kind."""
    return ModelConfig(
        input_dim=6,
        shared_dims=(5, 4),
        emotion_hidden=3,
        country_hidden=3,
        age_head_dims=(3, 2),
        emotion_out=10,
        country_out=4,
    )


@pytest.fixture
def tmp_path(tmp_path_factory):
    """A fresh directory not named after the test: error messages start with
    a file path, so a ``match=`` fragment must not find the test's name."""
    return tmp_path_factory.mktemp("t")


@pytest.fixture(scope="session")
def small_dataset():
    """Standardized synthetic dataset shared by training tests."""
    ds = synth_dataset(SynthSpec(n_train=400, n_val=150, dim=24, rank=6, seed=11))
    return standardize(ds, "zscore")


@pytest.fixture(scope="session")
def age_scaler():
    """``age_scaler(mean, std)``: an age scaler as ``join_splits`` fits one, a
    one-column zscore Standardizer, with that center and scale."""
    return lambda mean, std: Standardizer("zscore", np.array([mean]), np.array([std]))


@pytest.fixture
def rng_np():
    return np.random.default_rng(0)


@pytest.fixture
def traced_peak():
    """``traced_peak(fn)`` gives ``(result, peak bytes)`` that tracemalloc saw
    allocated while ``fn`` ran; numpy reports its array buffers to tracemalloc."""
    def run(fn):
        tracemalloc.start()
        try:
            result = fn()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return run


@pytest.fixture
def rewrite_header():
    """``rewrite_header(path, dst, edit)`` copies the checkpoint at ``path``
    to ``dst`` with ``edit(header)`` applied to its JSON header; the payload
    is kept as it is."""
    def rewrite(path, dst, edit):
        blob = path.read_bytes()
        (header_len,) = struct.unpack_from("<I", blob, 6)
        header = json.loads(blob[10:10 + header_len])
        edit(header)
        raw = json.dumps(header).encode("utf-8")
        dst.write_bytes(blob[:4] + struct.pack("<HI", 1, len(raw)) + raw
                        + blob[10 + header_len:])
        return dst
    return rewrite


@pytest.fixture
def refuse_tables(monkeypatch):
    """Make every 2-D ``np.empty`` raise MemoryError. A refused allocation
    stands in for a real one: whether an oversized ``np.empty`` fails
    depends on the machine's overcommit policy."""
    empty = np.empty

    def refuse(shape, *args, **kwargs):
        if isinstance(shape, tuple) and len(shape) == 2:
            raise MemoryError
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", refuse)
