import tracemalloc

import numpy as np
import pytest

from pmtl.data import SynthSpec, standardize, synth_dataset
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


@pytest.fixture(scope="session")
def small_dataset():
    """Standardized synthetic dataset shared by training tests."""
    ds = synth_dataset(SynthSpec(n_train=400, n_val=150, dim=24, rank=6, seed=11))
    return standardize(ds, "zscore")


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
