"""Counter-based RNG: reference oracle, blocking invariance, distributions."""

import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from pmtl.rng import GOLDEN, MASK64, RngStream, derive_subseed, mix64

# Independent reference implementation of the splitmix64 finalizer,
# written from the published constants; the library must agree with it
# bit for bit.


def reference_mix64(z):
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def reference_stream(seed, n):
    key = reference_mix64(seed)
    return [reference_mix64((key + (i + 1) * GOLDEN) & MASK64) for i in range(n)]


def test_mix64_matches_reference_oracle():
    probes = [0, 1, 2, 42, GOLDEN, MASK64, 0xDEADBEEF, 2**63, 2**32 - 1]
    for z in probes:
        assert mix64(z) == reference_mix64(z)


def test_mix64_published_vector():
    # splitmix64 seeded with 0 emits mix(GOLDEN) as its first output
    assert mix64(GOLDEN) == 0xE220A8397B1DCDAF
    assert mix64(0) == 0


def test_stream_matches_reference():
    for seed in (0, 1, 42, 2**64 - 1):
        stream = RngStream(seed)
        assert stream.u64(20).tolist() == reference_stream(seed, 20)


def test_frozen_words_seed_42():
    # regression pin: first five raw words of seed 42
    expected = [
        0x989B3F130A063869,
        0x290DB4BF2570DED7,
        0x2A990BE63A01B2D5,
        0x0C4B6B24EF01890E,
        0xFB16A06E52EC10A7,
    ]
    assert RngStream(42).u64(5).tolist() == expected


def test_blocking_invariance():
    a = RngStream(7)
    b = RngStream(7)
    block = a.u64(10).tolist()
    assert block == reference_stream(7, 10)
    assert block == b.u64(3).tolist() + b.u64(7).tolist()


def test_distinct_seeds_distinct_streams():
    words = {seed: tuple(RngStream(seed).u64(4).tolist()) for seed in range(50)}
    assert len(set(words.values())) == 50


def test_uniform_range_and_resolution():
    u = RngStream(3).uniform(10000)
    assert np.all((u >= 0.0) & (u < 1.0))
    # 53-bit construction: scaling by 2**53 recovers integers
    assert np.all(u * 2.0**53 == np.round(u * 2.0**53))
    assert abs(u.mean() - 0.5) < 0.02


def test_uniform_scalar_matches_vector():
    # the vectorised uniforms equal the 53-bit construction on scalar words
    words = reference_stream(9, 4)
    assert [(w >> 11) * 2.0**-53 for w in words] == RngStream(9).uniform(4).tolist()


def test_normal_moments():
    z = RngStream(1).normal(20000)
    assert np.isfinite(z).all()
    assert abs(z.mean()) < 0.03
    assert abs(z.std() - 1.0) < 0.03
    # roughly symmetric tails
    assert 0.4 < np.mean(z > 0) < 0.6


def test_normal_consumes_two_words_each():
    a = RngStream(5)
    b = RngStream(5)
    a.normal(6)
    b.u64(12)
    assert a.u64(1).tolist() == b.u64(1).tolist()


def test_normal_matrix_shape_and_determinism():
    m1 = RngStream(8).normal_matrix(7, 3)
    m2 = RngStream(8).normal_matrix(7, 3)
    assert m1.shape == (7, 3)
    assert np.array_equal(m1, m2)


def test_permutation_is_permutation():
    for seed in range(20):
        p = RngStream(seed).permutation(31)
        assert sorted(p.tolist()) == list(range(31))


def test_permutation_distribution():
    # all 6 orderings of 3 elements appear with roughly equal frequency
    counts = Counter(
        tuple(RngStream(derive_subseed(0, i)).permutation(3).tolist())
        for i in range(3000)
    )
    assert len(counts) == 6
    for count in counts.values():
        assert 380 < count < 620


def test_derive_subseed_properties():
    seen = {derive_subseed(123, i) for i in range(200)}
    assert len(seen) == 200
    assert derive_subseed(123, 7) == derive_subseed(123, 7)
    assert derive_subseed(123, 7) != derive_subseed(124, 7)
    with pytest.raises(ValueError):
        derive_subseed(1, -1)


def test_bit_identical_across_processes():
    code = (
        "from pmtl.rng import RngStream;"
        "print(','.join(map(str, RngStream(42).u64(5).tolist())))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    child = [int(v) for v in out.stdout.strip().split(",")]
    assert child == RngStream(42).u64(5).tolist()
