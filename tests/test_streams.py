"""Tests for the counter-based node stream layer."""

import numpy as np
import pytest

from cascadekit import streams
from cascadekit.streams import (
    level_offset,
    mix64,
    node_words,
    premix_seed,
    sign_bits,
    sign_threshold,
)


def test_mix64_known_scrambles():
    """The finalizer is deterministic, injective, and moves nonzero input.

    Zero is the mixer's one fixed point; node counters never hit it
    because the stream offsets every index by a premixed seed.
    """
    x = np.arange(1, 17, dtype=np.uint64)
    out1 = mix64(x.copy())
    out2 = mix64(x.copy())
    assert np.array_equal(out1, out2)
    assert not np.any(out1 == x)
    assert len(set(out1.tolist())) == 16


def test_mix64_avalanche():
    """Flipping one input bit flips roughly half the output bits."""
    base = np.array([0x0123456789ABCDEF], dtype=np.uint64)
    flipped = base ^ np.uint64(1)
    diff = int(mix64(base)[0]) ^ int(mix64(flipped)[0])
    popcount = bin(diff).count("1")
    assert 16 <= popcount <= 48


def test_premix_seed_distinct():
    seeds = [premix_seed(s) for s in (0, 1, 2, 2**63, 2**64 - 1)]
    assert len(set(int(s) for s in seeds)) == len(seeds)


def test_level_offset_binary():
    """Breadth-first node indexing: level L starts after the full
    prefix tree, (b^L - b)/(b - 1) nodes for levels 1..L-1."""
    assert level_offset(2, 1) == 0
    assert level_offset(2, 2) == 2
    assert level_offset(2, 3) == 6
    assert level_offset(2, 4) == 14
    assert level_offset(3, 2) == 3
    assert level_offset(3, 3) == 12


def test_node_words_deterministic_and_stateless():
    state = premix_seed(42)
    idx = np.arange(100, dtype=np.uint64)
    w1 = node_words(state, idx)
    w2 = node_words(state, idx[::-1])[::-1]
    assert np.array_equal(w1, w2)


def test_sign_threshold_edges():
    assert sign_threshold(1.0) == 2**64
    assert sign_threshold(0.0) == 0
    assert sign_threshold(1.5) == 2**64
    assert sign_threshold(-0.2) == 0
    mid = sign_threshold(0.5)
    assert abs(mid - 2**63) <= 1


def _unpacked(state, base, level, start, count, threshold):
    """The run's sign bits unpacked, one uint8 0/1 per node."""
    out = np.empty((count + 7) // 8, dtype=np.uint8)
    sign_bits(state, base, level, start, count, threshold, out=out)
    return np.unpackbits(out, count=count)


def test_sign_bits_shortcuts():
    """Threshold 0 sets every bit and 2^64 none; the padding stays 0."""
    state = premix_seed(7)
    ones = sign_bits(state, 2, 3, 0, 11, 0, out=np.empty(2, np.uint8))
    zeros = sign_bits(state, 2, 3, 0, 11, 2**64, out=np.empty(2, np.uint8))
    assert ones.tolist() == [0xFF, 0xE0]
    assert zeros.tolist() == [0, 0]


@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_sign_bits_window_consistency(seed):
    """Any sub-range of a level must equal the same slice of the full
    level: node draws depend only on (seed, node index)."""
    state = premix_seed(seed)
    thr = sign_threshold(0.7)
    full = _unpacked(state, 2, 5, 0, 32, thr)
    part = _unpacked(state, 2, 5, 10, 9, thr)
    assert np.array_equal(part, full[10:19])


def test_sign_bits_frequency():
    """At p_plus = 0.9 about 10% of a large level should be minus."""
    state = premix_seed(3)
    thr = sign_threshold(0.9)
    bits = _unpacked(state, 2, 20, 0, 2**18, thr)
    frac = bits.mean()
    assert 0.09 < frac < 0.11


@pytest.mark.parametrize("threshold", [2**64, 0, sign_threshold(0.7)])
def test_sign_bits_into_buffer(threshold):
    """``out`` is filled and returned with the packed thresholded node
    words, its padding cleared, on every threshold branch."""
    state = premix_seed(5)
    count = 2**17 + 3
    first = level_offset(2, 19) + 321
    words = node_words(state, np.arange(first, first + count,
                                        dtype=np.uint64))
    want = np.packbits((words.astype(object) >= threshold).astype(bool))
    buf = np.full((count + 7) // 8, 0xA5, dtype=np.uint8)
    got = sign_bits(state, 2, 19, 321, count, threshold, out=buf)
    assert got is buf
    assert np.array_equal(buf, want)


@pytest.mark.parametrize("buf", [np.empty(12, dtype=np.uint8),
                                 np.empty(14, dtype=np.uint8),
                                 np.empty(13, dtype=np.int8),
                                 np.empty(13, dtype=np.uint64),
                                 np.empty((1, 13), dtype=np.uint8),
                                 np.empty(100, dtype=np.uint8)])
def test_sign_bits_rejects_a_wrong_buffer_before_hashing(buf, monkeypatch):
    """100 nodes take 13 packed bytes, not one byte each."""
    def no_hashing(*args):
        raise AssertionError("hashed before checking the buffer")

    state = premix_seed(5)
    monkeypatch.setattr(streams, "_mix64_inplace", no_hashing)
    with pytest.raises(ValueError, match="out"):
        sign_bits(state, 2, 10, 0, 100, sign_threshold(0.7), out=buf)
