"""Tests for the compact fingerprint visited-set (ISSUE 5 tentpole c)."""

import random

import pytest

from repro.mc.fpset import FingerprintSet


def fps(n, seed=0):
    rng = random.Random(seed)
    out = []
    seen = set()
    while len(out) < n:
        fp = rng.getrandbits(128)
        if fp and fp not in seen:
            seen.add(fp)
            out.append(fp)
    return out


class TestBasics:
    def test_add_contains_len(self):
        s = FingerprintSet()
        values = fps(2000)
        for fp in values:
            assert fp not in s
            assert s.add(fp)
            assert fp in s
        assert len(s) == len(values)
        for fp in values:
            assert not s.add(fp)  # idempotent
        assert len(s) == len(values)

    def test_absent_values(self):
        s = FingerprintSet()
        present = fps(500, seed=1)
        absent = [fp for fp in fps(500, seed=2) if fp not in set(present)]
        for fp in present:
            s.add(fp)
        for fp in absent:
            assert fp not in s

    def test_grows_past_initial_capacity(self):
        s = FingerprintSet(capacity=64)
        values = fps(10_000, seed=3)
        for fp in values:
            s.add(fp)
        assert len(s) == len(values)
        assert s.capacity > 64
        assert set(s) == set(values)

    def test_iteration_yields_each_once(self):
        s = FingerprintSet()
        values = fps(333, seed=4)
        for fp in values:
            s.add(fp)
        assert sorted(s) == sorted(values)

    def test_rejects_zero_and_out_of_range(self):
        s = FingerprintSet()
        for bad in (0, -1, 1 << 128):
            with pytest.raises(ValueError):
                s.add(bad)

    def test_adversarial_same_slot_probing(self):
        # Values colliding on the initial probe slot must chain, not lose
        # each other.
        s = FingerprintSet(capacity=64)
        values = [(i << 64) | 5 for i in range(1, 40)]  # same low bits
        for fp in values:
            s.add(fp)
        for fp in values:
            assert fp in s
        assert len(s) == len(values)


class TestPacking:
    def test_to_bytes_is_canonical(self):
        values = fps(100, seed=5)
        a = FingerprintSet(capacity=64)
        b = FingerprintSet(capacity=4096)
        for fp in values:
            a.add(fp)
        for fp in reversed(values):
            b.add(fp)
        # Same contents => same bytes, regardless of capacity and
        # insertion order.
        assert a.to_bytes() == b.to_bytes()
        assert len(a.to_bytes()) == 16 * len(values)

    def test_from_packed_round_trip(self):
        s = FingerprintSet()
        for fp in fps(777, seed=6):
            s.add(fp)
        restored = FingerprintSet.from_packed(s.to_bytes())
        assert len(restored) == len(s)
        assert set(restored) == set(s)
        assert restored.to_bytes() == s.to_bytes()

    def test_from_packed_rejects_ragged_input(self):
        with pytest.raises(ValueError):
            FingerprintSet.from_packed(b"\x01" * 17)


class TestFixedBuffers:
    def test_attach_and_fill(self):
        values = fps(1000, seed=7)
        buf = bytearray(FingerprintSet.buffer_bytes(len(values)))
        s = FingerprintSet.attach(buf, clear=True)
        assert s.fixed
        for fp in values:
            s.add(fp)
        assert len(s) == len(values)
        for fp in values:
            assert fp in s

    def test_reattach_sees_contents(self):
        # A second attachment to the same region (what a fork-shared
        # SharedMemory view amounts to) must see the first one's writes.
        values = fps(300, seed=8)
        buf = bytearray(FingerprintSet.buffer_bytes(len(values)))
        writer = FingerprintSet.attach(buf, clear=True)
        for fp in values:
            writer.add(fp)
        reader = FingerprintSet.attach(buf)
        assert len(reader) == len(values)
        assert all(fp in reader for fp in values)

    def test_fixed_buffer_overflow_raises(self):
        buf = bytearray(64 * 16)
        s = FingerprintSet.attach(buf, clear=True)
        with pytest.raises(OverflowError):
            for fp in fps(64, seed=9):
                s.add(fp)

    def test_attach_validates_geometry(self):
        with pytest.raises(ValueError):
            FingerprintSet.attach(bytearray(100))  # not a multiple of 16
        with pytest.raises(ValueError):
            FingerprintSet.attach(bytearray(48))  # 3 slots: not a power of 2

    def test_buffer_bytes_leaves_load_headroom(self):
        for expected in (1, 10, 1000, 500_000):
            nbytes = FingerprintSet.buffer_bytes(expected)
            capacity = nbytes // 16
            assert capacity & (capacity - 1) == 0
            # expected entries stay within the 2/3 load bound.
            assert expected * 3 <= capacity * 2
