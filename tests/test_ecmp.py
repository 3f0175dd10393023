"""Tests for ECMP hashing, hash linearity exploitation, and five-tuples."""

import binascii

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import EcmpHasher, FiveTuple, crc16


def _crc16_bitwise(data, seed):
    """CRC-16/CCITT by its definition: 8 shift/xor steps per byte."""
    crc = seed & 0xFFFF
    for byte in data:
        crc ^= byte << 8
        for _ in range(8):
            if crc & 0x8000:
                crc = ((crc << 1) ^ 0x1021) & 0xFFFF
            else:
                crc = (crc << 1) & 0xFFFF
    return crc


class TestCrc16:
    def test_known_value_stable(self):
        # Regression anchor: the hash must be stable across runs since
        # monitoring joins and controller reassignment both replay it.
        assert crc16(b"astral") == crc16(b"astral")

    def test_empty_input(self):
        assert crc16(b"") == 0

    def test_seed_changes_output(self):
        assert crc16(b"flow", seed=1) != crc16(b"flow", seed=0)

    def test_output_is_16_bit(self):
        for data in (b"a", b"abc", b"\xff" * 64):
            assert 0 <= crc16(data) <= 0xFFFF

    @given(st.binary(max_size=64), st.integers(min_value=0,
                                               max_value=(1 << 20) - 1))
    @settings(max_examples=300)
    def test_matches_bitwise_definition(self, data, seed):
        """The C implementation is the bitwise CRC, seeds past 16 bits
        included (only their low 16 bits count)."""
        assert crc16(data, seed=seed) == _crc16_bitwise(data, seed)

    @given(st.binary(min_size=1, max_size=32), st.binary(min_size=1,
                                                         max_size=32))
    @settings(max_examples=50)
    def test_linearity_over_gf2(self, x, y):
        """CRC(x) ^ CRC(y) == CRC(x ^ y) for equal-length messages.

        This is the hash-linearity property [50, 51] the optimized ECMP
        scheme relies on for relative path control.
        """
        n = min(len(x), len(y))
        x, y = x[:n], y[:n]
        xor = bytes(a ^ b for a, b in zip(x, y))
        assert crc16(x) ^ crc16(y) == crc16(xor) ^ crc16(b"\x00" * n)


class TestFiveTuple:
    def test_defaults_are_rocev2(self):
        ft = FiveTuple("a.nic0", "b.nic0", 50000)
        assert ft.dst_port == 4791
        assert ft.protocol == 17

    def test_with_src_port_returns_new(self):
        ft = FiveTuple("a.nic0", "b.nic0", 50000)
        ft2 = ft.with_src_port(50001)
        assert ft.src_port == 50000
        assert ft2.src_port == 50001

    def test_invalid_port_rejected(self):
        ft = FiveTuple("a.nic0", "b.nic0", 50000)
        with pytest.raises(ValueError):
            ft.with_src_port(70000)

    def test_pack_is_injective_on_ports(self):
        ft = FiveTuple("a.nic0", "b.nic0", 50000)
        assert ft.pack() != ft.with_src_port(50001).pack()

    def test_hashable_as_dict_key(self):
        ft = FiveTuple("a.nic0", "b.nic0", 50000)
        assert {ft: 1}[FiveTuple("a.nic0", "b.nic0", 50000)] == 1


class TestEcmpHasher:
    def test_select_in_range(self):
        hasher = EcmpHasher()
        ft = FiveTuple("a.nic0", "b.nic0", 50000)
        for n in (1, 2, 7, 64):
            assert 0 <= hasher.select(ft, n) < n

    def test_select_zero_choices_raises(self):
        with pytest.raises(ValueError):
            EcmpHasher().select(FiveTuple("a", "b", 1), 0)

    def test_port_for_index_steers_flow(self):
        hasher = EcmpHasher()
        ft = FiveTuple("a.nic0", "b.nic0", 50000)
        for target in range(8):
            port = hasher.port_for_index(ft, 8, target)
            assert hasher.select(ft.with_src_port(port), 8) == target

    def test_port_for_index_invalid_target(self):
        with pytest.raises(ValueError):
            EcmpHasher().port_for_index(FiveTuple("a", "b", 1), 4, 4)

    def test_port_for_index_exhausted_candidates(self):
        hasher = EcmpHasher()
        ft = FiveTuple("a.nic0", "b.nic0", 50000)
        # With one candidate port there is at most one reachable index.
        reachable = hasher.select(ft.with_src_port(49152), 1 << 15)
        unreachable = (reachable + 1) % (1 << 15)
        with pytest.raises(ValueError):
            hasher.port_for_index(ft, 1 << 15, unreachable,
                                  candidate_ports=[49152])

    @given(st.integers(min_value=0, max_value=65535),
           st.integers(min_value=2, max_value=64))
    @settings(max_examples=50)
    def test_deterministic(self, port, n):
        ft = FiveTuple("h1.nic0", "h2.nic0", port)
        assert EcmpHasher().select(ft, n) == EcmpHasher().select(ft, n)

    def test_spreads_ports_roughly_uniformly(self):
        """Many source ports should cover all next-hop indices."""
        hasher = EcmpHasher()
        ft = FiveTuple("h1.nic0", "h2.nic0", 0)
        seen = {
            hasher.select(ft.with_src_port(49152 + i), 8)
            for i in range(256)
        }
        assert seen == set(range(8))

    @given(st.text(min_size=1, max_size=24), st.text(min_size=1, max_size=24),
           st.integers(min_value=0, max_value=0xFFFF),
           st.integers(min_value=0, max_value=0xFFFF),
           st.integers(min_value=0, max_value=0xFF),
           st.integers(min_value=0, max_value=(1 << 20) - 1),
           st.text(min_size=1, max_size=24))
    @settings(max_examples=300)
    def test_two_step_hash_is_one_shot_crc(self, src, dst, sport, dport,
                                           protocol, seed, salt):
        """The per-walk CRC continued over a hop's salt `==` the CRC of
        the whole salted payload, computed independently."""
        ft = FiveTuple(src, dst, sport, dport, protocol)
        hasher = EcmpHasher(seed=seed)
        expected = binascii.crc_hqx(ft.pack() + b"@" + salt.encode(),
                                    seed & 0xFFFF)
        two_step = hasher.hop_hash(hasher.flow_hash(ft),
                                   hasher.salt_bytes(salt))
        assert two_step == expected == hasher.hash(ft, salt=salt)
        unsalted = EcmpHasher(seed=seed, per_device_salt=False)
        assert unsalted.hop_hash(unsalted.flow_hash(ft),
                                 unsalted.salt_bytes(salt)) \
            == binascii.crc_hqx(ft.pack(), seed & 0xFFFF) \
            == unsalted.hash(ft, salt=salt)
