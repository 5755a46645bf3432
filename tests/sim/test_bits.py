"""Tests for bit-complexity accounting (the paper's future-work metric)."""

from repro.api import run_gossip
from repro.sim.bits import BitMeter, mask_bits


class TestMaskBits:
    def test_empty_mask_is_cheap(self):
        assert mask_bits(0) <= 20

    def test_dense_mask_uses_bitmap(self):
        n = 256
        dense = mask_bits((1 << n) - 1)
        assert dense <= n + 16

    def test_sparse_mask_uses_index_list(self):
        # One bit set at position 255: sparse encoding (8 bits) beats the
        # 256-bit bitmap.
        assert mask_bits(1 << 255) <= 9 + 16

    def test_monotone_in_content(self):
        assert mask_bits((1 << 64) - 1) >= mask_bits((1 << 8) - 1)


class TestBitMeter:
    def test_primitives(self):
        meter = BitMeter(64)
        assert meter(None) == 1
        assert meter(True) == 1
        assert meter(3.14) == 64
        assert meter("ab") == 16 + 16

    def test_dict_charges_ids_and_values(self):
        meter = BitMeter(64)
        single = meter({3: "x"})
        double = meter({3: "x", 5: "y"})
        assert double > single

    def test_containers_sum(self):
        meter = BitMeter(64)
        assert meter((1, 2)) >= meter((1,))


class TestEndToEndBits:
    def test_bits_zero_without_meter(self):
        run = run_gossip("ears", n=16, f=4, seed=1)
        assert run.bits == 0

    def test_bits_positive_with_meter(self):
        run = run_gossip("ears", n=16, f=4, seed=1, measure_bits=True)
        assert run.bits > run.messages  # every message costs >= 1 bit

    def test_ears_bit_heavy_tears_bit_light(self):
        """The open question behind the paper's bit-complexity future work:
        EARS is message-frugal but ships Θ(pairs·log n) informed-lists,
        while TEARS ships only rumor sets."""
        ears = run_gossip("ears", n=48, f=12, seed=1, crashes=12,
                          measure_bits=True)
        tears = run_gossip("tears", n=48, f=12, seed=1, crashes=12,
                           measure_bits=True)
        ears_per_message = ears.bits / ears.messages
        tears_per_message = tears.bits / tears.messages
        assert ears_per_message > 5 * tears_per_message
        # And in *total* bits, message-frugality does not save EARS.
        assert ears.bits > tears.bits

    def test_deterministic(self):
        a = run_gossip("sears", n=16, f=4, seed=2, measure_bits=True)
        b = run_gossip("sears", n=16, f=4, seed=2, measure_bits=True)
        assert a.bits == b.bits
