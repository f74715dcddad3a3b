"""Unit and property tests for the physical address mapping (§II-C)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.config import DRAMOrgConfig
from repro.core.request import MemoryRequest
from repro.gpu.address_map import AddressMap

ORG = DRAMOrgConfig()
MAP = AddressMap(ORG)
CAPACITY = (
    ORG.num_channels * ORG.banks_per_channel * ORG.rows_per_bank * ORG.row_size_bytes
)


def test_fields_in_range():
    for addr in range(0, 1 << 22, 128):
        ch, bank, row, col = MAP.decompose(addr)
        assert 0 <= ch < ORG.num_channels
        assert 0 <= bank < ORG.banks_per_channel
        assert 0 <= row < ORG.rows_per_bank
        assert 0 <= col < ORG.lines_per_row


def test_256b_blocks_stay_together():
    """Both 128B lines of a 256B block map to the same (ch, bank, row)."""
    for block in range(0, 4096):
        a = MAP.decompose(block * 256)
        b = MAP.decompose(block * 256 + 128)
        assert a[:3] == b[:3]
        assert b[3] == a[3] + 1


def test_consecutive_blocks_spread_channels():
    """256B interleaving: a 16KB streaming region touches every channel."""
    channels = {MAP.decompose(a)[0] for a in range(0, 16384, 256)}
    assert channels == set(range(ORG.num_channels))


def test_channel_xor_breaks_2kb_stride_camping():
    """Without the XOR fold, a 2KB*num_channels stride camps on one
    channel; the hash must spread it."""
    stride = 2048 * ORG.num_channels
    channels = {MAP.decompose(i * stride)[0] for i in range(64)}
    assert len(channels) > 1


def test_bank_permutation_breaks_row_stride_camping():
    """Power-of-two row strides must not land in a single bank."""
    stride = ORG.row_size_bytes * ORG.banks_per_channel * ORG.num_channels
    banks = {MAP.decompose(i * stride)[1] for i in range(64)}
    assert len(banks) > 4


def test_route_fills_request():
    req = MemoryRequest(addr=123456 * 128, is_write=False, sm_id=0, warp_id=0)
    MAP.route(req)
    assert (req.channel, req.bank, req.row) == MAP.decompose(req.addr)[:3]


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, ORG.num_channels - 1),
    st.integers(0, ORG.banks_per_channel - 1),
    st.integers(0, ORG.rows_per_bank - 1),
    st.integers(0, ORG.lines_per_row - 1),
)
def test_property_compose_decompose_roundtrip(ch, bank, row, col):
    addr = MAP.compose(ch, bank, row, col)
    assert addr < CAPACITY
    assert MAP.decompose(addr) == (ch, bank, row, col)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, CAPACITY // 128 - 1))
def test_property_decompose_compose_roundtrip(line_idx):
    addr = line_idx * 128
    ch, bank, row, col = MAP.decompose(addr)
    assert MAP.compose(ch, bank, row, col) == addr


def test_compose_validates_ranges():
    import pytest

    with pytest.raises(ValueError):
        MAP.compose(ORG.num_channels, 0, 0, 0)
    with pytest.raises(ValueError):
        MAP.compose(0, ORG.banks_per_channel, 0, 0)
    with pytest.raises(ValueError):
        MAP.compose(0, 0, ORG.rows_per_bank, 0)
    with pytest.raises(ValueError):
        MAP.compose(0, 0, 0, ORG.lines_per_row)


def test_distribution_is_roughly_uniform():
    rng = np.random.default_rng(3)
    addrs = rng.integers(0, CAPACITY // 256, size=20000) * 256
    chans = np.array([MAP.decompose(int(a))[0] for a in addrs])
    counts = np.bincount(chans, minlength=ORG.num_channels)
    assert counts.min() > 0.8 * counts.mean()
