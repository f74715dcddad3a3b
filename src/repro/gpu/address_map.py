"""Physical address mapping (§II-C).

The paper's GPU address mapping, reproduced here:

* consecutive cache lines share a DRAM row to promote row-buffer locality;
* 256-byte blocks of consecutive lines interleave across channels;
* the channel index XOR-folds higher-order bits into the low block bits to
  avoid channel camping::

      channel = {addr[47:11] : (addr[10:8] XOR addr[13:11])} % num_channels

* the bank index is XOR-permuted with higher-order set-index bits
  (Zhang et al. [53]) to avoid bank camping on power-of-two strides.

Within a channel we place eight consecutive 256B blocks (one 2KB row's
worth) in the same bank+row before switching banks, which preserves the
paper's "consecutive lines hit the same row" property; banks then rotate
every row-sized chunk rather than every block (documented deviation — it
strictly improves the row locality available to *all* schedulers equally).
"""

from __future__ import annotations

from repro.core.config import DRAMOrgConfig
from repro.core.request import MemoryRequest

__all__ = ["AddressMap"]


class AddressMap:
    """Byte address -> (channel, bank, row, col) decomposition."""

    def __init__(self, org: DRAMOrgConfig) -> None:
        self.org = org
        self.line_shift = org.line_bytes.bit_length() - 1  # 128B -> 7
        self.block_shift = org.interleave_bytes.bit_length() - 1  # 256B -> 8
        self.blocks_per_row = org.row_size_bytes // org.interleave_bytes
        if self.blocks_per_row & (self.blocks_per_row - 1):
            raise ValueError("row_size/interleave must be a power of two")
        self.bank_mask = org.banks_per_channel - 1
        if org.banks_per_channel & self.bank_mask:
            raise ValueError("banks_per_channel must be a power of two")

    # -- channel hash ------------------------------------------------------
    def channel_key(self, addr: int) -> int:
        """256B-block index with XOR-spread low bits (the paper's formula)."""
        block = addr >> self.block_shift
        low = (block & 0x7) ^ ((block >> 3) & 0x7)  # addr[10:8] ^ addr[13:11]
        return (block & ~0x7) | low

    # -- full decomposition ----------------------------------------------------
    def decompose(self, addr: int) -> tuple[int, int, int, int]:
        """(channel, bank, row, col) of a byte address."""
        key = self.channel_key(addr)
        channel = key % self.org.num_channels
        local = key // self.org.num_channels  # channel-local 256B block index
        col_block = local & (self.blocks_per_row - 1)
        seg = local // self.blocks_per_row  # (bank, row)-sized segment index
        bank_raw = seg & self.bank_mask
        upper = seg >> (self.org.banks_per_channel.bit_length() - 1)
        bank = (bank_raw ^ (upper & self.bank_mask)) & self.bank_mask
        row = upper % self.org.rows_per_bank
        line_in_block = (addr >> self.line_shift) & (
            (self.org.interleave_bytes // self.org.line_bytes) - 1
        )
        col = col_block * (self.org.interleave_bytes // self.org.line_bytes) + line_in_block
        return channel, bank, row, col

    def compose(
        self, channel: int, bank: int, row: int, col: int
    ) -> int:
        """Inverse of :meth:`decompose`: build the byte address of a line.

        Used by workload generators to place data structures on specific
        (channel, bank, row) resources, and by property tests to verify
        the mapping is a bijection.
        """
        org = self.org
        lines_per_block = org.interleave_bytes // org.line_bytes
        col_block, line_in_block = divmod(col, lines_per_block)
        if not 0 <= col_block < self.blocks_per_row:
            raise ValueError(f"col {col} outside the row")
        if not 0 <= row < org.rows_per_bank:
            raise ValueError(f"row {row} out of range")
        if not 0 <= bank < org.banks_per_channel:
            raise ValueError(f"bank {bank} out of range")
        if not 0 <= channel < org.num_channels:
            raise ValueError(f"channel {channel} out of range")
        upper = row
        bank_raw = (bank ^ (upper & self.bank_mask)) & self.bank_mask
        seg = (upper << (org.banks_per_channel.bit_length() - 1)) | bank_raw
        local = seg * self.blocks_per_row + col_block
        key = local * org.num_channels + channel
        # Undo the XOR spread on the low three block bits.
        block = (key & ~0x7) | ((key & 0x7) ^ ((key >> 3) & 0x7))
        return (block << self.block_shift) | (line_in_block << self.line_shift)

    def route(self, req: MemoryRequest) -> None:
        """Fill a request's channel/bank/row fields in place."""
        req.channel, req.bank, req.row, _ = self.decompose(req.addr)
