"""Simple DRAM timing model with per-bank open-page row buffers.

Section 4.9 of the paper notes that open-page policies act as an implicit
cache visible to speculation, and suggests allowing only non-speculative
accesses to leave pages open.  ``DRAMConfig.nonspec_open_only`` implements
that policy so the ablation bench can measure its cost.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.analysis.stats import Stats
from repro.config import DRAMConfig


class DRAM:
    """Fixed-latency DRAM with an optional row-buffer hit fast path."""

    def __init__(self, cfg: DRAMConfig, stats: Optional[Stats] = None
                 ) -> None:
        self.cfg = cfg
        self.stats = stats if stats is not None else Stats()
        self._counts = self.stats._values
        self._h_accesses = self.stats.handle("dram.accesses")
        self._h_row_hits = self.stats.handle("dram.row_hits")
        self._h_spec_no_open = self.stats.handle("dram.spec_no_open")
        # lines per row: a row covers 2**row_bits bytes of 64-byte lines.
        self.lines_per_row = max(1, (1 << cfg.row_bits) // 64)
        self._open_rows: Dict[int, int] = {}

    def row_of(self, line: int) -> int:
        return line // self.lines_per_row

    def bank_of(self, line: int) -> int:
        return self.row_of(line) % self.cfg.banks

    def access(self, line: int, speculative: bool = False) -> int:
        """Access latency for ``line``; updates row-buffer state."""
        self._counts[self._h_accesses] += 1
        row = self.row_of(line)
        bank = self.bank_of(line)
        if self.cfg.open_page and self._open_rows.get(bank) == row:
            self._counts[self._h_row_hits] += 1
            latency = self.cfg.row_hit_latency
        else:
            latency = self.cfg.base_latency
        may_open = self.cfg.open_page and (
            not self.cfg.nonspec_open_only or not speculative)
        if may_open:
            self._open_rows[bank] = row
        elif self.cfg.nonspec_open_only and speculative:
            # A speculative access that closes the page it used leaves no
            # trace; model by not updating (previous row stays open).
            self._counts[self._h_spec_no_open] += 1
        return latency

    def open_row(self, bank: int) -> Optional[int]:
        return self._open_rows.get(bank)

    def reset(self) -> None:
        self._open_rows.clear()
