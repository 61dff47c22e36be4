"""Flash timing model — the latency constants of Table 3 and the
bit-serial addition latency equations (Eqns 9-10).

All times are in seconds.  The constants come straight from the paper's
simulated-system table (which itself sources Flash-Cosmos [60] and
ParaBit [62] measurements).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class FlashTimings:
    """Latency parameters of the simulated 48-WL-layer 3D TLC NAND SSD."""

    t_read_slc: float = 22.5e-6  # SLC-mode flash read (Flash-Cosmos)
    t_read_tlc: float = 61.0e-6  # TLC-mode read (typical, conventional region)
    t_and_or: float = 20e-9  # latch-level AND/OR (ParaBit)
    t_latch_transfer: float = 20e-9  # S<->D latch transfer (ParaBit)
    t_xor: float = 30e-9  # D-latch XOR via randomizer circuit (Flash-Cosmos)
    t_dma: float = 3.3e-6  # controller <-> latch DMA per page
    t_program_slc: float = 200e-6  # SLC program (not used by bop_add)
    channel_bandwidth: float = 1.2e9  # bytes/s NAND channel IO rate
    page_bytes: int = 4096

    @property
    def t_bop_add(self) -> float:
        """One bit-position of the in-flash serial addition (Eqn 10):
        ``Tread + 2 Txor + 5 Tlatch + 4 Tand/or``."""
        return (
            self.t_read_slc
            + 2 * self.t_xor
            + 5 * self.t_latch_transfer
            + 4 * self.t_and_or
        )

    @property
    def t_bit_add(self) -> float:
        """Eqn 9: ``Tbop_add + 2 Tdma`` (query bit in, sum bit out)."""
        return self.t_bop_add + 2 * self.t_dma

    def t_word_add(self, word_bits: int = 32) -> float:
        """Full ``word_bits``-bit addition (the paper's 32-bit coefficients)."""
        return word_bits * self.t_bit_add

    def page_transfer_time(self) -> float:
        """Moving one page over the NAND channel."""
        return self.page_bytes / self.channel_bandwidth


#: The value Table 3 quotes for Tbit_add; tests assert our Eqn-9
#: computation reproduces it to within rounding.
PAPER_T_BIT_ADD = 29.38e-6


@dataclass
class TimingLedger:
    """Accumulates simulated time per operation class.

    The functional flash simulator charges this ledger as it executes
    micro-operations, so a functional run directly yields the latency
    the analytic model predicts.
    """

    timings: FlashTimings = field(default_factory=FlashTimings)
    counts: dict = field(default_factory=dict)
    total_seconds: float = 0.0

    def charge(self, op: str, seconds: float, amount: int = 1) -> None:
        self.counts[op] = self.counts.get(op, 0) + amount
        self.total_seconds += seconds * amount

    def charge_read(self, slc: bool = True) -> None:
        self.charge("read", self.timings.t_read_slc if slc else self.timings.t_read_tlc)

    def charge_and_or(self) -> None:
        self.charge("and_or", self.timings.t_and_or)

    def charge_latch_transfer(self) -> None:
        self.charge("latch_transfer", self.timings.t_latch_transfer)

    def charge_xor(self) -> None:
        self.charge("xor", self.timings.t_xor)

    def charge_dma(self) -> None:
        self.charge("dma", self.timings.t_dma)
