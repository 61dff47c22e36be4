"""Calibration constants for the evaluation models.

Every constant is tagged with its provenance:

* ``[Table 2]`` / ``[Table 3]`` — taken directly from the paper's system
  configuration tables.
* ``[derived]``  — computed from Table-3 constants and the functional
  flash simulator (e.g. the per-coefficient in-flash add cost follows
  from Eqn 9 and the geometry's bitline parallelism).
* ``[calibrated: Fig N]`` — effective constants fit to the paper's
  reported speedup/energy ratios.  The paper evaluates CM-SW on a real
  Xeon with Microsoft SEAL and the hardware points with an in-house
  simulator; neither is available, so where a constant folds together
  unmodelled software overheads we fit it to one anchor point of the
  named figure and let every other point be *predicted* by the model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..flash.cell_array import FlashGeometry
from ..flash.timing import FlashTimings

GIB = 1024**3


@dataclass(frozen=True)
class RealSystemConfig:
    """[Table 2] the real CPU system used for CM-SW measurements."""

    cpu: str = "Intel Xeon Gold 5118 (Skylake)"
    cores: int = 6
    clock_hz: float = 3.2e9
    l3_bytes: int = 8 * 1024**2
    dram: str = "32 GB DDR4-2400, 4 channels"
    dram_capacity_bytes: int = 32 * GIB
    ssd: str = "Samsung 980 Pro PCIe 4.0 NVMe 2 TB"
    os: str = "Ubuntu 22.04.1 LTS"


@dataclass(frozen=True)
class BandwidthConfig:
    """Peak bandwidths of the simulated memory/storage hierarchy."""

    dram_bytes_per_s: float = 19.2e9  # [Table 3] DDR4-2400, 4 channels
    internal_dram_bytes_per_s: float = 14.9e9  # [Table 3] LPDDR4-1866
    pcie_bytes_per_s: float = 7.0e9  # [Table 3] 4-lane PCIe Gen4
    flash_channel_bytes_per_s: float = 1.2e9  # [Table 3] per channel
    flash_channels: int = 8  # [Table 3]

    @property
    def flash_internal_bytes_per_s(self) -> float:
        return self.flash_channel_bytes_per_s * self.flash_channels


@dataclass(frozen=True)
class DataMovementCalibration:
    """Effective-bandwidth model behind Figure 3.

    The host path applies a software-efficiency factor on PCIe
    (filesystem + NVMe submission overheads on large scans) and two
    DRAM passes for CPU consumption (fill + read).  The single factor
    below is fit so the main-memory curve reproduces the paper's ~25%
    reduction at 8 GB [calibrated: Fig 3]; everything else is predicted.
    """

    host_io_efficiency: float = 1.0 / 3.0  # [calibrated: Fig 3]
    # fill + read + cache-thrash re-traffic on a >L3 streaming scan
    cpu_dram_passes: float = 4.0  # [calibrated: Fig 3 @ 8 GB]
    dram_capacity_bytes: int = 32 * GIB  # [Table 2]


@dataclass(frozen=True)
class SoftwareFamilyCalibration:
    """Cost model for Figures 2, 7, 8, 9 (software systems, normalized).

    Costs are expressed per plaintext byte of database per query, in
    units of one CM-SW 16-bit-chunk Hom-Add pass.  CM-SW performs
    ``16 * ceil(y/16)`` variant passes (§4.2.2); the arithmetic baseline
    runs one 2-mult/3-add Hamming-distance circuit per 16-bit query
    segment plus cross-segment combining additions (the superlinear
    term); the Boolean baseline's gate count is folded into a single
    ratio to the arithmetic baseline, which Figure 7 reports directly.
    """

    # CM-SW: variants(y) = 16 * ceil(y/16)   [paper §4.2.2]
    # arithmetic(y) = linear * y + quad * y^2   [calibrated: Fig 7 @ y=16,256]
    arith_linear: float = 17.9
    arith_quad: float = 0.173
    # Boolean / arithmetic cost ratio   [Fig 7 annotation: 9.9 x 10^3]
    boolean_over_arith: float = 9.9e3
    # Footprint expansion factors (encrypted bytes per plaintext byte)
    cm_expansion: float = 4.0  # [paper §4.2.1]
    arith_expansion: float = 64.0  # [paper §4.2.1]
    boolean_expansion: float = 256.0  # [paper §3.1: >200x]
    # One LWE ciphertext per plaintext bit   [Fig 2a input]
    # (16,384x per byte: 64x boolean_expansion, which Figs 7-9 read)
    boolean_bit_ct_bytes: int = 2048
    # One bootstrapped Boolean gate, single-threaded, SIMD batching [17]
    # folded in by the caller   [calibrated: TFHE-rs gate, paper Xeon]
    gate_latency_s: float = 10.0e-3
    # Streaming penalty, cost units per encrypted byte, applied per
    # query once a scheme's footprint exceeds DRAM.
    # [calibrated: Fig 9 -- CM-SW drops 1.16x beyond 32 GB]
    stream_cost_per_encrypted_byte: float = 0.213
    # Multi-query SIMD batching: with large query batches CM-SW packs
    # queries into polynomial slots and the Boolean baseline [17] uses
    # TFHE SIMD batching; the arithmetic baseline [27] has no SIMD
    # support (Table 1).  [calibrated: Fig 9 vs Fig 7 at y=16 -- the
    # paper's CM-SW/arith ratio rises from 20.7 (1 query) to 62.2-72.1
    # (1000 queries), and the Boolean/arith gap shrinks 9.9e3 -> 1.2e3]
    cm_batch_factor: float = 3.0
    boolean_batch_factor: float = 8.25
    batch_threshold_queries: int = 100
    # Power ratios for the energy figures  [calibrated: Fig 8]
    power_cm_watts: float = 105.0
    power_arith_watts: float = 89.0
    power_boolean_watts: float = 88.0


@dataclass(frozen=True)
class HardwareFamilyCalibration:
    """Absolute-time cost model for Figures 10, 11, 12.

    ``c_*`` constants are seconds per 32-bit-coefficient addition per
    query variant; ``Nc`` (coefficient count) = encrypted bytes / 4.
    """

    geometry: FlashGeometry = field(default_factory=FlashGeometry)
    timings: FlashTimings = field(default_factory=FlashTimings)

    dram_capacity_bytes: int = 32 * GIB  # [Table 2]
    internal_dram_capacity_bytes: int = 2 * GIB  # [Table 3]

    # CM-SW per-coefficient Hom-Add cost on the Xeon (SEAL-like,
    # including DRAM traffic).  [calibrated: Fig 10 @ y=16 & y=256]
    c_sw: float = 15.1e-9
    # CM-SW effective storage-scan throughput for one full pass over the
    # encrypted database (page-fault + OS + readahead overheads of
    # scanning a >100 GB mmap'd region; dominates single-query latency).
    # [calibrated: Fig 10 @ y=16]
    sw_scan_bytes_per_s: float = 7.0e6
    # CM-PuM (SIMDRAM on external DDR4): per-coefficient bit-serial add.
    # [calibrated: Fig 10 obs. 3 -- CM-PuM overtakes CM-IFP at y=256]
    c_pum: float = 0.185e-9
    # CM-PuM staging throughput from SSD into compute-capable DRAM
    # (PCIe + in-DRAM vertical-layout staging).  [calibrated: Fig 10]
    pum_staging_bytes_per_s: float = 0.573e9
    # CM-PuM-SSD: internal LPDDR4 has 1 channel / 8 banks vs 4x16
    # external, and 2 GB capacity forces batch staging.
    # [calibrated: Fig 10 obs. 2 -- CM-IFP/CM-PuM-SSD = 2.89-4.03x]
    c_pum_ssd: float = 0.74e-9
    pum_ssd_staging_bytes_per_s: float = 9.6e9  # [Table 3, derived]

    # Energy per coefficient-addition (J).  The paper's energy figures
    # are not derivable from its latency figures with a single power
    # number; these effective values are fit at y=16 and predict the
    # rest of each curve.
    e_sw_watts: float = 105.0  # Xeon socket power [RAPL-typical]
    # Note: Table-3 constants (Eqn 11) give ~31.5 nJ per coefficient-add
    # in flash (32 x 32.22 uJ over a 32768-coefficient page wave); the
    # fitted effective value below is ~3x lower, consistent with the
    # paper's energy ratios exceeding what a single socket-power figure
    # reproduces.
    e_ifp_per_coeff: float = 11.7e-9  # [calibrated: Fig 11 @ y=16]
    e_pum_per_coeff: float = 54.0e-9  # [calibrated: Fig 11 @ y=16]
    e_pum_ssd_per_coeff: float = 47.6e-9  # [Fig 11 obs. 2: ~1.06x vs PuM]
    e_fetch_pcie_per_byte: float = 86e-12  # ~7 pJ/bit PCIe+DRAM [derived]
    e_fetch_internal_per_byte: float = 16e-12  # internal channels [derived]

    @property
    def c_ifp(self) -> float:
        """[derived] in-flash cost per coefficient add: the 32-bit
        bit-serial add latency (Eqn 9) divided by the number of
        concurrently-operating bitlines."""
        return self.timings.t_word_add(32) / self.geometry.parallel_bitlines


def variants_for_query(query_bits: int, chunk_width: int = 16) -> int:
    """Hom-Add passes per database polynomial for a ``query_bits`` query:
    ``chunk_width`` bit phases x ``ceil(y/w)`` chunk rotations (§4.2.2)."""
    return chunk_width * max(1, -(-query_bits // chunk_width))


#: Query sizes (bits) swept by Figures 7, 8, 10, 11.
QUERY_SIZES = (16, 32, 64, 128, 256)

#: Encrypted database sizes (bytes) swept by Figures 9 and 12.
DATABASE_SIZES = tuple(s * GIB for s in (8, 16, 32, 64, 128))

#: Encrypted database sizes for the Figure 3 transfer-latency sweep.
TRANSFER_SIZES = tuple(s * GIB for s in (8, 16, 32, 64, 128, 256))
