"""Evaluation harness: calibration constants, cost models, per-figure
experiment definitions and the table runner."""

from .calibration import (
    DATABASE_SIZES,
    GIB,
    QUERY_SIZES,
    TRANSFER_SIZES,
    BandwidthConfig,
    DataMovementCalibration,
    HardwareFamilyCalibration,
    RealSystemConfig,
    SoftwareFamilyCalibration,
    variants_for_query,
)
from .experiments import ALL_EXPERIMENTS, headline_summary
from .models import SoftwareCostModel, SoftwareSystem
from .plotting import (
    crossover_points,
    grouped_bar_chart,
    line_chart,
    sparkline,
)
from .runner import run
from .tables import format_bytes, format_table, geometric_mean, percentile

__all__ = [
    "crossover_points",
    "grouped_bar_chart",
    "line_chart",
    "sparkline",
    "ALL_EXPERIMENTS",
    "BandwidthConfig",
    "DATABASE_SIZES",
    "DataMovementCalibration",
    "GIB",
    "HardwareFamilyCalibration",
    "QUERY_SIZES",
    "RealSystemConfig",
    "SoftwareCostModel",
    "SoftwareFamilyCalibration",
    "SoftwareSystem",
    "TRANSFER_SIZES",
    "format_bytes",
    "format_table",
    "geometric_mean",
    "headline_summary",
    "percentile",
    "run",
    "variants_for_query",
]
