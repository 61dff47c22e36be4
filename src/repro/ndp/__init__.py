"""Near-data-processing models: the memory-hierarchy data-movement model
(Figure 3) and the performance and energy models of the four evaluated
systems (Figures 10-12)."""

from .datamovement import ComputeSite, TransferLatencyModel
from .energymodel import HardwareEnergyModel
from .perfmodel import (
    HardwarePerformanceModel,
    HardwareSystem,
    OverheadReport,
    WorkloadPoint,
)

__all__ = [
    "ComputeSite",
    "HardwareEnergyModel",
    "HardwarePerformanceModel",
    "HardwareSystem",
    "OverheadReport",
    "TransferLatencyModel",
    "WorkloadPoint",
]
