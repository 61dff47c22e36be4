"""SSD system model: dual-region FTL, data transposition, index
generation, controller command handling, host interface and the
assembled CM-IFP device with its in-flash Hom-Add backend."""

from .aes import AES, SecureIndexChannel, aes_ctr
from .controller import ControllerConfig, SearchOutcome, SSDController
from .device import CipherMatchSSD, IFPAdditionBackend, SSDConfig
from .ftl import FlashTranslationLayer, MappingTable, PhysicalAddress, Region
from .index_gen import IndexGenCosts, IndexGenerationUnit
from .interface import (
    HostCommand,
    HostCommandKind,
    HostInterfaceLayer,
    HostResponse,
)
from .queueing import (
    IoRequest,
    RequestKind,
    SimulationResult,
    SsdQueueingSimulator,
    cm_search_wave,
    simulate_cm_search,
)
from .transpose import DataTranspositionUnit, TranspositionCosts

__all__ = [
    "IoRequest",
    "RequestKind",
    "SimulationResult",
    "SsdQueueingSimulator",
    "cm_search_wave",
    "simulate_cm_search",
    "AES",
    "CipherMatchSSD",
    "SecureIndexChannel",
    "aes_ctr",
    "ControllerConfig",
    "DataTranspositionUnit",
    "FlashTranslationLayer",
    "HostCommand",
    "HostCommandKind",
    "HostInterfaceLayer",
    "HostResponse",
    "IFPAdditionBackend",
    "IndexGenCosts",
    "IndexGenerationUnit",
    "MappingTable",
    "PhysicalAddress",
    "Region",
    "SSDConfig",
    "SSDController",
    "SearchOutcome",
    "TranspositionCosts",
]
