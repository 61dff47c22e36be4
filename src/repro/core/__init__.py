"""The paper's primary contribution: CIPHERMATCH — memory-efficient data
packing plus Hom-Add-only secure exact string matching."""

from .client import CipherMatchClient, ClientConfig
from .match_polynomial import IndexMode, match_value
from .matcher import (
    CPUAdditionBackend,
    MatchCandidate,
    ResultBlock,
    ResultDecoder,
    SecureSearchEngine,
    verify_candidates,
)
from .packing import (
    DataPacker,
    EncryptedDatabase,
    FootprintReport,
    PackedDatabase,
)
from .pipeline import SearchReport, SecureStringMatchPipeline
from .protocol import TranscriptStats, WireProtocolSession
from .query import PreparedQuery, QueryPreparer, QueryVariant, guaranteed_phases
from .server import CipherMatchServer
from .wildcard import WildcardPattern

__all__ = [
    "TranscriptStats",
    "WireProtocolSession",
    "CPUAdditionBackend",
    "CipherMatchClient",
    "CipherMatchServer",
    "ClientConfig",
    "DataPacker",
    "EncryptedDatabase",
    "FootprintReport",
    "IndexMode",
    "MatchCandidate",
    "PackedDatabase",
    "PreparedQuery",
    "QueryPreparer",
    "QueryVariant",
    "ResultBlock",
    "ResultDecoder",
    "SearchReport",
    "SecureSearchEngine",
    "SecureStringMatchPipeline",
    "WildcardPattern",
    "guaranteed_phases",
    "match_value",
    "verify_candidates",
]
