"""Typed, seeded request streams over the paper's case-study workloads.

Each scenario wires one :mod:`repro.workloads` generator up as an
infinite, deterministic stream of :mod:`repro.api` requests plus the
plaintext ground truth for every request — so the load harness can
check correctness-under-pressure, not just latency.  Scenarios declare
the engine capabilities they need (the readmapper emits native batches
and wildcard patterns; the biometric gallery is exact-only) and are
looked up through :class:`ScenarioRegistry`, the
:class:`~repro.api.registry.EngineRegistry` mirror for workloads:

>>> from repro.load import SCENARIO_REGISTRY
>>> scenario = SCENARIO_REGISTRY.create("database", seed=7)
>>> stream = scenario.requests()
>>> next(stream).request.num_bits
32

Determinism contract: for a fixed ``seed``, ``db_bits()`` and the
request stream are bit-for-bit reproducible across processes — the
property record/replay traces and the CI load gate rely on.  The
database and the stream draw from *independent* derived seeds, so
consuming more requests never perturbs the database.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..api.capabilities import Capabilities, CapabilityError
from ..api.requests import BatchSearch, ExactSearch, SearchRequest, WildcardSearch
from ..baselines import find_all_matches
from ..core.query import guaranteed_phases
from ..eval.tables import format_table
from ..utils.rng import as_generator
from ..workloads.biometric import BiometricWorkloadGenerator
from ..workloads.database import KEY_ALPHABET, DatabaseWorkloadGenerator
from ..workloads.dna import DnaWorkloadGenerator, random_genome, sequence_to_bits
from ..workloads.readmapper import SeedExtractor

#: derived-seed discriminators: database vs request stream
_DB_STREAM = 0x5EED_DB
_REQ_STREAM = 0x5EED_49

#: the registry engines' packing chunk width (oracle phase clamping)
CHUNK_WIDTH = 16


class UnknownScenarioError(KeyError):
    """A registry lookup used a key no scenario is registered under."""

    def __init__(self, key: str, known: Tuple[str, ...]):
        super().__init__(key)
        self.key = key
        self.known = known

    def __str__(self) -> str:
        return (
            f"no scenario registered under {self.key!r}; "
            f"known scenarios: {', '.join(self.known)}"
        )


@dataclass(frozen=True)
class ScenarioRequest:
    """One stream element: a typed request plus plaintext ground truth.

    ``expected`` is a tuple of match offsets for exact/wildcard
    requests, a tuple of per-query offset tuples for batches, or
    ``None`` when the scenario offers no oracle.
    """

    scenario: str
    index: int
    request: SearchRequest
    expected: Optional[Tuple] = None


def _wildcard_matches(
    db: np.ndarray, bits: np.ndarray, mask: np.ndarray
) -> Tuple[int, ...]:
    """Plaintext oracle for wildcard patterns: literal bits must agree."""
    db = np.asarray(db, dtype=np.uint8)
    bits = np.asarray(bits, dtype=np.uint8)
    literal = np.asarray(mask, dtype=np.uint8).astype(bool)
    m = len(bits)
    return tuple(
        off
        for off in range(len(db) - m + 1)
        if np.array_equal(db[off : off + m][literal], bits[literal])
    )


def _literal_runs(mask: np.ndarray) -> List[Tuple[int, int]]:
    """Maximal (start, length) runs of literal (mask=1) bits."""
    runs: List[Tuple[int, int]] = []
    start = None
    for i, m in enumerate(list(mask) + [0]):
        if m and start is None:
            start = i
        elif not m and start is not None:
            runs.append((start, i - start))
            start = None
    return runs


def _detectable_exact_matches(
    db: np.ndarray, bits: np.ndarray, chunk_width: int = CHUNK_WIDTH
) -> Tuple[int, ...]:
    """Exact-match oracle clamped to the engine's detection contract.

    Queries shorter than ``2 * chunk_width - 1`` bits only have a
    fully-covered interior chunk at some phases
    (:func:`~repro.core.query.guaranteed_phases`); occurrences at
    other phases are invisible to the Hom-Add sweep, so the oracle
    must not expect them.  A no-op for >= 31-bit queries.
    """
    phases = set(guaranteed_phases(len(bits), chunk_width))
    return tuple(
        off
        for off in find_all_matches(db, bits)
        if off % chunk_width in phases
    )


def _detectable_wildcard_matches(
    db: np.ndarray,
    bits: np.ndarray,
    mask: np.ndarray,
    chunk_width: int = CHUNK_WIDTH,
) -> Tuple[int, ...]:
    """Wildcard oracle clamped per literal segment: an occurrence is
    detectable only where *every* literal run lands on one of its own
    guaranteed phases (the engine sweeps one exact search per run)."""
    runs = [
        (start, set(guaranteed_phases(length, chunk_width)))
        for start, length in _literal_runs(np.asarray(mask, dtype=np.uint8))
    ]
    return tuple(
        off
        for off in _wildcard_matches(db, bits, mask)
        if all((off + start) % chunk_width in phases for start, phases in runs)
    )


class Scenario(abc.ABC):
    """One workload wired up as a capability-aware request stream."""

    key: str = ""
    #: which repro.workloads generator backs the stream
    workload: str = ""
    #: human summary of what one request looks like
    payload: str = ""
    #: Capabilities flags the target engine must declare
    requires: Tuple[str, ...] = ()
    #: longest single query the stream emits (capability clamp input)
    query_bits: int = 0

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._db: Optional[np.ndarray] = None

    # -- database --------------------------------------------------------

    def db_bits(self) -> np.ndarray:
        """The plaintext database this scenario searches (cached)."""
        if self._db is None:
            self._db = self._build_db()
        return self._db

    @abc.abstractmethod
    def _build_db(self) -> np.ndarray:
        """Build the database deterministically from ``self.seed``."""

    # -- stream ----------------------------------------------------------

    @abc.abstractmethod
    def requests(self) -> Iterator[ScenarioRequest]:
        """A fresh, infinite, seed-deterministic request stream."""

    def _stream_rng(self) -> np.random.Generator:
        return as_generator((self.seed, _REQ_STREAM))

    def _db_rng_seed(self) -> Tuple[int, int]:
        return (self.seed, _DB_STREAM)

    # -- capability clamping ---------------------------------------------

    def check(self, capabilities: Capabilities, target: str = "engine") -> None:
        """Raise :class:`CapabilityError` when ``target`` cannot serve
        this scenario's stream; return silently otherwise."""
        for flag in self.requires:
            if not getattr(capabilities, flag, False):
                raise CapabilityError(
                    f"scenario {self.key!r} needs the {flag!r} capability, "
                    f"which {target!r} does not declare "
                    f"(scheme={capabilities.scheme!r})"
                )
        if (
            capabilities.max_query_bits is not None
            and self.query_bits > capabilities.max_query_bits
        ):
            raise CapabilityError(
                f"scenario {self.key!r} emits {self.query_bits}-bit queries "
                f"but {target!r} caps queries at "
                f"{capabilities.max_query_bits} bits"
            )


class DnaScenario(Scenario):
    """Exact read matching against a genome with planted reads (§5.3).

    A hit draws one of the planted 16-base reads; a miss draws a random
    read (which may still match incidentally — the oracle decides).
    """

    key = "dna"
    workload = "dna"
    payload = "32-bit exact reads (16 bases)"
    requires = ()
    query_bits = 32

    def __init__(
        self,
        seed: int = 0,
        *,
        num_bases: int = 1024,
        read_bases: int = 16,
        num_reads: int = 8,
        hit_fraction: float = 0.7,
    ):
        super().__init__(seed)
        self.num_bases = num_bases
        self.read_bases = read_bases
        self.num_reads = num_reads
        self.hit_fraction = hit_fraction
        self._workload = None

    def _build_db(self) -> np.ndarray:
        gen = DnaWorkloadGenerator(seed=self._db_rng_seed())
        self._workload = gen.generate(
            num_bases=self.num_bases,
            read_length_bases=self.read_bases,
            num_reads=self.num_reads,
        )
        return self._workload.genome_bits

    def requests(self) -> Iterator[ScenarioRequest]:
        db = self.db_bits()
        reads = self._workload.reads
        rng = self._stream_rng()
        index = 0
        while True:
            if rng.random() < self.hit_fraction:
                sequence = reads[int(rng.integers(0, len(reads)))].sequence
            else:
                sequence = random_genome(self.read_bases, rng)
            bits = sequence_to_bits(sequence)
            yield ScenarioRequest(
                scenario=self.key,
                index=index,
                request=ExactSearch.from_bits(bits),
                expected=tuple(find_all_matches(db, bits)),
            )
            index += 1


class BiometricScenario(Scenario):
    """Exact template matching against an enrolled gallery.

    Probes are enrolled templates (hits at template-aligned offsets) or
    noisy captures with ~10% of bits flipped (exact misses, per the
    paper's exact-matching scope).  Exact-only by construction: no
    wildcards, no batches — this scenario runs on every engine.
    """

    key = "biometric"
    workload = "biometric"
    payload = "64-bit exact templates"
    requires = ()
    query_bits = 64

    def __init__(
        self,
        seed: int = 0,
        *,
        num_subjects: int = 32,
        template_bits: int = 64,
        hit_fraction: float = 0.6,
        flip_fraction: float = 0.1,
    ):
        super().__init__(seed)
        self.num_subjects = num_subjects
        self.template_bits = template_bits
        self.hit_fraction = hit_fraction
        self.flip_fraction = flip_fraction
        self._gallery = None

    def _build_db(self) -> np.ndarray:
        gen = BiometricWorkloadGenerator(seed=self._db_rng_seed())
        self._gallery = gen.generate(
            num_subjects=self.num_subjects, template_bits=self.template_bits
        )
        return self._gallery.concatenated_bits()

    def requests(self) -> Iterator[ScenarioRequest]:
        db = self.db_bits()
        enrollees = self._gallery.enrollees
        rng = self._stream_rng()
        index = 0
        while True:
            template = enrollees[int(rng.integers(0, len(enrollees)))].template
            if rng.random() < self.hit_fraction:
                probe = template
            else:
                probe = template.copy()
                flips = max(int(len(probe) * self.flip_fraction), 1)
                positions = rng.choice(len(probe), size=flips, replace=False)
                probe[positions] ^= 1
            yield ScenarioRequest(
                scenario=self.key,
                index=index,
                request=ExactSearch.from_bits(probe),
                expected=tuple(find_all_matches(db, probe)),
            )
            index += 1


class DatabaseScenario(Scenario):
    """Key lookups against a fixed-width key-value store (§5.3).

    A 50/50 hit/miss mix of 32-bit key probes — the encrypted-search
    case study's query shape, sized so every key clears CIPHERMATCH's
    31-bit every-phase detection threshold.
    """

    key = "database"
    workload = "database"
    payload = "32-bit exact key lookups"
    requires = ()
    query_bits = 32

    def __init__(
        self,
        seed: int = 0,
        *,
        num_records: int = 32,
        key_bytes: int = 4,
        value_bytes: int = 4,
        hit_fraction: float = 0.5,
    ):
        super().__init__(seed)
        self.num_records = num_records
        self.key_bytes = key_bytes
        self.value_bytes = value_bytes
        self.hit_fraction = hit_fraction
        self._store = None

    def _build_db(self) -> np.ndarray:
        gen = DatabaseWorkloadGenerator(seed=self._db_rng_seed())
        self._store = gen.generate(
            self.num_records,
            key_bytes=self.key_bytes,
            value_bytes=self.value_bytes,
        )
        return self._store.flatten_bits()

    def _random_key(self, rng: np.random.Generator) -> str:
        idx = rng.integers(0, len(KEY_ALPHABET), size=self.key_bytes)
        return "".join(KEY_ALPHABET[i] for i in idx)

    def requests(self) -> Iterator[ScenarioRequest]:
        db = self.db_bits()
        store = self._store
        rng = self._stream_rng()
        index = 0
        while True:
            if rng.random() < self.hit_fraction:
                key = store.records[int(rng.integers(0, len(store.records)))].key
            else:
                while True:
                    key = self._random_key(rng)
                    if store.lookup(key) is None:
                        break
            bits = store.key_bits(key)
            yield ScenarioRequest(
                scenario=self.key,
                index=index,
                request=ExactSearch.from_bits(bits),
                expected=tuple(find_all_matches(db, bits)),
            )
            index += 1


class ReadMapperScenario(Scenario):
    """Seed-and-vote read mapping: native batches + wildcard reads.

    Each read becomes one :class:`BatchSearch` of its 16-bit seeds (the
    mapper's per-read unit of work); every fourth request instead emits
    a :class:`WildcardSearch` with one 8-base chunk of the read masked
    out (a low-confidence capture).  Needs ``batching`` *and*
    ``wildcard`` — the capability-clamp showcase.
    """

    key = "readmapper"
    workload = "dna + readmapper"
    payload = "3x16-bit seed batches; 48-bit wildcard reads"
    requires = ("batching", "wildcard")
    query_bits = 48

    def __init__(
        self,
        seed: int = 0,
        *,
        num_bases: int = 1024,
        read_bases: int = 24,
        num_reads: int = 6,
        seed_bases: int = 8,
        hit_fraction: float = 0.75,
        wildcard_every: int = 4,
    ):
        super().__init__(seed)
        self.num_bases = num_bases
        self.read_bases = read_bases
        self.num_reads = num_reads
        self.extractor = SeedExtractor(seed_bases)
        self.hit_fraction = hit_fraction
        self.wildcard_every = wildcard_every
        self._workload = None

    def _build_db(self) -> np.ndarray:
        gen = DnaWorkloadGenerator(seed=self._db_rng_seed())
        self._workload = gen.generate(
            num_bases=self.num_bases,
            read_length_bases=self.read_bases,
            num_reads=self.num_reads,
        )
        return self._workload.genome_bits

    def _pick_read(self, rng: np.random.Generator) -> str:
        reads = self._workload.reads
        if rng.random() < self.hit_fraction:
            return reads[int(rng.integers(0, len(reads)))].sequence
        return random_genome(self.read_bases, rng)

    def requests(self) -> Iterator[ScenarioRequest]:
        db = self.db_bits()
        rng = self._stream_rng()
        index = 0
        while True:
            sequence = self._pick_read(rng)
            if self.wildcard_every and (index + 1) % self.wildcard_every == 0:
                # one packing chunk (8 bases, 16 bits) masked out mid-read
                bits = sequence_to_bits(sequence)
                mask = np.ones(len(bits), dtype=np.uint8)
                mask[16:32] = 0
                request: SearchRequest = WildcardSearch(
                    tuple(int(b) for b in bits), tuple(int(m) for m in mask)
                )
                expected: Tuple = _detectable_wildcard_matches(db, bits, mask)
            else:
                seeds = self.extractor.extract(sequence)
                queries = tuple(
                    ExactSearch.from_bits(sequence_to_bits(s.sequence))
                    for s in seeds
                )
                request = BatchSearch(queries)
                # 16-bit seeds sit below the 31-bit every-phase
                # threshold: the oracle keeps only phase-detectable hits
                expected = tuple(
                    tuple(_detectable_exact_matches(db, q.bit_array()))
                    for q in queries
                )
            yield ScenarioRequest(
                scenario=self.key, index=index, request=request,
                expected=expected,
            )
            index += 1


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioSpec:
    """One registered scenario: construction + capability metadata."""

    key: str
    factory: Callable[..., Scenario]
    workload: str
    payload: str
    requires: Tuple[str, ...]
    summary: str = ""


class ScenarioRegistry:
    """Key -> scenario factory, mirroring the engine registry."""

    def __init__(self) -> None:
        self._specs: Dict[str, ScenarioSpec] = {}

    def register(self, spec: ScenarioSpec) -> None:
        self._specs[spec.key] = spec

    def register_scenario_class(self, cls, summary: str = "") -> None:
        self.register(
            ScenarioSpec(
                key=cls.key,
                factory=cls,
                workload=cls.workload,
                payload=cls.payload,
                requires=cls.requires,
                summary=summary or (cls.__doc__ or "").strip().splitlines()[0],
            )
        )

    def spec(self, key: str) -> ScenarioSpec:
        try:
            return self._specs[key]
        except KeyError:
            raise UnknownScenarioError(key, tuple(self._specs)) from None

    def create(self, key: str, seed: int = 0, **kwargs) -> Scenario:
        return self.spec(key).factory(seed=seed, **kwargs)

    def keys(self) -> Tuple[str, ...]:
        return tuple(self._specs)

    def __contains__(self, key: str) -> bool:
        return key in self._specs

    def __iter__(self):
        return iter(self._specs.values())

    def scenario_matrix(self) -> str:
        """Render the scenario table (`python -m repro load --list`)."""
        rows: List[List[str]] = []
        for spec in self:
            rows.append(
                [
                    spec.key,
                    spec.workload,
                    spec.payload,
                    ", ".join(spec.requires) or "-",
                    spec.summary,
                ]
            )
        return format_table(
            "load scenarios over repro.workloads",
            ("scenario", "workload", "request shape", "requires", "summary"),
            rows,
        )


#: process-wide default registry (mirrors ``DEFAULT_REGISTRY``)
SCENARIO_REGISTRY = ScenarioRegistry()
for _cls in (DnaScenario, BiometricScenario, DatabaseScenario, ReadMapperScenario):
    SCENARIO_REGISTRY.register_scenario_class(_cls)
del _cls
