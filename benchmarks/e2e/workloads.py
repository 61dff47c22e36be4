"""Seeded inputs for the four served-search workloads.

Everything the program under test receives is made here, from
``--seed``, before any clock starts: database bits, planted keys,
request lists, the open-loop arrival schedule and the expected answer
of every request.  The same seed gives byte-identical inputs in every
process (numpy ``default_rng`` streams only — no ``hash()``, no wall
clock); :func:`digest` is the fingerprint the tests compare.

Expected answers come from :class:`Haystack`, a ``bytes.find`` matcher
over the eight bit-phases of the database.  The repo's oracle,
``repro.baselines.find_all_matches``, materialises a ``(db_bits x
query_bits)`` boolean matrix — 0.16 s per 32-bit query on 1 Mbit and
200 MB of scratch on the 4 Mbit scan database — so it cannot answer
hundreds of requests inside one run.  It stays the reference:
:func:`cross_check` compares both matchers on a window around a planted
key in every run, and the tests compare them on whole databases.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: ``BFVParams.paper()``: n = 1024 coefficients of 16 plaintext bits
POLY_COEFFS = 1024
CHUNK_BITS = 16
POLY_BITS = POLY_COEFFS * CHUNK_BITS


@dataclass(frozen=True)
class Spec:
    """One workload: what runs, how it is offered, and why it exists."""

    name: str
    why: str
    transport: str  # "tcp" | "inproc"
    loop: str  # "closed" | "open"
    db_polys: int
    shards: int
    key_bits: int
    #: latency limit a search request must meet to count in ``slo_share``
    slo_ms: float
    #: measured units per repeat when the run is count-bound (requests;
    #: cycles for the churn workload)
    count: int
    #: uncounted warm-up units per repeat (same unit as ``count``)
    warmup: int
    connections: int = 0
    #: open loop only: Poisson arrival rate, requests per second
    rate: Optional[float] = None

    @property
    def db_bits(self) -> int:
        return self.db_polys * POLY_BITS


WORKLOADS: Dict[str, Spec] = {
    # Why: the baseline service latency every layer sits on.  The db is
    # small, so per-request fixed cost (thread starts, CMN1 framing,
    # dispatcher hop, device-model replay) is the largest share and a
    # kernel-only gain shows least here.  Half the keys are drawn from
    # 64 planted keys (64 x 17 variant rows >> the 256-row cache: the
    # working set does not fit), half are fresh random misses.
    "lookup-tcp-closed": Spec(
        name="lookup-tcp-closed",
        why="Baseline TCP service latency on a small db: per-request fixed "
        "cost dominates, working set (64 keys x 17 rows) exceeds the "
        "256-row variant cache; a kernel-only gain shows least here.",
        transport="tcp", loop="closed", db_polys=64, shards=2, key_bits=32,
        slo_ms=250.0, count=300, warmup=5, connections=1,
    ),
    # Why: queueing is invisible to a waiting client.  A Poisson
    # schedule timed from the due time is where Session.submit
    # coalescing, dispatcher wait, max_in_flight shedding and
    # cross-request batching show.  Pure wire/codec work should read no
    # change.  The rate is a third of the closed-loop rate at seed
    # (25 q/s), not half: overlapping requests are coalesced and finish
    # together, so the service saturates well below its closed-loop rate,
    # and at 12 req/s p90 sat on the 250 ms limit (slo_share 0.80-0.92
    # by seed).  At 8 req/s the queue is still plain (p50 is 1.5x the
    # closed loop's) and the numbers repeat.  The latency limit is twice
    # the closed loop's: time from the due time includes the queue.
    "lookup-tcp-open": Spec(
        name="lookup-tcp-open",
        why="Open loop (Poisson 8 req/s, a third of seed capacity, 2 "
        "connections), latency from due time: shows queueing, submit "
        "coalescing and shedding that a waiting client never sees.",
        transport="tcp", loop="open", db_polys=64, shards=2, key_bits=32,
        slo_ms=500.0, count=160, warmup=5, connections=2, rate=8.0,
    ),
    # Why: kernel- and device-model-dominated.  8448 Hom-Adds and 8448
    # simulated IoRequests per query against 1088 on lookup, all queries
    # distinct, and repro.net / repro.load bypassed entirely: a net-tier
    # change must read exactly no change, an he.arena or
    # serve.scheduler change reads largest.
    "scan-inproc-closed": Spec(
        name="scan-inproc-closed",
        why="In-process 48-bit DNA reads over a 4 Mbit db, all distinct: "
        "kernel- and device-model-dominated, bypasses repro.net, so a "
        "net-tier change must read no change and an arena change most.",
        transport="inproc", loop="closed", db_polys=256, shards=4,
        key_bits=48, slo_ms=600.0, count=60, warmup=5,
    ),
    # Why: the write path beside the read path.  Every cycle
    # re-outsources a fresh db (pack + encrypt + shard + cache clear +
    # lazy first-touch arena build), searches once cold, then sends
    # native batches drawn Zipf(1.1) from 8 hot keys (8 x 17 rows fit
    # the cache; in-batch dedup fires).  Work moved into outsource or
    # first touch, or a cache change that helps hot sets but costs
    # misses, shows here and not on lookup-*.
    "hotset-churn-tcp": Spec(
        name="hotset-churn-tcp",
        why="Re-outsource + cold first search + Zipf batches of 4 from 8 "
        "cache-fitting hot keys: the write path, first-touch arena build, "
        "native batch dedup and a cache that fits, unlike lookup-*.",
        transport="tcp", loop="closed", db_polys=64, shards=2, key_bits=32,
        slo_ms=400.0, count=25, warmup=2, connections=1,
    ),
}

#: churn cycle shape: batches per cycle, keys per batch, hot keys, Zipf s
CHURN_BATCHES = 3
CHURN_BATCH_KEYS = 4
CHURN_HOT_KEYS = 8
CHURN_ZIPF_S = 1.1
#: Every batch is redrawn until it holds exactly this many distinct keys.
#: Batch latency steps with the number of distinct keys (each is 17
#: variant rows of work, a duplicate is free), so free Zipf draws give a
#: latency mixture whose percentiles fall between the steps and jump
#: with the seed; with one duplicate per batch dedup always fires and
#: the batches form one mode.
CHURN_BATCH_DISTINCT = 3
LOOKUP_PLANTED = 64


@dataclass(frozen=True)
class Op:
    """One operation the load generator issues, with its right answer."""

    #: "outsource" | "first" (first search after an outsource) |
    #: "search" | "batch"
    kind: str
    keys: Tuple[np.ndarray, ...] = ()
    #: per key, the sorted bit offsets where it occurs in the current db
    expected: Tuple[Tuple[int, ...], ...] = ()
    #: index into ``Inputs.dbs`` (outsource ops)
    db: int = 0

    @property
    def is_search(self) -> bool:
        return self.kind != "outsource"


@dataclass
class Inputs:
    spec: Spec
    dbs: List[np.ndarray]
    #: outsource db 0 + first search; run once per repeat, timed as set-up
    setup: List[Op]
    warmup: List[Op]
    ops: List[Op]
    #: what all of this was made from; also seeds the open-loop
    #: schedules and the service's key generation
    seed: int


class Haystack:
    """All occurrences of a byte-multiple bit pattern at any bit offset.

    Holds the database packed into bytes at each of the eight bit
    phases, so a search is eight ``bytes.find`` scans."""

    def __init__(self, bits: np.ndarray):
        self.num_bits = len(bits)
        self._phases = [np.packbits(bits[s:]).tobytes() for s in range(8)]

    def find_all(self, key: np.ndarray) -> Tuple[int, ...]:
        if len(key) % 8:
            raise ValueError("key length must be a multiple of 8 bits")
        needle = np.packbits(key).tobytes()
        hits = []
        for shift, hay in enumerate(self._phases):
            at = hay.find(needle)
            while at != -1:
                offset = 8 * at + shift
                # the last byte of a phase is zero-padded past the db end
                if offset + len(key) <= self.num_bits:
                    hits.append(offset)
                at = hay.find(needle, at + 1)
        return tuple(sorted(hits))


def cross_check(db: np.ndarray, key: np.ndarray, offset: int) -> None:
    """Hold :class:`Haystack` to ``find_all_matches`` on a 32 Kbit
    window around ``offset`` (where ``key`` is known to occur)."""
    from repro.baselines import find_all_matches

    lo = max(0, offset - POLY_BITS)
    window = db[lo : offset + POLY_BITS]
    want = tuple(find_all_matches(window, key))
    got = Haystack(window).find_all(key)
    if want != got or offset - lo not in got:
        raise AssertionError(
            f"oracle disagreement near bit {offset}: "
            f"find_all_matches={want} haystack={got}"
        )


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def _random_bits(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.integers(0, 2, n, dtype=np.uint8)


def _plant(
    rng: np.random.Generator, db: np.ndarray, num_keys: int, key_bits: int
) -> Tuple[List[np.ndarray], List[int]]:
    """Write ``num_keys`` random keys into ``db`` at distinct,
    non-overlapping, 16-bit-aligned offsets."""
    slots = len(db) // key_bits
    offsets = [
        int(s) * key_bits for s in rng.choice(slots, num_keys, replace=False)
    ]
    assert all(o % CHUNK_BITS == 0 for o in offsets)
    keys = []
    for offset in offsets:
        key = _random_bits(rng, key_bits)
        db[offset : offset + key_bits] = key
        keys.append(key)
    return keys, offsets


def _search(kind: str, hay: Haystack, *keys: np.ndarray) -> Op:
    return Op(kind, tuple(keys), tuple(hay.find_all(k) for k in keys))


def _lookup(spec: Spec, seed: int) -> Inputs:
    # Both lookup workloads draw db, keys and requests from one stream,
    # so the open loop offers a prefix of the closed loop's requests.
    rng = _rng(seed, 1)
    db = _random_bits(rng, spec.db_bits)
    planted, offsets = _plant(rng, db, LOOKUP_PLANTED, spec.key_bits)
    cross_check(db, planted[0], offsets[0])
    hay = Haystack(db)

    def request() -> Op:
        if rng.random() < 0.5:
            key = planted[int(rng.integers(LOOKUP_PLANTED))]
        else:
            key = _random_bits(rng, spec.key_bits)
        return _search("search", hay, key)

    warmup = [request() for _ in range(spec.warmup)]
    ops = [request() for _ in range(WORKLOADS["lookup-tcp-closed"].count)]
    return Inputs(
        spec, [db], [Op("outsource"), _search("first", hay, planted[0])],
        warmup, ops[: spec.count], seed,
    )


def schedule(inputs: Inputs, repeat: int, seconds: Optional[float]) -> List[float]:
    """Open loop: when each request of repeat number ``repeat`` is due,
    in seconds from its start.

    Arrivals are a Poisson process at ``spec.rate`` conditioned on its
    count in every whole second: ``rate`` arrival times uniform on each
    second of the window (by default as long as ``spec.count`` arrivals
    take), sorted.  Gaps inside a second are the Poisson ones, so
    requests still overlap and queue; what is removed is the seed's luck
    with long bursts, which moved p90 by 30% between seeds when the
    process was conditioned on the window's count alone.  The number
    offered, and so the offered load, does not vary with the seed.
    Every repeat draws its own schedule."""
    spec = inputs.spec
    horizon = spec.count / spec.rate if seconds is None else seconds
    rng = _rng(inputs.seed, 1, 1, repeat)
    due: List[float] = []
    for second in range(math.ceil(horizon)):
        width = min(1.0, horizon - second)
        due += (second + rng.uniform(0.0, width, round(spec.rate * width))).tolist()
    return sorted(due)


def _scan(spec: Spec, seed: int) -> Inputs:
    rng = _rng(seed, 2)
    db = _random_bits(rng, spec.db_bits)
    hay = Haystack(db)
    reads: List[np.ndarray] = []
    seen = set()
    first_offset = None
    while len(reads) < spec.warmup + spec.count + 1:
        if len(reads) % 2 == 0:
            # a read sequenced from the reference, on a base (2-bit) boundary
            offset = 2 * int(rng.integers((spec.db_bits - spec.key_bits) // 2))
            read = db[offset : offset + spec.key_bits].copy()
        else:
            offset, read = None, _random_bits(rng, spec.key_bits)
        if read.tobytes() in seen:
            continue
        seen.add(read.tobytes())
        if first_offset is None:
            first_offset = offset
        reads.append(read)
    cross_check(db, reads[0], first_offset)
    ops = [_search("search", hay, read) for read in reads[1:]]
    return Inputs(
        spec, [db], [Op("outsource"), _search("first", hay, reads[0])],
        ops[: spec.warmup], ops[spec.warmup :], seed,
    )


def _churn(spec: Spec, seed: int) -> Inputs:
    rng = _rng(seed, 3)
    weights = 1.0 / np.arange(1, CHURN_HOT_KEYS + 1) ** CHURN_ZIPF_S
    weights /= weights.sum()
    dbs: List[np.ndarray] = []
    cycles: List[List[Op]] = []
    for index in range(1 + spec.warmup + spec.count):
        db = _random_bits(rng, spec.db_bits)
        hot, offsets = _plant(rng, db, CHURN_HOT_KEYS, spec.key_bits)
        if index == 0:
            cross_check(db, hot[0], offsets[0])
        hay = Haystack(db)
        dbs.append(db)
        cycle = [Op("outsource", db=index), _search("first", hay, hot[0])]
        for _ in range(CHURN_BATCHES):
            picks: Sequence[int] = ()
            while len(set(picks)) != CHURN_BATCH_DISTINCT:
                picks = rng.choice(CHURN_HOT_KEYS, CHURN_BATCH_KEYS, p=weights).tolist()
            cycle.append(_search("batch", hay, *(hot[int(k)] for k in picks)))
        cycles.append(cycle)
    return Inputs(
        spec, dbs, cycles[0][:2],
        sum(cycles[1 : 1 + spec.warmup], []), sum(cycles[1 + spec.warmup :], []),
        seed,
    )


_GENERATORS = {
    "lookup-tcp-closed": _lookup,
    "lookup-tcp-open": _lookup,
    "scan-inproc-closed": _scan,
    "hotset-churn-tcp": _churn,
}


def generate(name: str, seed: int) -> Inputs:
    """Inputs of workload ``name`` for ``seed``."""
    return _GENERATORS[name](WORKLOADS[name], seed)


def digest(inputs: Inputs) -> str:
    """SHA-256 over everything the program will receive."""
    h = hashlib.sha256()
    for db in inputs.dbs:
        h.update(np.packbits(db).tobytes())
    for op in inputs.setup + inputs.warmup + inputs.ops:
        h.update(op.kind.encode())
        h.update(struct.pack("<I", op.db))
        for key, expected in zip(op.keys, op.expected):
            h.update(np.packbits(key).tobytes())
            h.update(struct.pack(f"<{len(expected)}q", *expected))
    if inputs.spec.rate is not None:
        due = schedule(inputs, 0, None)
        h.update(struct.pack(f"<{len(due)}d", *due))
    return h.hexdigest()
