"""Fused-kernel behavior specific to the sharded serving engine:
shards as ranges of the one database arena, stacked variant rows in the LRU cache, fused
accounting in the serve report, and the per-pair path for backends that
do their own addition ("object" below: :class:`tests.oracles.PerPairAdder`
shards)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import find_all_matches
from repro.core import ClientConfig, CPUAdditionBackend, IndexMode
from repro.he import BFVParams
from repro.he.arena import unstack_ciphertext
from repro.he.bfv import _SYMMETRIC_TILE_ROWS as TILE
from repro.he.noise import NoiseBounds
from repro.serve import ShardedSearchEngine
from repro.serve.engine import _QueryJob
from repro.utils.bits import random_bits
from repro.serve.cache import entry_nbytes
from tests.oracles import PerPairAdder, count_transforms, per_pair_factory


def _workload(num_polys=6, num_queries=4, seed=41):
    rng = np.random.default_rng(seed)
    params = BFVParams.test_small(64)
    db = random_bits(num_polys * params.n * 16, rng)
    queries = []
    for k in range(num_queries):
        q = random_bits(32, rng)
        off = 16 * (5 + 47 * k)
        db[off : off + 32] = q
        queries.append(q)
    return params, db, queries


def _engine(params, kernel, *, num_shards=3, **kwargs):
    return ShardedSearchEngine(
        ClientConfig(params, key_seed=41, **kwargs),
        num_shards=num_shards,
        backend_factory=per_pair_factory if kernel == "object" else None,
    )


def test_fused_batch_matches_object_batch_and_report_fields():
    params, db, queries = _workload()
    reports = {}
    for kernel in ("object", "fused"):
        engine = _engine(params, kernel)
        engine.outsource(db)
        reports[kernel] = engine.search_batch(queries + [queries[0]])
    o, f = reports["object"], reports["fused"]
    assert o.matches_per_query() == f.matches_per_query()
    assert [r.hom_additions for r in o.reports] == [
        r.hom_additions for r in f.reports
    ]
    assert o.deduplicated_hits == f.deduplicated_hits == 1
    assert sum(s.hom_adds for s in f.shards) == sum(s.hom_adds for s in o.shards)
    assert all(s.tasks_executed > 0 for s in f.shards)


def test_fused_limb_major_decrypt_matches_object_kernel():
    """The limb-major decrypt layout must stay bit-identical to the
    per-pair adder's per-block decryption."""
    params, db, queries = _workload(num_queries=3, seed=23)
    results = {}
    for kernel in ("object", "fused"):
        with _engine(params, kernel) as engine:
            engine.outsource(db)
            results[kernel] = engine.search_batch(queries).matches_per_query()
    assert results["fused"] == results["object"]
    assert any(results["fused"])


def test_adopt_defers_arena_rows_to_first_query():
    """Adopt returns with an unbuilt arena; the first query
    materializes it."""
    params, db, queries = _workload()
    with _engine(params, "fused", num_shards=2) as lazy:
        encrypted = lazy.outsource(db)
        assert encrypted._arena is None  # adopt paid nothing
        lazy.search_batch(queries[:1])
        arena = encrypted._arena
        assert arena is not None
        assert arena._source is None  # the query touched every shard


def test_shards_hold_zero_copy_arena_slices():
    """A shard is a range of the database's one arena: its rows are
    views of the cached phase rows, and its first task builds only the
    tiles under its own range."""
    params, db, queries = _workload(num_polys=40)
    engine = _engine(params, "fused")
    engine.outsource(db)
    ctx, sk = engine.client.ctx, engine.client.sk
    arena = engine.db.fused_arena(ctx.ring, ctx.params)
    job = _QueryJob(0, queries[0], b"", engine.client.prepare_query(queries[0]))
    base = 0
    for shard in engine.shards:
        assert arena._source is not None  # until the last range is touched
        assert shard.base_poly == base
        engine._run_shard_task(shard, job)
        stop = base + shard.num_polynomials
        tiles = arena._tiles_over(0, stop)
        assert arena._built is None or (
            arena._built[: tiles.stop].all() and not arena._built[tiles.stop :].any()
        )
        base = stop
    assert base == engine.db.num_polynomials and arena._source is None
    phases = arena.phases(sk)
    for shard in engine.shards:
        stop = shard.base_poly + shard.num_polynomials
        rows = arena.phases(sk, shard.base_poly, stop)
        assert rows.base is phases  # view, not copy
        assert np.array_equal(rows, phases[shard.base_poly : stop])
    assert not hasattr(engine.shards[0], "arena")


def test_variant_cache_stores_stacked_rows_under_fused():
    params, db, queries = _workload()
    engine = _engine(params, "fused")
    engine.outsource(db)
    engine.search_batch(queries[:2])
    stats = engine.cache.stats()
    assert stats.misses > 0
    rows = engine.cache.values()
    assert rows and all(isinstance(v, np.ndarray) for v in rows)
    # one entry format: c0, c1 and the phase row, q = 2**32 -> uint32;
    # each entry owns its memory, so evicting one frees it
    assert all(v.shape == (3, params.n) and v.dtype == np.uint32 for v in rows)
    assert all(v.base is None for v in rows)
    ctx, sk = engine.client.ctx, engine.client.sk
    for v in rows:
        ct = unstack_ciphertext(ctx.ring, ctx.params, v.astype(np.int64))
        assert np.array_equal(v[2], (ct.c0 + ct.c1 * sk.s).coeffs)
        # rows 0-1 are a ciphertext under sk of a negated-query pattern:
        # the phase row is delta * m - e with |e| under the fresh bound
        noise = ctx.noise_residual(ct, sk)
        assert 0 < noise <= NoiseBounds(params).fresh_symmetric
    # repeated batch: every variant row is a cache hit
    misses_before = engine.cache.stats().misses
    engine.search_batch(queries[:2])
    assert engine.cache.stats().misses == misses_before


def test_variant_cache_hit_runs_no_transform():
    """A repeated query is served from the cached phase rows: one
    locked dictionary pass, no transform round trip **and no draw from
    the client's RNG**.  A cold one does run transforms — the counter
    sees the FFTs of the miss pass and of the database phases, so
    "none" below is not vacuous — whose shapes follow the number of
    missing rows and ``n`` alone."""
    rng = np.random.default_rng(3)
    params = BFVParams.test_small(128)
    db = random_bits(4 * params.n * 16, rng)
    query = random_bits(32, rng)
    db[16 * 9 : 16 * 9 + 32] = query
    engine = _engine(params, "fused", num_shards=2)
    engine.outsource(db)
    client_rng = engine.client.ctx._rng
    drawn = client_rng.bit_generator.state
    with count_transforms() as cold:
        first = engine.search_batch([query])
    assert cold and {call[0] for call in cold} == {"SmallProductFft"}
    misses = engine.cache.stats().misses
    tiles = [(TILE, 2)] * (misses // TILE) + [(misses % TILE, 2)] * bool(misses % TILE)
    assert [call[3] for call in cold if call[1] == "inverse"][: len(tiles)] == [
        tile + (params.n // 2,) for tile in tiles
    ]
    assert client_rng.bit_generator.state != drawn
    drawn = client_rng.bit_generator.state
    with count_transforms() as warm:
        second = engine.search_batch([query])
    assert warm == []
    assert client_rng.bit_generator.state == drawn
    stats = engine.cache.stats()
    assert stats.misses == misses and stats.hits == misses
    assert second.matches_per_query() == first.matches_per_query() != [[]]


@pytest.mark.parametrize(
    "kernel, config",
    [
        ("fused", {}),
        ("object", {}),
        ("fused", {"index_mode": IndexMode.SERVER_DETERMINISTIC}),
    ],
    ids=["fused", "per-pair", "deterministic"],
)
def test_partial_hit_encrypts_only_the_missing_rows(kernel, config):
    """A capacity-4 cache under 17-row requests: every request gets all
    of its rows (bounds are enforced after the inserts), the last four
    stay, so a repeat is a *partial* hit — 4 rows resident, 13 encrypted
    again in one pass — and answers stay the plaintext oracle's."""
    params, db, queries = _workload(num_queries=2)
    engine = ShardedSearchEngine(
        ClientConfig(params, key_seed=41, **config),
        num_shards=3,
        cache_capacity=4,
        backend_factory=per_pair_factory if kernel == "object" else None,
    )
    engine.outsource(db)
    want = [find_all_matches(db, q) for q in queries]
    rows = engine.client.prepare_query(queries[0]).num_variants
    assert rows == 17
    counter = engine.client.ctx.counter
    entry = 3 if not config else 2
    for round_, (hits, misses) in enumerate([(0, 17), (4, 13), (4, 13)]):
        before = engine.cache.stats()
        encrypted = counter.encryptions
        report = engine.search_batch([queries[0]])
        assert report.matches_per_query() == want[:1] != [[]]
        after = engine.cache.stats()
        assert (after.hits - before.hits, after.misses - before.misses) == (hits, misses)
        assert counter.encryptions - encrypted == misses
        assert after.size == 4 and after.evictions - before.evictions == misses - (
            4 if round_ == 0 else 0
        )
        values = engine.cache.values()
        assert all(v.shape == (entry, params.n) for v in values)
        assert after.current_bytes == sum(entry_nbytes(v) for v in values)
    # another query evicts them all: alternating two is a full miss each
    assert engine.search_batch([queries[1]]).matches_per_query() == want[1:]
    before = engine.cache.stats()
    assert engine.search_batch(queries).matches_per_query() == want
    after = engine.cache.stats()
    assert (after.hits - before.hits, after.misses - before.misses) == (0, 34)


def test_deterministic_mode_caches_ciphertext_rows_and_never_forms_a_phase():
    """``SERVER_DETERMINISTIC`` query rows are a function of ``pk`` and
    the shared seed — the noiseless public-key encryption outsourcing
    uses — and the comparator reads ``c0`` rows only: the entries are
    ``(2, n)``, nothing multiplies by the secret key, nothing is drawn
    from the client's RNG."""
    params, db, queries = _workload()
    engine = _engine(params, "fused", index_mode=IndexMode.SERVER_DETERMINISTIC)
    engine.outsource(db)
    client = engine.client
    drawn = client.ctx._rng.bit_generator.state
    report = engine.search_batch(queries[:1])
    assert report.matches_per_query() == [find_all_matches(db, queries[0])]
    assert client.ctx._rng.bit_generator.state == drawn
    # the secret key never entered a phase product (its limb transform
    # is the key generator's)
    assert "small" not in client.sk.s._ntt
    rows = engine.cache.values()
    assert rows and all(v.shape == (2, params.n) and v.dtype == np.uint32 for v in rows)
    assert engine.cache.stats().current_bytes == len(rows) * 2 * params.n * 4
    prepared = client.prepare_query(queries[0])
    for v_idx in (0, 5):
        ct = client.encrypt_variant(prepared, v_idx, 0)
        assert any(np.array_equal(v[0], ct.c0.coeffs) for v in rows)


def test_variant_cache_entry_is_twelve_kib_at_paper_parameters():
    params = BFVParams.paper()
    rng = np.random.default_rng(4)
    engine = _engine(params, "fused", num_shards=1)
    engine.outsource(random_bits(params.n * 16, rng))
    engine.search_batch([random_bits(32, rng)])
    rows = engine.cache.values()
    assert rows and {entry_nbytes(v) for v in rows} == {12 * 1024}
    stats = engine.cache.stats()
    assert stats.current_bytes == len(rows) * 12 * 1024
    assert engine.cache.capacity == 256


def test_stateful_backend_forces_object_path():
    """A backend without ``supports_fused`` (e.g. the simulated IFP
    adder) runs one ``hom_add`` per pair, fed from the same stacked
    query rows in the variant cache as the fused kernels."""

    class CountingBackend(CPUAdditionBackend):
        supports_fused = False

        def __init__(self, ctx):
            super().__init__(ctx)
            self.calls = 0

        def hom_add(self, a, b):
            self.calls += 1
            return super().hom_add(a, b)

    params, db, queries = _workload(num_polys=3)
    backends = []

    def factory(ctx, shard_id):
        backend = CountingBackend(ctx)
        backends.append(backend)
        return backend

    engine = ShardedSearchEngine(
        ClientConfig(params, key_seed=41),
        num_shards=2,
        backend_factory=factory,
    )
    engine.outsource(db)
    assert not any(shard.fused for shard in engine.shards)
    report = engine.search_batch(queries[:1])
    assert sum(b.calls for b in backends) == report.reports[0].hom_additions > 0
    assert engine.db._arena is None  # a stateful backend builds no arena
    rows = engine.cache.values()
    assert rows and all(
        isinstance(v, np.ndarray) and v.shape == (3, params.n) for v in rows
    )


@pytest.mark.parametrize(
    "index_mode", [IndexMode.CLIENT_DECRYPT, IndexMode.SERVER_DETERMINISTIC]
)
def test_per_pair_shard_task_touches_only_its_own_range(index_mode):
    """A shard is a polynomial range, not a second list of the
    database: its task hands its adder exactly the stored ciphertexts of
    that range — each once per variant — and nothing of a neighbour's."""
    params, db, queries = _workload(num_polys=5)
    touched = {}

    class RecordingAdder(PerPairAdder):
        def __init__(self, ctx, shard_id):
            super().__init__(ctx)
            self.stored = touched.setdefault(shard_id, [])

        def hom_add(self, a, b):
            self.stored.append(a)
            return super().hom_add(a, b)

    engine = ShardedSearchEngine(
        ClientConfig(params, key_seed=41, index_mode=index_mode),
        num_shards=3,
        backend_factory=RecordingAdder,
    )
    encrypted = engine.outsource(db)
    report = engine.search_batch(queries[:1])
    assert report.matches_per_query() == [find_all_matches(db, queries[0])] != [[]]
    variants = report.reports[0].num_variants
    assert [s.num_polynomials for s in engine.shards] == [1, 2, 2]
    for shard in engine.shards:
        own = encrypted.ciphertexts[
            shard.base_poly : shard.base_poly + shard.num_polynomials
        ]
        assert [id(ct) for ct in touched[shard.shard_id]] == [
            id(ct) for ct in own
        ] * variants


def test_fused_deterministic_mode_uses_comparator_batch():
    params, db, queries = _workload()
    reports = {}
    for kernel in ("object", "fused"):
        engine = _engine(
            params, kernel, index_mode=IndexMode.SERVER_DETERMINISTIC
        )
        engine.outsource(db)
        reports[kernel] = engine.search_batch(queries)
    assert (
        reports["object"].matches_per_query()
        == reports["fused"].matches_per_query()
    )


def test_invalidate_caches_reslices_shard_arenas():
    """After in-place mutation + invalidate_caches(), fused shards must
    read the rebuilt arena instead of serving stale coefficients — they
    hold nothing of their own that could go stale."""
    params, db, queries = _workload(num_polys=4)
    engine = _engine(params, "fused", num_shards=2)
    engine.outsource(db)
    before = engine.search_batch(queries[:1]).reports[0].matches
    assert before
    # wipe the polynomial holding the planted match, the way an
    # in-place database update would
    zero_pt = engine.client.ctx.plaintext(np.zeros(params.n, dtype=np.int64))
    engine.db.ciphertexts[0] = engine.client.ctx.encrypt(
        zero_pt, engine.client.pk
    )
    first = engine.shards[0]
    ctx, sk = engine.client.ctx, engine.client.sk

    def shard_phases():
        return engine.db.fused_arena(ctx.ring, ctx.params).phases(
            sk, first.base_poly, first.base_poly + first.num_polynomials
        )

    stale_phases = shard_phases()
    engine.db.invalidate_caches()
    assert engine.db._arena is None  # phase rows go with the stack
    after_fused = engine.search_batch(queries[:1]).reports[0].matches
    fresh_phases = shard_phases()
    assert fresh_phases.dtype == stale_phases.dtype == np.uint32
    assert not np.array_equal(fresh_phases[0], stale_phases[0])
    assert np.array_equal(fresh_phases[1:], stale_phases[1:])
    object_engine = ShardedSearchEngine(
        client=engine.client, num_shards=2, backend_factory=per_pair_factory
    )
    object_engine.adopt_database(engine.db)
    after_object = object_engine.search_batch(queries[:1]).reports[0].matches
    assert after_fused == after_object
    assert before != after_fused


def test_adopt_database_resets_arena_slices():
    params, db, queries = _workload(num_polys=4)
    engine = _engine(params, "fused")
    engine.outsource(db)
    engine.search_batch(queries[:1])
    ctx, sk = engine.client.ctx, engine.client.sk
    old_arena = engine.db._arena
    assert old_arena is not None and old_arena._source is None
    assert len(engine.cache) > 0
    db2 = engine.client.outsource(db)
    engine.adopt_database(db2)
    # no per-shard state to reset: the new database has no arena yet and
    # the shards are fresh ranges over it
    assert db2._arena is None
    assert [(s.base_poly, s.num_polynomials) for s in engine.shards] == [
        (0, 1), (1, 1), (2, 2)
    ]
    # every cached row — ciphertext rows and phase row, one entry — went
    assert len(engine.cache) == 0 and engine.cache.stats().current_bytes == 0
    misses = engine.cache.stats().misses
    report = engine.search_batch(queries[:1])
    assert report.reports[0].matches
    assert engine.cache.stats().misses > misses
    # fresh encryption randomness: the re-adopted database serves fresh
    # phases, not the first database's
    fresh = db2._arena
    assert fresh is not old_arena and fresh._source is None
    assert not np.array_equal(fresh.phases(sk), old_arena.phases(sk))


# -- accounting on the per-pair branch of the shard task -----------------------


def _ifp_factory(ctx, shard_id):
    from repro.ssd.device import IFPAdditionBackend

    return IFPAdditionBackend(ctx)


def _tallies(params, db, queries, *, index_mode, backend_factory):
    """Everything a batch reports or counts, once clean and once with
    shard 1 lost under partial-results mode."""
    from repro.faults import FaultInjector, FaultPlan

    with ShardedSearchEngine(
        ClientConfig(params, key_seed=41, index_mode=index_mode),
        num_shards=3,
        backend_factory=backend_factory,
        degraded_mode="partial",
    ) as engine:
        engine.outsource(db)
        counter = engine.client.ctx.counter
        out = []
        for plan in (FaultPlan(), FaultPlan().worker_crash(0, shard=1)):
            engine.fault_injector = FaultInjector(plan)
            adds, decs = counter.additions, counter.decryptions
            report = engine.search_batch(queries + [queries[0]])
            out.append(
                {
                    "matches": report.matches_per_query(),
                    "hom_additions": [r.hom_additions for r in report.reports],
                    "degraded": [r.degraded_shards for r in report.reports],
                    "batch_degraded": report.degraded_shards,
                    "counter_additions": counter.additions - adds,
                    "counter_decryptions": counter.decryptions - decs,
                    "shard_hom_adds": [s.hom_adds for s in report.shards],
                }
            )
        return out


@pytest.mark.parametrize(
    "index_mode", [IndexMode.CLIENT_DECRYPT, IndexMode.SERVER_DETERMINISTIC]
)
@pytest.mark.parametrize(
    "backend_factory", [per_pair_factory, _ifp_factory], ids=["cpu", "ifp"]
)
def test_per_pair_accounting_equals_fused(backend_factory, index_mode):
    """A shard whose adder lacks ``supports_fused`` — a plain CPU adder
    or the stateful in-flash device — reports and counts exactly what
    the fused kernels do: matches, per-report Hom-Adds, the context's
    addition/decryption counters, per-shard Hom-Adds and the degraded
    shard markers."""
    params, db, queries = _workload(num_polys=3, num_queries=2)
    fused = _tallies(
        params, db, queries,
        index_mode=index_mode, backend_factory=None,
    )
    per_pair = _tallies(
        params, db, queries,
        index_mode=index_mode, backend_factory=backend_factory,
    )
    assert per_pair == fused
    clean, lost = fused
    assert clean["batch_degraded"] == [] and lost["batch_degraded"] == [1]
    assert clean["counter_additions"] == sum(clean["shard_hom_adds"]) > 0
    decrypting = index_mode is IndexMode.CLIENT_DECRYPT
    assert clean["counter_decryptions"] == (
        clean["counter_additions"] if decrypting else 0
    )
    assert 0 < lost["counter_additions"] < clean["counter_additions"]


@pytest.mark.parametrize("bits", [64, 80, 200])
def test_every_cell_answers_long_reads_like_the_oracle(bits):
    """The three search cells read one layout — a row per variant — and
    each returns the plaintext oracle's answers for reads whose phases
    have spans up to 12, including a match that straddles the boundary
    between two shards (two shards over five polynomials: the second
    starts at polynomial 2, bit 2 * 64 * 16)."""
    rng = np.random.default_rng(bits)
    params = BFVParams.test_small(64)
    db = random_bits(5 * params.n * 16, rng)
    query = random_bits(bits, rng)
    boundary = 2 * params.n * 16
    for at in (boundary - bits // 2 + 3, 16 * 7, 16 * 200 + 5):
        db[at : at + bits] = query
    want = find_all_matches(db, query)
    assert len(want) >= 3
    assert any(at < boundary < at + bits for at in want)
    cells = {
        "fused": {},
        "comparator": {"index_mode": IndexMode.SERVER_DETERMINISTIC},
        "per-pair": {"backend_factory": per_pair_factory},
    }
    for label, config in cells.items():
        factory = config.pop("backend_factory", None)
        engine = ShardedSearchEngine(
            ClientConfig(params, key_seed=43, **config),
            num_shards=2,
            backend_factory=factory,
        )
        engine.outsource(db)
        assert [s.base_poly for s in engine.shards] == [0, 2]
        report = engine.search(query)
        assert report.matches == want, label
        stats = engine.cache.stats()
        assert stats.lookups == stats.misses == report.num_variants, label
