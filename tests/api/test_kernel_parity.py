"""Fused-vs-per-pair search parity across the api engines.

The acceptance bar of the fused arena kernels: every registered engine
built on the core CIPHERMATCH matcher (the pipeline, the wire protocol
and the sharded serving engine) produces *identical*
``MatchCandidate``/match lists — and, at the flag level, identical
hit lists — whether a plain CPU adder runs the fused
kernels ("fused") or :class:`tests.oracles.PerPairAdder` forces one
``hom_add`` object per pair ("object"), including deterministic-seed
(server-side index generation) mode and merges that span shard
boundaries.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.api import DEFAULT_REGISTRY
from repro.baselines import find_all_matches
from repro.core import ClientConfig, IndexMode, SecureStringMatchPipeline
from repro.core.match_polynomial import flag_matches_by_decryption
from repro.he import BFVParams
from repro.he.arena import fused_decrypt_flags
from tests.oracles import (
    ADDER_KWARGS,
    PerPairAdder,
    hits_of_blocks,
    per_pair_factory,
)

#: engines built on the core matcher, with kwargs mirroring
#: tests/api/test_parity.py (plus per-engine shard counts)
CORE_ENGINE_KWARGS = {
    "bfv": {"key_seed": 11},
    "bfv-sharded": {"key_seed": 13, "num_shards": 2},
}


@pytest.mark.parametrize("key", list(CORE_ENGINE_KWARGS))
@pytest.mark.parametrize("kernel", ["object", "fused"])
def test_kernel_matches_oracle_and_peer(key, kernel, master_fixture):
    caps = DEFAULT_REGISTRY.spec(key).capabilities
    db_view, query = master_fixture.view(caps)
    with repro.open_session(
        key,
        db_bits=db_view,
        **ADDER_KWARGS[kernel][key],
        **CORE_ENGINE_KWARGS[key],
    ) as session:
        result = session.search(query)
    expected = find_all_matches(db_view, query)
    assert list(result.matches) == expected
    # the fixture's third occurrence straddles the 2-shard boundary
    if key == "bfv-sharded":
        assert 1008 in result.matches


@pytest.mark.parametrize("key", list(CORE_ENGINE_KWARGS))
def test_hom_op_tally_identical_across_kernels(key, master_fixture):
    """HomOpTally must not change meaning between the two paths."""
    caps = DEFAULT_REGISTRY.spec(key).capabilities
    db_view, query = master_fixture.view(caps)
    tallies = {}
    for kernel in ("object", "fused"):
        with repro.open_session(
            key,
            db_bits=db_view,
            **ADDER_KWARGS[kernel][key],
            **CORE_ENGINE_KWARGS[key],
        ) as session:
            tallies[kernel] = session.search(query).hom_ops
    assert tallies["object"] == tallies["fused"]
    assert tallies["fused"].additions > 0


@pytest.mark.parametrize(
    "index_mode", [IndexMode.CLIENT_DECRYPT, IndexMode.SERVER_DETERMINISTIC]
)
def test_pipeline_flags_byte_identical(index_mode, master_fixture):
    """At the flag level: the fused cell and the per-pair cell set the
    same flags for every (variant, polynomial) result block — their hit
    lists are equal element for element — in both index-generation
    modes, and decode to the same candidates."""
    db_bits = master_fixture.db_bits
    query = master_fixture.query_bits
    deterministic = index_mode is IndexMode.SERVER_DETERMINISTIC
    pipes = {}
    for kernel in ("object", "fused"):
        pipe = SecureStringMatchPipeline(
            ClientConfig(
                BFVParams.test_small(64), key_seed=21, index_mode=index_mode
            )
        )
        if kernel == "object":
            pipe.server.engine.backend = PerPairAdder(pipe.client.ctx)
        pipe.outsource_database(db_bits)
        assert pipe.server.fused == (kernel == "fused")
        pipes[kernel] = pipe

    def per_pair_hits(pipe):
        client = pipe.client
        prepared = client.prepare_query(query)
        blocks = pipe.server.search(
            prepared, lambda v, j: client.encrypt_variant(prepared, v, j)
        )
        if deterministic:
            return prepared, pipe.server.generate_index(blocks, prepared.num_variants)
        return prepared, hits_of_blocks(
            {
                (b.variant_index, b.poly_index): flag_matches_by_decryption(
                    client.ctx, b.ciphertext, client.sk, 16
                )
                for b in blocks
            },
            prepared.num_variants,
            pipe.db.n,
        )

    def fused_hits(pipe):
        client, ctx = pipe.client, pipe.client.ctx
        prepared = client.prepare_query(query)
        arena = client.query_arena(prepared)
        if deterministic:
            return prepared, pipe.server.search_index(arena)
        return prepared, fused_decrypt_flags(
            pipe.db.fused_arena(ctx.ring, ctx.params).phases(client.sk),
            arena.phases(client.sk),
            arena.row_map(np.arange(pipe.db.num_polynomials)),
            ctx.params,
            16,
        )

    prep_o, hits_o = per_pair_hits(pipes["object"])
    prep_f, hits_f = fused_hits(pipes["fused"])
    assert len(hits_o) == len(hits_f) == prep_o.num_variants
    assert any(len(found) for found in hits_o)
    for v_idx, (found_o, found_f) in enumerate(zip(hits_o, hits_f)):
        assert found_o.tolist() == found_f.tolist(), (
            f"flags diverged for variant {v_idx}"
        )
    # and the decoded candidate lists agree in every field
    dec_o = pipes["object"].client.decode_flags_matrix(
        prep_o, hits_o, pipes["object"].db, verify=False
    )
    dec_f = pipes["fused"].client.decode_flags_matrix(
        prep_f, hits_f, pipes["fused"].db, verify=False
    )
    assert dec_o == dec_f and dec_o


def test_candidate_lists_identical_with_and_without_verify(master_fixture):
    db_bits = master_fixture.db_bits
    query = master_fixture.query_bits
    for verify in (True, False):
        candidates = {}
        for kernel in ("object", "fused"):
            pipe = SecureStringMatchPipeline(
                ClientConfig(BFVParams.test_small(64), key_seed=23)
            )
            if kernel == "object":
                pipe.server.engine.backend = PerPairAdder(pipe.client.ctx)
            pipe.outsource_database(db_bits)
            candidates[kernel] = pipe.search(query, verify=verify).candidates
        assert candidates["object"] == candidates["fused"]


def test_sharded_cross_shard_merge_identical(master_fixture):
    """Sharded merges: every shard count produces the same matches on
    both paths, including the occurrence straddling shard boundaries."""
    db_bits = master_fixture.db_bits
    query = master_fixture.query_bits
    results = {}
    for kernel in ("object", "fused"):
        for shards in (1, 2, 3):
            with repro.open_session(
                "bfv-sharded",
                db_bits=db_bits,
                key_seed=13,
                num_shards=shards,
                **ADDER_KWARGS[kernel]["bfv-sharded"],
            ) as session:
                results[(kernel, shards)] = list(session.search(query).matches)
    baseline = results[("object", 1)]
    assert 1008 in baseline
    for key, matches in results.items():
        assert matches == baseline, key


def test_deterministic_seed_mode_sharded_parity(master_fixture):
    """Deterministic-seed (server-side index) mode through the sharded
    engine: both paths, same matches, same hom-add accounting."""
    db_bits = master_fixture.db_bits
    query = master_fixture.query_bits
    from repro.serve import ShardedSearchEngine

    reports = {}
    for kernel in ("object", "fused"):
        engine = ShardedSearchEngine(
            ClientConfig(
                BFVParams.test_small(64),
                key_seed=31,
                index_mode=IndexMode.SERVER_DETERMINISTIC,
            ),
            num_shards=2,
            backend_factory=per_pair_factory if kernel == "object" else None,
        )
        engine.outsource(db_bits)
        reports[kernel] = engine.search(query)
    assert reports["object"].matches == reports["fused"].matches
    assert reports["object"].hom_additions == reports["fused"].hom_additions
    assert 1008 in reports["fused"].matches
