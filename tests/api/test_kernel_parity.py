"""Fused-vs-per-pair parity on the one BFV search path
(``open_session("bfv-sharded")``): every adder — the fused kernels,
:class:`tests.oracles.PerPairAdder` ("object") and the in-flash device
("ifp") — answers the plaintext oracle with the same Hom-Add tally in
both index modes at one and two shards, and at the flag level
:func:`~repro.core.matcher.per_pair_blocks` and the fused kernels set
the same flags.
"""

from __future__ import annotations

import pytest

import repro
from repro.api import DEFAULT_REGISTRY, HomOpTally
from repro.baselines import find_all_matches
from repro.core import CipherMatchClient, ClientConfig, IndexMode
from repro.core.match_polynomial import (
    DeterministicComparator,
    flag_matches_by_decryption,
)
from repro.core.matcher import block_hits, comparator_hits, per_pair_blocks
from repro.he import BFVParams
from repro.he.arena import QueryArena, fused_decrypt_flags
from repro.serve import ShardedSearchEngine
from tests.oracles import (
    ADDER_KWARGS,
    PerPairAdder,
    encrypted_query_rows,
    hits_of_blocks,
    per_pair_factory,
)

MODES = {
    "client-decrypt": IndexMode.CLIENT_DECRYPT,
    "server-deterministic": IndexMode.SERVER_DETERMINISTIC,
}


@pytest.mark.parametrize("shards", [1, 2], ids=["1-shard", "2-shards"])
@pytest.mark.parametrize("mode", list(MODES))
@pytest.mark.parametrize("adder", list(ADDER_KWARGS))
def test_kernel_matches_oracle_and_peer(adder, mode, shards, master_fixture):
    caps = DEFAULT_REGISTRY.spec("bfv-sharded").capabilities
    db_view, query = master_fixture.view(caps)
    with repro.open_session(
        "bfv-sharded",
        db_bits=db_view,
        key_seed=13,
        num_shards=shards,
        index_mode=MODES[mode],
        **ADDER_KWARGS[adder],
    ) as session:
        result = session.search(query)
    assert list(result.matches) == find_all_matches(db_view, query)
    # the fixture's third occurrence straddles the 2-shard boundary
    assert 1008 in result.matches
    assert len(result.shards) == shards
    # 17 variants of a 32-bit query x 2 polynomials, whoever adds
    assert result.hom_ops == HomOpTally(additions=34)


@pytest.mark.parametrize(
    "index_mode", [IndexMode.CLIENT_DECRYPT, IndexMode.SERVER_DETERMINISTIC]
)
def test_per_pair_and_fused_flags_byte_identical(index_mode, master_fixture):
    """At the flag level: the per-pair loop and the fused kernels set
    the same flags for every (variant, polynomial) result block — their
    hit lists are equal element for element — in both index-generation
    modes, and decode to the same candidates."""
    client = CipherMatchClient(
        ClientConfig(BFVParams.test_small(64), key_seed=21, index_mode=index_mode)
    )
    ctx = client.ctx
    db = client.outsource(master_fixture.db_bits)
    prepared = client.prepare_query(master_fixture.query_bits)
    polys = range(db.num_polynomials)
    rows, query_cts, row_map = encrypted_query_rows(client, prepared, polys)
    query = QueryArena(ctx.ring, ctx.params, prepared.variants, list(rows))
    blocks = per_pair_blocks(PerPairAdder(ctx), db, query_cts, row_map, polys)
    arena = db.fused_arena(ctx.ring, ctx.params)
    if index_mode is IndexMode.SERVER_DETERMINISTIC:
        comparator = DeterministicComparator(
            ctx, client.pk, client.masking_seed, client.chunk_width
        )
        hits_o = block_hits(blocks, comparator.flag_matches, prepared.num_variants)
        hits_f = comparator_hits(comparator, arena, query, row_map, polys)
    else:
        hits_o = hits_of_blocks(
            {
                (b.variant_index, b.poly_index): flag_matches_by_decryption(
                    ctx, b.ciphertext, client.sk, 16
                )
                for b in blocks
            },
            prepared.num_variants,
            db.n,
        )
        hits_f = fused_decrypt_flags(
            arena.phases(client.sk), query.phases(), row_map, ctx.params, 16
        )
    assert len(hits_o) == len(hits_f) == prepared.num_variants
    assert any(len(found) for found in hits_o)
    for v_idx, (found_o, found_f) in enumerate(zip(hits_o, hits_f)):
        assert found_o.tolist() == found_f.tolist(), (
            f"flags diverged for variant {v_idx}"
        )
    # and the decoded candidate lists agree in every field
    dec_o = client.decode_flags_matrix(prepared, hits_o, db, verify=False)
    dec_f = client.decode_flags_matrix(prepared, hits_f, db, verify=False)
    assert dec_o == dec_f and dec_o


def test_candidate_lists_identical_with_and_without_verify(master_fixture):
    db_bits = master_fixture.db_bits
    query = master_fixture.query_bits
    for verify in (True, False):
        candidates = {}
        for kernel in ("object", "fused"):
            engine = ShardedSearchEngine(
                ClientConfig(BFVParams.test_small(64), key_seed=23),
                backend_factory=per_pair_factory if kernel == "object" else None,
            )
            engine.outsource(db_bits)
            candidates[kernel] = engine.search(query, verify=verify).candidates
        assert candidates["object"] == candidates["fused"]
