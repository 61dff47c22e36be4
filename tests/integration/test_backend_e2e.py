"""Full-engine arithmetic regression: outsource -> query -> match ->
decrypt must produce identical match offsets on the vectorized ring
arithmetic and on the reference oracle's (``tests/oracles.py``), in both
index-generation modes and through the sharded serving engine.

The deterministic-index mode is the strongest check here: it compares
*ciphertexts* coefficient-for-coefficient on the server, so any
divergence anywhere in the encrypt/multiply chain breaks matching
outright rather than merely perturbing noise.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ClientConfig
from repro.core.match_polynomial import IndexMode
from repro.he import BFVParams
from repro.serve import ShardedSearchEngine
from repro.utils.bits import random_bits
from tests.oracles import ARITHMETIC, ReferenceBackend

BACKENDS = ("reference", "vectorized")


def _workload():
    rng = np.random.default_rng(77)
    params = BFVParams.test_small(64)
    db = random_bits(params.n * 16 * 4, rng)
    query = random_bits(48, rng)
    planted = [16 * 5, 16 * 97, 16 * 200]  # within the 4096-bit database
    for off in planted:
        db[off : off + len(query)] = query
    return params, db, query


def _on(backend, client):
    """A client built the normal way, computing on ``backend``: the
    context's two rings and the one its keys were generated on."""
    ARITHMETIC[backend](client.ctx, client.sk.s)
    assert client.pk.pk0.ring is client.pk.pk1.ring is client.sk.s.ring
    for ring in (client.ctx.ring, client.ctx.plain_ring, client.sk.s.ring):
        assert (type(ring.backend) is ReferenceBackend) == (backend == "reference")


@pytest.mark.parametrize(
    "index_mode", [IndexMode.CLIENT_DECRYPT, IndexMode.SERVER_DETERMINISTIC]
)
def test_pipeline_matches_identical_across_backends(index_mode):
    params, db, query = _workload()
    batches = {}
    for backend in BACKENDS:
        engine = ShardedSearchEngine(
            ClientConfig(params, index_mode=index_mode, key_seed=7),
            num_shards=3,
        )
        _on(backend, engine.client)
        engine.outsource(db)
        report = engine.search_batch([query, query[:32]])
        batches[backend] = [r.matches for r in report.reports]
    assert batches["reference"] == batches["vectorized"]
    assert len(batches["vectorized"][0]) >= 3  # the planted occurrences
    assert all(batches["vectorized"])


def test_ciphertexts_bit_identical_under_deterministic_encryption():
    """With noiseless deterministic encryption the entire encrypted
    database must be byte-identical on both arithmetics."""
    params, db, _ = _workload()
    encrypted = {}
    for backend in BACKENDS:
        engine = ShardedSearchEngine(
            ClientConfig(
                params, index_mode=IndexMode.SERVER_DETERMINISTIC, key_seed=7
            )
        )
        _on(backend, engine.client)
        encrypted[backend] = engine.outsource(db)
    ref, vec = encrypted["reference"], encrypted["vectorized"]
    assert len(ref.ciphertexts) == len(vec.ciphertexts)
    for ct_ref, ct_vec in zip(ref.ciphertexts, vec.ciphertexts):
        assert np.array_equal(ct_ref.c0.coeffs, ct_vec.c0.coeffs)
        assert np.array_equal(ct_ref.c1.coeffs, ct_vec.c1.coeffs)
