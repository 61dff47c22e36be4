"""Unit tests for the CIPHERMATCH data packing scheme (§4.2.1)."""

import threading
import time

import numpy as np
import pytest

from repro.core import packing as packing_module
from repro.core.packing import DataPacker, derive_masking_poly
from repro.he import BFVContext, BFVParams, KeyGenerator
from repro.he import arena as arena_module
from repro.utils.bits import chunk_bits, random_bits


@pytest.fixture(scope="module")
def ctx():
    return BFVContext(BFVParams.test_small(64), seed=5)


@pytest.fixture(scope="module")
def keys():
    gen = KeyGenerator(BFVParams.test_small(64), seed=5)
    sk = gen.secret_key()
    return sk, gen.public_key(sk)


@pytest.fixture(scope="module")
def packer(ctx):
    return DataPacker(ctx)


class TestPack:
    def test_chunk_values_match_reference(self, packer, rng):
        bits = random_bits(400, rng)
        packed = packer.pack(bits)
        ref = chunk_bits(bits, 16)
        for i, expected in enumerate(ref):
            assert packed.chunk(i) == int(expected)

    def test_num_polynomials(self, packer, rng):
        per_poly = packer.ctx.params.n * packer.chunk_width
        assert packer.pack(random_bits(per_poly, rng)).num_polynomials == 1
        assert packer.pack(random_bits(per_poly + 1, rng)).num_polynomials == 2

    def test_num_chunks(self, packer, rng):
        packed = packer.pack(random_bits(33, rng))
        assert packed.num_chunks == 3  # ceil(33/16)

    def test_bit_length_preserved(self, packer, rng):
        packed = packer.pack(random_bits(777, rng))
        assert packed.bit_length == 777


class TestEncrypt:
    def test_encrypted_database_decrypts_to_packed(self, ctx, packer, keys, rng):
        sk, pk = keys
        bits = random_bits(600, rng)
        packed = packer.pack(bits)
        enc = packer.encrypt(packed, pk)
        for pt, ct in zip(packed.plaintexts, enc.ciphertexts):
            decrypted = ctx.decrypt(ct, sk)
            assert np.array_equal(decrypted.poly.coeffs, pt.poly.coeffs)

    def test_metadata_carried(self, packer, keys, rng):
        _, pk = keys
        bits = random_bits(100, rng)
        enc = packer.encrypt(packer.pack(bits), pk)
        assert enc.bit_length == 100
        assert enc.chunk_width == 16
        assert enc.deterministic_seed is None

    def test_deterministic_encryption_reproducible(self, packer, keys, rng):
        _, pk = keys
        bits = random_bits(100, rng)
        packed = packer.pack(bits)
        enc1 = packer.encrypt(packed, pk, deterministic_seed=7)
        enc2 = packer.encrypt(packed, pk, deterministic_seed=7)
        for a, b in zip(enc1.ciphertexts, enc2.ciphertexts):
            assert a == b

    def test_different_seeds_differ(self, packer, keys, rng):
        _, pk = keys
        packed = packer.pack(random_bits(100, rng))
        enc1 = packer.encrypt(packed, pk, deterministic_seed=7)
        enc2 = packer.encrypt(packed, pk, deterministic_seed=8)
        assert enc1.ciphertexts[0] != enc2.ciphertexts[0]

    def test_serialized_bytes(self, ctx, packer, keys, rng):
        _, pk = keys
        enc = packer.encrypt(packer.pack(random_bits(10, rng)), pk)
        assert enc.serialized_bytes == ctx.params.ciphertext_bytes


class TestFusedArena:
    def test_racing_first_callers_share_one_arena(
        self, ctx, packer, keys, rng, monkeypatch
    ):
        """Two threads asking for a database's arena at once get the same
        object, so each build tile's key product runs once: the second
        caller waits for the first one's construction instead of building
        and paying for an arena of its own."""
        sk, pk = keys
        enc = packer.encrypt(packer.pack(random_bits(40 * 64 * 16, rng)), pk)
        assert enc.num_polynomials == 40
        real_build = packing_module.CiphertextArena.from_ciphertexts

        def slow_build(*args, **kwargs):
            time.sleep(0.05)  # hold the window between check and store open
            return real_build(*args, **kwargs)

        products = []
        real_product = arena_module.mul_rows_by_poly

        def counting_product(ring, rows, poly):
            products.append(len(rows))
            return real_product(ring, rows, poly)

        monkeypatch.setattr(
            packing_module.CiphertextArena, "from_ciphertexts", slow_build
        )
        monkeypatch.setattr(arena_module, "mul_rows_by_poly", counting_product)
        barrier = threading.Barrier(2, timeout=30)
        arenas = []

        def racer():
            barrier.wait()
            arena = enc.fused_arena(ctx.ring, ctx.params)
            arena.phases(sk)
            arenas.append(arena)

        threads = [threading.Thread(target=racer) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert len(arenas) == 2 and arenas[0] is arenas[1] is enc._arena
        tile = arena_module._BUILD_TILE_ROWS
        assert products == [tile, tile, 40 - 2 * tile]


class TestFootprint:
    def test_expansion_factor_is_4x(self, packer):
        # one full polynomial of data: 64 coeffs * 16 bits = 128 bytes
        report = packer.footprint(packer.ctx.params.n * packer.chunk_width)
        assert report.encrypted_bytes == 4 * report.raw_bytes

    def test_small_database_quantized(self, packer):
        # 1 byte still needs a whole ciphertext
        report = packer.footprint(8)
        assert report.encrypted_bytes == packer.ctx.params.ciphertext_bytes

    def test_scheme_name(self, packer):
        assert packer.footprint(100).scheme == "ciphermatch"


class TestMaskingPolyDerivation:
    def test_deterministic(self, ctx):
        a = derive_masking_poly(ctx, 1, "db", 0)
        b = derive_masking_poly(ctx, 1, "db", 0)
        assert a == b

    def test_distinct_by_index(self, ctx):
        assert derive_masking_poly(ctx, 1, "db", 0) != derive_masking_poly(
            ctx, 1, "db", 1
        )

    def test_distinct_by_label(self, ctx):
        assert derive_masking_poly(ctx, 1, "db", 0) != derive_masking_poly(
            ctx, 1, "qv", 0
        )

    def test_ternary(self, ctx):
        u = derive_masking_poly(ctx, 3, "db", 2)
        assert all(int(c) in (-1, 0, 1) for c in u.centered())
