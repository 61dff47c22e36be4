"""Unit tests for the AES index-encryption unit (§7.2), including the
FIPS-197 appendix vectors."""

import pytest

from repro.ssd.aes import (
    AES,
    AES_UNIT_LATENCY_PER_BLOCK,
    SecureIndexChannel,
    aes_ctr,
)


class TestFips197Vectors:
    """Known-answer tests from FIPS-197 Appendix C."""

    PLAIN = bytes.fromhex("00112233445566778899aabbccddeeff")

    def test_aes128(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        expected = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
        assert AES(key).encrypt_block(self.PLAIN) == expected

    def test_aes192(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f1011121314151617")
        expected = bytes.fromhex("dda97ca4864cdfe06eaf70a0ec0d7191")
        assert AES(key).encrypt_block(self.PLAIN) == expected

    def test_aes256(self):
        key = bytes.fromhex(
            "000102030405060708090a0b0c0d0e0f"
            "101112131415161718191a1b1c1d1e1f"
        )
        expected = bytes.fromhex("8ea2b7ca516745bfeafc49904b496089")
        assert AES(key).encrypt_block(self.PLAIN) == expected

    def test_fips197_appendix_b(self):
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        plain = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
        expected = bytes.fromhex("3925841d02dc09fbdc118597196a0b32")
        assert AES(key).encrypt_block(plain) == expected


class TestBlockCipher:
    @pytest.mark.parametrize("key_len", [16, 24, 32])
    def test_decrypt_inverts_encrypt(self, key_len):
        key = bytes(range(key_len))
        nonce = bytes(8)
        data = bytes(range(16, 53))  # two full blocks and a partial one
        sealed = aes_ctr(key, nonce, data)
        assert sealed != data
        assert aes_ctr(key, nonce, sealed) == data

    def test_rejects_bad_key_size(self):
        with pytest.raises(ValueError):
            AES(b"short")

    def test_rejects_bad_block_size(self):
        with pytest.raises(ValueError):
            AES(bytes(16)).encrypt_block(b"tiny")

    def test_different_keys_differ(self):
        block = bytes(16)
        c1 = AES(bytes(16)).encrypt_block(block)
        c2 = AES(bytes([1] * 16)).encrypt_block(block)
        assert c1 != c2

    def test_round_counts(self):
        assert AES(bytes(16)).nr == 10
        assert AES(bytes(24)).nr == 12
        assert AES(bytes(32)).nr == 14


class TestCtrMode:
    def test_roundtrip(self):
        key = bytes(range(32))
        nonce = bytes(8)
        data = b"the matched index lives at offset 4096" * 3
        ct = aes_ctr(key, nonce, data)
        assert ct != data
        assert aes_ctr(key, nonce, ct) == data

    def test_partial_block(self):
        key = bytes(range(16))
        nonce = bytes(8)
        data = b"short"
        assert aes_ctr(key, nonce, aes_ctr(key, nonce, data)) == data
        assert len(aes_ctr(key, nonce, data)) == len(data)

    def test_nonce_matters(self):
        key = bytes(range(16))
        data = bytes(32)
        assert aes_ctr(key, bytes(8), data) != aes_ctr(key, b"\x01" * 8, data)

    def test_bad_nonce_length(self):
        with pytest.raises(ValueError):
            aes_ctr(bytes(16), bytes(4), b"data")


class TestSecureIndexChannel:
    def test_index_roundtrip(self):
        channel = SecureIndexChannel.establish(seed=5)
        indices = [0, 4096, 123456789, 2**40]
        nonce, ct = channel.encrypt_indices(indices)
        assert channel.decrypt_indices(nonce, ct) == indices

    def test_ciphertext_hides_indices(self):
        channel = SecureIndexChannel.establish(seed=6)
        nonce, ct = channel.encrypt_indices([4096])
        assert (4096).to_bytes(8, "big") not in ct

    def test_nonces_unique_per_batch(self):
        channel = SecureIndexChannel.establish(seed=7)
        n1, _ = channel.encrypt_indices([1])
        n2, _ = channel.encrypt_indices([1])
        assert n1 != n2

    def test_wrong_key_garbles(self):
        a = SecureIndexChannel.establish(seed=8)
        b = SecureIndexChannel.establish(seed=9)
        nonce, ct = a.encrypt_indices([42, 43])
        # the wrong key decrypts the count field to ~967 M; the length
        # check must reject it before a list of that size is built
        with pytest.raises(ValueError, match="wrong key or corrupted"):
            b.decrypt_indices(nonce, ct)
        assert a.decrypt_indices(nonce, ct) == [42, 43]

    def test_empty_batch(self):
        channel = SecureIndexChannel.establish(seed=10)
        nonce, ct = channel.encrypt_indices([])
        assert channel.decrypt_indices(nonce, ct) == []

    def test_hardware_latency_model(self):
        channel = SecureIndexChannel.establish(seed=11)
        # 4 + 8*10 = 84 bytes -> 6 blocks
        assert channel.hardware_latency(list(range(10))) == pytest.approx(
            6 * AES_UNIT_LATENCY_PER_BLOCK
        )

    def test_block_accounting(self):
        channel = SecureIndexChannel.establish(seed=12)
        channel.encrypt_indices([1, 2, 3])
        assert channel.blocks_encrypted == 2  # 28 bytes -> 2 blocks
