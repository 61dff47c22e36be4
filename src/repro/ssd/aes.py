"""AES index encryption (§7.2).

CIPHERMATCH returns the matched index to the client over a channel the
paper treats as vulnerable, so the SSD encrypts it with the hardware
AES engine commodity SSDs already carry.  This module implements
FIPS-197 AES (128/192/256-bit keys) and CTR mode from scratch — the
16-byte-block granularity matches the paper's hardware unit — plus the
:class:`SecureIndexChannel` protocol object that models the offline key
exchange and the per-result index encryption.

The cipher is tested against the FIPS-197 appendix vectors; it is a
functional model of the SSD's AES engine, not a side-channel-hardened
implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

# ---------------------------------------------------------------------------
# AES primitives (FIPS-197)
# ---------------------------------------------------------------------------

_SBOX = [
    0x63, 0x7C, 0x77, 0x7B, 0xF2, 0x6B, 0x6F, 0xC5, 0x30, 0x01, 0x67, 0x2B,
    0xFE, 0xD7, 0xAB, 0x76, 0xCA, 0x82, 0xC9, 0x7D, 0xFA, 0x59, 0x47, 0xF0,
    0xAD, 0xD4, 0xA2, 0xAF, 0x9C, 0xA4, 0x72, 0xC0, 0xB7, 0xFD, 0x93, 0x26,
    0x36, 0x3F, 0xF7, 0xCC, 0x34, 0xA5, 0xE5, 0xF1, 0x71, 0xD8, 0x31, 0x15,
    0x04, 0xC7, 0x23, 0xC3, 0x18, 0x96, 0x05, 0x9A, 0x07, 0x12, 0x80, 0xE2,
    0xEB, 0x27, 0xB2, 0x75, 0x09, 0x83, 0x2C, 0x1A, 0x1B, 0x6E, 0x5A, 0xA0,
    0x52, 0x3B, 0xD6, 0xB3, 0x29, 0xE3, 0x2F, 0x84, 0x53, 0xD1, 0x00, 0xED,
    0x20, 0xFC, 0xB1, 0x5B, 0x6A, 0xCB, 0xBE, 0x39, 0x4A, 0x4C, 0x58, 0xCF,
    0xD0, 0xEF, 0xAA, 0xFB, 0x43, 0x4D, 0x33, 0x85, 0x45, 0xF9, 0x02, 0x7F,
    0x50, 0x3C, 0x9F, 0xA8, 0x51, 0xA3, 0x40, 0x8F, 0x92, 0x9D, 0x38, 0xF5,
    0xBC, 0xB6, 0xDA, 0x21, 0x10, 0xFF, 0xF3, 0xD2, 0xCD, 0x0C, 0x13, 0xEC,
    0x5F, 0x97, 0x44, 0x17, 0xC4, 0xA7, 0x7E, 0x3D, 0x64, 0x5D, 0x19, 0x73,
    0x60, 0x81, 0x4F, 0xDC, 0x22, 0x2A, 0x90, 0x88, 0x46, 0xEE, 0xB8, 0x14,
    0xDE, 0x5E, 0x0B, 0xDB, 0xE0, 0x32, 0x3A, 0x0A, 0x49, 0x06, 0x24, 0x5C,
    0xC2, 0xD3, 0xAC, 0x62, 0x91, 0x95, 0xE4, 0x79, 0xE7, 0xC8, 0x37, 0x6D,
    0x8D, 0xD5, 0x4E, 0xA9, 0x6C, 0x56, 0xF4, 0xEA, 0x65, 0x7A, 0xAE, 0x08,
    0xBA, 0x78, 0x25, 0x2E, 0x1C, 0xA6, 0xB4, 0xC6, 0xE8, 0xDD, 0x74, 0x1F,
    0x4B, 0xBD, 0x8B, 0x8A, 0x70, 0x3E, 0xB5, 0x66, 0x48, 0x03, 0xF6, 0x0E,
    0x61, 0x35, 0x57, 0xB9, 0x86, 0xC1, 0x1D, 0x9E, 0xE1, 0xF8, 0x98, 0x11,
    0x69, 0xD9, 0x8E, 0x94, 0x9B, 0x1E, 0x87, 0xE9, 0xCE, 0x55, 0x28, 0xDF,
    0x8C, 0xA1, 0x89, 0x0D, 0xBF, 0xE6, 0x42, 0x68, 0x41, 0x99, 0x2D, 0x0F,
    0xB0, 0x54, 0xBB, 0x16,
]

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36, 0x6C, 0xD8]


def _xtime(a: int) -> int:
    a <<= 1
    if a & 0x100:
        a ^= 0x11B
    return a & 0xFF


def _gf_mul(a: int, b: int) -> int:
    out = 0
    while b:
        if b & 1:
            out ^= a
        a = _xtime(a)
        b >>= 1
    return out


class AES:
    """The AES block cipher, 16-byte blocks, 128/192/256-bit keys."""

    def __init__(self, key: bytes):
        if len(key) not in (16, 24, 32):
            raise ValueError("AES key must be 16, 24 or 32 bytes")
        self.key = key
        self.nk = len(key) // 4
        self.nr = {4: 10, 6: 12, 8: 14}[self.nk]
        self._round_keys = self._expand_key(key)

    def _expand_key(self, key: bytes) -> List[List[int]]:
        nk, nr = self.nk, self.nr
        words = [list(key[4 * i : 4 * i + 4]) for i in range(nk)]
        for i in range(nk, 4 * (nr + 1)):
            temp = list(words[i - 1])
            if i % nk == 0:
                temp = temp[1:] + temp[:1]  # RotWord
                temp = [_SBOX[b] for b in temp]  # SubWord
                temp[0] ^= _RCON[i // nk - 1]
            elif nk > 6 and i % nk == 4:
                temp = [_SBOX[b] for b in temp]
            words.append([w ^ t for w, t in zip(words[i - nk], temp)])
        return words

    # -- state helpers (column-major 4x4) -----------------------------------

    @staticmethod
    def _to_state(block: bytes) -> List[List[int]]:
        return [[block[r + 4 * c] for c in range(4)] for r in range(4)]

    @staticmethod
    def _from_state(state: List[List[int]]) -> bytes:
        return bytes(state[r][c] for c in range(4) for r in range(4))

    def _add_round_key(self, state, round_index: int) -> None:
        for c in range(4):
            word = self._round_keys[4 * round_index + c]
            for r in range(4):
                state[r][c] ^= word[r]

    # -- encryption -----------------------------------------------------------

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != 16:
            raise ValueError("AES block must be 16 bytes")
        state = self._to_state(block)
        self._add_round_key(state, 0)
        for rnd in range(1, self.nr):
            self._sub_bytes(state)
            self._shift_rows(state)
            self._mix_columns(state)
            self._add_round_key(state, rnd)
        self._sub_bytes(state)
        self._shift_rows(state)
        self._add_round_key(state, self.nr)
        return self._from_state(state)

    # -- round transforms -------------------------------------------------------

    @staticmethod
    def _sub_bytes(state) -> None:
        for r in range(4):
            for c in range(4):
                state[r][c] = _SBOX[state[r][c]]

    @staticmethod
    def _shift_rows(state) -> None:
        for r in range(1, 4):
            state[r] = state[r][r:] + state[r][:r]

    @staticmethod
    def _mix_columns(state) -> None:
        for c in range(4):
            a = [state[r][c] for r in range(4)]
            state[0][c] = _gf_mul(a[0], 2) ^ _gf_mul(a[1], 3) ^ a[2] ^ a[3]
            state[1][c] = a[0] ^ _gf_mul(a[1], 2) ^ _gf_mul(a[2], 3) ^ a[3]
            state[2][c] = a[0] ^ a[1] ^ _gf_mul(a[2], 2) ^ _gf_mul(a[3], 3)
            state[3][c] = _gf_mul(a[0], 3) ^ a[1] ^ a[2] ^ _gf_mul(a[3], 2)


def aes_ctr(key: bytes, nonce: bytes, data: bytes) -> bytes:
    """AES-CTR keystream XOR (encryption == decryption).

    ``nonce`` is 8 bytes; the counter occupies the low 8 bytes of each
    block, starting at 0.
    """
    if len(nonce) != 8:
        raise ValueError("CTR nonce must be 8 bytes")
    cipher = AES(key)
    out = bytearray()
    for block_index in range(0, -(-len(data) // 16)):
        counter_block = nonce + block_index.to_bytes(8, "big")
        keystream = cipher.encrypt_block(counter_block)
        chunk = data[16 * block_index : 16 * (block_index + 1)]
        out.extend(b ^ k for b, k in zip(chunk, keystream))
    return bytes(out)


# ---------------------------------------------------------------------------
# The secure index-return channel (§7.2)
# ---------------------------------------------------------------------------

AES_UNIT_LATENCY_PER_BLOCK = 12.6e-9  # §7.2, 22 nm synthesis


@dataclass
class SecureIndexChannel:
    """Models the SSD-to-client secure index return path.

    Offline step: the SSD controller generates an AES key and ships it
    to the client wrapped under public-key encryption (we model the
    wrap as an opaque byte transfer; the paper amortizes its cost).
    Online step: every batch of match indices is AES-CTR encrypted by
    the SSD's hardware engine and decrypted by the client.
    """

    key: bytes
    _nonce_counter: int = 0
    blocks_encrypted: int = 0

    @classmethod
    def establish(cls, seed: int = 0) -> "SecureIndexChannel":
        """The offline key-exchange step (deterministic for tests)."""
        import numpy as np

        rng = np.random.default_rng(seed)
        key = bytes(int(b) for b in rng.integers(0, 256, 32))
        return cls(key=key)

    def _next_nonce(self) -> bytes:
        nonce = self._nonce_counter.to_bytes(8, "big")
        self._nonce_counter += 1
        return nonce

    @staticmethod
    def _pack_indices(indices: List[int]) -> bytes:
        out = len(indices).to_bytes(4, "big")
        for idx in indices:
            out += idx.to_bytes(8, "big")
        return out

    @staticmethod
    def _unpack_indices(blob: bytes) -> List[int]:
        count = int.from_bytes(blob[:4], "big")
        # the count is decrypted, hence untrusted: a wrong key or a
        # corrupted frame makes it arbitrary, so check before allocating
        if 4 + 8 * count != len(blob):
            raise ValueError(
                f"index batch of {len(blob)} bytes cannot hold the "
                f"{count} indices its header claims (wrong key or "
                f"corrupted ciphertext)"
            )
        return [
            int.from_bytes(blob[4 + 8 * i : 12 + 8 * i], "big")
            for i in range(count)
        ]

    def encrypt_indices(self, indices: List[int]) -> tuple[bytes, bytes]:
        """SSD side: returns (nonce, ciphertext)."""
        nonce = self._next_nonce()
        plaintext = self._pack_indices(indices)
        self.blocks_encrypted += -(-len(plaintext) // 16)
        return nonce, aes_ctr(self.key, nonce, plaintext)

    def decrypt_indices(self, nonce: bytes, ciphertext: bytes) -> List[int]:
        """Client side."""
        return self._unpack_indices(aes_ctr(self.key, nonce, ciphertext))

    def hardware_latency(self, indices: List[int]) -> float:
        """Latency of the SSD's AES unit for one index batch."""
        blocks = -(-(4 + 8 * len(indices)) // 16)
        return blocks * AES_UNIT_LATENCY_PER_BLOCK
