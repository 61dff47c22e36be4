"""Secure index return (paper §7.2): the full flow where the SSD
encrypts match indices with its hardware AES engine before they cross
the vulnerable channel back to the client.

Run:  python examples/secure_index_return.py
"""

import numpy as np

from repro.core import ClientConfig, IndexMode
from repro.he import BFVParams
from repro.serve import ShardedSearchEngine
from repro.ssd import SecureIndexChannel
from repro.utils.bits import random_bits


def main() -> None:
    rng = np.random.default_rng(17)
    db = random_bits(3000, rng)
    query = random_bits(32, rng)
    for off in (320, 1280, 2240):
        db[off : off + 32] = query

    # Offline step: the SSD establishes an AES-256 channel with the
    # client (key wrapped under public-key encryption in deployment).
    channel = SecureIndexChannel.establish(seed=99)
    print(f"AES-256 channel established (key fingerprint {channel.key[:4].hex()}...)")

    # Secure search with server-side index generation (Figure 6 flow).
    engine = ShardedSearchEngine(
        ClientConfig(
            BFVParams.test_small(64),
            key_seed=100,
            index_mode=IndexMode.SERVER_DETERMINISTIC,
        )
    )
    engine.outsource(db)
    report = engine.search(query)
    print(f"server found {report.num_matches} matches: {report.matches}")

    # SSD side: encrypt the index list before transmission.
    nonce, ciphertext = channel.encrypt_indices(report.matches)
    print(
        f"encrypted index payload: {len(ciphertext)} bytes, nonce {nonce.hex()}, "
        f"hardware AES latency {channel.hardware_latency(report.matches)*1e9:.1f} ns"
    )

    # Client side: decrypt and use.
    recovered = channel.decrypt_indices(nonce, ciphertext)
    assert recovered == report.matches
    print(f"client decrypted match offsets: {recovered}")
    print("indices never crossed the channel in the clear.")


if __name__ == "__main__":
    main()
