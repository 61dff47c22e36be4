"""Wire-format serialization for ciphertexts.

The client-server protocol ships ciphertexts both ways; this module
provides a compact, self-describing byte format so the repo's protocol
objects can actually cross a process/network boundary.  Coefficients
are packed little-endian at the parameter set's natural width
(``ceil(log2 q / 8)`` bytes), giving exactly the serialized sizes the
footprint accounting (`BFVParams.ciphertext_bytes`) reports.

Format (all integers little-endian):

    magic  b"CMR1"
    kind   1 byte   (1=ciphertext)
    n      4 bytes
    q      8 bytes
    t      8 bytes
    count  1 byte   (number of polynomials)
    payload: count * n * coeff_bytes
"""

from __future__ import annotations

import struct
from typing import List, Tuple

import numpy as np

from .bfv import BFVContext, Ciphertext
from .params import BFVParams
from .poly import RingPoly

_MAGIC = b"CMR1"
_KIND_CIPHERTEXT = 1

_HEADER = struct.Struct("<4sBIQQB")


def _coeff_bytes(modulus: int) -> int:
    return ((modulus - 1).bit_length() + 7) // 8


def _pack_polys(polys: List[np.ndarray], modulus: int) -> bytes:
    width = _coeff_bytes(modulus)
    out = bytearray()
    for coeffs in polys:
        for c in coeffs:
            out += int(c).to_bytes(width, "little")
    return bytes(out)


def _unpack_polys(
    payload: bytes, count: int, n: int, modulus: int
) -> List[np.ndarray]:
    width = _coeff_bytes(modulus)
    expected = count * n * width
    if len(payload) != expected:
        raise ValueError(
            f"payload length {len(payload)} != expected {expected}"
        )
    polys = []
    offset = 0
    for _ in range(count):
        coeffs = np.empty(n, dtype=np.int64)
        for i in range(n):
            coeffs[i] = int.from_bytes(payload[offset : offset + width], "little")
            offset += width
        polys.append(coeffs)
    return polys


def _header(kind: int, params: BFVParams, count: int) -> bytes:
    return _HEADER.pack(_MAGIC, kind, params.n, params.q, params.t, count)


def _parse_header(blob: bytes) -> Tuple[int, int, int, int, int, bytes]:
    if len(blob) < _HEADER.size:
        raise ValueError("truncated blob")
    magic, kind, n, q, t, count = _HEADER.unpack_from(blob)
    if magic != _MAGIC:
        raise ValueError("bad magic; not a CIPHERMATCH serialization")
    return kind, n, q, t, count, blob[_HEADER.size :]


def _check_params(params: BFVParams, n: int, q: int, t: int) -> None:
    if (params.n, params.q, params.t) != (n, q, t):
        raise ValueError(
            f"parameter mismatch: blob has (n={n}, q={q}, t={t}), context has "
            f"(n={params.n}, q={params.q}, t={params.t})"
        )


def serialize_ciphertext(ct: Ciphertext) -> bytes:
    polys = [ct.c0.coeffs, ct.c1.coeffs]
    if ct.c2 is not None:
        polys.append(ct.c2.coeffs)
    return _header(_KIND_CIPHERTEXT, ct.params, len(polys)) + _pack_polys(
        polys, ct.params.q
    )


def deserialize_ciphertext(blob: bytes, ctx: BFVContext) -> Ciphertext:
    kind, n, q, t, count, payload = _parse_header(blob)
    if kind != _KIND_CIPHERTEXT:
        raise ValueError(f"expected ciphertext blob, got kind {kind}")
    _check_params(ctx.params, n, q, t)
    if count not in (2, 3):
        raise ValueError(f"ciphertext must have 2 or 3 polynomials, got {count}")
    polys = _unpack_polys(payload, count, n, q)
    return Ciphertext(
        ctx.params,
        RingPoly(ctx.ring, polys[0]),
        RingPoly(ctx.ring, polys[1]),
        RingPoly(ctx.ring, polys[2]) if count == 3 else None,
    )
