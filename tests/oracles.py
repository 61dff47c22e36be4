"""Shared test oracles.

:class:`PerPairAdder` is the differential oracle for the fused arena
kernels: the same CPU additions as
:class:`~repro.core.matcher.CPUAdditionBackend`, but it declines the
fused kernels, so every layer runs one genuine ``hom_add`` per
(polynomial, variant) pair — the path stateful backends such as the
in-flash :class:`~repro.ssd.device.IFPAdditionBackend` take.  Engines
receive it through their ordinary backend parameters
(``backend=`` / ``addition_backend=`` / ``backend_factory=``).

:func:`scaled_decrypt_flags` and :func:`prefix_sum_offsets` are the
index-generation tail computed the long way — full BFV plaintext
scaling of every coefficient, and a dense prefix sum over every flag —
which :func:`repro.he.arena.fused_decrypt_flags` (a range test on the
phase) and :meth:`repro.core.matcher.ResultDecoder._offsets_for_variant`
(a run rule on the set indices) must reproduce bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.core.matcher import CPUAdditionBackend
from repro.he.arena import add_mod_q, center_rows, scale_rows_to_plaintext


class PerPairAdder(CPUAdditionBackend):
    supports_fused = False


def per_pair_factory(ctx, shard_id):
    """``backend_factory=`` form for the sharded engine."""
    return PerPairAdder(ctx)


#: adder label -> engine key -> the ``open_session`` kwargs selecting it
ADDER_KWARGS = {
    "fused": {"bfv": {}, "bfv-sharded": {}},
    "object": {
        "bfv": {"addition_backend": PerPairAdder},
        "bfv-sharded": {"backend_factory": per_pair_factory},
    },
}


def scaled_decrypt_flags(db_phases, query_phases, row_map, params, chunk_width):
    """``(V, P, n)`` match flags by plaintext scaling: center each
    summed phase, compute ``round(t * phase / q) mod t`` (object dtype
    once ``t * phase`` overflows int64) and compare with the all-ones
    value."""
    q, t = params.q, params.t
    match = (1 << chunk_width) - 1
    num_variants, num_polys = row_map.shape
    flags = np.empty((num_variants, num_polys, db_phases.shape[1]), dtype=bool)
    for v in range(num_variants):
        rows = row_map[v]
        if num_polys and (rows == rows[0]).all():
            q_phase = query_phases[rows[0]][None, :]
        else:
            q_phase = query_phases[rows]
        phase = add_mod_q(db_phases, q_phase, q)
        coeffs = scale_rows_to_plaintext(center_rows(phase, q), q, t)
        flags[v] = coeffs == match
    return flags


def prefix_sum_offsets(decoder, variant, flags, prepared):
    """Match offsets of one variant from its dense flag vector:
    ``run[g]`` is True when ``flags[g : g + span]`` are all True, found
    as a windowed difference of the prefix sum."""
    w = decoder.chunk_width
    span = variant.span
    o = variant.query_bit_offset
    y = prepared.bit_length
    total = len(flags)
    if span == 1:
        run = flags
    elif span > total:
        return np.empty(0, dtype=np.int64)
    else:
        sums = np.cumsum(flags, dtype=np.int64)
        window = sums[span - 1 :].copy()
        window[1:] -= sums[: total - span]
        run = np.zeros(total, dtype=bool)
        run[: total - span + 1] = window == span
    starts = np.nonzero(run)[0]
    starts = starts[(starts - variant.rotation) % span == 0]
    offsets = starts * w - o
    offsets = offsets[(offsets >= 0) & (offsets + y <= decoder.db_bit_length)]
    return offsets.astype(np.int64)
