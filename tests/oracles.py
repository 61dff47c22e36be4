"""Shared test oracles.

:class:`PerPairAdder` is the differential oracle for the fused arena
kernels: the same CPU additions as
:class:`~repro.core.matcher.CPUAdditionBackend`, but it declines the
fused kernels, so every layer runs one genuine ``hom_add`` per
(polynomial, variant) pair — the path stateful backends such as the
in-flash :class:`~repro.ssd.device.IFPAdditionBackend` take.  Engines
receive it through their ordinary backend parameters
(``backend=`` / ``addition_backend=`` / ``backend_factory=``).
"""

from __future__ import annotations

from repro.core.matcher import CPUAdditionBackend


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
