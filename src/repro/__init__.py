"""CIPHERMATCH reproduction — homomorphic-encryption-based secure exact
string matching with memory-efficient data packing and in-flash
processing (Kabra et al., ASPLOS 2025).

Subpackages
-----------
``repro.he``
    From-scratch BFV homomorphic encryption (Ring-LWE, NTT backend),
    the packing encoder, SIMD batching, noise diagnostics.
``repro.tfhe``
    From-scratch TFHE with real gate bootstrapping (the Boolean
    baseline's native scheme) plus word-level homomorphic circuits.
``repro.core``
    The paper's contribution: the memory-efficient packing scheme,
    query preparation, the Hom-Add search loop and result decoding.
``repro.baselines``
    Plaintext oracle plus the Boolean [17] and arithmetic [27] prior
    approaches.
``repro.flash`` / ``repro.ssd``
    Functional NAND-flash simulator (latch-level ``bop_add``
    µ-program) and the CM-IFP SSD system model.
``repro.ndp`` / ``repro.eval``
    Performance/energy models of the four evaluated systems and the
    per-figure reproduction harness.
``repro.serve``
    The one BFV search path: the sharded query engine (one shard is
    one server) with per-shard addition backends, a bounded LRU
    variant-ciphertext cache, and queueing-model throughput/latency
    reporting.
``repro.workloads``
    DNA string matching and encrypted database search case studies.
``repro.load``
    Trace-driven open-loop load harness: scenario request streams over
    the workloads, Poisson/bursty/constant arrivals, record/replay
    traces and per-scenario SLO reporting.

``repro.api``
    The unified facade over all of the above: typed search requests,
    an engine registry (sharded serving, wire protocol, every baseline) and
    a session layer with sync + future-based async execution.
``repro.net``
    The networked serving layer: an asyncio TCP service over the
    facade (length-prefixed binary frames, backpressure with
    oldest-deadline shedding, graceful drain) and the sync/async
    client SDK, registered as the ``"remote"`` engine.

Quickstart
----------
>>> import numpy as np, repro
>>> db = np.zeros(640, dtype=np.uint8); db[160:192] = 1
>>> with repro.open_session("bfv-sharded", db_bits=db) as session:
...     session.search(np.ones(32, dtype=np.uint8)).matches
(160,)
"""

__version__ = "15.0.0"

from . import baselines, core, eval, flash, he, ndp, ssd, tfhe, workloads  # noqa: F401
from . import api  # noqa: F401  (depends on the subpackages above)
from . import net  # noqa: F401  (registers the "remote" engine)
from . import load  # noqa: F401  (scenarios over api + workloads + net)
from .api import open_session  # noqa: F401
from .verify import VerifyPolicy  # noqa: F401

__all__ = [
    "api",
    "net",
    "load",
    "baselines",
    "core",
    "eval",
    "flash",
    "he",
    "ndp",
    "ssd",
    "tfhe",
    "workloads",
    "open_session",
    "VerifyPolicy",
    "__version__",
]
