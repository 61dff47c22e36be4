"""Child-process launcher for the TCP workloads.

Builds the default ``AsyncSearchService`` (``bfv-sharded``,
``BFVParams.paper()``, every other knob at its default), prints one
JSON ``ready`` line with the bound port and the construct-to-listening
time, serves until SIGTERM, drains, and exits 0.  With ``--trace`` it
installs the server-side span wrappers first and writes the spans as
JSONL on the way out, so the traced topology is the untraced one plus
tracing and nothing else.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--shards", type=int, required=True)
    parser.add_argument("--key-seed", type=int, required=True)
    parser.add_argument("--trace", metavar="SPANS_JSONL")
    args = parser.parse_args()

    from repro.he import BFVParams
    from repro.net import AsyncSearchService

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer("s")
        tracer.install(tracing.TARGETS)

    async def serve() -> None:
        started = time.perf_counter()
        service = AsyncSearchService(
            "bfv-sharded",
            params=BFVParams.paper(),
            num_shards=args.shards,
            key_seed=args.key_seed,
        )
        _host, port = await service.start()
        listen_s = time.perf_counter() - started
        asyncio.get_running_loop().add_signal_handler(
            signal.SIGTERM, service.begin_drain
        )
        print(json.dumps({"ready": True, "port": port, "listen_s": listen_s}),
              flush=True)
        await service.serve_forever()
        await service.shutdown_connections()

    asyncio.run(serve())
    if tracer is not None:
        tracing.dump_spans(tracer.spans, args.trace)
        print(json.dumps({"targets_missing": tracer.missing}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
