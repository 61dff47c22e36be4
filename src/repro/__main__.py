"""Command-line entry point (argparse subcommands).

    python -m repro demo               # quick end-to-end secure-search demo
    python -m repro search --engine bfv-sharded --db-text "..." --query fox
    python -m repro figures [NAME]     # print paper figures/tables
    python -m repro selftest           # fast functional self-check
    python -m repro readmap            # secure DNA read-mapping demo
    python -m repro tfhe               # bootstrapped-gate demo (real TFHE)
    python -m repro queueing           # SSD queueing-model cross-check
    python -m repro serve              # sharded concurrent serving demo
    python -m repro serve-net          # TCP search service (SIGTERM drains)
    python -m repro search --remote host:port --query fox
    python -m repro load --scenario database --arrival poisson --rate 20
    python -m repro load --trace trace.jsonl --remote host:port

Every subcommand has ``--help``; ``search`` talks to the unified
:mod:`repro.api` facade, so ``--engine``/``--shards``/``--key-seed``
map directly onto registry keys and engine kwargs, and
``--remote host:port`` routes the same request through the
:mod:`repro.net` client SDK to a running ``serve-net`` service.
"""

from __future__ import annotations

import argparse
from typing import Optional, Sequence

import numpy as np


def _demo(args: argparse.Namespace) -> int:
    import repro
    from repro.utils.bits import random_bits

    rng = np.random.default_rng(0)
    db = random_bits(4000, rng)
    query = random_bits(32, rng)
    db[1600:1632] = query
    with repro.open_session("bfv", db_bits=db) as session:
        result = session.search(query)
    print(
        f"secure search over {len(db)} encrypted bits: "
        f"{result.num_matches} match at {list(result.matches)} "
        f"({result.hom_ops.additions} Hom-Adds, "
        f"{result.hom_ops.multiplications} Hom-Mults)"
    )
    return 0


def _search(args: argparse.Namespace) -> int:
    import repro
    from repro.api import (
        DEFAULT_REGISTRY,
        CapabilityError,
        ExactSearch,
        UnknownEngineError,
    )
    from repro.utils.bits import text_to_bits

    if args.list_engines:
        print(DEFAULT_REGISTRY.capability_matrix())
        return 0
    if args.query is None:
        print("error: --query is required (or use --list-engines)")
        return 2

    engine_kwargs = {}
    if args.remote is not None:
        if args.engine is not None and args.engine != "remote":
            print(
                f"error: --engine {args.engine!r} selects a local engine "
                f"and cannot be combined with --remote (the server owns "
                f"the engine)"
            )
            return 2
        args.engine = "remote"
        engine_kwargs["address"] = args.remote
        if args.tenant:
            engine_kwargs["tenant"] = args.tenant
    elif args.tenant:
        print("error: --tenant requires --remote (a multi-tenant serve-net "
              "service routes by tenant id)")
        return 2
    elif args.engine is None:
        args.engine = "bfv"
    try:
        spec = DEFAULT_REGISTRY.spec(args.engine)
    except UnknownEngineError as exc:
        print(f"error: {exc}")
        return 2
    if args.remote is not None:
        # the server side owns shard/key configuration
        for name in ("shards", "key_seed"):
            if getattr(args, name, None) is not None:
                print(
                    f"error: --{name.replace('_', '-')} configures a local "
                    f"engine and cannot be combined with --remote"
                )
                return 2
    else:
        if args.shards is not None:
            if not spec.capabilities.sharded:
                print(f"error: engine {args.engine!r} is not sharded")
                return 2
            engine_kwargs["num_shards"] = args.shards
        if args.key_seed is not None and args.engine != "plaintext":
            # every HE engine takes a seed under one of these names
            engine_kwargs[
                "key_seed" if args.engine.startswith("bfv") else "seed"
            ] = args.key_seed

    db_bits = text_to_bits(args.db_text)
    request = ExactSearch.from_text(
        args.query,
        verify=repro.VerifyPolicy.SKIP if args.no_verify else repro.VerifyPolicy.AUTO,
    )
    try:
        with repro.open_session(
            args.engine, db_bits=db_bits, **engine_kwargs
        ) as session:
            result = session.search(request)
    except (CapabilityError, TypeError, ValueError, OSError) as exc:
        print(f"error: {exc}")
        return 2
    chars = [off // 8 for off in result.matches if off % 8 == 0]
    print(
        f"engine {result.engine!r} (scheme {result.scheme}): "
        f"{result.num_matches} match(es) at bit offsets "
        f"{list(result.matches)} (char offsets {chars})"
    )
    print(
        f"hom ops: {result.hom_ops.additions} add, "
        f"{result.hom_ops.multiplications} mult, "
        f"{result.hom_ops.bootstraps} bootstrap; "
        f"{result.elapsed_seconds * 1e3:.1f} ms"
        + (f"; {len(result.shards)} shards" if result.shards else "")
    )
    return 0


def _selftest(args: argparse.Namespace) -> int:
    import repro
    from repro.api import PipelineEngine
    from repro.baselines import find_all_matches
    from repro.ssd import IFPAdditionBackend
    from repro.utils.bits import random_bits

    rng = np.random.default_rng(1)
    db = random_bits(2000, rng)
    q = random_bits(32, rng)
    db[480:512] = q
    engine = PipelineEngine(addition_backend=lambda ctx: IFPAdditionBackend(ctx))
    with repro.open_session(engine, db_bits=db) as session:
        got = list(session.search(q).matches)
    expected = find_all_matches(db, q)
    ok = got == expected
    print(f"in-flash secure search selftest: {'OK' if ok else 'FAIL'} "
          f"(found {got}, expected {expected})")
    return 0 if ok else 1


def _readmap(args: argparse.Namespace) -> int:
    from repro.core import ClientConfig
    from repro.he import BFVParams
    from repro.workloads import DnaWorkloadGenerator, SecureReadMapper

    workload = DnaWorkloadGenerator(seed=3).generate(
        num_bases=320, read_length_bases=16, num_reads=3
    )
    mapper = SecureReadMapper(
        workload.genome, ClientConfig(BFVParams.test_small(64)), seed_bases=8
    )
    ok = 0
    for read in workload.reads:
        result = mapper.map_read(read.sequence)
        verified = mapper.verify(result)
        ok += verified == read.position_bases
        print(
            f"read planted@{read.position_bases}: mapped to {verified} "
            f"({result.best.votes if result.best else 0}/"
            f"{result.seeds_searched} votes)"
        )
    print(f"{ok}/{len(workload.reads)} reads mapped correctly")
    return 0 if ok == len(workload.reads) else 1


def _tfhe(args: argparse.Namespace) -> int:
    from repro.tfhe import TFHEContext, TFHEParams
    from repro.tfhe.circuits import TfheArithmetic

    ctx = TFHEContext(TFHEParams.test_small(), seed=1)
    arith = TfheArithmetic(ctx)
    a, b = 11, 7
    total = arith.decrypt_word(
        arith.add(arith.encrypt_word(a, 5), arith.encrypt_word(b, 5))
    )
    print(
        f"bootstrapped 5-bit adder: {a} + {b} = {total} "
        f"({ctx.bootstrap_count} bootstraps)"
    )
    return 0 if total == a + b else 1


def _queueing(args: argparse.Namespace) -> int:
    from repro.flash.cell_array import FlashGeometry
    from repro.flash.timing import FlashTimings
    from repro.ssd.queueing import simulate_cm_search

    geometry, timings = FlashGeometry(), FlashTimings()
    pairs = geometry.channels * geometry.dies_per_channel
    for slots in (1, pairs, 4 * pairs):
        result = simulate_cm_search(slots, geometry, timings)
        print(
            f"{slots:>3} CM-search slots: makespan {result.makespan * 1e3:.3f} ms, "
            f"mean latency {result.mean_latency * 1e3:.3f} ms"
        )
    return 0


def _serve(args: argparse.Namespace) -> int:
    import repro
    from repro.core import ClientConfig, SecureStringMatchPipeline
    from repro.he import BFVParams
    from repro.utils.bits import random_bits

    rng = np.random.default_rng(7)
    params = BFVParams.test_small(64)
    bits_per_poly = 64 * 16
    db = random_bits(8 * bits_per_poly, rng)
    queries = []
    for k in range(5):
        q = random_bits(32, rng)
        off = 16 * (3 + 29 * k)
        db[off : off + 32] = q
        queries.append(q)
    # one occurrence straddling the middle of the database — a shard
    # boundary for every even shard count dividing the 8 polynomials
    straddle = random_bits(32, rng)
    boundary = 4 * bits_per_poly
    db[boundary - 16 : boundary + 16] = straddle
    queries.append(straddle)
    queries += queries[:2]  # repeats exercise deduplication

    with repro.open_session(
        "bfv-sharded",
        params=params,
        num_shards=args.shards,
        key_seed=11,
        cache_capacity=128,
        db_bits=db,
    ) as session:
        session.search_batch(queries)
        report = session.engine.last_serve_report

    pipe = SecureStringMatchPipeline(ClientConfig(params, key_seed=11))
    pipe.outsource_database(db)
    sequential = [pipe.search(q).matches for q in queries]
    identical = report.matches_per_query() == sequential

    print(report.summary_table())
    print()
    print(report.shard_table())
    print()
    print(
        f"sharded results identical to sequential pipeline: "
        f"{'OK' if identical else 'FAIL'}"
    )
    return 0 if identical else 1


def _serve_net(args: argparse.Namespace) -> int:
    """Run the asyncio TCP search service until SIGTERM/SIGINT drains it."""
    import asyncio
    import signal
    import sys

    from repro.net import AsyncSearchService
    from repro.utils.bits import text_to_bits

    engine_kwargs = {"num_shards": args.shards}
    if args.key_seed is not None:
        engine_kwargs["key_seed"] = args.key_seed
    if args.degraded_mode is not None:
        engine_kwargs["degraded_mode"] = args.degraded_mode

    # what the service serves: the CLI's engine as the default tenant,
    # or one engine stack per --tenants spec
    source = {"engine": args.engine, **engine_kwargs}
    try:
        if args.tenants:
            from dataclasses import replace

            from repro.tenancy import TenantRegistry, TenantSpec

            # all tenants share the CLI's engine configuration; each
            # spec carries its own key seed + weight
            tenant_kwargs = dict(engine_kwargs)
            tenant_kwargs.pop("key_seed", None)  # per-spec, never shared
            specs = [
                TenantSpec.parse(text)
                for text in args.tenants.split(",")
                if text.strip()
            ]
            if not specs:
                raise ValueError("--tenants needs at least one spec")
            if args.p99_budget is not None:
                specs = [
                    replace(
                        s, quota=replace(s.quota, p99_budget=args.p99_budget)
                    )
                    for s in specs
                ]
            source = {
                "tenants": TenantRegistry(
                    specs,
                    global_cache_bytes=args.tenant_cache_budget,
                    default_engine=args.engine,
                    **tenant_kwargs,
                )
            }
        service = AsyncSearchService(
            host=args.host,
            port=args.port,
            max_in_flight=args.max_in_flight,
            admission=args.p99_budget,
            fault_plan=args.fault_plan or None,
            **source,
        )
    except (TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    registry = service.registry

    async def main() -> int:
        if args.db_text:
            bits = text_to_bits(args.db_text)
            for tenant_id in registry.ids():
                registry.outsource(tenant_id, bits)
        host, port = await service.start()
        db_bits = registry.tenants()[0].session.db_bit_length or 0
        print(
            f"serving engine {args.engine!r} "
            f"({args.shards} shards) on {host}:{port} "
            f"(tenants: {', '.join(map(repr, registry.ids()))}; "
            f"db: {db_bits} bits outsourced per tenant; "
            f"SIGTERM drains gracefully)",
            flush=True,
        )
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, service.begin_drain)
        await service.serve_forever()
        await service.shutdown_connections()
        print("drained; all in-flight requests completed", flush=True)
        return 0

    try:
        return asyncio.run(main())
    except KeyboardInterrupt:  # signal handler not yet installed
        return 0
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        registry.close_all()  # idempotent; covers bind failures


def _load(args: argparse.Namespace) -> int:
    """Open-loop load harness: scenarios x arrivals -> SLO report."""
    import repro
    from repro.api import CapabilityError, DEFAULT_REGISTRY, UnknownEngineError
    from repro.load import (
        SCENARIO_REGISTRY,
        LoadReport,
        LoadTrace,
        RemoteTarget,
        ScenarioSlo,
        SessionTarget,
        UnknownScenarioError,
        generate_trace,
        resolve_arrival,
        run_trace,
    )
    from repro.net import Client

    if args.list_scenarios:
        print(SCENARIO_REGISTRY.scenario_matrix())
        return 0

    # -- resolve the trace(s) to replay ----------------------------------
    if args.trace is not None:
        try:
            trace = LoadTrace.load(args.trace)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}")
            return 2
        if args.scenario not in (None, "all", trace.scenario):
            print(
                f"error: --scenario {args.scenario!r} conflicts with the "
                f"trace's scenario {trace.scenario!r}"
            )
            return 2
        seed = trace.seed
        scenario_keys = [trace.scenario]
        arrival_name = trace.arrival
        rate = trace.rate
        traces = {trace.scenario: trace}
    else:
        seed = args.seed
        scenario_keys = (
            list(SCENARIO_REGISTRY.keys())
            if args.scenario in (None, "all")
            else [args.scenario]
        )
        arrival_name = args.arrival
        rate = args.rate
        traces = {}

    if args.record is not None and len(scenario_keys) != 1:
        print("error: --record needs a single --scenario (not 'all')")
        return 2
    if args.tenant and args.remote is None:
        print("error: --tenant requires --remote (a multi-tenant "
              "serve-net service routes by tenant id)")
        return 2

    # -- build scenarios + traces ----------------------------------------
    scenarios = {}
    for key in scenario_keys:
        try:
            scenarios[key] = SCENARIO_REGISTRY.create(key, seed=seed)
        except UnknownScenarioError as exc:
            print(f"error: {exc}")
            return 2
        if key not in traces:
            try:
                arrival = resolve_arrival(arrival_name)
            except ValueError as exc:
                print(f"error: {exc}")
                return 2
            if args.duration is None and args.requests is None:
                print("error: need --duration and/or --requests "
                      "(or --trace to replay a recorded trace)")
                return 2
            traces[key] = generate_trace(
                scenarios[key],
                arrival,
                rate,
                duration=args.duration,
                max_requests=args.requests,
                deadline=args.deadline,
            )
    if args.record is not None:
        traces[scenario_keys[0]].save(args.record)
        print(f"recorded {traces[scenario_keys[0]].num_requests} requests "
              f"to {args.record}")

    # -- fault schedule + retry policy -----------------------------------
    from repro.faults import FaultInjector, FaultPlan, RetryPolicy

    fault_plan = None
    if args.fault_plan:
        try:
            fault_plan = FaultPlan.load(args.fault_plan)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}")
            return 2
    retry_policy = (
        RetryPolicy(max_attempts=args.retry, seed=seed)
        if args.retry and args.retry > 1
        else None
    )

    # -- drive each scenario against its own target ----------------------
    def make_target(scenario):
        if args.remote is not None:
            client = Client(
                args.remote, pool_size=args.pool_size, tenant=args.tenant
            )
            return RemoteTarget(
                client, owns_client=True, retry=retry_policy
            )
        engine_kwargs = {}
        spec = DEFAULT_REGISTRY.spec(args.engine)
        if spec.capabilities.sharded:
            engine_kwargs["num_shards"] = args.shards
        if args.key_seed is not None and args.engine != "plaintext":
            engine_kwargs[
                "key_seed" if args.engine.startswith("bfv") else "seed"
            ] = args.key_seed
        session = repro.open_session(args.engine, **engine_kwargs)
        return SessionTarget(session, owns_session=True)

    slos, stats = [], {}
    for key in scenario_keys:
        scenario, trace = scenarios[key], traces[key]
        try:
            target = make_target(scenario)
        except (UnknownEngineError, TypeError, ValueError, OSError) as exc:
            print(f"error: {exc}")
            return 2
        try:
            try:
                scenario.check(target.capabilities, target.describe())
            except CapabilityError as exc:
                print(f"error: {exc}")
                return 2
            target.outsource(scenario.db_bits())
            injector = None
            if fault_plan is not None:
                # Fresh injector per scenario: ordinals restart with
                # each trace, keeping the schedule deterministic.
                injector = FaultInjector(fault_plan)
                if args.remote is None:
                    from repro.faults import install_engine_injector

                    install_engine_injector(
                        target.session.engine, injector
                    )
            run = run_trace(trace, target, injector=injector)
            slo = ScenarioSlo.from_run(trace, run)
            slos.append(slo)
            stats = target.stats()
        finally:
            target.close()

    report = LoadReport(
        target=(
            f"remote:{args.remote}" if args.remote is not None
            else f"in-process:{args.engine}"
        ),
        arrival=arrival_name,
        rate=rate,
        seed=seed,
        scenarios=slos,
        tenants=dict(stats.get("tenants", {}) or {}),
    )
    print(report.table())
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
        print(f"wrote SLO report to {args.json}")
    if not report.balanced:
        print("FAIL: shed accounting does not balance "
              "(offered != completed + shed + admit_rejected + failed)")
        return 1
    if report.failed:
        print(f"FAIL: {report.failed} request(s) failed")
        return 1
    if report.mismatches:
        print(f"FAIL: {report.mismatches} completed request(s) diverged "
              f"from plaintext ground truth")
        return 1
    return 0


def _figures(args: argparse.Namespace) -> int:
    from repro.eval.runner import main as figures_main

    return figures_main(args.names)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="CIPHERMATCH reproduction — secure exact string "
        "matching over homomorphic encryption.",
    )
    sub = parser.add_subparsers(dest="command")

    p_demo = sub.add_parser("demo", help="quick end-to-end secure-search demo")
    p_demo.set_defaults(func=_demo)

    p_search = sub.add_parser(
        "search",
        help="search an ASCII database with any registered engine",
        description="Run one secure search through the unified repro.api "
        "facade. --engine selects a registry key; use --list-engines for "
        "the capability matrix.",
    )
    p_search.add_argument(
        "--engine",
        help="engine registry key (default: bfv; see --list-engines); "
        "mutually exclusive with --remote",
    )
    p_search.add_argument(
        "--db-text",
        default=(
            "the quick brown fox jumps over the lazy dog -- "
            "pack sixteen bits per coefficient and add away! "
        ),
        help="ASCII database contents",
    )
    p_search.add_argument("--query", help="ASCII needle to search for")
    p_search.add_argument(
        "--shards", type=int, help="shard count (sharded engines only)"
    )
    p_search.add_argument(
        "--key-seed", type=int, help="deterministic key generation seed"
    )
    p_search.add_argument(
        "--no-verify", action="store_true",
        help="skip the client-side verification step",
    )
    p_search.add_argument(
        "--list-engines", action="store_true",
        help="print the engine capability matrix and exit",
    )
    p_search.add_argument(
        "--remote", metavar="HOST:PORT",
        help="run the search against a `python -m repro serve-net` "
        "service instead of a local engine (outsources --db-text over "
        "the wire first)",
    )
    p_search.add_argument(
        "--tenant", default="",
        help="tenant id to bind the connection to (multi-tenant "
        "serve-net services only; requires --remote)",
    )
    p_search.set_defaults(func=_search)

    p_figures = sub.add_parser(
        "figures", help="print reproduced paper figures/tables"
    )
    p_figures.add_argument(
        "names", nargs="*", help="figure names (default: all)"
    )
    p_figures.set_defaults(func=_figures)

    p_selftest = sub.add_parser(
        "selftest", help="fast functional self-check (simulated in-flash)"
    )
    p_selftest.set_defaults(func=_selftest)

    p_readmap = sub.add_parser(
        "readmap", help="secure DNA read-mapping demo"
    )
    p_readmap.set_defaults(func=_readmap)

    p_tfhe = sub.add_parser(
        "tfhe", help="bootstrapped-gate demo (real TFHE)"
    )
    p_tfhe.set_defaults(func=_tfhe)

    p_queueing = sub.add_parser(
        "queueing", help="SSD queueing-model cross-check"
    )
    p_queueing.set_defaults(func=_queueing)

    p_serve = sub.add_parser(
        "serve", help="sharded concurrent query-serving demo"
    )
    p_serve.add_argument(
        "--shards", type=int, default=4, help="shard count (default: 4)"
    )
    p_serve.set_defaults(func=_serve)

    p_serve_net = sub.add_parser(
        "serve-net",
        help="TCP search service over the facade (repro.net)",
        description="Boot an asyncio TCP service exposing a registered "
        "engine over CMN1 frames. Query it with `python -m repro search "
        "--remote host:port` or the repro.net client SDK. SIGTERM "
        "drains in-flight work and exits 0.",
    )
    p_serve_net.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: loopback)"
    )
    p_serve_net.add_argument(
        "--port", type=int, default=9137,
        help="bind port (default: 9137; 0 picks an ephemeral port)",
    )
    p_serve_net.add_argument(
        "--engine", default="bfv-sharded",
        help="backing engine registry key (default: bfv-sharded)",
    )
    p_serve_net.add_argument(
        "--shards", type=int, default=4, help="shard count (default: 4)"
    )
    p_serve_net.add_argument(
        "--key-seed", type=int, help="deterministic key generation seed"
    )
    p_serve_net.add_argument(
        "--db-text", default="",
        help="ASCII database to outsource at boot (clients can also "
        "outsource over the wire)",
    )
    p_serve_net.add_argument(
        "--fault-plan", default="",
        help="deterministic fault schedule: a spec string like "
        "'worker_crash@5:shard=1;shed_storm@40:count=6' or '@plan.json' "
        "(see docs/resilience.md; default: no injection)",
    )
    p_serve_net.add_argument(
        "--p99-budget", type=float, default=None,
        help="enable adaptive AIMD admission control with this p99 "
        "wall-latency budget in seconds (default: disabled)",
    )
    p_serve_net.add_argument(
        "--degraded-mode", choices=["fail", "partial"], default=None,
        help="sharded-engine behavior when a shard is down: 'fail' the "
        "batch or serve 'partial' results with a degraded_shards marker "
        "(default: fail)",
    )
    p_serve_net.add_argument(
        "--max-in-flight", type=int, default=64,
        help="per-connection in-flight bound before oldest-deadline "
        "shedding (default: 64)",
    )
    p_serve_net.add_argument(
        "--tenants", default="",
        help="serve multiple tenants from one service: comma-separated "
        "'id:key_seed[:weight]' specs (e.g. 'alice:11,bob:22:2.0'). "
        "Each tenant gets its own keypair, database and cache; "
        "requests dispatch through a weighted fair queue, and "
        "--p99-budget becomes a per-tenant admission budget",
    )
    p_serve_net.add_argument(
        "--tenant-cache-budget", type=int, default=None,
        help="fleet-wide variant-cache byte budget shared across "
        "tenants (cross-tenant LRU pressure; default: no shared bound)",
    )
    p_serve_net.set_defaults(func=_serve_net)

    p_load = sub.add_parser(
        "load",
        help="trace-driven open-loop load harness (repro.load)",
        description="Drive typed scenario request streams (DNA, "
        "biometric, database, read-mapper) through an in-process "
        "session or a running serve-net service under Poisson, bursty "
        "or constant-rate arrivals, and print per-scenario SLO "
        "percentiles with exact shed accounting. Traces can be "
        "recorded with --record and replayed bit-for-bit with --trace.",
    )
    p_load.add_argument(
        "--scenario", default=None,
        help="scenario registry key, or 'all' (default: all; see "
        "--list-scenarios)",
    )
    p_load.add_argument(
        "--arrival", default="poisson",
        choices=["constant", "poisson", "bursty"],
        help="arrival process (default: poisson)",
    )
    p_load.add_argument(
        "--rate", type=float, default=20.0,
        help="offered rate in requests/second (default: 20)",
    )
    p_load.add_argument(
        "--duration", type=float,
        help="trace duration in seconds (and/or --requests)",
    )
    p_load.add_argument(
        "--requests", type=int,
        help="cap on the number of requests in the trace",
    )
    p_load.add_argument(
        "--seed", type=int, default=0,
        help="scenario + arrival seed (default: 0)",
    )
    p_load.add_argument(
        "--deadline", type=float,
        help="per-request deadline in seconds (remote targets enforce "
        "it via oldest-deadline shedding)",
    )
    p_load.add_argument(
        "--trace", metavar="PATH",
        help="replay a recorded JSONL trace instead of generating one "
        "(scenario/arrival/rate/seed come from the trace header)",
    )
    p_load.add_argument(
        "--record", metavar="PATH",
        help="save the generated trace to a JSONL file before running",
    )
    p_load.add_argument(
        "--remote", metavar="HOST:PORT",
        help="drive a running `python -m repro serve-net` service over "
        "the client SDK instead of an in-process session",
    )
    p_load.add_argument(
        "--pool-size", type=int, default=2,
        help="client connection-pool size for --remote (default: 2)",
    )
    p_load.add_argument(
        "--tenant", default="",
        help="tenant id to bind --remote connections to (multi-tenant "
        "serve-net services only)",
    )
    p_load.add_argument(
        "--fault-plan", default="",
        help="client-side fault schedule replayed alongside the trace: "
        "a spec string like 'conn_drop@20:side=client' or '@plan.json' "
        "(in-process targets also honor shard-site events; default: "
        "no injection)",
    )
    p_load.add_argument(
        "--retry", type=int, default=0,
        help="bounded retry attempts with decorrelated-jitter backoff "
        "for shed/admission-rejected/lost requests (default: 0 = off)",
    )
    p_load.add_argument(
        "--engine", default="bfv-sharded",
        help="in-process engine registry key (default: bfv-sharded)",
    )
    p_load.add_argument(
        "--shards", type=int, default=4,
        help="shard count for sharded engines (default: 4)",
    )
    p_load.add_argument(
        "--key-seed", type=int, help="deterministic key generation seed"
    )
    p_load.add_argument(
        "--json", metavar="PATH",
        help="also write the SLO report as machine-readable JSON",
    )
    p_load.add_argument(
        "--list-scenarios", action="store_true",
        help="print the scenario matrix and exit",
    )
    p_load.set_defaults(func=_load)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits on --help / unknown commands; callers (and the
        # CLI tests) expect an exit code back instead.
        return int(exc.code or 0)
    if args.command is None:
        args = parser.parse_args(["demo"])
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
