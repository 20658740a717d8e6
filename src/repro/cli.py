"""Command-line interface.

Subcommands
-----------
``generate``
    Produce one photomosaic from two images (paths or standard-image
    names) and write the output plus, optionally, the adjusted input.
``bench``
    Regenerate one or all of the paper's tables at the chosen profile.
``demo``
    Write a gallery of example outputs (the Figs. 2/7/8 analogues).
``batch``
    Run a JSON manifest of jobs through the service worker pool with the
    shared artifact cache, then write results and a metrics report
    (see docs/service.md).
``serve``
    Streaming mode: read JSON job lines from stdin (or a manifest),
    stream NDJSON progress events — state transitions, retries,
    per-phase timings, 2-opt sweeps — to stdout as they happen, with
    bounded admission and mid-job cancellation
    (see docs/service.md, "Streaming gateway").
``serve-http``
    Network mode: the same streaming gateway behind a dependency-free
    HTTP/1.1 + WebSocket server — submit jobs with ``POST /v1/jobs``,
    follow them via NDJSON or WebSocket event streams with
    ``?from_seq`` resume, scrape ``/metrics`` in Prometheus text format
    (see docs/service.md, "HTTP API").
``serve-node`` / ``serve-cluster``
    The cluster roles: a worker node (the ``serve-http`` stack joined to
    a coordinator) and the coordinator that shards jobs across nodes
    (see docs/service.md, "Multi-node deployment").

``batch`` and the three stack-running serve commands build one job
stack (``_build_stack``); all four serve commands share one run-until-drained
path (``_serve_until_drained``) and one drain coroutine per front, and
``serve`` and ``serve-http`` share one job table (``HttpFront``).

Examples::

    photomosaic generate --input portrait --target sailboat \
        --size 512 --tile-size 16 --algorithm parallel --output mosaic.png
    photomosaic bench --table 2
    photomosaic demo --outdir gallery/
    photomosaic batch --manifest jobs.json --outdir results/ --workers 4
    printf '%s\\n' '{"input": "portrait", "target": "sailboat"}' \
        | photomosaic serve --workers 2 --max-pending 8
    photomosaic serve-http --port 8765 --workers 2 --max-pending 8
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.assignment.base import available_solvers
from repro.benchharness import report
from repro.imaging import (
    STANDARD_IMAGES,
    ensure_gray,
    load_image,
    save_image,
    standard_image,
)
from repro.mosaic import MosaicConfig, PhotomosaicGenerator

__all__ = ["main", "build_parser"]


def _resolve_image(spec: str, size: int):
    """Interpret ``spec`` as a standard-image name or a file path."""
    if spec in STANDARD_IMAGES:
        return standard_image(spec, size)
    if not os.path.exists(spec):
        raise SystemExit(
            f"error: {spec!r} is neither a file nor a standard image "
            f"({', '.join(STANDARD_IMAGES)})"
        )
    return ensure_gray(load_image(spec))


def _cmd_generate(args: argparse.Namespace) -> int:
    input_image = _resolve_image(args.input, args.size)
    target_image = _resolve_image(args.target, args.size)
    if input_image.shape != target_image.shape:
        raise SystemExit(
            f"error: input {input_image.shape} and target {target_image.shape} "
            "must have identical shapes (resize beforehand)"
        )
    config = MosaicConfig(
        tile_size=args.tile_size,
        algorithm=args.algorithm,
        metric=args.metric,
        solver=args.solver,
        histogram_match=not args.no_histogram_match,
        array_backend=args.backend,
        shortlist_top_k=args.shortlist_top_k,
        sketch=args.sketch,
        shortlist_seed=args.shortlist_seed,
    )
    result = PhotomosaicGenerator(config).generate(input_image, target_image)
    save_image(args.output, result.image)
    print(f"wrote {args.output}")
    print(f"algorithm       : {args.algorithm}")
    if "array_backend" in result.meta:
        print(f"array backend   : {result.meta['array_backend']}")
    print(f"tiles           : {result.permutation.shape[0]}")
    print(f"total error     : {result.total_error}")
    if result.sweeps is not None:
        print(f"sweeps (k)      : {result.sweeps}")
    if "pairs_skipped" in result.meta:
        evaluated = result.meta["pairs_evaluated"]
        skipped = result.meta["pairs_skipped"]
        print(f"pairs evaluated : {evaluated} ({skipped} pruned)")
    if "shortlist" in result.meta:
        shortlist = result.meta["shortlist"]
        frac = shortlist["pairs_evaluated"] / max(shortlist["pairs_total"], 1)
        print(
            f"shortlist       : top_k={shortlist['top_k']} "
            f"({frac:.1%} of pairs scored, "
            f"{shortlist['fallback']} fallback)"
        )
    for phase, seconds in result.timings.phases.items():
        print(f"{phase:<16}: {seconds:.4f}s")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    profile = args.profile
    tables = {
        "1": report.table1,
        "2": report.table2,
        "3": report.table3,
        "4": report.table4,
        "all": report.all_tables,
    }
    print(tables[args.table](profile))
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    # Deferred import keeps CLI startup fast for the other subcommands.
    from repro.benchharness.workloads import PAPER_PAIRS

    os.makedirs(args.outdir, exist_ok=True)
    config = MosaicConfig(tile_size=args.size // 32, algorithm="parallel")
    generator = PhotomosaicGenerator(config)
    for input_name, target_name in PAPER_PAIRS:
        inp = standard_image(input_name, args.size)
        tgt = standard_image(target_name, args.size)
        result = generator.generate(inp, tgt)
        base = os.path.join(args.outdir, f"{input_name}_to_{target_name}")
        save_image(base + "_input.png", inp)
        save_image(base + "_target.png", tgt)
        save_image(base + "_mosaic.png", result.image)
        print(f"{input_name} -> {target_name}: error {result.total_error}, "
              f"k={result.sweeps}  ({base}_mosaic.png)")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.benchharness.export import generate_report

    report = generate_report(args.profile)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(report)
    print(f"wrote {args.out}")
    return 0


def _cmd_video(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.mosaic.video import VideoMosaicSession

    input_image = _resolve_image(args.input, args.size)
    base_target = _resolve_image(args.target, args.size)
    session = VideoMosaicSession(input_image, args.tile_size)
    if args.outdir:
        os.makedirs(args.outdir, exist_ok=True)
    for index in range(args.frames):
        # Simple synthetic motion: drifting brightness over the target.
        shift = int(20 * np.sin(2 * np.pi * index / max(1, args.frames)))
        frame = np.clip(base_target.astype(int) + shift, 0, 255).astype(np.uint8)
        result = session.process_frame(frame)
        line = (
            f"frame {index:3d}: error {result.total_error:>10}  "
            f"k={result.sweeps}  "
            f"step3 {result.timings.get('step3_rearrangement') * 1000:6.1f} ms"
        )
        if args.outdir:
            path = os.path.join(args.outdir, f"frame_{index:03d}.png")
            save_image(path, result.image)
            line += f"  -> {path}"
        print(line)
    return 0


def _disk_store(args: argparse.Namespace, metrics=None):
    """The disk cache tier per ``--cache-dir``/``--cache-budget``."""
    from repro.service import DiskCacheStore

    return DiskCacheStore(
        args.cache_dir, max_bytes=args.cache_budget * 2**20, metrics=metrics
    )


def _build_stack(args: argparse.Namespace, metrics, *, disk=None, wrap_runner=None):
    """``(cache, pool)``: cache → runner → WorkerPool, from the pool flags.

    ``batch``, ``serve``, ``serve-http`` and ``serve-node`` all run this
    one stack; the serve commands put a :class:`MosaicGateway` on the pool.
    """
    from repro.service import ArtifactCache, CacheStack, MosaicJobRunner, WorkerPool

    os.makedirs(args.outdir, exist_ok=True)
    if disk is None and args.cache_dir:
        disk = _disk_store(args, metrics)
    memory = ArtifactCache(max_bytes=args.cache_mb * 2**20)
    # With a disk tier: this process's LRU in front, one shared store
    # behind — process workers pickle the stack and share artifacts
    # through the store (see docs/service.md).
    cache = memory if disk is None else CacheStack(memory=memory, disk=disk)
    runner = MosaicJobRunner(
        cache=cache, outdir=args.outdir, default_backend=args.backend
    )
    if wrap_runner is not None:
        runner = wrap_runner(runner)
    pool = WorkerPool(
        workers=args.workers,
        kind=args.executor,
        runner=runner,
        cache=cache,
        metrics=metrics,
        max_retries=args.retries,
        default_timeout=args.timeout,
        seed=args.seed,
    )
    return cache, pool


def _write_json(path: str, payload: dict) -> None:
    import json

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _cmd_batch(args: argparse.Namespace) -> int:
    # Deferred import keeps CLI startup fast for the other subcommands.
    from repro.service import JobState, MetricsRegistry, load_manifest

    specs = load_manifest(args.manifest, seed=args.seed)
    metrics = MetricsRegistry()
    cache, pool = _build_stack(args, metrics)
    records = pool.run(specs)
    pool.shutdown()

    for record in records:
        line = (
            f"{record.spec.name:<16} {record.state.value:<9} "
            f"attempts={record.attempts}"
        )
        if record.state is JobState.DONE:
            line += (
                f"  error={record.result.total_error}"
                f"  latency={record.latency:.3f}s"
            )
        elif record.error:
            line += f"  ({record.error})"
        print(line)

    cache_stats = cache.stats
    if args.cache_dir:
        # Fold the (parent-process) memory-tier tallies into counters so
        # the JSON report carries them; the disk tier already ticks its
        # counters live through the registry.
        metrics.merge_counts(
            {
                "cache_mem_hits_total": cache_stats.memory.hits,
                "cache_mem_misses_total": cache_stats.memory.misses,
                "cache_mem_evictions_total": cache_stats.memory.evictions,
            }
        )
    report = metrics.as_dict(
        extra={
            "cache": cache_stats.as_dict(),
            "pool": {
                "workers": args.workers,
                "executor": args.executor,
                "seed": args.seed,
                "timings": pool.timings.as_dict(),
            },
            "jobs": [record.summary() for record in records],
        }
    )
    metrics_path = args.metrics or os.path.join(args.outdir, "metrics.json")
    _write_json(metrics_path, report)
    print()
    print(metrics.summary_table())
    print(f"cache hit rate  : {cache_stats.hit_rate:.3f}")
    # Artifact outcomes travel back with each job result, so this rate is
    # accurate even when lookups happened inside process workers (where
    # the parent's cache object never saw them).
    artifact_hits = report["counters"].get("cache_artifact_hits", 0)
    artifact_misses = report["counters"].get("cache_artifact_misses", 0)
    if artifact_hits + artifact_misses:
        rate = artifact_hits / (artifact_hits + artifact_misses)
        print(f"artifact hit rate: {rate:.3f} (all workers)")
    if args.cache_dir and cache_stats.disk is not None:
        print(
            f"disk cache      : {cache_stats.disk.entries} entries, "
            f"{cache_stats.disk.current_bytes / 2**20:.1f} MiB "
            f"(budget {args.cache_budget} MiB) at {args.cache_dir}"
        )
    print(f"wrote {metrics_path}")
    failed = sum(1 for record in records if record.state is JobState.FAILED)
    return 1 if failed else 0


def _install_drain_handlers(loop, on_first, on_second) -> None:
    """SIGINT/SIGTERM → graceful drain (twice → cooperative cancel).

    ``on_first`` runs on the first signal (stop intake, let running jobs
    finish so every stream still ends with its terminal event);
    ``on_second`` on any further signal (cancel in-flight jobs, which
    terminates streams with ``CANCELLED`` instead of tearing down the
    loop mid-event).  On platforms without ``add_signal_handler`` this
    is a no-op and Ctrl-C keeps its default behaviour.
    """
    import signal

    fired = {"count": 0}

    def handler() -> None:
        fired["count"] += 1
        if fired["count"] == 1:
            on_first()
        else:
            on_second()

    for signame in ("SIGINT", "SIGTERM"):
        signum = getattr(signal, signame, None)
        if signum is None:
            continue
        try:
            loop.add_signal_handler(signum, handler)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            return


def _print_json(record: dict) -> None:
    import json

    print(json.dumps(record, default=str), flush=True)


async def _serve_until_drained(
    front, args, listening: dict | None, drained, *, report=None, join=None,
    leave=None, intake=None, draining=None,
) -> int:
    """Run a front until SIGINT/SIGTERM (or its intake ends), then drain it.

    The signal handlers go in before anything is printed, so a caller
    may signal as soon as it has read the ``listening`` record (``--port
    0`` scripts parse it to find the server).  ``join()`` (a node
    registering with its coordinator) runs next; a signal ends it early.
    An ``intake()`` (stdin ``serve``) feeds jobs until its end of input,
    which ends serving like a signal does.  The first signal prints the
    ``draining()`` record, puts the front in lame-duck mode and stops the
    intake; a second one cancels jobs still running.  After ``leave()``
    (a node deregisters) the front's one drain coroutine shuts the role
    down; then ``--metrics`` gets the registry plus ``report()`` extras,
    and the ``drained()`` record is the last stdout line.  A role without
    ``listening``/``drained`` records prints neither.
    """
    import asyncio

    loop = asyncio.get_running_loop()
    stopping = asyncio.Event()

    def on_first_signal() -> None:
        if draining is not None:
            _print_json(draining())
        front.begin_drain()
        stopping.set()

    async def until_stopped(step) -> asyncio.Task:
        task = asyncio.ensure_future(step())
        stopped = asyncio.ensure_future(stopping.wait())
        await asyncio.wait({task, stopped}, return_when=asyncio.FIRST_COMPLETED)
        for pending in (task, stopped):
            pending.cancel()
        return task

    _install_drain_handlers(
        loop, on_first_signal, lambda: loop.create_task(front.cancel_in_flight())
    )
    if listening is not None:
        _print_json(listening)
    if join is not None:
        await until_stopped(join)
    feeding = None
    if intake is not None:
        feeding = await until_stopped(intake)
    else:
        await stopping.wait()
    if leave is not None:
        await leave()
    await front.drain()
    if feeding is not None and feeding.done() and not feeding.cancelled():
        feeding.result()  # an intake failure surfaces after the drain
    if getattr(args, "metrics", None):
        extra = report() if report is not None else None
        _write_json(args.metrics, front.metrics.as_dict(extra=extra))
    if drained is not None:
        _print_json(drained())
    return 0


class _LineTee:
    """A ``write(str)`` sink that copies each line to every output, flushed."""

    def __init__(self, outputs) -> None:
        self.outputs = outputs

    def write(self, text: str) -> None:
        for output in self.outputs:
            output.write(text)
            output.flush()


def _cmd_serve(args: argparse.Namespace) -> int:
    """Stdin (or manifest) intake over the ``serve-http`` job table."""
    # Deferred imports: asyncio + service only when actually serving.
    import asyncio
    import threading

    from repro.exceptions import AdmissionRejected
    from repro.service import MetricsRegistry, MosaicGateway, load_manifest
    from repro.service.http import HttpError, HttpFront
    from repro.service.http.protocol import json_object
    from repro.service.http.server import spec_from_payload

    # A bad manifest fails before anything is served.
    manifest = load_manifest(args.manifest, seed=args.seed) if args.manifest else None

    def record(kind: str, payload: dict, *, job_id=None, terminal=True) -> dict:
        """An intake line: shaped like a job event, but with no ``seq``."""
        return dict(
            job_id=job_id, seq=None, kind=kind, terminal=terminal, payload=payload
        )

    async def manifest_specs():
        for spec in manifest:
            yield spec

    async def stdin_specs(front):
        """Specs from stdin job lines; cancel and invalid lines are answered."""
        loop = asyncio.get_running_loop()
        lines: asyncio.Queue = asyncio.Queue()

        def read_stdin() -> None:
            # Daemon thread: a blocked readline must never hold up a
            # drain-triggered exit (executor threads are joined at
            # interpreter shutdown, a daemon thread is not).  Bytes, so
            # an undecodable line is answered, not fatal to the reader.
            for raw_line in sys.stdin.buffer:
                loop.call_soon_threadsafe(lines.put_nowait, raw_line)
            loop.call_soon_threadsafe(lines.put_nowait, None)

        threading.Thread(target=read_stdin, daemon=True).start()
        while (raw_line := await lines.get()) is not None:
            line = raw_line.strip()
            if not line:
                continue
            try:
                # The HTTP front's validation, so both fronts agree.
                entry = json_object(line)
                spec = None if "cancel" in entry else spec_from_payload(entry)
            except HttpError as exc:
                text = line.decode("utf-8", "replace")
                payload = {"line": text, "error": exc.message, "code": exc.code}
                _print_json(record("invalid", payload))
                continue
            if spec is not None:
                yield spec
                continue
            # A name resolves to the latest retained job carrying it; a
            # job's name defaults to its id.
            target = str(entry["cancel"])
            named = [
                job["job_id"] for job in front.job_summaries() if job["name"] == target
            ]
            job_id = named[-1] if named else target
            payload = {"accepted": await front.broker.cancel(job_id)}
            _print_json(
                record("cancel_request", payload, job_id=job_id, terminal=False)
            )

    async def serve(event_sink) -> int:
        metrics = MetricsRegistry()
        _, pool = _build_stack(args, metrics)
        gateway = MosaicGateway(
            pool, max_pending=args.max_pending, metrics=metrics, event_log=event_sink
        )
        # serve-http's job table and drain, with stdin in place of a listener.
        front = HttpFront(gateway, metrics=metrics)

        async def intake() -> None:
            specs = stdin_specs(front) if manifest is None else manifest_specs()
            async for spec in specs:
                try:
                    # A manifest waits for a slot: the bound is a streaming
                    # window over the file.
                    await front.broker.submit(spec, wait=manifest is not None)
                except AdmissionRejected as exc:
                    # Stdin sheds, on its own line, so a client can tell
                    # "shed" from "accepted" per job.
                    payload = {"name": spec.name, "error": str(exc)}
                    _print_json(record("rejected", payload))

        await _serve_until_drained(
            front, args, None, None,
            report=lambda: {"jobs": front.job_summaries()},
            intake=intake,
            draining=lambda: record(
                "draining", {"pending": gateway.pending}, terminal=False
            ),
        )
        return 1 if metrics.counter("jobs_failed").value else 0

    # The gateway writes each event, as it commits it, to stdout and to
    # the --event-log mirror.
    with open(args.event_log or os.devnull, "a", encoding="utf-8") as log:
        return asyncio.run(serve(_LineTee([sys.stdout, log])))


def _listener_config(args: argparse.Namespace, config_cls=None, **fields):
    """An :class:`HttpFrontConfig` (or subclass) from the listener flags.

    The bearer token falls back to ``PHOTOMOSAIC_TOKEN``; ``fields`` set
    the rest of the config.
    """
    from repro.service.http import HttpFrontConfig

    return (config_cls or HttpFrontConfig)(
        host=args.host,
        port=args.port,
        auth_token=args.auth_token or os.environ.get("PHOTOMOSAIC_TOKEN") or None,
        retry_after=args.retry_after,
        **fields,
    )


def _cmd_serve_http(args: argparse.Namespace) -> int:
    # Deferred imports: asyncio + the http front only when serving.
    import asyncio

    from repro.service import MetricsRegistry, MosaicGateway
    from repro.service.http import HttpFront

    async def serve() -> int:
        metrics = MetricsRegistry()
        _, pool = _build_stack(args, metrics)
        gateway = MosaicGateway(
            pool,
            max_pending=args.max_pending,
            metrics=metrics,
            event_log=args.event_log,
        )
        config = _listener_config(
            args,
            max_body_bytes=args.max_body_kb * 1024,
            max_concurrent_streams=args.max_streams,
        )
        front = await HttpFront(gateway, config=config, metrics=metrics).start()
        return await _serve_until_drained(
            front,
            args,
            {
                "kind": "listening",
                "host": args.host,
                "port": front.port,
                "auth": bool(config.auth_token),
                "workers": args.workers,
                "max_pending": args.max_pending,
            },
            # Jobs admitted over the process's life; the summaries list
            # only the ones the front still retains.
            lambda: {
                "kind": "drained",
                "jobs": int(metrics.counter("gateway_admitted").value),
            },
            report=lambda: {"jobs": front.job_summaries()},
        )

    return asyncio.run(serve())


def _cmd_serve_node(args: argparse.Namespace) -> int:
    """One cluster worker node: a serve-http stack that joins a coordinator."""
    import asyncio

    from repro.service import MetricsRegistry, MosaicGateway
    from repro.service.cluster import (
        CacheLeaseTable,
        ClusterCacheStore,
        ClusterNodeApp,
        NodeFront,
        PacedRunner,
        PeerDirectory,
    )

    node_id = args.node_id or f"node-{os.getpid()}"
    coordinator_host, _, coordinator_port = args.coordinator.rpartition(":")
    if not coordinator_host or not coordinator_port.isdigit():
        print(
            f"--coordinator must be host:port, got {args.coordinator!r}",
            file=sys.stderr,
        )
        return 2

    async def serve() -> int:
        metrics = MetricsRegistry()
        config = _listener_config(
            args,
            max_body_bytes=args.max_body_kb * 1024,
            max_concurrent_streams=args.max_streams,
        )
        directory = PeerDirectory(node_id)
        cluster_cache = None
        if args.cache_dir:
            # The node's disk tier is its shard of the cluster's
            # consistent-hashed cache; without it caching stays local.
            cluster_cache = ClusterCacheStore(
                _disk_store(args, metrics),
                directory,
                token=config.auth_token,
                metrics=metrics,
            )

        def paced(runner):
            # Capacity-bench pacing; the floor is disclosed in BENCH JSON.
            return PacedRunner(runner, args.job_floor_seconds)

        _, pool = _build_stack(
            args,
            metrics,
            disk=cluster_cache,
            wrap_runner=paced if args.job_floor_seconds > 0 else None,
        )
        front = await NodeFront(
            MosaicGateway(pool, max_pending=args.max_pending, metrics=metrics),
            node_id=node_id,
            directory=directory,
            cluster_cache=cluster_cache,
            leases=CacheLeaseTable(ttl=args.lease_ttl),
            config=config,
            metrics=metrics,
        ).start()
        app = ClusterNodeApp(
            front,
            coordinator_host=coordinator_host,
            coordinator_port=int(coordinator_port),
            advertise_host=args.advertise_host,
            token=config.auth_token,
            heartbeat_interval=args.heartbeat_interval,
        )
        return await _serve_until_drained(
            front,
            args,
            {
                "kind": "listening",
                "role": "node",
                "node_id": node_id,
                "host": args.host,
                "port": front.port,
                "coordinator": args.coordinator,
                "auth": bool(config.auth_token),
                "workers": args.workers,
            },
            lambda: {"kind": "drained", "node_id": node_id},
            join=app.start,
            # Deregister first: no re-dispatch churn on drain.
            leave=app.stop,
        )

    return asyncio.run(serve())


def _cmd_serve_cluster(args: argparse.Namespace) -> int:
    """The cluster coordinator front (see docs/service.md, multi-node)."""
    import asyncio

    from repro.service.cluster import ClusterCoordinator, CoordinatorConfig

    async def serve() -> int:
        config = _listener_config(
            args,
            CoordinatorConfig,
            heartbeat_deadline=args.heartbeat_deadline,
            max_pending=args.max_pending,
        )
        coordinator = await ClusterCoordinator(config=config).start()
        return await _serve_until_drained(
            coordinator,
            args,
            {
                "kind": "listening",
                "role": "coordinator",
                "host": args.host,
                "port": coordinator.port,
                "auth": bool(config.auth_token),
                "heartbeat_deadline": args.heartbeat_deadline,
            },
            lambda: {"kind": "drained", "role": "coordinator"},
        )

    return asyncio.run(serve())


def _library_cache(args):
    """Optional disk cache for library ingestion (``--cache-dir``)."""
    return _disk_store(args) if args.cache_dir else None


def _cmd_library_build(args: argparse.Namespace) -> int:
    from repro.library import LibraryIndex

    index, stats = LibraryIndex.from_directory(
        args.source,
        tile_size=args.tile_size,
        thumb_size=args.thumb_size,
        sketch_grid=args.sketch_grid,
        cache=_library_cache(args),
    )
    index.save(args.output)
    print(f"library index   : {args.output}")
    print(f"images          : {index.size}")
    print(f"match tile      : {index.tile_size}x{index.tile_size}")
    print(f"render tile     : {index.thumb_size}x{index.thumb_size}")
    print(f"ingest hit rate : {stats.hit_rate:.3f} "
          f"({stats.hits} hits / {stats.misses} misses)")
    print(f"fingerprint     : {index.content_fingerprint()}")
    return 0


def _cmd_mosaic(args: argparse.Namespace) -> int:
    from repro.imaging import save_image
    from repro.library import LibraryConfig, LibraryIndex, LibraryMosaicEngine
    from repro.service.workers import resolve_image

    source = args.library
    tile_size = args.tile_size
    sketch_grid = args.sketch_grid
    thumb_size = args.thumb_size
    if source.endswith(".npz"):
        # Geometry lives in the index; deriving it here means a prebuilt
        # index "just works" without repeating the build-time flags.
        source = LibraryIndex.load(source)
        tile_size = source.tile_size
        thumb_size = source.thumb_size
        sketch_grid = source.sketch_grid
    config = LibraryConfig(
        tile_size=tile_size,
        thumb_size=thumb_size,
        sketch_grid=sketch_grid,
        metric=args.metric,
        top_k=args.top_k,
        clusters=args.clusters,
        repetition_penalty=args.penalty,
        assigner=args.assigner,
        refine_iters=args.refine_iters,
        color_adjust=args.color_adjust,
        out_size=args.out_size,
        array_backend=args.backend,
    )
    engine = LibraryMosaicEngine(config, cache=_library_cache(args))
    target = resolve_image(args.target, args.size)

    def observer(kind: str, payload: dict) -> None:
        if kind == "phase":
            extras = {
                k: v
                for k, v in payload.items()
                if k not in ("phase", "seconds") and not isinstance(v, float)
            }
            detail = " ".join(f"{k}={v}" for k, v in sorted(extras.items()))
            print(f"  {payload['phase']:<10} {payload['seconds']:.3f}s  {detail}")

    result = engine.generate(source, target, seed=args.seed, observer=observer)
    save_image(args.output, result.image)
    lib = result.meta["library"]
    print(f"wrote {args.output} ({result.image.shape[0]}x{result.image.shape[1]})")
    print(f"total match cost: {result.total_error}")
    print(f"tiles used      : {lib['unique_tiles']} unique of "
          f"{lib['library_size']} (max reuse {lib['max_reuse']})")
    return 0


def _pool_flags(
    *, outdir: str = "serve_out", workers: int = 2
) -> argparse.ArgumentParser:
    """Parent parser: the worker-pool and cache flags of the job stack."""
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--outdir", default=outdir, help="job outputs")
    flags.add_argument("--workers", type=int, default=workers)
    flags.add_argument(
        "--executor", choices=("thread", "process"), default="thread",
        help="attempt executor (thread shares the artifact cache and streams "
        "per-sweep progress; process workers emit state/retry events only)",
    )
    flags.add_argument(
        "--retries", type=int, default=1,
        help="default extra attempts per job (a manifest can override per job)",
    )
    flags.add_argument(
        "--timeout", type=float, default=None,
        help="default per-attempt budget in seconds",
    )
    flags.add_argument(
        "--cache-mb", type=int, default=256, help="in-memory cache budget (MiB)"
    )
    flags.add_argument(
        "--cache-dir", default=None,
        help="shared disk cache root: artifacts persist across runs and are "
        "shared by process workers; on serve-node, the node's shard of the "
        "cluster's consistent-hashed cache (see docs/service.md)",
    )
    flags.add_argument(
        "--cache-budget", type=int, default=2048,
        help="disk cache byte budget in MiB (LRU-evicted past this)",
    )
    flags.add_argument(
        "--seed", type=int, default=0,
        help="derives per-job seeds and the pool's backoff jitter via "
        "repro.utils.rng, so a re-run replays exactly",
    )
    flags.add_argument(
        "--backend", choices=("numpy", "cupy", "auto"), default=None,
        help="default array backend for every job that doesn't set its "
        "own 'backend' field",
    )
    return flags


def _listener_flags(*, port: int) -> argparse.ArgumentParser:
    """Parent parser: bind address and auth of one HTTP front."""
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--host", default="127.0.0.1")
    flags.add_argument(
        "--port", type=int, default=port,
        help="TCP port; 0 picks a free port (printed on the first stdout "
        "line as a JSON 'listening' record)",
    )
    flags.add_argument(
        "--auth-token", default=None,
        help="static bearer token required on /v1/ and /internal/ routes, "
        "shared by every role of a cluster (default: the PHOTOMOSAIC_TOKEN "
        "environment variable; unset = no auth)",
    )
    flags.add_argument(
        "--retry-after", type=float, default=1.0,
        help="Retry-After hint (seconds) on 429/503 responses",
    )
    return flags


def _job_front_flags(*, max_body_kb: int) -> argparse.ArgumentParser:
    """Parent parser: the request limits of a front that runs jobs."""
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument(
        "--max-streams", type=int, default=64,
        help="concurrent event streams before the route answers 503",
    )
    flags.add_argument(
        "--max-body-kb", type=int, default=max_body_kb,
        help="request body limit in KiB (413 beyond it)",
    )
    return flags


def _add_report_flags(parser: argparse.ArgumentParser, metrics_help: str) -> None:
    parser.add_argument("--metrics", default=None, help=metrics_help)
    parser.add_argument(
        "--event-log", default=None,
        help="append every streamed event to this NDJSON file",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="photomosaic",
        description="Photomosaic generation by rearranging subimages "
        "(reproduction of Yang, Ito & Nakano 2017).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate one photomosaic")
    gen.add_argument("--input", required=True, help="input image path or standard name")
    gen.add_argument("--target", required=True, help="target image path or standard name")
    gen.add_argument("--output", default="mosaic.png", help="output file (.png/.bmp/.pgm)")
    gen.add_argument("--size", type=int, default=512, help="side for standard images")
    gen.add_argument("--tile-size", type=int, default=16, help="tile side M")
    gen.add_argument(
        "--algorithm",
        choices=("optimization", "approximation", "parallel"),
        default="parallel",
    )
    gen.add_argument("--metric", default="sad", help="cost metric name")
    gen.add_argument(
        "--solver",
        default="scipy",
        choices=available_solvers(),
        help="exact assignment solver for the optimization algorithm",
    )
    gen.add_argument(
        "--no-histogram-match",
        action="store_true",
        help="skip the Section II intensity adjustment",
    )
    gen.add_argument(
        "--backend",
        choices=("numpy", "cupy", "auto"),
        default="numpy",
        help="array backend for the Step-2/Step-3 hot paths: numpy, cupy "
        "(GPU, when installed), or auto (best available) — see "
        "docs/performance.md",
    )
    gen.add_argument(
        "--shortlist-top-k",
        type=int,
        default=0,
        help="sparse Step 2: exact-score only this many sketch-shortlisted "
        "candidate positions per tile (0 = full dense matrix; values >= "
        "the tile count reproduce the dense result bit for bit — see "
        "docs/performance.md)",
    )
    gen.add_argument(
        "--sketch",
        choices=("mean", "pyramid", "pca"),
        default="mean",
        help="sketch kind for shortlisting (never affects final costs, "
        "only which pairs get exact-scored)",
    )
    gen.add_argument(
        "--shortlist-seed",
        type=int,
        default=None,
        help="seed for the shortlister's k-means (fixed seed = "
        "bit-reproducible sparse runs)",
    )
    gen.set_defaults(func=_cmd_generate)

    bench = sub.add_parser("bench", help="regenerate the paper's tables")
    bench.add_argument("--table", choices=("1", "2", "3", "4", "all"), default="all")
    bench.add_argument("--profile", choices=("default", "full"), default=None)
    bench.set_defaults(func=_cmd_bench)

    demo = sub.add_parser("demo", help="write the example gallery")
    demo.add_argument("--outdir", default="gallery")
    demo.add_argument("--size", type=int, default=512)
    demo.set_defaults(func=_cmd_demo)

    export = sub.add_parser(
        "export", help="run all experiments and write EXPERIMENTS.md"
    )
    export.add_argument("--profile", choices=("default", "full"), default="default")
    export.add_argument("--out", default="EXPERIMENTS.md")
    export.set_defaults(func=_cmd_export)

    video = sub.add_parser(
        "video", help="run the real-time video-mosaic scenario"
    )
    video.add_argument("--input", default="portrait")
    video.add_argument("--target", default="sailboat")
    video.add_argument("--frames", type=int, default=8)
    video.add_argument("--size", type=int, default=256)
    video.add_argument("--tile-size", type=int, default=16)
    video.add_argument("--outdir", default=None, help="write frames here (optional)")
    video.set_defaults(func=_cmd_video)

    library = sub.add_parser(
        "library", help="manage tile libraries for many-to-one mosaics"
    )
    library_sub = library.add_subparsers(dest="library_command", required=True)
    build = library_sub.add_parser(
        "build", help="ingest a directory of images into a .npz library index"
    )
    build.add_argument("--source", required=True, help="directory of candidate images")
    build.add_argument("--output", default="library.npz", help="index output path")
    build.add_argument("--tile-size", type=int, default=8, help="match resolution M")
    build.add_argument(
        "--thumb-size", type=int, default=32,
        help="render resolution stored per image",
    )
    build.add_argument(
        "--sketch-grid", type=int, default=2,
        help="block-mean sketch side (must divide tile size)",
    )
    build.add_argument(
        "--cache-dir", default=None,
        help="disk cache root: per-image features are content-addressed "
        "here, so re-ingesting unchanged files is a pure cache read",
    )
    build.add_argument(
        "--cache-budget", type=int, default=2048,
        help="disk cache byte budget in MiB",
    )
    build.set_defaults(func=_cmd_library_build)

    mosaic = sub.add_parser(
        "mosaic",
        help="compose a target from a tile library (many-to-one; "
        "see docs/library.md)",
    )
    mosaic.add_argument(
        "--library", required=True,
        help="tile library: a directory of images or a .npz index from "
        "'library build' (the index carries its own geometry)",
    )
    mosaic.add_argument("--target", required=True, help="target image path or standard name")
    mosaic.add_argument("--output", default="mosaic.png", help="output file (.png/.bmp/.pgm)")
    mosaic.add_argument("--size", type=int, default=256, help="side for standard targets")
    mosaic.add_argument("--tile-size", type=int, default=8, help="match resolution M")
    mosaic.add_argument(
        "--thumb-size", type=int, default=32,
        help="render resolution (directory libraries only)",
    )
    mosaic.add_argument(
        "--sketch-grid", type=int, default=2,
        help="block-mean sketch side (directory libraries only)",
    )
    mosaic.add_argument("--metric", default="sad", help="cost metric name")
    mosaic.add_argument(
        "--top-k", type=int, default=16,
        help="exact-scored candidates kept per cell",
    )
    mosaic.add_argument(
        "--clusters", type=int, default=0,
        help="k-means clusters over the library (0 = ~sqrt(L))",
    )
    mosaic.add_argument(
        "--penalty", type=float, default=0.0,
        help="repetition penalty weight (0 = pure nearest tile)",
    )
    mosaic.add_argument(
        "--assigner", default="greedy",
        help="assignment solver: greedy or ep",
    )
    mosaic.add_argument(
        "--refine-iters", type=int, default=0,
        help="EP refinement budget (assigner=ep)",
    )
    mosaic.add_argument(
        "--color-adjust", choices=("none", "gain_offset", "histogram"),
        default="none", help="per-cell tile colour adjustment",
    )
    mosaic.add_argument(
        "--out-size", type=int, default=None,
        help="output side in pixels (rendered from the stored thumbs; "
        "default keeps the match resolution)",
    )
    mosaic.add_argument(
        "--backend", choices=("numpy", "cupy", "auto"), default="numpy",
        help="array backend for the exact-scoring hot path",
    )
    mosaic.add_argument("--seed", type=int, default=0, help="pipeline seed")
    mosaic.add_argument(
        "--cache-dir", default=None,
        help="disk cache root for content-addressed ingestion features",
    )
    mosaic.add_argument(
        "--cache-budget", type=int, default=2048,
        help="disk cache byte budget in MiB",
    )
    mosaic.set_defaults(func=_cmd_mosaic)

    batch = sub.add_parser(
        "batch",
        parents=[_pool_flags(outdir="batch_out", workers=4)],
        help="run a manifest of mosaic jobs through the worker pool",
    )
    batch.add_argument("--manifest", required=True, help="JSON job manifest")
    batch.add_argument(
        "--metrics", default=None,
        help="metrics JSON path (default: <outdir>/metrics.json)",
    )
    batch.set_defaults(func=_cmd_batch)

    serve = sub.add_parser(
        "serve",
        parents=[_pool_flags()],
        help="stream jobs from stdin (or a manifest) through the async "
        "gateway, emitting NDJSON progress events",
    )
    serve.add_argument(
        "--manifest", default=None,
        help="JSON job manifest; omit to read JSON job lines from stdin",
    )
    serve.add_argument(
        "--max-pending", type=int, default=16,
        help="admission bound: jobs in flight before submissions are "
        "rejected (stdin) or intake blocks (manifest)",
    )
    _add_report_flags(serve, "write a metrics JSON report here on exit")
    serve.set_defaults(func=_cmd_serve)

    serve_http = sub.add_parser(
        "serve-http",
        parents=[
            _listener_flags(port=8765),
            _job_front_flags(max_body_kb=1024),
            _pool_flags(),
        ],
        help="serve the job gateway over HTTP/WebSocket "
        "(see docs/service.md, 'HTTP API')",
    )
    serve_http.add_argument(
        "--max-pending", type=int, default=16,
        help="admission bound: jobs in flight before POST /v1/jobs "
        "answers 429 with Retry-After",
    )
    _add_report_flags(serve_http, "write a metrics JSON report here on drained exit")
    serve_http.set_defaults(func=_cmd_serve_http)

    serve_node = sub.add_parser(
        "serve-node",
        parents=[
            _listener_flags(port=0),
            # Large: internal cache replication PUTs carry full error matrices.
            _job_front_flags(max_body_kb=262144),
            _pool_flags(),
        ],
        help="serve one cluster worker node joined to a coordinator "
        "(see docs/service.md, 'Multi-node deployment')",
    )
    serve_node.add_argument(
        "--coordinator", required=True,
        help="coordinator address as host:port (from serve-cluster's "
        "'listening' line)",
    )
    serve_node.add_argument(
        "--node-id", default=None,
        help="stable node identity used for sharding and metrics "
        "(default: node-<pid>)",
    )
    serve_node.add_argument(
        "--advertise-host", default=None,
        help="host peers should dial (default: the --host bind address)",
    )
    serve_node.add_argument(
        "--heartbeat-interval", type=float, default=0.5,
        help="seconds between heartbeats to the coordinator",
    )
    serve_node.add_argument(
        "--lease-ttl", type=float, default=60.0,
        help="cross-node compute-lease TTL in seconds (a lease whose "
        "holder died is reclaimed after this long)",
    )
    serve_node.add_argument(
        "--job-floor-seconds", type=float, default=0.0,
        help="minimum wall-clock seconds per job (emulated duration for "
        "capacity benchmarking on small hosts; 0 = off)",
    )
    serve_node.add_argument(
        "--max-pending", type=int, default=16,
        help="admission bound before POST /v1/jobs answers 429 (the "
        "coordinator then spills to the next-ranked node)",
    )
    serve_node.set_defaults(func=_cmd_serve_node)

    serve_cluster = sub.add_parser(
        "serve-cluster",
        parents=[_listener_flags(port=8700)],
        help="serve the cluster coordinator (admission, sharding, "
        "replicated event logs; see docs/service.md)",
    )
    serve_cluster.add_argument(
        "--heartbeat-deadline", type=float, default=3.0,
        help="seconds without a heartbeat before a node is declared "
        "dead and its jobs re-dispatch",
    )
    serve_cluster.add_argument(
        "--max-pending", type=int, default=256,
        help="cluster-wide admission bound (429 beyond it)",
    )
    serve_cluster.add_argument(
        "--metrics", default=None,
        help="write a metrics JSON report here on drained exit",
    )
    serve_cluster.set_defaults(func=_cmd_serve_cluster)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
