"""The compile service behind ``repro serve``.

One long-lived :class:`CompileService` fronts the compilation pipeline
for many concurrent clients, the way one CLI invocation never could:

* **admission control** — a bounded two-class priority queue.
  ``interactive`` requests are always dequeued before ``batch`` ones;
  when the backlog reaches ``max_queue`` a *new* request is refused
  with :class:`QueueFullError` (HTTP 429 + ``Retry-After``) instead of
  growing the queue without bound. Coalesced joins never consume a
  queue slot — attaching a waiter to work already promised is free.
* **request coalescing** — every request is fingerprinted through the
  existing :func:`repro.compile.fingerprint.mapping_cache_key`
  machinery (plus the post-pass field the engine key deliberately
  excludes: the strategy). Identical in-flight requests share one
  future and therefore one compile; all waiters receive the *same*
  serialized payload, byte for byte.
* **a shared cache** — worker threads compile through
  :class:`~repro.compile.parallel.SweepExecutor` items over one
  :class:`~repro.compile.diskcache.TieredCache`, so a request that
  misses the coalescing window still hits warm artifacts, and N
  daemons pointed at one artifact store stay isolated through
  per-server cache shards (``DiskCache(root, shard=...)``).
* **observability** — every request opens a ``serve.request`` span and
  feeds the always-on metrics registry: ``serve.queue_depth``,
  ``serve.in_flight``, ``serve.coalesced``, ``serve.rejected`` and the
  ``serve.latency_ms`` / ``serve.queue_wait_ms`` / ``serve.compile_ms``
  histograms the load-test report aggregates.

The service is transport-agnostic: :mod:`repro.serve.server` puts an
HTTP/1.1 face on it, and the unit tests drive it directly.
"""

from __future__ import annotations

import asyncio
import hashlib
import heapq
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro import obs
from repro.arch.cgra import CGRA
from repro.compile.cache import MappingCache
from repro.compile.diskcache import DiskCache, TieredCache
from repro.compile.fingerprint import mapping_cache_key
from repro.compile.parallel import SweepExecutor, SweepItem
from repro.compile.pipeline import resolve_config
from repro.errors import MappingError
from repro.kernels.suite import kernel_names, load_kernel
from repro.mapper.backends import backend_names, resolve_strategy

#: Admission classes, in dequeue-precedence order.
PRIORITIES = ("interactive", "batch")

#: Default worker threads behind the queue.
DEFAULT_WORKERS = 2

#: Default queue bound (pending, not yet compiling).
DEFAULT_MAX_QUEUE = 64

#: Schema tag on every response payload.
RESPONSE_SCHEMA = 1


class RequestError(ValueError):
    """A malformed or unserviceable request (HTTP 400)."""


class QueueFullError(RuntimeError):
    """Admission control refused the request (HTTP 429)."""

    def __init__(self, retry_after_s: float):
        super().__init__(
            f"compile queue is full; retry after {retry_after_s:g}s"
        )
        self.retry_after_s = retry_after_s


class ServiceClosedError(RuntimeError):
    """The service is draining and accepts no new work (HTTP 503)."""


def canonical_json(payload) -> str:
    """The repository-wide canonical encoding (sorted keys, compact)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _parse_shape(value, what: str) -> tuple[int, int]:
    if isinstance(value, str):
        rows, sep, cols = value.partition("x")
        if not sep:
            raise RequestError(f"{what} must look like '6x6', got {value!r}")
        try:
            shape = (int(rows), int(cols))
        except ValueError:
            raise RequestError(
                f"{what} must look like '6x6', got {value!r}"
            ) from None
    elif (isinstance(value, (list, tuple)) and len(value) == 2
          and all(isinstance(v, int) for v in value)):
        shape = (value[0], value[1])
    else:
        raise RequestError(f"{what} must be 'RxC' or [rows, cols]")
    if shape[0] < 1 or shape[1] < 1:
        raise RequestError(f"{what} dimensions must be positive")
    return shape


def _parse_tenant(value) -> str:
    """Validate the optional ``tenant`` identity tag: a short opaque
    token (no whitespace) or empty for anonymous requests."""
    if not isinstance(value, str):
        raise RequestError("tenant must be a string")
    if any(c.isspace() for c in value):
        raise RequestError(f"tenant must not contain whitespace: {value!r}")
    if len(value) > 128:
        raise RequestError("tenant must be at most 128 characters")
    return value


@dataclass(frozen=True)
class CompileRequest:
    """One validated ``POST /compile`` body."""

    kernel: str
    strategy: str = "iced"
    backend: str = "engine"
    unroll: int = 1
    cgra: tuple[int, int] = (6, 6)
    island: tuple[int, int] = (2, 2)
    priority: str = "batch"
    tenant: str = ""

    @classmethod
    def from_dict(cls, body: dict) -> "CompileRequest":
        if not isinstance(body, dict):
            raise RequestError("request body must be a JSON object")
        unknown = set(body) - {
            "kernel", "strategy", "backend", "unroll", "cgra", "island",
            "priority", "tenant",
        }
        if unknown:
            raise RequestError(f"unknown request fields: {sorted(unknown)}")
        kernel = body.get("kernel")
        if kernel not in kernel_names():
            raise RequestError(
                f"unknown kernel {kernel!r}; known: {kernel_names()}"
            )
        try:
            strategy = resolve_strategy(str(body.get("strategy", "iced")))
        except ValueError as exc:
            raise RequestError(str(exc)) from None
        backend = str(body.get("backend", "engine"))
        if backend not in backend_names():
            raise RequestError(
                f"unknown backend {backend!r}; known: {backend_names()}"
            )
        priority = str(body.get("priority", "batch"))
        if priority not in PRIORITIES:
            raise RequestError(
                f"unknown priority {priority!r}; known: {PRIORITIES}"
            )
        try:
            unroll = int(body.get("unroll", 1))
        except (TypeError, ValueError):
            raise RequestError("unroll must be an integer") from None
        if unroll < 1:
            raise RequestError("unroll must be >= 1")
        return cls(
            kernel=kernel, strategy=strategy, backend=backend,
            unroll=unroll,
            cgra=_parse_shape(body.get("cgra", "6x6"), "cgra"),
            island=_parse_shape(body.get("island", "2x2"), "island"),
            priority=priority,
            tenant=_parse_tenant(body.get("tenant", "")),
        )

    def to_dict(self) -> dict:
        return {
            "kernel": self.kernel, "strategy": self.strategy,
            "backend": self.backend, "unroll": self.unroll,
            "cgra": list(self.cgra), "island": list(self.island),
            "priority": self.priority, "tenant": self.tenant,
        }


@dataclass(frozen=True)
class StreamRequest:
    """One validated ``POST /stream`` body (a scenario run)."""

    scenario: str
    strategy: str = "iced"
    inputs: int = 120
    window: int = 10
    seed: int | None = None
    priority: str = "batch"
    tenant: str = ""

    @classmethod
    def from_dict(cls, body: dict) -> "StreamRequest":
        from repro.streaming.envelopes import STRATEGIES
        from repro.streaming.scenarios import scenario_names

        if not isinstance(body, dict):
            raise RequestError("request body must be a JSON object")
        unknown = set(body) - {
            "scenario", "strategy", "inputs", "window", "seed", "priority",
            "tenant",
        }
        if unknown:
            raise RequestError(f"unknown request fields: {sorted(unknown)}")
        scenario = body.get("scenario")
        if scenario not in scenario_names():
            raise RequestError(
                f"unknown scenario {scenario!r}; known: {scenario_names()}"
            )
        strategy = str(body.get("strategy", "iced"))
        if strategy not in STRATEGIES:
            raise RequestError(
                f"unknown stream strategy {strategy!r}; "
                f"known: {STRATEGIES}"
            )
        priority = str(body.get("priority", "batch"))
        if priority not in PRIORITIES:
            raise RequestError(
                f"unknown priority {priority!r}; known: {PRIORITIES}"
            )
        try:
            inputs = int(body.get("inputs", 120))
            window = int(body.get("window", 10))
            seed = body.get("seed")
            seed = None if seed is None else int(seed)
        except (TypeError, ValueError):
            raise RequestError(
                "inputs, window and seed must be integers"
            ) from None
        if inputs < 1 or window < 1:
            raise RequestError("inputs and window must be >= 1")
        return cls(scenario=scenario, strategy=strategy, inputs=inputs,
                   window=window, seed=seed, priority=priority,
                   tenant=_parse_tenant(body.get("tenant", "")))

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario, "strategy": self.strategy,
            "inputs": self.inputs, "window": self.window,
            "seed": self.seed, "priority": self.priority,
            "tenant": self.tenant,
        }


@dataclass
class _Job:
    """One unit of promised work; every coalesced waiter shares it."""

    fingerprint: str
    kind: str                       # "compile" | "stream"
    request: object
    future: asyncio.Future = field(repr=False)
    enqueued_at: float = 0.0
    waiters: int = 1
    seq: int = 0
    #: Tenant tag of every waiter (joins included), for quota release.
    tenants: list[str] = field(default_factory=list)

    @property
    def priority_rank(self) -> int:
        return PRIORITIES.index(self.request.priority)


class CompileService:
    """The queue + coalescing + worker-pool core of ``repro serve``.

    Construct it, then :meth:`start` inside a running event loop;
    :meth:`submit` returns the (possibly shared) response future.
    ``compile_fn``/``stream_fn`` are test seams replacing the real
    pipeline calls — production code never passes them.
    """

    def __init__(self, *, workers: int = DEFAULT_WORKERS,
                 max_queue: int = DEFAULT_MAX_QUEUE,
                 cache_dir: str | None = None,
                 shard: str | None = None,
                 retry_after_s: float = 1.0,
                 tenant_quota: int | None = None,
                 compile_fn=None, stream_fn=None):
        self.workers = max(1, int(workers))
        self.max_queue = max(1, int(max_queue))
        self.retry_after_s = float(retry_after_s)
        self.tenant_quota = (None if tenant_quota is None
                             else max(1, int(tenant_quota)))
        self.cache_dir = cache_dir
        self.shard = shard
        memory = MappingCache()
        self.cache = (
            TieredCache(memory, DiskCache(cache_dir, shard=shard))
            if cache_dir else memory
        )
        self._compile_fn = compile_fn or self._pipeline_compile
        self._stream_fn = stream_fn or self._pipeline_stream
        self._heap: list[tuple[int, int, _Job]] = []
        self._heap_cond: asyncio.Condition | None = None
        self._inflight: dict[str, _Job] = {}
        self._executor: ThreadPoolExecutor | None = None
        self._worker_tasks: list[asyncio.Task] = []
        self._loop: asyncio.AbstractEventLoop | None = None
        self._seq = 0
        self._tenant_pending: dict[str, int] = {}
        self._closing = False
        self._started_at = time.monotonic()
        # Fabrics are pure values keyed by their constructor arguments,
        # so fingerprinting a request does not rebuild one every time;
        # kernel DFGs come from the kernels layer's own memo.
        self._fabric_memo: dict[tuple, CGRA] = {}
        self._fp_memo: dict[object, str] = {}
        self._memo_lock = threading.Lock()

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._heap_cond = asyncio.Condition()
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-serve"
        )
        self._worker_tasks = [
            asyncio.create_task(self._worker(), name=f"serve-worker-{i}")
            for i in range(self.workers)
        ]
        self._started_at = time.monotonic()

    async def shutdown(self) -> None:
        """Graceful drain: refuse new work, finish everything accepted.

        Every job already admitted (queued or compiling) resolves its
        future before the workers are torn down — no accepted request
        is ever dropped on the floor.
        """
        self._closing = True
        pending = [job.future for job in self._inflight.values()]
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        for task in self._worker_tasks:
            task.cancel()
        if self._worker_tasks:
            await asyncio.gather(*self._worker_tasks,
                                 return_exceptions=True)
        self._worker_tasks = []
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    @property
    def closing(self) -> bool:
        return self._closing

    def uptime_s(self) -> float:
        return time.monotonic() - self._started_at

    # -- fingerprints -------------------------------------------------------

    def _fabric(self, request: CompileRequest) -> CGRA:
        key = (request.cgra, request.island)
        with self._memo_lock:
            fabric = self._fabric_memo.get(key)
        if fabric is None:
            fabric = CGRA.build(request.cgra[0], request.cgra[1],
                                island_shape=request.island)
            with self._memo_lock:
                fabric = self._fabric_memo.setdefault(key, fabric)
        return fabric

    def fingerprint(self, request) -> str:
        """The coalescing identity of one request.

        For compiles this is the engine's content-addressed
        ``mapping_cache_key`` extended by the post-pass input the
        engine key deliberately ignores (the strategy — two requests
        that share a placement but diverge in the post-pass must not
        share a response). Stream requests hash their full
        parameter tuple. Requests are frozen dataclasses, so repeats
        (the load-test common case) hit a memo instead of re-hashing
        the fabric.
        """
        memo_key = (type(request).__name__, request)
        with self._memo_lock:
            cached = self._fp_memo.get(memo_key)
        if cached is not None:
            return cached
        if isinstance(request, CompileRequest):
            engine_key = mapping_cache_key(
                load_kernel(request.kernel, request.unroll),
                self._fabric(request),
                resolve_config(request.strategy, None), request.backend,
            )
            payload = {"compile": engine_key,
                       "strategy": request.strategy}
        else:
            payload = {"stream": request.to_dict()}
            # Neither priority nor tenant changes the computed result:
            # identical work coalesces across admission classes and
            # across tenants (quota accounting is per-waiter, not
            # per-fingerprint).
            payload["stream"].pop("priority", None)
            payload["stream"].pop("tenant", None)
        digest = hashlib.sha256(
            canonical_json(payload).encode("utf-8")
        ).hexdigest()
        with self._memo_lock:
            self._fp_memo[memo_key] = digest
        return digest

    # -- submission ---------------------------------------------------------

    def submit(self, request) -> asyncio.Future:
        """Admit, coalesce or refuse one request; returns its future.

        Synchronous by design: callers on the event loop observe an
        atomic admit-or-coalesce decision, so a burst of identical
        requests submitted back-to-back deterministically shares one
        job.
        """
        if self._loop is None:
            raise RuntimeError("CompileService.start() was never awaited")
        if self._closing:
            obs.metrics().counter("serve.rejected_closing").inc()
            raise ServiceClosedError("service is draining; no new work")
        registry = obs.metrics()
        registry.counter("serve.requests").inc()
        tenant = getattr(request, "tenant", "")
        if (tenant and self.tenant_quota is not None
                and self._tenant_pending.get(tenant, 0)
                >= self.tenant_quota):
            # Per-tenant fairness: one tenant flooding the daemon is
            # pushed back before it can consume the shared queue (even
            # via coalesced joins — a pending response is a pending
            # response, however it is produced).
            registry.counter("serve.tenant_rejected").inc()
            raise QueueFullError(self.retry_after_s)
        fingerprint = self.fingerprint(request)
        job = self._inflight.get(fingerprint)
        if job is not None:
            job.waiters += 1
            if tenant:
                job.tenants.append(tenant)
                self._tenant_pending[tenant] = (
                    self._tenant_pending.get(tenant, 0) + 1)
            registry.counter("serve.coalesced").inc()
            return job.future
        if len(self._heap) >= self.max_queue:
            registry.counter("serve.rejected").inc()
            raise QueueFullError(self.retry_after_s)
        kind = ("compile" if isinstance(request, CompileRequest)
                else "stream")
        self._seq += 1
        job = _Job(
            fingerprint=fingerprint, kind=kind, request=request,
            future=self._loop.create_future(),
            enqueued_at=time.monotonic(), seq=self._seq,
        )
        if tenant:
            job.tenants.append(tenant)
            self._tenant_pending[tenant] = (
                self._tenant_pending.get(tenant, 0) + 1)
        self._inflight[fingerprint] = job
        heapq.heappush(self._heap, (job.priority_rank, job.seq, job))
        registry.gauge("serve.queue_depth").set(len(self._heap))
        registry.gauge("serve.in_flight").set(len(self._inflight))
        self._kick()
        return job.future

    def _kick(self) -> None:
        async def _notify():
            async with self._heap_cond:
                self._heap_cond.notify()

        asyncio.ensure_future(_notify())

    def queue_depth(self) -> int:
        return len(self._heap)

    def in_flight(self) -> int:
        return len(self._inflight)

    # -- workers ------------------------------------------------------------

    async def _worker(self) -> None:
        registry = obs.metrics()
        while True:
            async with self._heap_cond:
                while not self._heap:
                    await self._heap_cond.wait()
                _, _, job = heapq.heappop(self._heap)
            registry.gauge("serve.queue_depth").set(len(self._heap))
            wait_ms = (time.monotonic() - job.enqueued_at) * 1e3
            registry.histogram("serve.queue_wait_ms").observe(wait_ms)
            started = time.monotonic()
            try:
                fn = (self._compile_fn if job.kind == "compile"
                      else self._stream_fn)
                payload = await self._loop.run_in_executor(
                    self._executor, self._run_job, fn, job
                )
            except MappingError as exc:
                self._finish(job, error=(422, f"unmappable: {exc}"))
                continue
            except RequestError as exc:
                self._finish(job, error=(400, str(exc)))
                continue
            except Exception as exc:  # a crash is a bug, not a data point
                registry.counter("serve.errors").inc()
                self._finish(job, error=(500, f"internal error: {exc!r}"))
                continue
            compile_ms = (time.monotonic() - started) * 1e3
            registry.histogram("serve.compile_ms").observe(compile_ms)
            registry.counter("serve.compiles").inc()
            payload["wall_ms"] = round(compile_ms, 3)
            self._finish(job, payload=payload)

    def _run_job(self, fn, job: _Job) -> dict:
        with obs.span("serve.request", category="serve",
                      kind=job.kind, fingerprint=job.fingerprint[:12]):
            return fn(job.request)

    def _finish(self, job: _Job, payload: dict | None = None,
                error: tuple[int, str] | None = None) -> None:
        """Resolve the job's future (always called on the event loop).

        The in-flight entry is removed first, so a request arriving
        after resolution starts a fresh job (and, for compiles, hits
        the cache) instead of receiving a stale future.
        """
        self._inflight.pop(job.fingerprint, None)
        for tenant in job.tenants:
            pending = self._tenant_pending.get(tenant, 0) - 1
            if pending > 0:
                self._tenant_pending[tenant] = pending
            else:
                self._tenant_pending.pop(tenant, None)
        job.tenants.clear()
        obs.metrics().gauge("serve.in_flight").set(len(self._inflight))
        if job.future.cancelled():
            return
        if error is not None:
            status, message = error
            job.future.set_result({
                "status": status,
                "body": {"error": message, "fingerprint": job.fingerprint},
            })
            return
        payload["fingerprint"] = job.fingerprint
        payload["waiters"] = job.waiters
        job.future.set_result({"status": 200, "body": payload})

    # -- the real work ------------------------------------------------------

    def _pipeline_compile(self, request: CompileRequest) -> dict:
        """One request through the standard pipeline via a SweepItem.

        The executor runs inline in the calling worker thread
        (``jobs=1``) against the service-wide shared cache, so the
        response is produced by exactly the machinery ``repro map``
        uses — byte-identical artifacts, same validation.
        """
        item = SweepItem(
            kernel=request.kernel, unroll=request.unroll,
            strategy=request.strategy, backend=request.backend,
        )
        executor = SweepExecutor(jobs=1, cache=self.cache)
        outcome = executor.run([item], self._fabric(request))[0]
        if outcome.error is not None:
            raise outcome.error
        result = outcome.result
        return {
            "schema": RESPONSE_SCHEMA,
            "request": request.to_dict(),
            "key": result.cache_key,
            "cache_hit": bool(result.cache_hit),
            "backend": result.backend,
            "ii": result.report.ii,
            "cost": result.cost,
            "optimal": bool(result.optimal),
            "mapping": result.mapping.to_dict(),
        }

    def _pipeline_stream(self, request: StreamRequest) -> dict:
        from repro.streaming.envelopes import scenario_envelope

        envelope = scenario_envelope(
            request.scenario, seed=request.seed, inputs=request.inputs,
            window=request.window, strategies=(request.strategy,),
        )
        return {
            "schema": RESPONSE_SCHEMA,
            "request": request.to_dict(),
            "envelope": envelope,
        }

    # -- reporting ----------------------------------------------------------

    def cache_stats(self) -> dict:
        stats = dict(self.cache.stats_dict())
        stats["tier"] = ("tiered" if isinstance(self.cache, TieredCache)
                         else "memory")
        if self.shard:
            stats["shard"] = self.shard
        if self.cache_dir:
            stats["cache_dir"] = str(self.cache_dir)
        return stats

    def tenants_pending(self) -> dict[str, int]:
        """Pending (queued or compiling) responses per tagged tenant."""
        return dict(sorted(self._tenant_pending.items()))

    def health(self) -> dict:
        return {
            "status": "draining" if self._closing else "ok",
            "uptime_s": round(self.uptime_s(), 3),
            "queue_depth": self.queue_depth(),
            "in_flight": self.in_flight(),
            "workers": self.workers,
            "max_queue": self.max_queue,
            "tenant_quota": self.tenant_quota,
            "tenants_pending": self.tenants_pending(),
        }
