"""Tests for the compile-as-a-service daemon (``repro serve``).

Three layers, tested at the cheapest one that proves each contract:

* **service** — admission control, coalescing, priorities and graceful
  shutdown are exercised against :class:`CompileService` directly with
  a ``compile_fn`` test seam, so the assertions are exact (N identical
  submissions -> exactly one execution) and fast;
* **pipeline** — one real compile through the service must be
  byte-identical to a direct :func:`compile_kernel` call;
* **HTTP** — a real :class:`BackgroundServer` over real sockets:
  endpoint routing, error statuses, concurrent coalesced POSTs and the
  deterministic load-test driver.
"""

import asyncio
import json
import threading
import time

import pytest

from repro import obs
from repro.compile import compile_kernel
from repro.kernels.table1 import STANDALONE_KERNELS
from repro.serve import (
    BackgroundServer,
    CompileRequest,
    CompileService,
    LoadtestConfig,
    QueueFullError,
    RequestError,
    ServiceClosedError,
    StreamRequest,
    build_request_mix,
    canonical_json,
    loadtest,
)
from repro.serve.client import HTTPClient


def run(coro, timeout_s: float = 60.0):
    """Drive one async test body on a fresh loop with a hang guard."""
    return asyncio.run(asyncio.wait_for(coro, timeout_s))


def request_for(kernel="fir", **overrides) -> CompileRequest:
    body = {"kernel": kernel, **overrides}
    return CompileRequest.from_dict(body)


def distinct(i: int, **overrides) -> CompileRequest:
    """The ``i``-th of several requests that never coalesce."""
    return request_for(STANDALONE_KERNELS[i], **overrides)


class Seam:
    """A controllable stand-in for the pipeline compile.

    Records every executed request in order; optionally blocks each
    call on an event so tests can hold the workers busy while they
    shape the queue.
    """

    def __init__(self, gate: threading.Event | None = None):
        self.calls: list[CompileRequest] = []
        self.gate = gate
        self._lock = threading.Lock()

    def __call__(self, request) -> dict:
        with self._lock:
            self.calls.append(request)
        if self.gate is not None:
            assert self.gate.wait(30.0), "test gate never opened"
        return {"schema": 1, "request": request.to_dict(),
                "cache_hit": False}


# -- request validation -------------------------------------------------------


class TestRequestValidation:
    def test_defaults(self):
        req = CompileRequest.from_dict({"kernel": "fir"})
        assert req.strategy == "iced"
        assert req.backend == "engine"
        assert req.cgra == (6, 6) and req.island == (2, 2)
        assert req.priority == "batch"

    @pytest.mark.parametrize("body", [
        None,
        [],
        {},
        {"kernel": "no-such-kernel"},
        {"kernel": "fir", "strategy": "no-such-strategy"},
        {"kernel": "fir", "backend": "no-such-backend"},
        {"kernel": "fir", "priority": "urgent"},
        {"kernel": "fir", "unroll": 0},
        {"kernel": "fir", "unroll": "lots"},
        {"kernel": "fir", "cgra": "6by6"},
        {"kernel": "fir", "cgra": [6]},
        {"kernel": "fir", "cgra": "0x6"},
        {"kernel": "fir", "surprise": 1},
        # The brute-force mapper is a test oracle, not a backend.
        {"kernel": "fir", "backend": "exhaustive"},
        # Racing is `repro map --portfolio`, not a servable backend.
        {"kernel": "fir", "backend": "portfolio"},
        # Annealing is `"backend": "anneal"`, and no compile is seeded.
        {"kernel": "fir", "strategy": "anneal"},
        {"kernel": "fir", "seed": 0},
    ])
    def test_bad_compile_bodies_rejected(self, body):
        with pytest.raises(RequestError):
            CompileRequest.from_dict(body)

    def test_shape_spellings_agree(self):
        a = CompileRequest.from_dict({"kernel": "fir", "cgra": "4x4"})
        b = CompileRequest.from_dict({"kernel": "fir", "cgra": [4, 4]})
        assert a == b

    @pytest.mark.parametrize("body", [
        {},
        {"scenario": "no-such-scenario"},
        {"scenario": "bursty", "strategy": "nope"},
        {"scenario": "bursty", "inputs": 0},
        {"scenario": "bursty", "extra": True},
    ])
    def test_bad_stream_bodies_rejected(self, body):
        with pytest.raises(RequestError):
            StreamRequest.from_dict(body)


# -- fingerprints -------------------------------------------------------------


class TestFingerprint:
    def test_post_pass_inputs_split_the_engine_key(self, registry):
        """Strategies sharing an engine placement (and thus an engine
        cache key) must NOT share a coalescing fingerprint — the
        post-pass diverges."""
        service = CompileService(workers=1)
        gating = service.fingerprint(request_for(strategy="baseline+gating"))
        per_tile = service.fingerprint(request_for(strategy="per_tile_dvfs"))
        assert gating != per_tile

    def test_priority_is_not_identity(self, registry):
        service = CompileService(workers=1)
        batch = service.fingerprint(request_for(priority="batch"))
        interactive = service.fingerprint(request_for(priority="interactive"))
        assert batch == interactive

    def test_stream_fingerprint_ignores_priority(self, registry):
        service = CompileService(workers=1)
        a = StreamRequest.from_dict({"scenario": "bursty",
                                     "priority": "batch"})
        b = StreamRequest.from_dict({"scenario": "bursty",
                                     "priority": "interactive"})
        assert service.fingerprint(a) == service.fingerprint(b)
        c = StreamRequest.from_dict({"scenario": "bursty", "inputs": 60})
        assert service.fingerprint(c) != service.fingerprint(a)


# -- coalescing ---------------------------------------------------------------


class TestCoalescing:
    def test_identical_burst_executes_once(self, registry):
        async def body():
            gate = threading.Event()
            seam = Seam(gate)
            service = CompileService(workers=2, compile_fn=seam)
            await service.start()
            try:
                futures = [service.submit(request_for()) for _ in range(8)]
                gate.set()
                outcomes = await asyncio.gather(*futures)
            finally:
                await service.shutdown()
            assert len(seam.calls) == 1
            payloads = {canonical_json(o) for o in outcomes}
            assert len(payloads) == 1, "waiters diverged"
            (outcome,) = [json.loads(p) for p in payloads]
            assert outcome["status"] == 200
            assert outcome["body"]["waiters"] == 8
            counters = registry.counters()
            assert counters["serve.requests"] == 8
            assert counters["serve.coalesced"] == 7
            assert counters["serve.compiles"] == 1

        run(body())

    def test_distinct_requests_do_not_coalesce(self, registry):
        async def body():
            gate = threading.Event()
            seam = Seam(gate)
            service = CompileService(workers=2, compile_fn=seam)
            await service.start()
            try:
                futures = [service.submit(distinct(i)) for i in range(3)]
                gate.set()
                outcomes = await asyncio.gather(*futures)
            finally:
                await service.shutdown()
            assert len(seam.calls) == 3
            assert all(o["status"] == 200 for o in outcomes)
            assert registry.counters().get("serve.coalesced", 0) == 0

        run(body())

    def test_resolution_ends_the_coalescing_window(self, registry):
        async def body():
            seam = Seam()
            service = CompileService(workers=1, compile_fn=seam)
            await service.start()
            try:
                first = await service.submit(request_for())
                second = await service.submit(request_for())
            finally:
                await service.shutdown()
            # Same fingerprint, but the second arrived after the first
            # resolved: it must be a fresh job, not a stale payload.
            assert len(seam.calls) == 2
            assert (first["body"]["fingerprint"]
                    == second["body"]["fingerprint"])
            assert first["body"]["waiters"] == 1
            assert second["body"]["waiters"] == 1

        run(body())


# -- admission control --------------------------------------------------------


class TestAdmission:
    def test_queue_full_refuses_new_work(self, registry):
        async def body():
            gate = threading.Event()
            seam = Seam(gate)
            service = CompileService(workers=1, max_queue=2,
                                     retry_after_s=2.5, compile_fn=seam)
            await service.start()
            try:
                # Submitted back-to-back without yielding: the worker
                # never runs, so the heap holds exactly what we put in.
                futures = [service.submit(distinct(0)),
                           service.submit(distinct(1))]
                with pytest.raises(QueueFullError) as excinfo:
                    service.submit(distinct(2))
                assert excinfo.value.retry_after_s == 2.5
                # A coalesced join never needs a queue slot.
                joined = service.submit(distinct(0))
                gate.set()
                outcomes = await asyncio.gather(*futures, joined)
            finally:
                await service.shutdown()
            assert all(o["status"] == 200 for o in outcomes)
            counters = registry.counters()
            assert counters["serve.rejected"] == 1
            assert counters["serve.coalesced"] == 1

        run(body())

    def test_draining_service_refuses_everything(self, registry):
        async def body():
            service = CompileService(workers=1, compile_fn=Seam())
            await service.start()
            await service.shutdown()
            assert service.health()["status"] == "draining"
            with pytest.raises(ServiceClosedError):
                service.submit(request_for())

        run(body())

    def test_submit_before_start_is_an_error(self, registry):
        service = CompileService(workers=1, compile_fn=Seam())
        with pytest.raises(RuntimeError):
            service.submit(request_for())


# -- per-tenant quotas --------------------------------------------------------


class TestTenantQuota:
    def test_tenant_field_validation(self):
        req = CompileRequest.from_dict({"kernel": "fir",
                                        "tenant": "acme"})
        assert req.tenant == "acme"
        assert req.to_dict()["tenant"] == "acme"
        for bad in ["has space", "tab\there", 7, "x" * 129]:
            with pytest.raises(RequestError):
                CompileRequest.from_dict({"kernel": "fir", "tenant": bad})
            with pytest.raises(RequestError):
                StreamRequest.from_dict({"scenario": "bursty",
                                         "tenant": bad})

    def test_tenant_is_not_identity(self, registry):
        """Identical work coalesces across tenants: the tenant tag is
        quota accounting, not part of the computed result."""
        service = CompileService(workers=1)
        a = StreamRequest.from_dict({"scenario": "bursty",
                                     "tenant": "acme"})
        b = StreamRequest.from_dict({"scenario": "bursty",
                                     "tenant": "globex"})
        assert service.fingerprint(a) == service.fingerprint(b)

    def test_quota_refuses_the_flooding_tenant_only(self, registry):
        async def body():
            gate = threading.Event()
            seam = Seam(gate)
            service = CompileService(workers=1, max_queue=64,
                                     tenant_quota=2, retry_after_s=0.5,
                                     compile_fn=seam)
            await service.start()
            try:
                futures = [
                    service.submit(distinct(0, tenant="acme")),
                    service.submit(distinct(1, tenant="acme")),
                ]
                with pytest.raises(QueueFullError) as excinfo:
                    service.submit(distinct(2, tenant="acme"))
                assert excinfo.value.retry_after_s == 0.5
                # Other tenants and anonymous requests are unaffected.
                futures.append(
                    service.submit(distinct(3, tenant="globex")))
                futures.append(service.submit(distinct(4)))
                assert service.health()["tenants_pending"] == {
                    "acme": 2, "globex": 1,
                }
                gate.set()
                outcomes = await asyncio.gather(*futures)
            finally:
                await service.shutdown()
            assert all(o["status"] == 200 for o in outcomes)
            counters = registry.counters()
            assert counters["serve.tenant_rejected"] == 1
            assert counters.get("serve.rejected", 0) == 0
            # Resolution released every slot.
            assert service.tenants_pending() == {}

        run(body())

    def test_coalesced_joins_consume_quota(self, registry):
        async def body():
            gate = threading.Event()
            seam = Seam(gate)
            service = CompileService(workers=1, tenant_quota=2,
                                     compile_fn=seam)
            await service.start()
            try:
                first = service.submit(request_for(tenant="acme"))
                joined = service.submit(request_for(tenant="acme"))
                assert joined is first  # one job, two pending responses
                with pytest.raises(QueueFullError):
                    service.submit(request_for(tenant="acme"))
                gate.set()
                outcome = await first
            finally:
                await service.shutdown()
            assert outcome["status"] == 200
            assert outcome["body"]["waiters"] == 2
            assert service.tenants_pending() == {}

        run(body())

    def test_quota_releases_after_resolution(self, registry):
        async def body():
            seam = Seam()
            service = CompileService(workers=1, tenant_quota=1,
                                     compile_fn=seam)
            await service.start()
            try:
                first = await service.submit(distinct(0, tenant="acme"))
                second = await service.submit(distinct(1, tenant="acme"))
            finally:
                await service.shutdown()
            assert first["status"] == 200 and second["status"] == 200
            assert len(seam.calls) == 2

        run(body())

    def test_health_reports_quota(self, registry):
        service = CompileService(workers=1, tenant_quota=8)
        health = service.health()
        assert health["tenant_quota"] == 8
        assert health["tenants_pending"] == {}
        assert CompileService(workers=1).health()["tenant_quota"] is None


# -- priorities ---------------------------------------------------------------


class TestPriorities:
    def test_interactive_overtakes_batch(self, registry):
        async def body():
            gate = threading.Event()
            seam = Seam(gate)
            service = CompileService(workers=1, compile_fn=seam)
            await service.start()
            try:
                # Everything lands in the queue before the single
                # worker runs; dequeue order is then priority-first,
                # FIFO within a class.
                futures = [
                    service.submit(distinct(0, priority="batch")),
                    service.submit(distinct(1, priority="batch")),
                    service.submit(distinct(2, priority="interactive")),
                    service.submit(distinct(3, priority="interactive")),
                ]
                gate.set()
                await asyncio.gather(*futures)
            finally:
                await service.shutdown()
            assert [r.kernel for r in seam.calls] == [
                STANDALONE_KERNELS[i] for i in (2, 3, 0, 1)]

        run(body())


# -- graceful shutdown --------------------------------------------------------


class TestGracefulShutdown:
    def test_drain_resolves_every_admitted_request(self, registry):
        async def body():
            def slow(request):
                time.sleep(0.05)
                return {"schema": 1, "request": request.to_dict()}

            service = CompileService(workers=2, compile_fn=slow)
            await service.start()
            futures = [service.submit(distinct(i)) for i in range(6)]
            await service.shutdown()
            assert all(f.done() for f in futures), "drain dropped work"
            outcomes = [f.result() for f in futures]
            assert all(o["status"] == 200 for o in outcomes)
            assert registry.counters()["serve.compiles"] == 6

        run(body())

    def test_errors_resolve_not_raise(self, registry):
        async def body():
            def boom(request):
                raise RuntimeError("pipeline exploded")

            service = CompileService(workers=1, compile_fn=boom)
            await service.start()
            try:
                outcome = await service.submit(request_for())
            finally:
                await service.shutdown()
            assert outcome["status"] == 500
            assert "pipeline exploded" in outcome["body"]["error"]
            assert registry.counters()["serve.errors"] == 1

        run(body())


# -- pipeline byte-identity ---------------------------------------------------


class TestPipelineIdentity:
    def test_served_compile_matches_direct_compile(self, registry,
                                                   cgra66):
        """The daemon answers with exactly the artifact ``repro map``
        would produce: same cache key, same mapping, byte for byte."""
        async def body():
            service = CompileService(workers=1)
            await service.start()
            try:
                outcome = await service.submit(request_for("fir"))
            finally:
                await service.shutdown()
            return outcome

        outcome = run(body(), timeout_s=300.0)
        assert outcome["status"] == 200
        served = outcome["body"]
        direct = compile_kernel("fir", cgra66, "iced")
        assert served["key"] == direct.cache_key
        assert served["ii"] == direct.report.ii
        assert (canonical_json(served["mapping"])
                == canonical_json(direct.mapping.to_dict()))


# -- HTTP layer ---------------------------------------------------------------


def post_json(server_url: str, path: str, body):
    async def go():
        async with HTTPClient(server_url, timeout_s=120.0) as client:
            return await client.post(path, body)

    return run(go(), timeout_s=150.0)


class TestHTTP:
    def test_endpoints_and_error_statuses(self, registry):
        with BackgroundServer(workers=1, compile_fn=Seam()) as server:
            async def go():
                async with HTTPClient(server.url) as client:
                    health = await client.get("/healthz")
                    stats = await client.get("/cache/stats")
                    missing = await client.get("/no/such/route")
                    wrong_method = await client.get("/compile")
                    bad_kernel = await client.post(
                        "/compile", {"kernel": "no-such-kernel"})
                    # Annealing is a backend, and no compile is seeded.
                    anneal = await client.post(
                        "/compile", {"kernel": "fir", "strategy": "anneal"})
                    seeded = await client.post(
                        "/compile", {"kernel": "fir", "seed": 0})
                    ok = await client.post("/compile", {"kernel": "fir"})
                    metrics = await client.get("/metrics")
                    return (health, stats, metrics, missing,
                            wrong_method, bad_kernel, anneal, seeded, ok)

            (health, stats, metrics, missing, wrong_method, bad_kernel,
             anneal, seeded, ok) = run(go())
        assert health[0] == 200 and health[2]["status"] == "ok"
        assert stats[0] == 200 and stats[2]["tier"] == "memory"
        assert metrics[0] == 200
        assert "serve.requests" in metrics[2]
        assert missing[0] == 404
        assert wrong_method[0] == 405
        assert bad_kernel[0] == 400
        assert "unknown kernel" in bad_kernel[2]["error"]
        assert anneal[0] == 400
        assert "unknown strategy 'anneal'" in anneal[2]["error"]
        assert seeded[0] == 400
        assert "'seed'" in seeded[2]["error"]
        assert ok[0] == 200
        assert ok[2]["fingerprint"]

    def test_malformed_json_and_framing(self, registry):
        with BackgroundServer(workers=1, compile_fn=Seam()) as server:
            async def probe():
                reader, writer = await asyncio.open_connection(
                    server.server.host, server.server.port)
                writer.write(b"POST /compile HTTP/1.1\r\n"
                             b"Host: x\r\nContent-Length: 8\r\n\r\n"
                             b"not json")
                await writer.drain()
                status_line = await reader.readline()
                writer.close()
                return status_line

            status_line = run(probe())
            assert b"400" in status_line

            async def no_length():
                reader, writer = await asyncio.open_connection(
                    server.server.host, server.server.port)
                writer.write(b"POST /compile HTTP/1.1\r\nHost: x\r\n\r\n")
                await writer.drain()
                status_line = await reader.readline()
                writer.close()
                return status_line

            assert b"411" in run(no_length())

    def test_concurrent_identical_posts_coalesce(self, registry):
        gate = threading.Event()
        seam = Seam(gate)
        with BackgroundServer(workers=1, compile_fn=seam) as server:
            async def go():
                clients = [HTTPClient(server.url, timeout_s=60.0)
                           for _ in range(4)]
                for c in clients:
                    await c.connect()
                try:
                    tasks = [
                        asyncio.create_task(
                            c.post("/compile", {"kernel": "fir"}))
                        for c in clients
                    ]
                    # All four must be *submitted* (coalesced onto one
                    # job) before the compile is allowed to finish.
                    deadline = time.monotonic() + 10.0
                    registry_ = obs.metrics()
                    while (registry_.counter("serve.requests").value < 4
                           and time.monotonic() < deadline):
                        await asyncio.sleep(0.01)
                    gate.set()
                    return await asyncio.gather(*tasks)
                finally:
                    for c in clients:
                        await c.close()

            results = run(go())
        assert len(seam.calls) == 1
        statuses = {status for status, _, _ in results}
        assert statuses == {200}
        payloads = {canonical_json(payload) for _, _, payload in results}
        assert len(payloads) == 1, "coalesced waiters must match bytes"
        assert registry.counters()["serve.coalesced"] == 3

    def test_queue_full_gets_429_with_retry_after(self, registry):
        gate = threading.Event()
        seam = Seam(gate)
        try:
            with BackgroundServer(workers=1, max_queue=1,
                                  retry_after_s=3.0,
                                  compile_fn=seam) as server:
                async def go():
                    a = HTTPClient(server.url, timeout_s=60.0)
                    b = HTTPClient(server.url, timeout_s=60.0)
                    c = HTTPClient(server.url, timeout_s=60.0)
                    async with a, b, c:
                        first = asyncio.create_task(
                            a.post("/compile", {"kernel": "fir"}))
                        # Wait until the worker picked up the first job,
                        # then fill the single queue slot.
                        deadline = time.monotonic() + 10.0
                        while time.monotonic() < deadline:
                            _, _, health = await c.get("/healthz")
                            if (health["in_flight"] >= 1
                                    and health["queue_depth"] == 0):
                                break
                            await asyncio.sleep(0.01)
                        second = asyncio.create_task(
                            b.post("/compile", {"kernel": "mvt"}))
                        while time.monotonic() < deadline:
                            _, _, health = await c.get("/healthz")
                            if health["queue_depth"] >= 1:
                                break
                            await asyncio.sleep(0.01)
                        status, headers, payload = await c.post(
                            "/compile", {"kernel": "relu"})
                        gate.set()
                        await asyncio.gather(first, second)
                        return status, headers, payload

                status, headers, payload = run(go())
        finally:
            gate.set()
        assert status == 429
        assert headers.get("retry-after") == "3"
        assert "full" in payload["error"]

    def test_draining_server_answers_503(self, registry):
        server = BackgroundServer(workers=1, compile_fn=Seam()).start()
        try:
            # Flip the service into draining while the listener is
            # still up: this is the window a load balancer sees during
            # a rolling restart.
            server.service._closing = True
            status, _, health = run(self._get(server.url, "/healthz"))
            assert status == 503
            assert health["status"] == "draining"
            status, _, payload = post_json(server.url, "/compile",
                                           {"kernel": "fir"})
            assert status == 503
            assert "draining" in payload["error"]
            server.service._closing = False
        finally:
            server.stop()

    @staticmethod
    async def _get(url, path):
        async with HTTPClient(url) as client:
            return await client.get(path)


# -- the load-test driver -----------------------------------------------------


class TestLoadtest:
    def test_request_mix_is_deterministic(self):
        config = LoadtestConfig(url="http://127.0.0.1:1", requests=50,
                                seed=7, kernels=("fir", "mvt"))
        again = build_request_mix(config)
        assert build_request_mix(config) == again
        assert len(again) == 50
        different = build_request_mix(
            LoadtestConfig(url="http://127.0.0.1:1", requests=50,
                           seed=8, kernels=("fir", "mvt")))
        assert different != again
        priorities = {body["priority"] for _, body in again}
        assert priorities == {"interactive", "batch"}
        assert {path for path, _ in again} == {"/compile"}

    def test_stream_fraction_mixes_in_stream_requests(self):
        config = LoadtestConfig(url="http://127.0.0.1:1", requests=40,
                                seed=3, stream_fraction=0.5,
                                scenarios=("bursty",))
        mix = build_request_mix(config)
        assert {path for path, _ in mix} == {"/compile", "/stream"}

    def test_loadtest_accounting_against_live_server(self, registry):
        seam = Seam()
        with BackgroundServer(workers=2, compile_fn=seam,
                              stream_fn=seam) as server:
            report = loadtest(LoadtestConfig(
                url=server.url, requests=40, concurrency=8, seed=0,
                kernels=("fir", "mvt"), strategies=("iced", "baseline"),
            ))
        assert report["requests_sent"] == 40
        assert report["ok"] == 40
        assert report["status_counts"] == {"200": 40}
        # Conservation: every admitted request either executed a job
        # or coalesced onto one.
        assert report["jobs_executed"] + report["coalesced"] == 40
        assert report["jobs_executed"] == len(seam.calls)
        assert report["unique_fingerprints"] <= 2 * 2  # kernels x strats
        assert report["latency_ms"]["p50"] <= report["latency_ms"]["p99"]
        assert report["server"]["health"]["status"] == "ok"
