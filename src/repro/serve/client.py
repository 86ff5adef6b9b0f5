"""HTTP client + load-test driver for ``repro serve``.

:class:`HTTPClient` is the mirror image of the server's HTTP layer: a
single keep-alive connection speaking ``Content-Length``-framed JSON.
:func:`run_loadtest` replays a deterministic request mix — kernels and
strategies drawn from the Table I suite and the backend registry's
strategy vocabulary, scenarios from the traffic-scenario registry —
across N concurrent connections and aggregates a canonical-JSON report
(throughput, p50/p99 latency, coalesce rate, cache-hit rate) whose
p99 and coalesce rate CI gates against the ``serve`` section of the
committed ``BENCH.json`` baseline (``benchmarks/smoke.py serve``).

Coalescing is invisible to an individual waiter by design (every
waiter receives the *same* payload bytes), so the coalesce rate is
measured authoritatively from the server's own ``serve.coalesced``
counter, scraped from ``GET /metrics`` before and after the run.
"""

from __future__ import annotations

import asyncio
import json
import math
import random
import time
from dataclasses import dataclass, field

from repro.kernels.suite import kernel_names
from repro.mapper.backends import EXPERIMENT_STRATEGIES
from repro.serve.service import canonical_json

#: Report schema version.
REPORT_SCHEMA = 1

#: Default per-request timeout (a cold anneal compile can be slow).
DEFAULT_TIMEOUT_S = 300.0


class LoadtestError(RuntimeError):
    """The load test could not run to completion."""


def _parse_url(url: str) -> tuple[str, int]:
    if url.startswith("http://"):
        url = url[len("http://"):]
    elif "://" in url:
        raise LoadtestError(f"only http:// URLs are supported: {url!r}")
    host, _, rest = url.partition("/")
    host, _, port = host.partition(":")
    try:
        return host or "127.0.0.1", int(port or 80)
    except ValueError:
        raise LoadtestError(f"bad port in URL {url!r}") from None


class HTTPClient:
    """One keep-alive HTTP/1.1 connection to a ``repro serve`` daemon."""

    def __init__(self, url: str, timeout_s: float = DEFAULT_TIMEOUT_S):
        self.host, self.port = _parse_url(url)
        self.timeout_s = timeout_s
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def __aenter__(self) -> "HTTPClient":
        await self.connect()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def close(self) -> None:
        if self._writer is not None:
            try:
                self._writer.close()
                await self._writer.wait_closed()
            except (ConnectionResetError, OSError):
                pass
            self._reader = self._writer = None

    async def request(self, method: str, path: str,
                      body: dict | None = None) -> tuple[int, dict, dict]:
        """One round trip; returns ``(status, headers, payload)``.

        Reconnects transparently if the server closed the previous
        keep-alive exchange (e.g. after answering with
        ``Connection: close``).
        """
        if self._writer is None:
            await self.connect()
        try:
            return await asyncio.wait_for(
                self._round_trip(method, path, body), self.timeout_s
            )
        except (asyncio.IncompleteReadError, ConnectionResetError,
                BrokenPipeError):
            # One retry on a fresh connection: the server may have
            # dropped the idle keep-alive socket between requests.
            await self.close()
            await self.connect()
            return await asyncio.wait_for(
                self._round_trip(method, path, body), self.timeout_s
            )

    async def _round_trip(self, method: str, path: str,
                          body: dict | None) -> tuple[int, dict, dict]:
        encoded = (canonical_json(body).encode("utf-8")
                   if body is not None else b"")
        head = [
            f"{method} {path} HTTP/1.1",
            f"Host: {self.host}:{self.port}",
            "Accept: application/json",
        ]
        if body is not None:
            head.append("Content-Type: application/json")
        head.append(f"Content-Length: {len(encoded)}")
        self._writer.write(
            ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + encoded
        )
        await self._writer.drain()
        status_line = await self._reader.readline()
        if not status_line:
            raise asyncio.IncompleteReadError(b"", None)
        parts = status_line.decode("latin-1").split(" ", 2)
        if len(parts) < 2:
            raise LoadtestError(f"bad status line {status_line!r}")
        status = int(parts[1])
        headers: dict[str, str] = {}
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", 0))
        raw = await self._reader.readexactly(length) if length else b""
        payload = json.loads(raw.decode("utf-8")) if raw else {}
        if headers.get("connection", "").lower() == "close":
            await self.close()
        return status, headers, payload

    async def get(self, path: str) -> tuple[int, dict, dict]:
        return await self.request("GET", path)

    async def post(self, path: str, body: dict) -> tuple[int, dict, dict]:
        return await self.request("POST", path, body)


# -- request mix -------------------------------------------------------------


@dataclass(frozen=True)
class LoadtestConfig:
    """A deterministic load-test campaign (same seed -> same mix)."""

    url: str
    requests: int = 1000
    concurrency: int = 50
    seed: int = 0
    kernels: tuple[str, ...] = ()
    strategies: tuple[str, ...] = EXPERIMENT_STRATEGIES
    backends: tuple[str, ...] = ("engine",)
    stream_fraction: float = 0.0
    scenarios: tuple[str, ...] = ()
    interactive_fraction: float = 0.25
    timeout_s: float = DEFAULT_TIMEOUT_S

    def to_dict(self) -> dict:
        return {
            "url": self.url, "requests": self.requests,
            "concurrency": self.concurrency, "seed": self.seed,
            "kernels": list(self.kernels or kernel_names()),
            "strategies": list(self.strategies),
            "backends": list(self.backends),
            "stream_fraction": self.stream_fraction,
            "scenarios": list(self.scenarios),
            "interactive_fraction": self.interactive_fraction,
        }


def build_request_mix(config: LoadtestConfig) -> list[tuple[str, dict]]:
    """The campaign's ``(path, body)`` list, reproducible by seed."""
    rng = random.Random(config.seed)
    kernels = tuple(config.kernels) or tuple(kernel_names())
    scenarios = tuple(config.scenarios)
    if config.stream_fraction > 0 and not scenarios:
        from repro.streaming.scenarios import scenario_names

        scenarios = tuple(scenario_names())
    mix: list[tuple[str, dict]] = []
    for _ in range(config.requests):
        priority = ("interactive"
                    if rng.random() < config.interactive_fraction
                    else "batch")
        if scenarios and rng.random() < config.stream_fraction:
            mix.append(("/stream", {
                "scenario": rng.choice(scenarios),
                "strategy": "iced",
                "inputs": rng.choice((60, 120)),
                "window": 10,
                "priority": priority,
            }))
        else:
            mix.append(("/compile", {
                "kernel": rng.choice(kernels),
                "strategy": rng.choice(tuple(config.strategies)),
                "backend": rng.choice(tuple(config.backends)),
                "priority": priority,
            }))
    return mix


# -- the driver --------------------------------------------------------------


def _percentile(sorted_values: list[float], q: float) -> float:
    """Weighted nearest-rank percentile (matches the envelope math)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


@dataclass
class _Tally:
    latencies_ms: list[float] = field(default_factory=list)
    status_counts: dict[str, int] = field(default_factory=dict)
    fingerprints: set = field(default_factory=set)
    cache_hits: int = 0
    ok: int = 0

    def record(self, status: int, latency_ms: float, payload: dict) -> None:
        self.latencies_ms.append(latency_ms)
        key = str(status)
        self.status_counts[key] = self.status_counts.get(key, 0) + 1
        if status == 200:
            self.ok += 1
            if payload.get("fingerprint"):
                self.fingerprints.add(payload["fingerprint"])
            if payload.get("cache_hit"):
                self.cache_hits += 1


def _counter_value(snapshot: dict, name: str) -> float:
    entry = snapshot.get(name) or {}
    return float(entry.get("value", 0.0))


async def run_loadtest(config: LoadtestConfig) -> dict:
    """Replay the campaign against a live daemon; returns the report."""
    mix = build_request_mix(config)
    queue: asyncio.Queue = asyncio.Queue()
    for spec in mix:
        queue.put_nowait(spec)
    tally = _Tally()

    probe = HTTPClient(config.url, config.timeout_s)
    async with probe:
        status, _, health = await probe.get("/healthz")
        if status != 200:
            raise LoadtestError(
                f"server at {config.url} is not healthy: {health}"
            )
        _, _, before = await probe.get("/metrics")

        async def worker() -> None:
            async with HTTPClient(config.url, config.timeout_s) as client:
                while True:
                    try:
                        path, body = queue.get_nowait()
                    except asyncio.QueueEmpty:
                        return
                    t0 = time.perf_counter()
                    status, _, payload = await client.post(path, body)
                    latency_ms = (time.perf_counter() - t0) * 1e3
                    tally.record(status, latency_ms, payload)

        started = time.perf_counter()
        workers = [asyncio.create_task(worker())
                   for _ in range(max(1, config.concurrency))]
        await asyncio.gather(*workers)
        duration_s = time.perf_counter() - started

        _, _, after = await probe.get("/metrics")
        _, _, cache_stats = await probe.get("/cache/stats")

    coalesced = (_counter_value(after, "serve.coalesced")
                 - _counter_value(before, "serve.coalesced"))
    compiles = (_counter_value(after, "serve.compiles")
                - _counter_value(before, "serve.compiles"))
    rejected = (_counter_value(after, "serve.rejected")
                - _counter_value(before, "serve.rejected"))
    latencies = sorted(tally.latencies_ms)
    sent = len(tally.latencies_ms)
    return {
        "schema": REPORT_SCHEMA,
        "config": config.to_dict(),
        "requests_sent": sent,
        "duration_s": round(duration_s, 4),
        "throughput_rps": round(sent / duration_s, 2) if duration_s else 0.0,
        "latency_ms": {
            "mean": round(sum(latencies) / sent, 3) if sent else 0.0,
            "p50": round(_percentile(latencies, 0.50), 3),
            "p99": round(_percentile(latencies, 0.99), 3),
            "max": round(latencies[-1], 3) if latencies else 0.0,
        },
        "status_counts": dict(sorted(tally.status_counts.items())),
        "ok": tally.ok,
        "rejected_429": int(rejected),
        "coalesced": int(coalesced),
        "coalesce_rate": round(coalesced / sent, 4) if sent else 0.0,
        "jobs_executed": int(compiles),
        "cache_hit_rate": (round(tally.cache_hits / tally.ok, 4)
                           if tally.ok else 0.0),
        "unique_fingerprints": len(tally.fingerprints),
        "server": {
            "health": health,
            "cache": cache_stats,
        },
    }


def loadtest(config: LoadtestConfig) -> dict:
    """Synchronous wrapper: run the campaign on a fresh event loop."""
    return asyncio.run(run_loadtest(config))


def write_report(report: dict, path: str) -> None:
    """Canonical-JSON report file (sorted keys, trailing newline)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(report, sort_keys=True, indent=2))
        fh.write("\n")
