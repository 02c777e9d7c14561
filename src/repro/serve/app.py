"""The multi-tenant asyncio serving front end.

A zero-dependency HTTP/1.1 server (stdlib ``asyncio.start_server``; no
framework) that owns a :class:`~repro.serve.pool.SessionPool` over
shared Databases and puts per-tenant admission control
(:mod:`repro.serve.admission`) in front of every interaction.  Session
work is synchronous, so admitted requests run on a thread-pool executor
while the event loop keeps accepting, queueing, and rejecting.

Routes::

    GET  /healthz      liveness
    GET  /metrics      Prometheus exposition of the metrics registry
    GET  /stats        JSON: admission state, pool state, exact totals
    POST /v1/interact  {"dashboard": d, "signal": s, "value": v}
                       tenant from the X-Tenant header (or body)
    POST /v1/drill     {"tenant": t, "seconds": x} latency injection

Admission outcomes map onto HTTP exactly: admitted requests answer 200
(or 400/500 from execution), rejections answer 429 with a computed
``Retry-After`` header and a JSON body naming the reason
(``rate`` | ``queue_full`` | ``timeout``).  The counter identity
``serve.requests == serve.admitted + serve.rejected`` and
``serve.admitted == serve.served + serve.errors`` hold exactly; the
load harness (:mod:`repro.serve.loadgen`) asserts both.
"""

import asyncio
import json
import time
from concurrent.futures import ThreadPoolExecutor

from repro.metrics import get_registry, render_prometheus
from repro.serve.admission import (
    AdmissionController,
    AdmissionError,
    TenantPolicy,
)
from repro.serve.latency import LatencyInjector
from repro.serve.pool import PoolError, SessionPool

#: HTTP reason phrases for the statuses the app emits
_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
}

#: largest request body read off a socket; interaction bodies are a few
#: hundred bytes, anything above this is answered 413 unread
MAX_BODY_BYTES = 1 << 20

DEFAULT_TENANT = "default"


class ServingApp:
    """One serving process: admission + latency drills + session pool.

    ``dashboards`` maps name -> :class:`~repro.serve.pool.DashboardConfig`;
    ``policies`` maps tenant -> :class:`TenantPolicy` (others get
    ``default_policy``).  ``registry`` defaults to the process-wide
    metrics registry, so ``/metrics`` is the same plane every session
    already reports to.
    """

    def __init__(self, dashboards, policies=None, default_policy=None,
                 registry=None, host="127.0.0.1", port=0,
                 executor_workers=8, latency=None,
                 max_sessions_per_tenant=None, pool_kwargs=None):
        self.registry = registry if registry is not None else get_registry()
        self.host = host
        self.port = port
        self.default_policy = default_policy or TenantPolicy()
        self.admission = AdmissionController(
            policies=policies, default_policy=self.default_policy,
            metrics=self.registry,
        )
        self.latency = latency or LatencyInjector(metrics=self.registry)
        self.latency.metrics = self.registry
        if max_sessions_per_tenant is None:
            caps = [self.default_policy.max_concurrency]
            caps.extend(p.max_concurrency for p in (policies or {}).values())
            max_sessions_per_tenant = max(caps)
        self.executor = ThreadPoolExecutor(
            max_workers=executor_workers, thread_name_prefix="repro-serve"
        )
        self.pool = SessionPool(
            dashboards, self.executor, registry=self.registry,
            max_sessions_per_tenant=max_sessions_per_tenant,
            **(pool_kwargs or {}),
        )
        self.default_dashboard = self.pool.dashboard_names()[0]
        self._server = None
        self._connections = set()

    # -- lifecycle ---------------------------------------------------------

    async def start(self):
        """Bind and start accepting; resolves ``self.port`` when 0."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    @property
    def url(self):
        return "http://{}:{}".format(self.host, self.port)

    async def stop(self):
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Reap live connection handlers so no task outlives the app (a
        # cancelled orphan would log noise at loop teardown).
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections,
                                 return_exceptions=True)
        self.executor.shutdown(wait=True, cancel_futures=True)

    async def prewarm(self, dashboards=None):
        """Load shared backends (and caches) before traffic arrives."""
        for name in dashboards or self.pool.dashboard_names():
            await self.pool._shared(name)

    # -- HTTP plumbing ------------------------------------------------------

    async def _handle_connection(self, reader, writer):
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            while True:
                request_line = await reader.readline()
                if not request_line or request_line.strip() == b"":
                    break
                try:
                    method, path, version = (
                        request_line.decode("latin-1").split()
                    )
                except ValueError:
                    break
                headers = {}
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    key, _, value = line.decode("latin-1").partition(":")
                    headers[key.strip().lower()] = value.strip()
                try:
                    length = int(headers.get("content-length") or 0)
                except ValueError:
                    length = -1
                if length < 0:
                    response = self._json(
                        400, {"error": "malformed Content-Length"})
                elif length > MAX_BODY_BYTES:
                    response = self._json(413, {
                        "error": "body exceeds {} bytes".format(
                            MAX_BODY_BYTES)})
                else:
                    body = await reader.readexactly(length) if length \
                        else b""
                    response = await self._route(
                        method, path.split("?", 1)[0], headers, body
                    )
                status, payload, content_type, extra = response
                # A refused body stays unread, so the stream has lost its
                # framing: answer, then close.
                keep_alive = (
                    0 <= length <= MAX_BODY_BYTES
                    and version == "HTTP/1.1"
                    and headers.get("connection", "").lower() != "close"
                )
                head = [
                    "HTTP/1.1 {} {}".format(
                        status, _REASONS.get(status, "Status")),
                    "Content-Type: {}".format(content_type),
                    "Content-Length: {}".format(len(payload)),
                    "Connection: {}".format(
                        "keep-alive" if keep_alive else "close"),
                ]
                head.extend(
                    "{}: {}".format(key, value) for key, value in extra
                )
                writer.write(
                    ("\r\n".join(head) + "\r\n\r\n").encode("latin-1")
                )
                writer.write(payload)
                await writer.drain()
                self.registry.inc("serve.responses", status=str(status))
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    @staticmethod
    def _json(status, obj, extra=()):
        return (status, (json.dumps(obj) + "\n").encode("utf-8"),
                "application/json", tuple(extra))

    async def _route(self, method, path, headers, body):
        try:
            if path == "/healthz":
                return 200, b"ok\n", "text/plain", ()
            if path == "/metrics":
                text = render_prometheus(self.registry)
                return (200, text.encode("utf-8"),
                        "text/plain; version=0.0.4", ())
            if path == "/stats":
                return self._json(200, self.stats())
            if path == "/v1/interact":
                if method != "POST":
                    return self._json(405, {"error": "POST required"})
                return await self._interact(headers, body)
            if path == "/v1/drill":
                if method != "POST":
                    return self._json(405, {"error": "POST required"})
                return self._drill(body)
            return self._json(404, {"error": "no route {}".format(path)})
        except Exception as exc:  # last-resort 500, connection survives
            self.registry.inc("serve.errors", kind="internal")
            return self._json(500, {"error": repr(exc)})

    # -- request handlers ---------------------------------------------------

    async def _interact(self, headers, body):
        try:
            payload = json.loads(body.decode("utf-8") or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError):
            return self._json(400, {"error": "body must be JSON"})
        tenant = (headers.get("x-tenant") or payload.get("tenant")
                  or DEFAULT_TENANT)
        dashboard = payload.get("dashboard") or self.default_dashboard
        signal = payload.get("signal")
        if not signal or "value" not in payload:
            return self._json(
                400, {"error": "signal and value are required"})
        value = payload["value"]

        start = time.perf_counter()
        try:
            admission = await self.admission.admit(tenant)
        except AdmissionError as rejected:
            return self._json(
                429,
                {
                    "error": "rejected",
                    "reason": rejected.reason,
                    "tenant": tenant,
                    "retry_after_seconds": rejected.retry_after_seconds,
                },
                extra=[("Retry-After", str(rejected.retry_after_header))],
            )

        loop = asyncio.get_running_loop()
        try:
            async with admission:
                await self.latency.apply(tenant)
                session = await self.pool.acquire(dashboard, tenant)
                try:
                    result = await loop.run_in_executor(
                        self.executor, session.interact, signal, value
                    )
                finally:
                    await self.pool.release(dashboard, tenant, session)
        except PoolError as exc:
            self.registry.inc("serve.errors", kind="pool", tenant=tenant)
            return self._json(404, {"error": str(exc)})
        except Exception as exc:
            # SessionError (unknown signal, ...) and execution failures:
            # admitted but not served.
            self.registry.inc("serve.errors", kind="execute", tenant=tenant)
            return self._json(400, {"error": repr(exc)})

        elapsed = time.perf_counter() - start
        self.registry.inc("serve.served", tenant=tenant)
        self.registry.observe(
            "serve.request_seconds", elapsed,
            tenant=tenant, dashboard=dashboard, event=signal,
        )
        rows = sum(len(r) for r in result.datasets.values())
        return self._json(200, {
            "tenant": tenant,
            "dashboard": dashboard,
            "signal": signal,
            "rows": rows,
            "server_seconds": elapsed,
            "modeled_seconds": result.breakdown.total,
            "cache_hits": result.cache_hits,
            "cache_misses": result.cache_misses,
            "queue_wait_seconds": admission.queue_wait_seconds,
        })

    def _drill(self, body):
        try:
            payload = json.loads(body.decode("utf-8") or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError):
            return self._json(400, {"error": "body must be JSON"})
        tenant = payload.get("tenant") or DEFAULT_TENANT
        seconds = float(payload.get("seconds") or 0.0)
        self.latency.set_delay(tenant, seconds)
        return self._json(200, {"tenant": tenant, "seconds": seconds})

    # -- introspection ------------------------------------------------------

    def totals(self):
        """Exact admission accounting from the metrics registry: overall
        and per-tenant requests/admitted/rejected(by reason)/served."""
        families = self.registry.families()

        def children(name):
            family = families.get(name)
            return family.children.values() if family else ()

        out = {"requests": 0, "admitted": 0, "served": 0, "errors": 0,
               "rejected": {}, "tenants": {}}

        def tenant_bucket(labels):
            tenant = labels.get("tenant", "?")
            return out["tenants"].setdefault(
                tenant, {"requests": 0, "admitted": 0, "served": 0,
                         "errors": 0, "rejected": {}})

        for name, key in (("serve.requests", "requests"),
                          ("serve.admitted", "admitted"),
                          ("serve.served", "served")):
            for child in children(name):
                out[key] += child.value
                tenant_bucket(child.labels)[key] += child.value
        for child in children("serve.errors"):
            if "tenant" not in child.labels:
                continue
            out["errors"] += child.value
            tenant_bucket(child.labels)["errors"] += child.value
        for child in children("serve.rejected"):
            reason = child.labels.get("reason", "?")
            out["rejected"][reason] = (
                out["rejected"].get(reason, 0) + child.value)
            bucket = tenant_bucket(child.labels)["rejected"]
            bucket[reason] = bucket.get(reason, 0) + child.value
        out["rejected_total"] = sum(out["rejected"].values())
        out["unaccounted"] = (
            out["requests"] - out["admitted"] - out["rejected_total"])
        return out

    def stats(self):
        return {
            "admission": self.admission.stats(),
            "pool": self.pool.stats(),
            "totals": self.totals(),
        }
