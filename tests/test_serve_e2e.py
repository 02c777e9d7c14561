"""End-to-end serving smoke: a real in-process server, 3 tenants of
Markov users over HTTP, a scraped ``/metrics`` exposition validated with
``repro.metrics.validate``, and exact request accounting on both sides
of the wire.
"""

import asyncio
import json

from repro.metrics import MetricsRegistry
from repro.metrics.validate import validate_exposition
from repro.serve.loadgen import (
    _HttpClient,
    default_app_and_scenario,
    run_load,
)

USERS_PER_TENANT = 3
EVENTS_PER_USER = 6


def run_serving_smoke():
    """One shared fixture-style run: serve, slam, scrape, stop."""
    registry = MetricsRegistry()
    app, spec, scenario = default_app_and_scenario(
        rows=2_000, users_per_tenant=USERS_PER_TENANT,
        events_per_user=EVENTS_PER_USER, seed=5, registry=registry,
    )

    async def main():
        await app.start()
        try:
            await app.prewarm()
            client = _HttpClient(app.host, app.port)

            status, _, health = await client.request("GET", "/healthz")
            assert status == 200 and "ok" in str(health)

            payload = await run_load(app.host, app.port, spec, scenario)

            status, _, metrics_text = await client.request(
                "GET", "/metrics")
            assert status == 200

            status, _, stats = await client.request("GET", "/stats")
            assert status == 200

            status, _, _ = await client.request("GET", "/no-such-route")
            assert status == 404

            status, _, body = await client.request(
                "POST", "/v1/interact", obj={"signal": "maxbins"})
            assert status == 400 and "required" in body["error"]

            await client.close()
            return payload, metrics_text, stats
        finally:
            await app.stop()

    return asyncio.run(main())


def test_serving_smoke_end_to_end():
    payload, metrics_text, stats = run_serving_smoke()

    # -- zero dropped-on-the-floor requests, client side ----------------
    totals = payload["totals"]
    issued = 3 * USERS_PER_TENANT * EVENTS_PER_USER
    assert totals["issued"] == issued
    assert totals["errors"] == 0
    assert totals["unaccounted"] == 0
    assert totals["served"] + totals["rejected"] == issued
    assert totals["served"] > 0

    # -- and server side: the registry agrees exactly -------------------
    server = stats["totals"]
    # +1: the 400 (missing value) request never reaches admission, but
    # the issued interactions all do.
    assert server["requests"] == issued
    assert server["unaccounted"] == 0
    assert server["served"] == totals["served"]
    assert server["rejected_total"] == totals["rejected"]
    assert server["errors"] == 0
    for tenant in ("gold", "silver", "bronze"):
        body = payload["tenants"][tenant]
        mirror = server["tenants"][tenant]
        assert mirror["requests"] == body["issued"]
        assert mirror["served"] == body["served"]
        assert body["served"] > 0  # admission throttles, never starves

    # -- the scraped exposition is structurally valid and complete ------
    problems = validate_exposition(metrics_text, require=[
        "repro_serve_requests_total",
        "repro_serve_admitted_total",
        "repro_serve_served_total",
        "repro_serve_request_seconds",
        "repro_serve_queue_wait_seconds",
        "repro_serve_responses_total",
        "repro_session_runs_total",
        "repro_session_run_seconds",
        "repro_cache_hits_total",
        "repro_cache_misses_total",
    ])
    assert not problems, "\n".join(problems)

    # -- per-tenant SLO families are present in the exposition ----------
    for tenant in ("gold", "silver", "bronze"):
        needle = 'tenant="{}"'.format(tenant)
        assert ('repro_serve_request_seconds_count{' in metrics_text
                or needle in metrics_text)
        assert any(
            line.startswith("repro_serve_requests_total") and needle in line
            for line in metrics_text.splitlines()
        ), "no per-tenant requests counter for {}".format(tenant)

    # -- per-tenant p50/p95/p99 recorded for served events --------------
    for tenant in ("gold", "silver", "bronze"):
        body = payload["tenants"][tenant]
        if body["served"]:
            latency = body["latency"]
            assert latency["events"] == body["served"]
            assert 0 < latency["p50_s"] <= latency["p95_s"] \
                <= latency["p99_s"] <= latency["max_s"]


def test_drill_endpoint_injects_latency():
    """The /v1/drill endpoint slows one tenant; others stay fast."""
    registry = MetricsRegistry()
    app, spec, scenario = default_app_and_scenario(
        rows=1_000, users_per_tenant=1, events_per_user=2, seed=3,
        registry=registry,
    )

    async def main():
        await app.start()
        try:
            await app.prewarm()
            client = _HttpClient(app.host, app.port)
            status, _, body = await client.request(
                "POST", "/v1/drill",
                obj={"tenant": "gold", "seconds": 0.05})
            assert status == 200 and body["seconds"] == 0.05

            status, _, slow = await client.request(
                "POST", "/v1/interact",
                obj={"signal": "maxbins", "value": 30},
                headers=[("X-Tenant", "gold")])
            assert status == 200
            assert slow["server_seconds"] >= 0.05

            status, _, fast = await client.request(
                "POST", "/v1/interact",
                obj={"signal": "maxbins", "value": 31},
                headers=[("X-Tenant", "silver")])
            assert status == 200
            assert fast["server_seconds"] < slow["server_seconds"]

            assert registry.counter(
                "serve.injected_delays", tenant="gold").value == 1
            await client.close()
        finally:
            await app.stop()

    asyncio.run(main())


def test_rejections_carry_retry_after():
    """A burst into the bronze tier must produce 429s whose Retry-After
    header and JSON body agree with the admission policy."""
    registry = MetricsRegistry()
    app, spec, scenario = default_app_and_scenario(
        rows=1_000, registry=registry,
    )

    async def main():
        await app.start()
        try:
            await app.prewarm()
            client = _HttpClient(app.host, app.port)
            rejected = []
            for index in range(12):  # bronze: rate=20, burst=4
                status, headers, body = await client.request(
                    "POST", "/v1/interact",
                    obj={"signal": "maxbins", "value": 20 + index},
                    headers=[("X-Tenant", "bronze")])
                if status == 429:
                    rejected.append((headers, body))
            assert rejected, "burst must hit the bronze rate limit"
            for headers, body in rejected:
                assert int(headers["retry-after"]) >= 1
                assert body["reason"] in ("rate", "queue_full", "timeout")
                assert body["retry_after_seconds"] > 0
            await client.close()
        finally:
            await app.stop()

    asyncio.run(main())


def test_malformed_and_oversized_content_length_are_refused():
    """A Content-Length that is not a number, negative, or above the
    body cap is answered (400 / 413) without reading a body, counted in
    serve.responses, and leaves the admission identity exact."""
    from repro.serve.app import MAX_BODY_BYTES

    registry = MetricsRegistry()
    app, spec, scenario = default_app_and_scenario(
        rows=1_000, registry=registry,
    )

    async def refused(content_length):
        reader, writer = await asyncio.open_connection(app.host, app.port)
        writer.write(
            "POST /v1/interact HTTP/1.1\r\nHost: x\r\n"
            "Content-Length: {}\r\n\r\n".format(content_length)
            .encode("latin-1"))
        await writer.drain()
        # read to EOF: the server must answer and then close
        data = await asyncio.wait_for(reader.read(), timeout=5)
        writer.close()
        await writer.wait_closed()
        head, _, body = data.partition(b"\r\n\r\n")
        assert b"Connection: close" in head
        return int(head.split()[1]), json.loads(body)

    async def main():
        await app.start()
        try:
            await app.prewarm()
            for bad in ("abc", "-5", "12x"):
                status, body = await refused(bad)
                assert status == 400 and "Content-Length" in body["error"]
            status, body = await refused(MAX_BODY_BYTES + 1)
            assert status == 413 and str(MAX_BODY_BYTES) in body["error"]

            client = _HttpClient(app.host, app.port)
            status, _, _ = await client.request(
                "POST", "/v1/interact",
                obj={"signal": "maxbins", "value": 25},
                headers=[("X-Tenant", "gold")])
            assert status == 200
            await client.close()
        finally:
            await app.stop()

    asyncio.run(main())
    assert registry.counter("serve.responses", status="400").value == 3
    assert registry.counter("serve.responses", status="413").value == 1
    totals = app.totals()
    assert totals["requests"] == 1      # refusals never reach admission
    assert totals["requests"] \
        == totals["admitted"] + totals["rejected_total"]
    assert totals["served"] == 1 and totals["unaccounted"] == 0
