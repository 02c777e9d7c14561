"""Markov-user load generator for the serving layer.

Builds hundreds of scripted users from the same Markov shape the
prefetcher models (:mod:`repro.core.prefetch`): a user keeps dragging
the control they are on (in the direction they were moving) with high
probability, occasionally flips direction, and occasionally switches to
another control — the two dominant demo behaviours.  Each user is a
deterministic :class:`repro.interact.InteractionTrace` derived from the
dashboard spec's signal binds and a per-user seed, so a soak run replays
identically: same seed ⇒ same users ⇒ same event sequence.

The driver speaks real HTTP over ``asyncio.open_connection`` (keep-alive,
one connection per user) against a :class:`repro.serve.app.ServingApp`,
counts every request into exactly one of served / rejected(reason) /
error, and summarizes per-tenant and per-event p50/p95/p99 with the same
:func:`repro.metrics.latency_summary` the metrics plane uses.

CLI (``--out`` also writes the report as JSON)::

    python -m repro.serve.loadgen --rows 20000 --users 6 --events 12
"""

import asyncio
import json
import random
import time
from dataclasses import dataclass, field

from repro.interact import InteractionTrace
from repro.metrics import latency_summary

#: Markov transition knobs (probabilities; the rest continues straight)
P_SWITCH_SIGNAL = 0.25
P_FLIP_DIRECTION = 0.2


# -- deterministic user synthesis ------------------------------------------


def _bound_signals(spec):
    """(name, bind) for every signal a scripted user can drive."""
    out = []
    for signal in spec.get("signals", ()):
        bind = signal.get("bind")
        if not bind:
            continue
        if bind.get("input") in ("range", "select", "radio"):
            out.append((signal["name"], bind, signal.get("value")))
    if not out:
        raise ValueError("spec has no bound signals to drive")
    return out


def markov_trace(spec, events, rng, name="user"):
    """One deterministic scripted user over ``spec``'s bound signals."""
    signals = _bound_signals(spec)
    trace = InteractionTrace(name=name)
    index = rng.randrange(len(signals))
    directions = {}
    values = {sig: initial for sig, _, initial in signals}
    for _ in range(events):
        if len(signals) > 1 and rng.random() < P_SWITCH_SIGNAL:
            index = rng.randrange(len(signals))
        sig, bind, _ = signals[index]
        kind = bind.get("input")
        if kind == "range":
            lo = bind.get("min", 0)
            hi = bind.get("max", 100)
            step = bind.get("step", 1)
            direction = directions.get(sig) or rng.choice((-1, 1))
            if rng.random() < P_FLIP_DIRECTION:
                direction = -direction
            current = values.get(sig)
            if not isinstance(current, (int, float)):
                current = lo
            value = current + direction * step
            if value > hi:
                value, direction = hi - step, -1
            if value < lo:
                value, direction = lo + step, 1
            value = min(max(value, lo), hi)
            directions[sig] = direction
            values[sig] = value
        else:  # select / radio
            options = list(bind.get("options", ()))
            current = values.get(sig)
            others = [o for o in options if o != current] or options
            value = others[rng.randrange(len(others))]
            values[sig] = value
        trace.add(sig, value, think_seconds=0.0)
    return trace


def build_user_traces(spec, tenants, users_per_tenant, events_per_user,
                      seed):
    """{tenant: [InteractionTrace, ...]} — stable under one seed.

    The per-user RNG seeds by (tenant index, user index) arithmetic, not
    ``hash()``, so the plan is identical across processes and runs.
    """
    out = {}
    for tenant_index, tenant in enumerate(sorted(tenants)):
        traces = []
        for user_index in range(users_per_tenant):
            rng = random.Random(
                (seed * 1_000_003 + tenant_index) * 10_007 + user_index
            )
            traces.append(markov_trace(
                spec, events_per_user, rng,
                name="{}/u{}".format(tenant, user_index),
            ))
        out[tenant] = traces
    return out


# -- minimal asyncio HTTP client -------------------------------------------


class _HttpClient:
    """Keep-alive HTTP/1.1 client over one asyncio connection."""

    def __init__(self, host, port):
        self.host = host
        self.port = port
        self._reader = None
        self._writer = None

    async def _connect(self):
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def close(self):
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._reader = self._writer = None

    async def request(self, method, path, obj=None, headers=()):
        """One request; reconnects once on a dropped keep-alive socket."""
        body = b"" if obj is None else json.dumps(obj).encode("utf-8")
        for attempt in (0, 1):
            if self._writer is None:
                await self._connect()
            try:
                return await self._round_trip(method, path, body, headers)
            except (ConnectionError, asyncio.IncompleteReadError, OSError):
                await self.close()
                if attempt:
                    raise
        raise ConnectionError("unreachable")

    async def _round_trip(self, method, path, body, headers):
        head = [
            "{} {} HTTP/1.1".format(method, path),
            "Host: {}:{}".format(self.host, self.port),
            "Content-Type: application/json",
            "Content-Length: {}".format(len(body)),
        ]
        head.extend("{}: {}".format(key, value) for key, value in headers)
        self._writer.write(
            ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body
        )
        await self._writer.drain()

        status_line = await self._reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        response_headers = {}
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            key, _, value = line.decode("latin-1").partition(":")
            response_headers[key.strip().lower()] = value.strip()
        length = int(response_headers.get("content-length") or 0)
        payload = await self._reader.readexactly(length) if length else b""
        if response_headers.get("connection", "").lower() == "close":
            await self.close()
        try:
            decoded = json.loads(payload.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            decoded = payload.decode("utf-8", "replace")
        return status, response_headers, decoded


# -- the load run ----------------------------------------------------------


@dataclass
class LoadScenario:
    """Everything one load/soak run needs."""

    dashboard: str
    #: tenant -> number of concurrent users
    tenants: dict
    events_per_user: int = 15
    seed: int = 1
    #: think time between a user's events (seconds; 0 = slam)
    think_seconds: float = 0.0
    #: cap on how long a user honors Retry-After before moving on
    backoff_cap_seconds: float = 0.05


@dataclass
class _TenantTally:
    issued: int = 0
    served: int = 0
    errors: int = 0
    rejected: dict = field(default_factory=dict)
    issued_by_event: dict = field(default_factory=dict)
    latencies: list = field(default_factory=list)
    latencies_by_event: dict = field(default_factory=dict)


async def _drive_user(host, port, tenant, dashboard, trace, scenario,
                      tally):
    client = _HttpClient(host, port)
    try:
        for step in trace.steps:
            if scenario.think_seconds > 0:
                await asyncio.sleep(scenario.think_seconds)
            tally.issued += 1
            tally.issued_by_event[step.signal] = (
                tally.issued_by_event.get(step.signal, 0) + 1)
            start = time.perf_counter()
            status, _, body = await client.request(
                "POST", "/v1/interact",
                obj={"dashboard": dashboard, "signal": step.signal,
                     "value": step.value},
                headers=[("X-Tenant", tenant)],
            )
            elapsed = time.perf_counter() - start
            if status == 200:
                tally.served += 1
                tally.latencies.append(elapsed)
                tally.latencies_by_event.setdefault(
                    step.signal, []).append(elapsed)
            elif status == 429:
                reason = (body.get("reason", "?")
                          if isinstance(body, dict) else "?")
                tally.rejected[reason] = tally.rejected.get(reason, 0) + 1
                retry_after = (
                    body.get("retry_after_seconds", 0.0)
                    if isinstance(body, dict) else 0.0
                )
                backoff = min(float(retry_after),
                              scenario.backoff_cap_seconds)
                if backoff > 0:
                    await asyncio.sleep(backoff)
            else:
                tally.errors += 1
    finally:
        await client.close()


async def run_load(host, port, spec, scenario):
    """Drive every scripted user concurrently; returns the load report.

    Every issued request lands in exactly one bucket (served, rejected
    by reason, or error); ``totals.unaccounted`` is the difference and
    must be 0 — ``tests/test_serve_e2e.py`` asserts it, and the CLI
    exits 1 otherwise.
    """
    traces = build_user_traces(
        spec, scenario.tenants.keys(),
        max(scenario.tenants.values()), scenario.events_per_user,
        scenario.seed,
    )
    tallies = {tenant: _TenantTally() for tenant in scenario.tenants}
    tasks = []
    start = time.perf_counter()
    for tenant, user_count in sorted(scenario.tenants.items()):
        for trace in traces[tenant][:user_count]:
            tasks.append(_drive_user(
                host, port, tenant, scenario.dashboard, trace, scenario,
                tallies[tenant],
            ))
    await asyncio.gather(*tasks)
    wall = time.perf_counter() - start

    tenants_out = {}
    totals = {"issued": 0, "served": 0, "rejected": 0, "errors": 0}
    for tenant, tally in sorted(tallies.items()):
        rejected = sum(tally.rejected.values())
        totals["issued"] += tally.issued
        totals["served"] += tally.served
        totals["rejected"] += rejected
        totals["errors"] += tally.errors
        tenants_out[tenant] = {
            "users": scenario.tenants[tenant],
            "issued": tally.issued,
            "served": tally.served,
            "rejected": dict(sorted(tally.rejected.items())),
            "rejected_total": rejected,
            "errors": tally.errors,
            "issued_by_event": dict(sorted(tally.issued_by_event.items())),
            "latency": latency_summary(tally.latencies),
            "events": {
                signal: latency_summary(values)
                for signal, values in sorted(
                    tally.latencies_by_event.items())
            },
        }
    totals["unaccounted"] = (
        totals["issued"] - totals["served"] - totals["rejected"]
        - totals["errors"])
    totals["wall_seconds"] = wall
    totals["throughput_rps"] = (
        totals["served"] / wall if wall > 0 else 0.0)
    return {
        "scenario": {
            "dashboard": scenario.dashboard,
            "tenants": dict(sorted(scenario.tenants.items())),
            "events_per_user": scenario.events_per_user,
            "seed": scenario.seed,
            "think_seconds": scenario.think_seconds,
        },
        "totals": totals,
        "tenants": tenants_out,
    }


# -- canned scenario --------------------------------------------------------


def default_app_and_scenario(rows=20_000, users_per_tenant=6,
                             events_per_user=12, seed=1, registry=None,
                             parallelism=None):
    """The canonical three-tier serving drill over the flights dashboard.

    ``gold`` is unlimited-rate with headroom, ``silver`` is mid-tier, and
    ``bronze`` has a rate and queue tight enough that a slam of
    concurrent users *must* see admission rejections — which is the
    point: the harness proves rejection accounting, not just happy-path
    throughput.  Returns ``(app, spec, scenario)``; the caller starts
    and stops the app.
    """
    from repro.datagen import generate_flights
    from repro.serve.admission import TenantPolicy
    from repro.serve.app import ServingApp
    from repro.serve.pool import DashboardConfig
    from repro.spec import flights_histogram_spec

    spec = flights_histogram_spec()
    dashboards = {
        "flights": DashboardConfig(
            spec,
            tables={"flights": lambda: generate_flights(rows)},
            session_kwargs=(
                {"parallelism": parallelism} if parallelism else {}
            ),
        ),
    }
    policies = {
        "gold": TenantPolicy(rate=None, max_concurrency=4, max_queue=32,
                             queue_timeout_seconds=5.0),
        "silver": TenantPolicy(rate=200.0, burst=40, max_concurrency=2,
                               max_queue=8, queue_timeout_seconds=1.0),
        "bronze": TenantPolicy(rate=20.0, burst=4, max_concurrency=1,
                               max_queue=2, queue_timeout_seconds=0.25),
    }
    app = ServingApp(dashboards, policies=policies, registry=registry)
    scenario = LoadScenario(
        dashboard="flights",
        tenants={"gold": users_per_tenant, "silver": users_per_tenant,
                 "bronze": users_per_tenant},
        events_per_user=events_per_user,
        seed=seed,
    )
    return app, spec, scenario


async def run_default(rows=20_000, users_per_tenant=6, events_per_user=12,
                      seed=1, registry=None, parallelism=None):
    """Start the canned app in-process, run the load, attach the server's
    own accounting, and return the payload."""
    app, spec, scenario = default_app_and_scenario(
        rows=rows, users_per_tenant=users_per_tenant,
        events_per_user=events_per_user, seed=seed, registry=registry,
        parallelism=parallelism,
    )
    await app.start()
    try:
        await app.prewarm()
        payload = await run_load(app.host, app.port, spec, scenario)
        payload["server"] = app.totals()
    finally:
        await app.stop()
    return payload


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro.serve.loadgen",
        description="Markov-user load harness for the serving layer.",
    )
    parser.add_argument("--rows", type=int, default=20_000)
    parser.add_argument("--users", type=int, default=6,
                        help="concurrent users per tenant")
    parser.add_argument("--events", type=int, default=12,
                        help="interactions per user")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--parallelism", type=int, default=None)
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the load report here as JSON")
    args = parser.parse_args(argv)

    payload = asyncio.run(run_default(
        rows=args.rows, users_per_tenant=args.users,
        events_per_user=args.events, seed=args.seed,
        parallelism=args.parallelism,
    ))
    totals = payload["totals"]
    print("issued={issued} served={served} rejected={rejected} "
          "errors={errors} unaccounted={unaccounted} "
          "throughput={throughput_rps:.1f} rps".format(**totals))
    for tenant, body in payload["tenants"].items():
        latency = body["latency"]
        print("  {:<8} served={:<5} rejected={:<4} p50={:.4f}s "
              "p95={:.4f}s p99={:.4f}s".format(
                  tenant, body["served"], body["rejected_total"],
                  latency["p50_s"], latency["p95_s"], latency["p99_s"]))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("report written to {}".format(args.out))
    return 0 if totals["unaccounted"] == 0 and totals["errors"] == 0 else 1


if __name__ == "__main__":
    import sys

    sys.exit(main())
