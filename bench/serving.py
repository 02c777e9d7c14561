"""``serve_hist``: the serving layer under two concurrent users.

``ServingApp`` runs in the benchmark's own process and event loop on an
ephemeral port; two keep-alive HTTP connections (one per tenant) each
replay their own Markov walk over the flights histogram.  The work behind
each request is the cached work of ``flights_warm``, so the difference
between the two workloads' medians is HTTP parse + admission + pool
checkout + executor-thread hop + JSON.  It is the one workload with
concurrency: the shared ``ResultCache`` lock, the registry locks, the GIL.

Closed loop: each user sends its next request when the previous response
has arrived.  Overload and admission behaviour are out of scope (2 cores).
"""

import asyncio
import json
import statistics
import time

import harness
import layers
import plans
import reference
from recorder import Recorder
from workloads import raw_columns, scaled_rows

TENANTS = ("u0", "u1")
DASHBOARD = "flights"


class HttpUser:
    """One keep-alive HTTP/1.1 connection speaking ``POST /v1/interact``."""

    def __init__(self, host, port, tenant):
        self.host, self.port, self.tenant = host, port, tenant
        self.reader = self.writer = None

    async def connect(self):
        self.reader, self.writer = await asyncio.open_connection(
            self.host, self.port)

    async def close(self):
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def interact(self, signal, value):
        """``(status, decoded JSON body)`` of one round trip."""
        body = json.dumps({"dashboard": DASHBOARD, "signal": signal,
                           "value": value}).encode("utf-8")
        head = ("POST /v1/interact HTTP/1.1\r\nHost: bench\r\n"
                "Content-Type: application/json\r\nContent-Length: {}\r\n"
                "X-Tenant: {}\r\n\r\n").format(len(body), self.tenant)
        self.writer.write(head.encode("latin-1") + body)
        await self.writer.drain()
        status = int((await self.reader.readline()).split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            key, _, text = line.decode("latin-1").partition(":")
            if key.strip().lower() == "content-length":
                length = int(text)
        payload = await self.reader.readexactly(length)
        return status, json.loads(payload.decode("utf-8"))


class Served:
    """One set-up: a started app, its connected users, the raw columns."""

    def __init__(self):
        self.app = None
        self.users = []
        self.columns = None
        self.rows = 0
        self.gen_seconds = self.startup_seconds = 0.0
        #: per-tenant (binField, maxbins), in step with the ops sent
        self.signals = {}
        #: (binField, maxbins) -> reference row count, filled on demand
        self.expected_rows = {}

    async def close(self):
        for user in self.users:
            await user.close()
        # let the server's connection handlers see the EOF and return, so
        # ``stop`` finds nothing left to cancel
        await asyncio.sleep(0.05)
        if self.app is not None:
            await self.app.stop()


class ServePhase(harness.Phase):
    """A phase that also keeps what the serving layer reported."""

    def __init__(self):
        super().__init__()
        self.elapsed = 0.0    # wall clock of the blocks, both users at once
        self.bodies = []      # each response's JSON, None when there is none
        self.totals = {}      # change of ``app.totals()`` over the blocks


class ServeHist:
    name = "serve_hist"
    rows = 100_000
    # per user; sized like the in-process plans, for the same reason
    plan_events = 4000

    def plan(self, seed):
        """One walk per user over the same window of states."""
        return [plans.hist_walk(plans.rng_for(self.name, seed, index),
                                self.plan_events)
                for index in range(len(TENANTS))]

    # -- set-up ---------------------------------------------------------------

    async def setup(self, seed, smoke):
        from repro.datagen import generate_flights
        from repro.serve.admission import TenantPolicy
        from repro.serve.app import ServingApp
        from repro.serve.pool import DashboardConfig
        from repro.spec import flights_histogram_spec

        served = Served()
        served.rows = scaled_rows(self.rows, smoke)
        start = time.perf_counter()
        table = generate_flights(served.rows, seed=seed)
        generated = time.perf_counter()
        # no rate limit and room to queue: a 429 is a failed event
        policy = TenantPolicy(rate=None, max_concurrency=4, max_queue=32)
        served.app = ServingApp(
            {DASHBOARD: DashboardConfig(flights_histogram_spec(),
                                        {"flights": table})},
            policies={tenant: policy for tenant in TENANTS})
        try:
            await served.app.start()
            await served.app.prewarm()
            for tenant in TENANTS:
                user = HttpUser(served.app.host, served.app.port, tenant)
                await user.connect()
                served.users.append(user)
                # the first request builds and starts the tenant's session
                status, _ = await user.interact("maxbins", 20)
                if status != 200:
                    raise RuntimeError("first request answered {}".format(
                        status))
                served.signals[tenant] = {"binField": "dep_delay",
                                          "maxbins": 20}
            served.startup_seconds = time.perf_counter() - generated
            served.gen_seconds = generated - start
            served.columns = raw_columns(table, plans.HIST_FIELDS)
            warm = plans.hist_states()
            for index, user in enumerate(served.users):
                head = plans.hist_walk(
                    plans.rng_for(self.name, seed, index), 200)
                for _, signal, value in warm + head:
                    await user.interact(signal, value)
                    served.signals[user.tenant][signal] = value
        except BaseException:
            await served.close()
            raise
        return served

    def totals(self, served):
        totals = served.app.totals()
        return {key: totals[key] for key in
                ("requests", "admitted", "served", "errors",
                 "rejected_total", "unaccounted")}

    def counters(self, served):
        cache = served.app.pool.stats()["dashboards"][DASHBOARD]["cache"]
        return {"cache_hits": cache["hits"], "cache_misses": cache["misses"],
                "cache_evictions": cache["evictions"],
                "cache_bytes": cache["bytes"],
                "tile_hits": 0, "tile_bytes": 0}

    # -- the timed phase --------------------------------------------------------

    async def drive(self, served, user, ops, first, deadline, min_events,
                    out, recorder):
        """One user's closed loop over ops[first:]; returns the index of
        its next op."""
        clock = time.perf_counter
        signals = served.signals[user.tenant]
        index = first
        while index < len(ops):
            if index - first >= min_events and clock() >= deadline:
                break
            _, signal, value = ops[index]
            signals[signal] = value
            event = (user.tenant, index)
            try:
                if recorder is None:
                    start = clock()
                    status, body = await user.interact(signal, value)
                    wall = clock() - start
                else:
                    with recorder.event(event, key=("tenant", user.tenant)):
                        start = clock()
                        status, body = await user.interact(signal, value)
                        wall = clock() - start
            except (ConnectionError, asyncio.IncompleteReadError, OSError,
                    ValueError) as exc:
                out.append((event, clock() - start, None,
                            "raised {!r}".format(exc), None))
                return len(ops)   # the connection is gone: nothing follows
            index += 1
            error = None
            if status != 200:
                error = "answered {}".format(status)
            elif body["cache_misses"] != 0:
                error = "{} cache misses".format(body["cache_misses"])
            out.append((event, wall, body, error,
                        (signals["binField"], signals["maxbins"])))
        return index

    async def timed(self, served, plan, positions, seconds, min_events,
                    phase, recorder=None):
        """One block with both users at once, appended to ``phase`` (whose
        extra ``bodies`` keep each response for the serve-layer metrics);
        ``positions`` holds each user's next op and is advanced."""
        before = self.counters(served)
        totals_before = self.totals(served)
        events = []
        start = time.perf_counter()
        positions[:] = await asyncio.gather(*[
            self.drive(served, user, ops, first, start + seconds,
                       min_events // 2, events, recorder)
            for user, ops, first in zip(served.users, plan, positions)])
        phase.elapsed += time.perf_counter() - start
        phase.after = self.counters(served)
        for key, value in phase.after.items():
            phase.delta[key] = phase.delta.get(key, 0) + value - before[key]
        expected_rows = served.expected_rows
        for event, wall, body, error, state in events:
            phase.ops.append(event)
            phase.walls.append(wall)
            # every timed response is a cache hit: nothing crossed the
            # simulated link, so the user waits exactly the wall
            phase.networks.append(0.0)
            phase.bodies.append(body)
            if error is None:
                if state not in expected_rows:
                    expected_rows[state] = len(reference.histogram(
                        served.columns[state[0]], state[1]))
                if body["rows"] != expected_rows[state]:
                    error = "reference: {} rows, expected {}".format(
                        body["rows"], expected_rows[state])
            if error is not None:
                phase.errors.append((len(phase.ops) - 1, error))
        after = self.totals(served)
        delta = {key: after[key] - totals_before[key] for key in after}
        for key, value in delta.items():
            phase.totals[key] = phase.totals.get(key, 0) + value
        sent = len(events)
        if delta["requests"] != sent or delta["served"] != sent \
                or delta["admitted"] != sent:
            phase.errors.append(
                (-1, "server accounted {} for {} requests sent".format(
                    delta, sent)))
        if after["unaccounted"] or delta["errors"] or delta["rejected_total"]:
            phase.errors.append(
                (-1, "unaccounted/errors/rejected: {}".format(delta)))

    # -- runs ---------------------------------------------------------------------

    async def _end_to_end(self, seed, plan, seconds, smoke):
        min_events = harness.SMOKE_EVENTS if smoke else harness.MIN_EVENTS
        walls, startups = [], []
        served = None
        for _ in range(harness.SETUP_REPEATS):
            if served is not None:
                await served.close()
            start = time.perf_counter()
            served = await self.setup(seed, smoke)
            walls.append(time.perf_counter() - start)
            startups.append(served.startup_seconds)
        try:
            phase = ServePhase()
            await self.timed(served, plan, [0] * len(plan), seconds,
                             min_events, phase)
            rss = harness.peak_rss_mb()
        finally:
            await served.close()
        metrics = {"setup_s": statistics.median(walls),
                   "startup_ms": 1000.0 * statistics.median(startups)}
        metrics.update(harness.summarize(phase.walls, phase.networks))
        # two users at once: completed events over the phase's wall clock
        metrics["events_per_s"] = len(phase.walls) / phase.elapsed
        metrics["peak_rss_mb"] = rss
        return phase, metrics, {"setups": len(walls),
                                "startups": len(startups)}

    def run_end_to_end(self, seed, seconds, smoke, scratch):
        plan = self.plan(seed)
        phase, metrics, samples = asyncio.run(
            self._end_to_end(seed, plan, seconds, smoke))
        record = harness.record_for(self, seed, smoke, plan, phase, metrics,
                                    harness.END_TO_END)
        record["samples"].update(samples)
        return record

    async def _traced(self, seed, plan, seconds, smoke):
        min_events = (harness.SMOKE_EVENTS if smoke
                      else harness.MIN_EVENTS) // 2
        cycles = harness.TRACE_CYCLES
        share = 0.5 / cycles
        recorder = Recorder()
        recorder.install(layers.BOUNDARIES)   # set-up is traced too
        plain, traced = ServePhase(), ServePhase()
        try:
            served = await self.setup(seed, smoke)
            try:
                # alternate untraced and traced blocks on the one app, so
                # drift of the host cancels out of the tracing overhead
                positions = [0] * len(plan)
                for _ in range(cycles):
                    recorder.uninstall()
                    await self.timed(served, plan, positions,
                                     seconds * share, -(-min_events // cycles),
                                     plain)
                    recorder.install(layers.BOUNDARIES)
                    await self.timed(served, plan, positions,
                                     seconds * share, -(-min_events // cycles),
                                     traced, recorder)
            finally:
                await served.close()
        finally:
            recorder.uninstall()
        return plain, traced, recorder, served

    def run_traced(self, seed, seconds, smoke, scratch, host):
        plan = self.plan(seed)
        plain, phase, recorder, served = asyncio.run(
            self._traced(seed, plan, seconds, smoke))
        events = len(phase.walls)
        metrics = layers.span_metrics(recorder.spans, events)
        metrics.update(layers.counter_metrics(phase.delta, phase.after, 0))
        metrics["datagen.rows_per_s"] = served.rows / served.gen_seconds

        answered = [(wall, body) for wall, body in
                    zip(phase.walls, phase.bodies) if body is not None
                    and "server_seconds" in body]
        mean_ms = 1000.0 / max(len(answered), 1)
        server_ms = mean_ms * sum(b["server_seconds"] for _, b in answered)
        inside_ms = 1000.0 * sum(
            s.seconds for s in recorder.spans if s.event is not None
            and s.name in ("AdmissionController.admit",
                           "SessionPool.acquire", "VegaPlus.interact")
        ) / events
        metrics["serve.http_overhead_ms"] = mean_ms * sum(
            wall - b["server_seconds"] for wall, b in answered)
        metrics["serve.queue_wait_ms"] = mean_ms * sum(
            b["queue_wait_seconds"] for _, b in answered)
        # what ServingApp spends around the three calls it makes: the
        # executor-thread hop, the drill hook, pool release, accounting
        metrics["serve.interact_ms"] = server_ms - inside_ms
        sent = max(phase.totals["requests"], 1)
        metrics["serve.rejected_share"] = \
            phase.totals["rejected_total"] / sent
        metrics["serve.unaccounted"] = float(phase.totals["unaccounted"])

        metrics.update(harness.trace_shares(recorder, plain, phase))
        metrics["trace.coverage_share"] = layers.coverage(
            metrics, 1000.0 * sum(phase.walls) / events)
        metrics.update(host)
        harness.finish_traced(self, recorder, phase, metrics, smoke)
        record = harness.record_for(
            self, seed, smoke, plan, harness.merged(plain, phase),
            harness.complete(metrics), layers.UNITS)
        record["missing"] = layers.metrics_of(recorder.missing)
        return record
