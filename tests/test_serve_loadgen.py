"""Load-generator determinism and accounting (repro.serve.loadgen).

Soak runs must be reproducible: the same seed yields the *same scripted
users* — identical (signal, value) event sequences — and therefore
identical issued-event counts in the load report, run after run.  Latencies are wall-clock and may differ; the event plan may not.
"""

import asyncio

from repro.metrics import MetricsRegistry
from repro.serve.loadgen import (
    LoadScenario,
    build_user_traces,
    markov_trace,
    run_default,
)
from repro.spec import flights_histogram_spec


def plan_of(traces_by_tenant):
    """The pure event plan: {tenant: [[(signal, value), ...], ...]}."""
    return {
        tenant: [
            [(step.signal, step.value) for step in trace.steps]
            for trace in traces
        ]
        for tenant, traces in traces_by_tenant.items()
    }


def test_same_seed_same_event_sequences():
    spec = flights_histogram_spec()
    kwargs = dict(tenants=["gold", "silver", "bronze"],
                  users_per_tenant=5, events_per_user=20, seed=42)
    first = build_user_traces(spec, **kwargs)
    second = build_user_traces(spec, **kwargs)
    assert plan_of(first) == plan_of(second)
    # Sanity: every user has the full event count and only spec signals.
    signals = {"binField", "maxbins"}
    for traces in first.values():
        assert len(traces) == 5
        for trace in traces:
            assert len(trace.steps) == 20
            assert {step.signal for step in trace.steps} <= signals


def test_different_seeds_differ():
    spec = flights_histogram_spec()
    kwargs = dict(tenants=["t"], users_per_tenant=4, events_per_user=25)
    assert plan_of(build_user_traces(spec, seed=1, **kwargs)) != \
        plan_of(build_user_traces(spec, seed=2, **kwargs))


def test_traces_do_not_depend_on_tenant_iteration_order():
    """Tenant identity (by sorted index), not dict order, seeds users."""
    spec = flights_histogram_spec()
    forward = build_user_traces(spec, ["a", "b"], 3, 10, seed=7)
    backward = build_user_traces(spec, ["b", "a"], 3, 10, seed=7)
    assert plan_of(forward) == plan_of(backward)


def test_markov_trace_respects_signal_bounds():
    import random

    spec = flights_histogram_spec()
    trace = markov_trace(spec, 200, random.Random(3))
    options = {"dep_delay", "arr_delay", "distance", "air_time"}
    for step in trace.steps:
        if step.signal == "maxbins":
            assert 5 <= step.value <= 100
        else:
            assert step.value in options


def test_scenario_defaults():
    scenario = LoadScenario(dashboard="flights", tenants={"t": 2})
    assert scenario.think_seconds == 0.0
    assert scenario.events_per_user > 0


def test_same_seed_same_bench_event_counts():
    """Two full in-process load runs under one seed produce identical
    issued counts — total, per tenant, and per event signal."""
    first = asyncio.run(run_default(
        rows=1_500, users_per_tenant=2, events_per_user=5, seed=9,
        registry=MetricsRegistry(),
    ))
    second = asyncio.run(run_default(
        rows=1_500, users_per_tenant=2, events_per_user=5, seed=9,
        registry=MetricsRegistry(),
    ))
    assert first["scenario"] == second["scenario"]
    assert first["totals"]["issued"] == second["totals"]["issued"]
    for tenant in first["tenants"]:
        a, b = first["tenants"][tenant], second["tenants"][tenant]
        assert a["issued"] == b["issued"]
        assert a["issued_by_event"] == b["issued_by_event"]
    # And the accounting identity holds in both runs.
    for payload in (first, second):
        totals = payload["totals"]
        assert totals["unaccounted"] == 0
        assert totals["errors"] == 0
        assert payload["server"]["unaccounted"] == 0
