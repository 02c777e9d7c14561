"""Session pooling over one shared Database per dashboard.

The serving layer's unit of work is a :class:`repro.VegaPlus` session —
compiled spec, plan, dataflow — which is stateful and not re-entrant, so
the pool checks sessions out exclusively.  What *is* shared, process
wide, is everything expensive underneath:

* one :class:`~repro.backends.embedded.EmbeddedBackend` (one engine
  ``Database``; it keeps all execution state per call, and
  ``tests/test_parallel_stress.py`` runs concurrent clients — traced
  and plain — against both the default one-worker ``Database`` built
  here and a ``parallelism=2`` one) per dashboard — data loads once,
  and the engine's morsel thread pools, used when ``parallelism`` > 1,
  are process-wide (``repro.engine.parallel.shared_pool``);
* one locked :class:`~repro.core.cache.ResultCache` per dashboard, so a
  query any user ran (or any session prefetched) is a hit for every
  user of that dashboard;
* the process metrics registry — sessions carry ``session=``/``tenant=``
  labels so the shared plane aggregates exactly.

Sessions are pooled per (dashboard, tenant): the tenant label on every
session-emitted metric stays truthful, and per-tenant caps bound how
many sessions one tenant can occupy.
"""

import asyncio

from repro.metrics import NULL

#: metrics view labels for the per-dashboard shared caches
SHARED_CACHE_SESSION = "shared"


class PoolError(Exception):
    """Misconfiguration or misuse of the session pool."""


class DashboardConfig:
    """One servable dashboard: a spec plus its data tables.

    ``tables`` maps table name -> engine ``Table`` | row list | zero-arg
    builder callable (built once, lazily, off the event loop).
    ``session_kwargs`` pass through to every ``VegaPlus`` constructed
    for this dashboard (e.g. ``latency_ms``, ``parallelism``).
    """

    def __init__(self, spec, tables, session_kwargs=None):
        self.spec = spec
        self.tables = dict(tables)
        self.session_kwargs = dict(session_kwargs or {})
        self._built = None

    def built_tables(self):
        """Materialize builder callables exactly once."""
        if self._built is None:
            self._built = {
                name: (value() if callable(value) else value)
                for name, value in self.tables.items()
            }
        return self._built


class _DashboardState:
    """Shared per-dashboard resources, built on first use."""

    __slots__ = ("config", "backend", "cache", "lock")

    def __init__(self, config):
        self.config = config
        self.backend = None
        self.cache = None
        self.lock = asyncio.Lock()


class SessionPool:
    """Checked-out-exclusive VegaPlus sessions over shared backends.

    ``acquire``/``release`` are asyncio-native; session construction and
    startup (the expensive part) run on ``executor`` so the event loop
    never blocks.  ``max_sessions_per_tenant`` bounds pool growth — size
    it at least as large as the admission concurrency cap, or acquires
    beyond it will queue here too (still FIFO, still bounded by the
    admission queue in front).
    """

    def __init__(self, dashboards, executor, registry=None,
                 max_sessions_per_tenant=4, cache_entries=256,
                 cache_bytes=128 * 1024 * 1024, tiles=False):
        if not dashboards:
            raise PoolError("the pool needs at least one dashboard")
        self.executor = executor
        self.registry = registry
        self.max_sessions_per_tenant = max_sessions_per_tenant
        self.cache_entries = cache_entries
        self.cache_bytes = cache_bytes
        self.tiles = tiles
        self._dashboards = {
            name: _DashboardState(config)
            for name, config in dashboards.items()
        }
        #: (dashboard, tenant) -> {"free": [...], "created": int}
        self._pools = {}
        self._freed = asyncio.Condition()
        self.sessions_built = 0

    def dashboard_names(self):
        return sorted(self._dashboards)

    async def _run(self, fn, *args):
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self.executor, fn, *args)

    async def _shared(self, dashboard):
        """The dashboard's shared backend + cache, built once."""
        state = self._dashboards.get(dashboard)
        if state is None:
            raise PoolError("unknown dashboard {!r}".format(dashboard))
        async with state.lock:
            if state.backend is None:
                def build():
                    from repro.backends import create_backend
                    from repro.core.cache import ResultCache

                    kwargs = {}
                    parallelism = state.config.session_kwargs.get(
                        "parallelism")
                    if parallelism is not None:
                        kwargs["parallelism"] = parallelism
                    backend = create_backend("embedded", **kwargs)
                    for name, table in state.config.built_tables().items():
                        from repro.engine import Table

                        if not isinstance(table, Table):
                            table = Table.from_rows(list(table))
                        backend.load_table(name, table)
                    cache = ResultCache(
                        max_entries=self.cache_entries,
                        max_bytes=self.cache_bytes,
                    )
                    return backend, cache

                state.backend, state.cache = await self._run(build)
                if self.registry is not None:
                    # The shared cache's counters are dashboard-scoped,
                    # not per-session: label them as the shared component.
                    state.cache.metrics = self.registry.view(
                        session=SHARED_CACHE_SESSION, dashboard=dashboard,
                    )
        return state

    def _pool(self, dashboard, tenant):
        key = (dashboard, tenant)
        if key not in self._pools:
            self._pools[key] = {"free": [], "created": 0}
        return self._pools[key]

    def _build_session(self, state, dashboard, tenant):
        from repro import VegaPlus
        from repro.engine import Table

        kwargs = dict(state.config.session_kwargs)
        kwargs.pop("parallelism", None)  # lives in the shared backend
        kwargs.setdefault("latency_ms", 0.0)
        kwargs.setdefault("prefetch_budget", 0)
        # Every session of a dashboard shares the *same* Table objects:
        # the client dataflow needs them, and the session's (idempotent)
        # re-load into the shared backend replaces a table with itself.
        data = {
            name: (table if isinstance(table, Table)
                   else Table.from_rows(list(table)))
            for name, table in state.config.built_tables().items()
        }
        session = VegaPlus(
            state.config.spec,
            data=data,
            backend=state.backend,
            cache=state.cache,
            tiles=self.tiles,
            metrics=(self.registry if self.registry is not None else False),
            tenant=tenant,
            **kwargs,
        )
        session.startup()
        return session

    async def acquire(self, dashboard, tenant):
        """Check out a started-up session for ``(dashboard, tenant)``,
        building one if the pool is below its cap, else waiting for a
        release (the admission cap in front bounds this wait)."""
        state = await self._shared(dashboard)
        pool = self._pool(dashboard, tenant)
        while True:
            if pool["free"]:
                return pool["free"].pop()
            if pool["created"] < self.max_sessions_per_tenant:
                pool["created"] += 1
                try:
                    session = await self._run(
                        self._build_session, state, dashboard, tenant
                    )
                except BaseException:
                    pool["created"] -= 1
                    async with self._freed:
                        self._freed.notify_all()
                    raise
                self.sessions_built += 1
                if self.registry is not None:
                    self.registry.inc("serve.sessions_built",
                                      tenant=tenant, dashboard=dashboard)
                return session
            async with self._freed:
                # wait_for re-checks on entry, so a release that landed
                # between our free-list check and this point is not a
                # lost wakeup.
                await self._freed.wait_for(
                    lambda: bool(pool["free"])
                    or pool["created"] < self.max_sessions_per_tenant
                )

    async def release(self, dashboard, tenant, session):
        pool = self._pool(dashboard, tenant)
        pool["free"].append(session)
        async with self._freed:
            self._freed.notify_all()

    def stats(self):
        out = {"sessions_built": self.sessions_built, "dashboards": {}}
        for name, state in sorted(self._dashboards.items()):
            tenants = {}
            for (dashboard, tenant), pool in sorted(self._pools.items()):
                if dashboard != name:
                    continue
                tenants[tenant] = {
                    "created": pool["created"],
                    "free": len(pool["free"]),
                }
            out["dashboards"][name] = {
                "loaded": state.backend is not None,
                "cache": (state.cache.stats()
                          if state.cache is not None else None),
                "tenants": tenants,
            }
        return out
