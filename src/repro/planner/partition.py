"""Partition optimizer: choose the client/server cut per pipeline.

For every mark-consumed dataset the optimizer resolves its transform
chain back to a root table, probes how long a prefix is SQL-translatable
under the current signal values, estimates cost for every legal cut, and
keeps the cheapest.  Linear pipelines make exhaustive cut enumeration
cheap — exactly the structure Vega specs compile to.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.dataflow.operator import DataRef, OperatorRef, SignalRef
from repro.engine import sqlast
from repro.expr.evaluator import Evaluator
from repro.planner.cardinality import estimate_step, from_table_stats
from repro.planner.costmodel import CostModel, CostParameters
from repro.planner.plans import CostBreakdown, DatasetPlan, PartitionPlan
from repro.sqlgen.translate import Untranslatable, translate_transform


class PlanningError(Exception):
    """The spec cannot be planned (e.g. no stats for a root table)."""


#: placeholder extent used only to probe bin translatability
_PROBE_EXTENT = [0.0, 1.0]


@dataclass
class ChainStep:
    """One transform step of a resolved chain."""

    dataset: str
    index: int  # index within its dataset pipeline
    spec_type: str
    params: dict  # planning-resolved parameters
    operator: object  # the dataflow operator
    _signal_names: Optional[frozenset] = field(
        default=None, init=False, repr=False, compare=False)

    def signal_names(self, known_signals):
        """Signals the step's parameters read.  Computed once: the chain
        and the spec's signal set are both fixed at compile time."""
        if self._signal_names is None:
            self._signal_names = frozenset(
                self.operator.signal_dependencies(set(known_signals)))
        return self._signal_names


def resolve_chain(compiled, sink):
    """Walk ``sink`` back to its root dataset; returns (root, steps)."""
    spec = compiled.spec
    chain: List[ChainStep] = []
    name = sink
    visited = set()
    while True:
        if name in visited:
            raise PlanningError("dataset cycle at {!r}".format(name))
        visited.add(name)
        dataset = spec.dataset(name)
        pipeline = compiled.pipelines[name]
        steps = []
        offset = 1 if dataset.source is None else 0  # skip the DataSource op
        for index, step_spec in enumerate(dataset.transform):
            operator = pipeline[offset + index]
            steps.append(
                ChainStep(
                    dataset=name,
                    index=index,
                    spec_type=step_spec.type,
                    params={},
                    operator=operator,
                )
            )
        chain = steps + chain
        if dataset.source is None:
            return name, chain
        name = dataset.source


def resolve_planning_params(operator, signals, server_tables=None):
    """Resolve operator params for planning: signal expressions evaluate,
    operator refs become probe placeholders, and data refs to transform-
    free root datasets resolve to LookupTable markers (enabling lookup's
    LEFT JOIN translation)."""
    evaluator = Evaluator(signals=signals)
    server_tables = server_tables or set()

    def resolve(value):
        if isinstance(value, SignalRef):
            try:
                return evaluator.evaluate(value.ast)
            except Exception:
                return None
        if isinstance(value, OperatorRef):
            return list(_PROBE_EXTENT)
        if isinstance(value, DataRef):
            return _lookup_table_marker(value.operator, server_tables)
        if isinstance(value, dict):
            return {key: resolve(item) for key, item in value.items()}
        if isinstance(value, list):
            return [resolve(item) for item in value]
        return value

    return {key: resolve(value) for key, value in operator.params.items()}


def _lookup_table_marker(operator, server_tables):
    """LookupTable marker when ``operator`` is the source of a transform-
    free root dataset resident on the server; None otherwise.

    ``server_tables`` is either a set of table names or a mapping
    name -> TableStats; with stats, the marker carries column types so
    type-sensitive translations (lookup defaults) can be validated."""
    from repro.dataflow.transforms.base import DataSource
    from repro.sqlgen.translate import LookupTable

    if not isinstance(operator, DataSource):
        return None
    name = operator.name
    if not name.endswith(":source"):
        return None
    table = name[: -len(":source")]
    if table not in server_tables:
        return None
    types = ()
    if isinstance(server_tables, dict):
        stats = server_tables[table]
        types = tuple(
            (column, _type_kind(column_stats.type))
            for column, column_stats in stats.columns.items()
        )
    return LookupTable(table, types=types)


def _type_kind(sql_type):
    """Engine SQLType -> coarse kind tag used by translation checks."""
    name = getattr(sql_type, "name", str(sql_type))
    return {"DOUBLE": "num", "VARCHAR": "str", "BOOLEAN": "bool"}.get(
        name, "other"
    )


def _zero_row_table(column_types):
    from repro.engine import Table
    from repro.engine.table import Column

    table = Table()
    for name, sql_type in column_types:
        table.add_column(name, Column.from_values([], sql_type))
    return table


def _probe_database(server_tables, base_types):
    """A zero-row embedded Database mirroring the server schemas.

    Engine type errors (``cannot compare DOUBLE with VARCHAR``, unknown
    columns) depend only on column types, never on row values, so
    executing a candidate step against an empty table with the *real*
    schema proves the server will accept it — without touching data."""
    from repro.engine import Database

    database = Database()
    database.load_table("__probe", _zero_row_table(base_types))
    if isinstance(server_tables, dict):
        for name, stats in server_tables.items():
            database.load_table(
                name,
                _zero_row_table(
                    (column, column_stats.type)
                    for column, column_stats in stats.columns.items()
                ),
            )
    return database


def translatable_prefix(steps, base_columns, signals, server_tables=None,
                        base_types=None):
    """Longest SQL-translatable prefix; also returns columns per position.

    With ``base_types`` (the root table's ``(column, SQLType)`` pairs)
    each translated step is additionally *executed* on a zero-row probe
    table carrying the evolving schema.  Translation alone is purely
    syntactic: ``datum.k == 'x'`` translates fine but fails on the server
    when ``k`` is numeric, while the client's loose comparison succeeds —
    a success-vs-error divergence between cuts (differential fuzzer,
    seed 80802431).  The probe run surfaces every schema-driven server
    rejection at planning time, pinning such steps to the client."""
    columns = list(base_columns)
    columns_at = [list(columns)]
    prefix = 0
    probe_db = _probe_database(server_tables, base_types) \
        if base_types is not None else None
    for step in steps:
        params = resolve_planning_params(
            step.operator, signals, server_tables
        )
        step.params = params
        try:
            translation = translate_transform(
                step.spec_type,
                params,
                sqlast.TableRef("__probe"),
                columns,
                signals,
            )
        except Untranslatable:
            break
        except Exception:
            break
        if probe_db is not None:
            try:
                probe_result = probe_db.execute(translation.select.to_sql())
            except Exception:
                break
            if not translation.is_value:
                probe_db.load_table("__probe", probe_result)
        if not translation.is_value:
            columns = translation.columns
        prefix += 1
        columns_at.append(list(columns))
    # Positions beyond the prefix keep the last known schema.
    while len(columns_at) <= len(steps):
        columns_at.append(list(columns))
    return prefix, columns_at


class PartitionOptimizer:
    """Chooses cuts to minimize estimated startup latency (§2.2 step 2)."""

    def __init__(self, channel, cost_params=None, merged=True):
        self.channel = channel
        self.cost_params = cost_params or CostParameters()
        self.model = CostModel(channel, self.cost_params)
        self.merged = merged

    def plan_dataset(self, compiled, sink, stats, signals,
                     forced_cut=None, label=None):
        """Plan one sink dataset; ``forced_cut`` pins the cut (used by the
        dashboard's user-customized plans and by baselines)."""
        root, steps = resolve_chain(compiled, sink)
        if root not in stats:
            raise PlanningError(
                "no statistics for root table {!r}".format(root)
            )
        base = from_table_stats(stats[root])
        prefix, _ = translatable_prefix(
            steps, list(base.columns), signals, server_tables=stats,
            base_types=[
                (column, column_stats.type)
                for column, column_stats in stats[root].columns.items()
            ],
        )

        estimates = [base]
        current = base
        for step in steps:
            current = estimate_step(
                current, step.spec_type, step.params, signals=signals
            )
            estimates.append(current)

        step_types = [step.spec_type for step in steps]
        final_fields = compiled.spec.mark_fields(sink)

        if forced_cut is not None:
            cut = max(0, min(forced_cut, prefix))
            breakdown, transfer = self.model.cut_cost(
                step_types, estimates, cut, merged=self.merged,
                final_fields=final_fields,
            )
            return DatasetPlan(
                dataset=sink, cut=cut, max_cut=prefix, estimate=breakdown,
                transfer_rows=transfer.rows, transfer_bytes=transfer.bytes,
            ), steps, root

        best: Optional[DatasetPlan] = None
        for cut in range(prefix + 1):
            breakdown, transfer = self.model.cut_cost(
                step_types, estimates, cut, merged=self.merged,
                final_fields=final_fields,
            )
            candidate = DatasetPlan(
                dataset=sink, cut=cut, max_cut=prefix, estimate=breakdown,
                transfer_rows=transfer.rows, transfer_bytes=transfer.bytes,
            )
            if best is None or _better(candidate, best):
                best = candidate
        return best, steps, root

    def plan(self, compiled, stats, signals=None, label="optimized",
             forced_cuts=None):
        """Plan all sink datasets; returns a :class:`PartitionPlan`."""
        signals = signals if signals is not None else dict(compiled.flow.signals)
        forced_cuts = forced_cuts or {}
        plan = PartitionPlan(label=label)
        for sink in self.sink_datasets(compiled):
            dataset_plan, _, _ = self.plan_dataset(
                compiled, sink, stats, signals,
                forced_cut=forced_cuts.get(sink),
            )
            plan.datasets[sink] = dataset_plan
        return plan

    def sink_datasets(self, compiled):
        """Datasets consumed by marks (fallback: terminal datasets)."""
        spec = compiled.spec
        sinks = []
        for mark in spec.marks:
            if mark.data and mark.data not in sinks:
                sinks.append(mark.data)
        if sinks:
            return sinks
        sources = {d.source for d in spec.data if d.source}
        return [d.name for d in spec.data if d.name not in sources]


def _better(candidate, incumbent):
    """Cheaper total latency wins; ties prefer fewer transferred bytes."""
    if abs(candidate.estimate.total - incumbent.estimate.total) > 1e-12:
        return candidate.estimate.total < incumbent.estimate.total
    return candidate.transfer_bytes < incumbent.transfer_bytes
