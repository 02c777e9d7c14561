"""Performance-view data model (Figure 3).

The demo dashboard shows (a) the dataflow graph with operators colored by
placement, with operator parameters and rewritten SQL as tooltips, and
(b) a stacked bar per plan decomposing latency into server / client /
network.  This module produces exactly that data — as plain dicts, DOT
text, and formatted tables — so any front end (or a test) can render it.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.planner import resolve_chain
from repro.planner.plans import CLIENT, SERVER


@dataclass
class GraphNode:
    """One operator in the plan graph."""

    name: str
    kind: str  # transform spec type or "source"
    placement: str  # "client" | "server"
    dataset: str
    tooltip: str = ""


@dataclass
class PlanGraph:
    """The partitioned dataflow graph of one plan."""

    plan_label: str
    nodes: List[GraphNode] = field(default_factory=list)
    edges: List[tuple] = field(default_factory=list)

    def to_dict(self):
        return {
            "plan": self.plan_label,
            "nodes": [
                {
                    "name": node.name,
                    "kind": node.kind,
                    "placement": node.placement,
                    "dataset": node.dataset,
                    "tooltip": node.tooltip,
                }
                for node in self.nodes
            ],
            "edges": list(self.edges),
        }

    def to_dot(self):
        """Graphviz DOT text; server nodes filled, client nodes outlined."""
        lines = ["digraph plan {", "  rankdir=LR;"]
        for node in self.nodes:
            color = "lightblue" if node.placement == SERVER else "lightyellow"
            label = "{}\\n({})".format(node.kind, node.placement)
            lines.append(
                '  "{}" [label="{}", style=filled, fillcolor={}, '
                'tooltip="{}"];'.format(
                    node.name, label, color,
                    node.tooltip.replace('"', "'")[:200],
                )
            )
        for src, dst in self.edges:
            lines.append('  "{}" -> "{}";'.format(src, dst))
        lines.append("}")
        return "\n".join(lines)

    def placements(self):
        return {node.name: node.placement for node in self.nodes}


def plan_graph(session, plan=None):
    """Build the plan graph for a session's (current) plan, including the
    rewritten SQL tooltips for server-side segments."""
    plan = plan or session.plan
    if plan is None:
        raise ValueError("session has no plan; call startup() first")
    graph = PlanGraph(plan_label=plan.label)
    for sink, dataset_plan in plan.datasets.items():
        root, steps = resolve_chain(session.compiled, sink)
        source_name = root + ":source"
        graph.nodes.append(
            GraphNode(
                name=source_name, kind="source",
                placement=SERVER if dataset_plan.cut > 0 else CLIENT,
                dataset=root,
                tooltip="base table {} ({} rows)".format(
                    root, session.tables[root].num_rows
                ),
            )
        )
        previous = source_name
        sql_tooltips = _segment_sql(session, sink, dataset_plan)
        last = session.last_result()
        op_seconds = last.client_op_seconds if last is not None else {}
        for index, step in enumerate(steps):
            placement = SERVER if index < dataset_plan.cut else CLIENT
            tooltip = sql_tooltips.get(index) or _params_tooltip(step)
            measured = op_seconds.get(step.operator.name)
            if measured is not None:
                tooltip = "[{:.4f}s] {}".format(measured, tooltip)
            graph.nodes.append(
                GraphNode(
                    name=step.operator.name, kind=step.spec_type,
                    placement=placement, dataset=step.dataset,
                    tooltip=tooltip,
                )
            )
            graph.edges.append((previous, step.operator.name))
            previous = step.operator.name
    return graph


def _params_tooltip(step):
    parts = []
    for key, value in step.operator.params.items():
        parts.append("{}={!r}".format(key, value))
    return "; ".join(parts)[:300]


def _segment_sql(session, sink, dataset_plan):
    """Rewritten SQL per server-side step index (best effort: the merged
    segment SQL is attached to its last server step)."""
    from repro.core.executors import ServerSegmentRunner

    tooltips = {}
    if dataset_plan.cut == 0:
        return tooltips
    state = session._sink_state(sink)
    sqls = []

    def execute(sql, kind):
        # straight to the backend: no cache, no channel, nothing recorded
        sqls.append(sql)
        return session.backend.execute(sql).table

    try:
        runner = ServerSegmentRunner(
            session.backend, None, session.signals,
            merge=session.merge_queries, rewrite=session.rewrite_sql,
        )
        program = runner.program(
            state.root, session.tables[state.root].column_names,
            state.steps, dataset_plan.cut,
        )
        runner.walk(program, execute)
        tooltips[dataset_plan.cut - 1] = sqls[-1]
        value_steps = [index for index, step in enumerate(program.steps)
                       if "name" in step]
        tooltips.update(zip(value_steps, sqls[:-1]))
    except Exception:
        pass  # tooltips are cosmetic; never fail the dashboard
    return tooltips


@dataclass
class ComparisonRow:
    label: str
    server: float
    client: float
    network: float
    render: float
    total: float
    rows: Optional[int] = None


class PerformanceComparison:
    """The stacked-bar comparison across plans (top-right of Figure 3)."""

    def __init__(self):
        self.rows: List[ComparisonRow] = []

    def add(self, label, breakdown, rows=None):
        self.rows.append(
            ComparisonRow(
                label=label, server=breakdown.server, client=breakdown.client,
                network=breakdown.network, render=breakdown.render,
                total=breakdown.total, rows=rows,
            )
        )

    def as_dicts(self):
        return [
            {
                "plan": row.label, "server_s": row.server,
                "client_s": row.client, "network_s": row.network,
                "render_s": row.render, "total_s": row.total,
            }
            for row in self.rows
        ]

    def format_table(self):
        header = "{:<28} {:>9} {:>9} {:>9} {:>9} {:>9}".format(
            "plan", "server", "client", "network", "render", "total"
        )
        lines = [header, "-" * len(header)]
        for row in self.rows:
            lines.append(
                "{:<28} {:>8.4f}s {:>8.4f}s {:>8.4f}s {:>8.4f}s {:>8.4f}s".format(
                    row.label[:28], row.server, row.client, row.network,
                    row.render, row.total,
                )
            )
        return "\n".join(lines)


def render_stacked_bars(comparison, width=60):
    """ASCII rendering of the stacked-bar chart (top-right of Figure 3).

    One bar per plan, segments: S = server, C = client, N = network,
    R = render; lengths proportional to each component's share of the
    slowest plan's total.
    """
    if not comparison.rows:
        return "(no plans measured)"
    longest = max(row.total for row in comparison.rows) or 1.0
    scale = width / longest
    lines = []
    for row in comparison.rows:
        segments = (
            ("S", row.server), ("C", row.client),
            ("N", row.network), ("R", row.render),
        )
        bar = "".join(
            letter * int(round(seconds * scale))
            for letter, seconds in segments
        )
        lines.append("{:<28} |{:<{}}| {:.4f}s".format(
            row.label[:28], bar, width, row.total
        ))
    lines.append("legend: S=server C=client N=network R=render")
    return "\n".join(lines)


def compare_plans(session, plans, reset_between=True):
    """Execute each plan and collect measured breakdowns.

    This is the dashboard's core loop: "The user can compare the
    performance of Vega alone, our recommendation, and the user's own
    partitioning."
    """
    comparison = PerformanceComparison()
    for plan in plans:
        if reset_between:
            session.cache.clear()
        result = session.run_with_plan(plan)
        first_sink = next(iter(result.datasets), None)
        comparison.add(
            plan.label, result.breakdown,
            rows=len(result.datasets[first_sink]) if first_sink else None,
        )
    return comparison
