"""Cost-model audit: predicted vs measured, after a traced session.

The partition optimizer chooses cuts from *estimated* per-operator and
per-transfer costs.  This module grades those estimates against what a
session actually measured: per client operator, per server segment, and
per network exchange it emits (predicted, measured, ratio) rows, and —
when candidate plans are re-executed — a rank correlation telling whether
the model at least orders plans correctly (ordering is all the optimizer
needs to pick the right cut).

The report feeds :func:`repro.planner.calibrate.refit_from_report`, which
scales the cost constants by the observed ratios.
"""

import math
from dataclasses import dataclass, field
from typing import List, Optional

from repro.planner.cardinality import estimate_step, from_table_stats
from repro.planner.costmodel import CostModel
from repro.planner.partition import resolve_chain


@dataclass
class AuditEntry:
    """One predicted-vs-measured comparison."""

    name: str
    kind: str  # "client-op" | "server-segment" | "transfer"
    dataset: str
    predicted: float
    measured: float

    @property
    def ratio(self):
        """measured / predicted; None when the prediction is ~zero."""
        if self.predicted <= 1e-12:
            return None
        return self.measured / self.predicted

    def as_dict(self):
        return {
            "name": self.name,
            "kind": self.kind,
            "dataset": self.dataset,
            "predicted_s": self.predicted,
            "measured_s": self.measured,
            "ratio": self.ratio,
        }


@dataclass
class PlanCandidate:
    """One candidate plan's predicted vs measured total latency."""

    label: str
    predicted: float
    measured: float

    def as_dict(self):
        return {
            "plan": self.label,
            "predicted_s": self.predicted,
            "measured_s": self.measured,
        }


@dataclass
class MispredictionReport:
    """The audit outcome."""

    entries: List[AuditEntry] = field(default_factory=list)
    candidates: List[PlanCandidate] = field(default_factory=list)

    @property
    def rank_correlation(self):
        """Spearman correlation of predicted vs measured plan totals."""
        if len(self.candidates) < 2:
            return None
        return spearman(
            [candidate.predicted for candidate in self.candidates],
            [candidate.measured for candidate in self.candidates],
        )

    def ratios(self, kind=None):
        return [
            entry.ratio
            for entry in self.entries
            if entry.ratio is not None and (kind is None or entry.kind == kind)
        ]

    def median_ratio(self, kind=None):
        values = sorted(self.ratios(kind))
        if not values:
            return None
        middle = len(values) // 2
        if len(values) % 2:
            return values[middle]
        return 0.5 * (values[middle - 1] + values[middle])

    def worst(self, n=5):
        """Entries with the largest |log ratio| (most mispredicted)."""
        scored = [
            (abs(math.log(entry.ratio)), entry)
            for entry in self.entries
            if entry.ratio is not None and entry.ratio > 0
        ]
        scored.sort(key=lambda pair: -pair[0])
        return [entry for _, entry in scored[:n]]

    def as_dict(self):
        return {
            "entries": [entry.as_dict() for entry in self.entries],
            "candidates": [c.as_dict() for c in self.candidates],
            "rank_correlation": self.rank_correlation,
            "median_ratio": {
                "client-op": self.median_ratio("client-op"),
                "server-segment": self.median_ratio("server-segment"),
                "transfer": self.median_ratio("transfer"),
            },
        }

    def format(self):
        lines = [
            "cost-model misprediction report",
            "{:<34} {:<15} {:>12} {:>12} {:>8}".format(
                "operator", "kind", "predicted", "measured", "ratio"
            ),
        ]
        lines.append("-" * len(lines[-1]))
        for entry in self.entries:
            ratio = entry.ratio
            lines.append(
                "{:<34} {:<15} {:>11.6f}s {:>11.6f}s {:>8}".format(
                    entry.name[:34], entry.kind, entry.predicted,
                    entry.measured,
                    "{:.2f}x".format(ratio) if ratio is not None else "-",
                )
            )
        if self.candidates:
            lines.append("")
            lines.append("candidate plans (predicted vs measured total):")
            for candidate in self.candidates:
                lines.append(
                    "  {:<28} predicted {:>9.4f}s  measured {:>9.4f}s".format(
                        candidate.label[:28], candidate.predicted,
                        candidate.measured,
                    )
                )
            correlation = self.rank_correlation
            if correlation is not None:
                lines.append(
                    "  rank correlation (Spearman): {:.3f}".format(correlation)
                )
        return "\n".join(lines)


def spearman(xs, ys):
    """Spearman rank correlation with average ranks for ties."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need two equal-length sequences of >= 2 values")
    rx = _average_ranks(xs)
    ry = _average_ranks(ys)
    mean_x = sum(rx) / len(rx)
    mean_y = sum(ry) / len(ry)
    cov = sum((a - mean_x) * (b - mean_y) for a, b in zip(rx, ry))
    var_x = sum((a - mean_x) ** 2 for a in rx)
    var_y = sum((b - mean_y) ** 2 for b in ry)
    if var_x <= 0 or var_y <= 0:
        return 0.0
    return cov / math.sqrt(var_x * var_y)


def _average_ranks(values):
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and \
                values[order[j + 1]] == values[order[i]]:
            j += 1
        average = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = average
        i = j + 1
    return ranks


def audit_session(session, result=None, run_candidates=True,
                  max_candidates=8):
    """Build a :class:`MispredictionReport` for a session.

    ``result`` is the run to grade (default: the session's last result).
    With ``run_candidates=True`` the audit also re-executes up to
    ``max_candidates`` alternative cuts (cache cleared before each) to
    measure how well the model *ranks* plans.
    """
    if session.plan is None:
        raise ValueError("session has no plan; call startup() first")
    result = result or session.last_result()
    if result is None:
        raise ValueError("session has no executed result to audit")

    report = MispredictionReport()
    model = CostModel(session.channel, session.cost_params)
    #: (sink, dataset plan) of every segment that went to the server
    fetched = []
    measured_network = 0.0

    for sink, dataset_plan in (result.plan or session.plan).datasets.items():
        root, steps = resolve_chain(session.compiled, sink)
        estimates = [from_table_stats(session.table_stats[root])]
        current = estimates[0]
        for step in steps:
            current = estimate_step(
                current, step.spec_type, step.params, signals=session.signals
            )
            estimates.append(current)
        cut = dataset_plan.cut

        # Client operators: the suffix ran in the reactive dataflow and
        # recorded wall time per operator.
        for index in range(cut, len(steps)):
            step = steps[index]
            measured = result.client_op_seconds.get(step.operator.name)
            if measured is None:
                continue
            predicted = model.client_step_cost(
                step.spec_type, estimates[index].rows
            )
            report.entries.append(
                AuditEntry(
                    name=step.operator.name, kind="client-op", dataset=sink,
                    predicted=predicted, measured=measured,
                )
            )

        # Server segment: predicted per-step costs plus query overhead vs
        # the backend's measured wall time for this sink's queries.
        sink_queries = [
            entry for entry in result.queries
            if entry.dataset in (sink, "") and not entry.cached
        ]
        if cut > 0 and sink_queries:
            predicted_server = model.params.server_query_overhead * len(
                sink_queries
            )
            for index in range(cut):
                predicted_server += model.server_step_cost(
                    steps[index].spec_type, estimates[index].rows
                )
            measured_server = sum(
                entry.server_seconds for entry in sink_queries
            )
            report.entries.append(
                AuditEntry(
                    name="{}[0:{}]".format(sink, cut), kind="server-segment",
                    dataset=sink, predicted=predicted_server,
                    measured=measured_server,
                )
            )

        if sink_queries:
            fetched.append((sink, dataset_plan))
            measured_network += sum(
                entry.network_seconds for entry in sink_queries)

    # The transfer: everything a run fetches crosses the link as one
    # exchange, so there is one row per run.  The model prices every
    # segment as a request of its own; segments that shared the exchange
    # shared its latency.
    if measured_network > 0:
        shared = (len(fetched) - 1) * session.channel.round_trip_seconds(0, 0)
        report.entries.append(
            AuditEntry(
                name="exchange[{}]".format(",".join(
                    "{}@cut={}".format(sink, plan.cut)
                    for sink, plan in fetched)),
                kind="transfer", dataset=fetched[0][0],
                predicted=sum(
                    plan.estimate.network for _, plan in fetched) - shared,
                measured=measured_network,
            )
        )

    if run_candidates:
        _measure_candidates(session, report, max_candidates)
    return report


def _measure_candidates(session, report, max_candidates):
    """Re-run alternative cuts of the first sink and record totals."""
    sinks = list(session.plan.datasets)
    if not sinks:
        return
    sink = sinks[0]
    max_cut = session.plan.datasets[sink].max_cut
    cuts = list(range(max_cut + 1))[:max_candidates]
    for cut in cuts:
        plan = session.custom_plan({sink: cut}, label="audit:cut={}".format(cut))
        session.cache.clear()
        measured = session.run_with_plan(plan)
        report.candidates.append(
            PlanCandidate(
                label=plan.label,
                predicted=plan.estimate.total,
                measured=measured.breakdown.total,
            )
        )
