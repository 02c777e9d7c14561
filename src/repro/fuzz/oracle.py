"""The differential oracle.

One :func:`check_case` call answers: does this spec compute the same
result table under *every legal partition cut*, on *every backend*, with
and without SQL rewriting, and with the engine's rule-based optimizer on
and off?  Any disagreement is a :class:`Mismatch`.

The run matrix per case:

* ``embedded`` backend, every cut ``0..max_cut`` (client-only, each
  hybrid prefix, server-only);
* ``embedded-mt4`` — same cuts with every operator input split into
  tiny morsels over 4 workers, with the row-at-a-time client path — the
  executor axis: split-vs-unsplit divergence is caught the same way
  backend divergence is;
* ``embedded-mt4-columnar`` — split execution combined with the
  vectorized columnar client kernels, crossing the executor axis with
  the columnar axis (the vectorized morsel pipeline feeding vectorized
  client transforms, the all-fast-paths configuration);
* ``embedded-norewrite`` — same cuts with ``rewrite_sql=False``
  (metamorphic check on the SQL rewriter);
* ``sqlite`` backend, every cut;
* raw-SQL replay of every server query on a second embedded engine with
  the optimizer rules (filter pushdown, projection pruning) disabled
  (metamorphic check on the engine optimizer; EXPLAIN output of both
  configurations is attached on mismatch).

Every run must also cross the link at most once (kind ``protocol``):
whatever the cut, a run's server segments travel as one exchange.

Error handling is part of the contract: a case whose pipeline raises is
acceptable only when it raises under *every* configuration (a consistent
failure, e.g. binning an all-NULL column); a mix of success and failure
is a mismatch.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.session import VegaPlus
from repro.engine import Table
from repro.fuzz.normalize import (
    canonical_rows,
    canonical_table,
    diff_canonical,
    rows_equivalent,
)

#: session configurations:
#: (label, backend name, rewrite_sql, threads, columnar, chunk_rows).
#: The executor axis (threads ∈ {1, 4}) runs every cut both serially and
#: on the morsel-driven parallel executor; a tiny morsel size makes the
#: fuzzer's small tables split into many morsels so merge paths are
#: genuinely exercised.  The columnar axis (``embedded-rowwise``) forces
#: every client transform onto the row-at-a-time path, differencing the
#: vectorized batch kernels against the dict-row reference on every cut.
#: ``embedded-mt4-columnar`` crosses the two axes: the parallel engine
#: feeding the columnar client kernels, so a divergence that only shows
#: when both fast paths compose is still caught.  The chunked axis
#: (``chunk_rows=7``) loads every root table as a chunked Column stack —
#: chunk edges landing mid-group, mid-tie, mid-NULL-run — and must be
#: byte-identical to contiguous storage on every backend and cut;
#: ``embedded-mt4-chunk7`` aligns morsels to those chunk boundaries.
RUN_CONFIGS = [
    ("embedded", "embedded", True, 1, True, None),
    ("embedded-rowwise", "embedded", True, 1, False, None),
    ("embedded-mt4", "embedded", True, 4, False, None),
    ("embedded-mt4-columnar", "embedded", True, 4, True, None),
    ("embedded-norewrite", "embedded", False, 1, True, None),
    ("embedded-chunk7", "embedded", True, 1, True, 7),
    ("embedded-mt4-chunk7", "embedded", True, 4, True, 7),
    ("sqlite", "sqlite", True, 1, True, None),
    ("sqlite-chunk7", "sqlite", True, 1, True, 7),
]

#: rows per morsel for the parallel fuzz configurations (fuzz tables are
#: tens of rows; 7 forces multi-morsel execution, boundary effects included)
FUZZ_MORSEL_ROWS = 7

#: rows per storage chunk on the chunked axis (equal to the morsel size
#: so chunk-aligned morsels and storage edges coincide — the worst case)
FUZZ_CHUNK_ROWS = 7


@dataclass
class Mismatch:
    """One observed disagreement."""

    # "backend" | "cut" | "outcome" | "optimizer" | "construction" | "protocol"
    kind: str
    sink: Optional[str]
    run_a: str
    run_b: str
    detail: str

    def describe(self):
        header = "[{}] {} vs {}".format(self.kind, self.run_a, self.run_b)
        if self.sink:
            header += " (dataset {!r})".format(self.sink)
        return header + "\n" + self.detail


@dataclass
class _RunOutcome:
    label: str
    status: str  # "ok" | "error"
    error: str = ""
    canon: Dict[str, tuple] = field(default_factory=dict)


@dataclass
class CaseReport:
    """Everything :func:`check_case` learned about one case."""

    case: object
    runs: List[_RunOutcome] = field(default_factory=list)
    mismatches: List[Mismatch] = field(default_factory=list)
    #: distinct server SQL texts observed (input to the optimizer check)
    queries: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def ok(self):
        return not self.mismatches

    def describe(self):
        lines = ["case seed={}".format(getattr(self.case, "seed", "?"))]
        notes = getattr(self.case, "notes", "")
        if notes:
            lines.append("  " + notes)
        lines.append("runs: {} ({} ok, {} error), server queries: {}".format(
            len(self.runs),
            sum(1 for run in self.runs if run.status == "ok"),
            sum(1 for run in self.runs if run.status == "error"),
            len(self.queries),
        ))
        for note in self.notes:
            lines.append("note: " + note)
        if not self.mismatches:
            lines.append("OK: all runs agree")
        for index, mismatch in enumerate(self.mismatches):
            lines.append("mismatch {}/{}:".format(
                index + 1, len(self.mismatches)))
            lines.append(mismatch.describe())
        return "\n".join(lines)


def _build_session(case, backend, rewrite_sql, threads=1, columnar=True,
                   chunk_rows=None):
    if backend == "embedded" and threads > 1:
        # Backend instance so the morsel size can be pinned small enough
        # for the fuzzer's tiny tables to split.
        from repro.backends.embedded import EmbeddedBackend

        backend = EmbeddedBackend(
            parallelism=threads, morsel_rows=FUZZ_MORSEL_ROWS
        )
    if chunk_rows is None:
        data = {name: rows for name, rows in case.tables.items()}
    else:
        # The chunked axis: every root table enters the session as a
        # stack of tiny storage chunks instead of one contiguous array.
        data = {
            name: Table.from_rows(rows).rechunk(chunk_rows)
            for name, rows in case.tables.items()
        }
    return VegaPlus(
        case.spec,
        data=data,
        backend=backend,
        latency_ms=0.0,
        bandwidth_mbps=100000.0,
        rewrite_sql=rewrite_sql,
        columnar=columnar,
    )


def _cut_vectors(plan):
    """Every legal forced-cut assignment worth testing.

    With a single sink this is simply every cut ``0..max_cut``.  With
    several sinks, sweep each sink's cut while holding the others at 0
    (the full product adds little and grows fast).
    """
    sinks = list(plan.datasets)
    if not sinks:
        return []
    if len(sinks) == 1:
        sink = sinks[0]
        max_cut = plan.datasets[sink].max_cut
        return [({sink: cut}, "cut={}".format(cut))
                for cut in range(max_cut + 1)]
    vectors = []
    for target in sinks:
        max_cut = plan.datasets[target].max_cut
        for cut in range(max_cut + 1):
            vector = {sink: 0 for sink in sinks}
            vector[target] = cut
            vectors.append(
                (vector, "{}.cut={}".format(target, cut)))
    return vectors


def _run_all_cuts(report, case, label, session, vectors):
    """Execute every cut vector in one session, recording outcomes."""
    for vector, vector_label in vectors:
        run_label = "{}/{}".format(label, vector_label)
        try:
            plan = session.custom_plan(vector, label=run_label)
            trips = session.channel.stats.round_trips
            result = session.run_with_plan(plan)
            trips = session.channel.stats.round_trips - trips
            if trips > 1:
                report.mismatches.append(Mismatch(
                    kind="protocol", sink=None, run_a=run_label,
                    run_b=run_label,
                    detail="one run charged {} round trips".format(trips),
                ))
            canon = {}
            for sink, rows in result.datasets.items():
                fields = session.compiled.spec.mark_fields(sink) or None
                canon[sink] = canonical_rows(rows, fields=fields)
            outcome = _RunOutcome(run_label, "ok", canon=canon)
            for entry in result.queries:
                if entry.kind in ("rows", "value") \
                        and entry.sql not in report.queries:
                    report.queries.append(entry.sql)
        except Exception as exc:  # noqa: BLE001 - the oracle's whole point
            outcome = _RunOutcome(
                run_label, "error",
                error="{}: {}".format(type(exc).__name__, exc))
        report.runs.append(outcome)


def _compare_runs(report):
    """All-pairs consistency: statuses must agree, then canonical forms."""
    ok_runs = [run for run in report.runs if run.status == "ok"]
    error_runs = [run for run in report.runs if run.status == "error"]
    if ok_runs and error_runs:
        report.mismatches.append(Mismatch(
            kind="outcome", sink=None,
            run_a=ok_runs[0].label, run_b=error_runs[0].label,
            detail="{} succeeded but {} raised:\n  {}".format(
                ok_runs[0].label, error_runs[0].label,
                error_runs[0].error),
        ))
    if error_runs and not ok_runs:
        report.notes.append(
            "all {} runs raised consistently (e.g. {})".format(
                len(error_runs), error_runs[0].error))
    if len(ok_runs) < 2:
        return
    reference = ok_runs[0]
    for other in ok_runs[1:]:
        sinks = set(reference.canon) | set(other.canon)
        for sink in sorted(sinks):
            canon_ref = reference.canon.get(sink)
            canon_other = other.canon.get(sink)
            if canon_ref is None or canon_other is None:
                report.mismatches.append(Mismatch(
                    kind="cut", sink=sink,
                    run_a=reference.label, run_b=other.label,
                    detail="dataset missing from one run",
                ))
                continue
            if rows_equivalent(canon_ref, canon_other):
                continue
            kind = "cut" if other.label.split("/")[0] == \
                reference.label.split("/")[0] else "backend"
            report.mismatches.append(Mismatch(
                kind=kind, sink=sink,
                run_a=reference.label, run_b=other.label,
                detail=diff_canonical(
                    canon_ref, canon_other,
                    label_a=reference.label, label_b=other.label),
            ))


def _check_optimizer(report, case):
    """Metamorphic check: optimizer rules must not change query answers.

    Replays every server SQL observed during the differential runs on
    two fresh embedded engines — rules enabled vs disabled — and
    compares canonical result tables.  On mismatch the EXPLAIN output of
    both configurations is attached, which is exactly the artifact
    needed to find the broken rewrite rule.
    """
    if not report.queries:
        return
    from repro.backends.embedded import EmbeddedBackend

    enabled = EmbeddedBackend(enable_pushdown=True, enable_pruning=True)
    disabled = EmbeddedBackend(enable_pushdown=False, enable_pruning=False)
    for name, rows in case.tables.items():
        table = Table.from_rows(rows)
        enabled.load_table(name, table)
        disabled.load_table(name, table)
    for sql in report.queries:
        outcomes = []
        for label, backend in (("rules-on", enabled),
                               ("rules-off", disabled)):
            try:
                table, _seconds = backend.execute(sql)
                outcomes.append((label, "ok", canonical_table(table)))
            except Exception as exc:  # noqa: BLE001
                outcomes.append((label, "error", "{}: {}".format(
                    type(exc).__name__, exc)))
        (label_a, status_a, value_a), (label_b, status_b, value_b) = outcomes
        if status_a != status_b:
            report.mismatches.append(Mismatch(
                kind="optimizer", sink=None, run_a=label_a, run_b=label_b,
                detail="optimizer flags changed the outcome of:\n{}\n"
                       "{}: {}\n{}: {}".format(
                           sql, label_a,
                           value_a if status_a == "error" else "ok",
                           label_b,
                           value_b if status_b == "error" else "ok"),
            ))
            continue
        if status_a == "error":
            continue  # consistent failure
        if rows_equivalent(value_a, value_b):
            continue
        explains = []
        for label, backend in (("rules-on", enabled),
                               ("rules-off", disabled)):
            try:
                explains.append("EXPLAIN ({}):\n{}".format(
                    label, backend.explain(sql)))
            except Exception as exc:  # noqa: BLE001
                explains.append("EXPLAIN ({}) failed: {}".format(label, exc))
        report.mismatches.append(Mismatch(
            kind="optimizer", sink=None, run_a=label_a, run_b=label_b,
            detail="query:\n{}\n{}\n{}".format(
                sql,
                diff_canonical(value_a, value_b,
                               label_a=label_a, label_b=label_b),
                "\n".join(explains)),
        ))


def check_case(case, check_optimizer=True):
    """Run the full differential + metamorphic battery on one case."""
    report = CaseReport(case=case)

    sessions = []
    for label, backend, rewrite_sql, threads, columnar, chunk_rows \
            in RUN_CONFIGS:
        try:
            sessions.append(
                (label,
                 _build_session(case, backend, rewrite_sql, threads,
                                columnar, chunk_rows)))
        except Exception as exc:  # noqa: BLE001
            report.runs.append(_RunOutcome(
                label + "/construct", "error",
                error="{}: {}".format(type(exc).__name__, exc)))

    vectors = None
    for label, session in sessions:
        if vectors is None:
            # The legal-cut frontier is backend-independent: compute once.
            vectors = _cut_vectors(session.optimize())
            if not vectors:
                report.notes.append("no sink datasets; nothing to compare")
                return report
        _run_all_cuts(report, case, label, session, vectors)

    _compare_runs(report)
    if check_optimizer:
        _check_optimizer(report, case)
    return report
