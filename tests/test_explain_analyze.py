"""EXPLAIN ANALYZE tests: per-node rows in/out and elapsed time from the
embedded engine, surfaced through backends, the CLI, and traced spans."""

import io

import pytest

from repro.backends import EmbeddedBackend
from repro.core import VegaPlus
from repro.datagen import generate_flights
from repro.engine.database import Database
from repro.engine.executor import (
    MorselExecutor,
    annotate_stats,
    stats_preorder,
)
from repro.net import NetworkChannel
from repro.spec import flights_histogram_spec


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE t (a INT, b INT)")
    for a in range(10):
        database.execute(
            "INSERT INTO t VALUES ({}, {})".format(a, a % 3)
        )
    return database


class TestEngineExplainAnalyze:
    def test_rows_out_match_result_cardinality(self, db):
        table, nodes = db.explain_analyze_data("SELECT a FROM t WHERE a < 4")
        assert table.num_rows == 4
        root = nodes[0]
        assert root["rows_out"] == table.num_rows

    def test_scan_rows_in_is_table_size(self, db):
        _, nodes = db.explain_analyze_data("SELECT a FROM t WHERE a < 4")
        scans = [node for node in nodes if node["label"].startswith("Scan")]
        assert scans
        assert all(node["rows_in"] == 10 for node in scans)

    def test_rows_in_propagates_from_children(self, db):
        _, nodes = db.explain_analyze_data(
            "SELECT b, COUNT(*) AS n FROM t WHERE a < 6 GROUP BY b"
        )
        by_label = {node["label"].split()[0]: node for node in nodes}
        # Filter feeds the aggregate: its output is the aggregate's input.
        aggregate = by_label["Aggregate"]
        assert aggregate["rows_in"] == 6
        assert aggregate["rows_out"] == 3

    def test_self_seconds_bounded_by_inclusive(self, db):
        _, nodes = db.explain_analyze_data("SELECT a FROM t WHERE a < 4")
        for node in nodes:
            assert 0.0 <= node["self_seconds"] <= node["seconds"] + 1e-9

    def test_text_format_includes_rows_and_time(self, db):
        text = db.explain_analyze("SELECT a FROM t WHERE a < 4")
        assert "rows_in=" in text
        assert "rows_out=4" in text
        assert "time=" in text

    def test_preorder_depths(self, db):
        plan = db.plan("SELECT b, COUNT(*) AS n FROM t GROUP BY b")
        _, raw, morsels, fallbacks = MorselExecutor().execute_with_stats(
            plan, db.catalog
        )
        assert morsels == {} and fallbacks == {}
        annotated = annotate_stats(plan, raw, catalog=db.catalog)
        ordered = stats_preorder(plan, annotated)
        assert ordered[0]["depth"] == 0
        assert all(
            node["depth"] >= 0 and node["rows_out"] >= 0 for node in ordered
        )


class TestBackendExplainAnalyze:
    def test_embedded_node_stats_roundtrip(self):
        backend = EmbeddedBackend()
        backend.load_table("flights", generate_flights(500))
        result, nodes = backend.execute_with_node_stats(
            "SELECT COUNT(*) AS n FROM flights"
        )
        assert result.table.num_rows == 1
        assert nodes is not None
        assert nodes[0]["rows_out"] == 1

    def test_default_backend_degrades_gracefully(self):
        from repro.backends import SQLiteBackend

        backend = SQLiteBackend()
        backend.load_table("flights", generate_flights(100))
        result, nodes = backend.execute_with_node_stats(
            "SELECT COUNT(*) AS n FROM flights"
        )
        assert result.table.num_rows == 1
        assert nodes is None


class TestTracedEngineSpans:
    def test_engine_span_rows_match_explain_analyze(self):
        session = VegaPlus(
            flights_histogram_spec(),
            data={"flights": generate_flights(3000)},
            channel=NetworkChannel(10, 100),
            trace=True,
        )
        session.startup()
        tracer = session.tracer
        engine_spans = tracer.find_spans(prefix="engine:")
        assert engine_spans
        # Re-run EXPLAIN ANALYZE for each traced query and compare the
        # per-node row counts against the span attributes.
        executes = tracer.find_spans("sql.execute")
        for execute in executes:
            _, nodes = session.backend.explain_analyze_data(
                execute.attributes["sql"]
            )
            children = [
                span for span in engine_spans
                if _descends_from(tracer, span, execute)
            ]
            assert len(children) == len(nodes)
            span_rows = sorted(
                (span.attributes["rows_in"], span.attributes["rows_out"])
                for span in children
            )
            node_rows = sorted(
                (node["rows_in"], node["rows_out"]) for node in nodes
            )
            assert span_rows == node_rows

    def test_root_engine_rows_match_transfer_rows(self):
        session = VegaPlus(
            flights_histogram_spec(),
            data={"flights": generate_flights(3000)},
            channel=NetworkChannel(10, 100),
            trace=True,
        )
        result = session.startup()
        tracer = session.tracer
        for execute in tracer.find_spans("sql.execute"):
            if execute.attributes.get("kind") != "rows":
                continue
            roots = [
                span for span in tracer.children_of(execute)
                if span.name.startswith("engine:")
            ]
            assert len(roots) == 1
            matching = [
                entry for entry in result.queries
                if entry.sql == execute.attributes["sql"]
            ]
            assert matching
            assert roots[0].attributes["rows_out"] == matching[0].rows


def _descends_from(tracer, span, ancestor):
    by_id = {s.span_id: s for s in tracer.spans}
    current = span
    while current.parent_id is not None:
        if current.parent_id == ancestor.span_id:
            return True
        current = by_id.get(current.parent_id)
        if current is None:
            return False
    return False


class TestExplainCli:
    def test_explain_analyze_flag(self):
        from repro.cli import main

        out = io.StringIO()
        status = main(
            ["explain", "--rows", "2000", "--analyze"], out=out
        )
        text = out.getvalue()
        assert status == 0
        assert "EXPLAIN ANALYZE" in text
        assert "rows_out=" in text

    def test_trace_flag_writes_valid_chrome_trace(self, tmp_path):
        import json

        from repro.cli import main
        from repro.telemetry import validate_chrome_trace

        path = tmp_path / "trace.json"
        out = io.StringIO()
        status = main(
            ["demo", "--rows", "2000", "--trace", str(path)], out=out
        )
        assert status == 0
        assert "trace written" in out.getvalue()
        document = json.loads(path.read_text())
        assert validate_chrome_trace(document) == []
        names = {
            event["name"] for event in document["traceEvents"]
            if event.get("ph") == "X"
        }
        assert "compile" in names
        assert "plan" in names
        assert "sql.execute" in names

    def test_trace_json_format(self, tmp_path):
        import json

        from repro.cli import main

        path = tmp_path / "trace.json"
        out = io.StringIO()
        main(["demo", "--rows", "2000", "--trace", str(path),
              "--trace-format", "json"], out=out)
        document = json.loads(path.read_text())
        assert document["spans"]
        assert document["stats"]["network"]["round_trips"] > 0
