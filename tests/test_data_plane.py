"""Data-plane tests: the columnar interchange contract.

Three guarantees the batch refactor must keep:

* **Back-compat** — every transform produces byte-identical row output
  (dict key order, NULL/NaN handling included) whether it ran the
  vectorized batch kernel or the row-at-a-time reference path, and the
  lazy ``Pulse.rows`` view is safe to mutate without corrupting the
  shared batch.
* **No row trips on the happy path** — the server -> cache -> client
  request path never converts batch -> rows -> batch; asserted directly
  against the module sources so a regression is caught even if it only
  costs performance, not correctness.
* **Passthrough is observable** — a traced session marks every
  ``pulse:<operator>`` span ``materialized=True/False`` so fallbacks are
  visible in telemetry, not silent.
"""

import math

import numpy as np
import pytest

from repro.core import VegaPlus
from repro.data import Column, ColumnBatch, SQLType, Table
from repro.dataflow.pulse import Pulse
from repro.dataflow.transforms import create_transform
from repro.datagen import generate_flights
from repro.spec import flights_histogram_spec


ROWS = [
    {"a": 1.0, "b": "x", "c": None},
    {"a": float("nan"), "b": "y", "c": 2.0},
    {"a": -3.5, "b": None, "c": 4.0},
    {"a": 7.0, "b": "x", "c": None},
    {"a": 7.0, "b": "y", "c": 0.5},
]

#: (spec type, params) — covers every vectorized transform plus a
#: deliberately unvectorizable case (VARCHAR min) to exercise fallback.
TRANSFORM_CASES = [
    ("filter", {"expr": "datum.a > 0"}),
    ("filter", {"expr": "datum.b == 'x'"}),
    ("formula", {"expr": "datum.a * 2 + 1", "as": "d"}),
    ("formula", {"expr": "clamp(datum.c, -1, 3)", "as": "cc"}),
    ("project", {"fields": ["b", "a"], "as": ["key", "val"]}),
    ("extent", {"field": "a", "signal": "e"}),
    ("bin", {"field": "a", "extent": [-4.0, 8.0], "maxbins": 6}),
    ("aggregate", {"groupby": ["b"], "ops": ["count", "mean", "min"],
                   "fields": [None, "a", "c"]}),
    ("aggregate", {"groupby": [], "ops": ["sum", "distinct"],
                   "fields": ["a", "b"]}),
    ("aggregate", {"groupby": ["b"], "ops": ["min"], "fields": ["b"]}),
    ("collect", {"sort": {"field": ["a"], "order": ["descending"]}}),
]


def _assert_rows_identical(got, expected):
    """Exact row-view equality: length, dict key order, values — with
    NaN counted equal to NaN (it compares unequal to itself) and bools
    kept distinct from the numerically equal 0/1 floats."""
    assert len(got) == len(expected)
    for row_got, row_expected in zip(got, expected):
        assert list(row_got.keys()) == list(row_expected.keys())
        for key, expected_value in row_expected.items():
            value = row_got[key]
            both_nan = (
                isinstance(value, float) and isinstance(expected_value, float)
                and math.isnan(value) and math.isnan(expected_value)
            )
            if both_nan:
                continue
            assert value == expected_value, (key, value, expected_value)
            assert isinstance(value, bool) == isinstance(expected_value, bool)


class TestTransformBackCompat:
    """Batch kernel output == row-path output, for every transform."""

    @pytest.mark.parametrize("spec_type,params", TRANSFORM_CASES)
    def test_batch_and_row_paths_agree(self, spec_type, params):
        batch = ColumnBatch.from_rows(ROWS)
        # Both paths must see identical inputs: the batch form folds NaN
        # into NULL, so the row path starts from the batch's row view.
        input_rows = batch.to_rows()

        columnar = create_transform(spec_type, spec_type, dict(params), None)
        columnar.columnar = True
        out_batch = columnar.run(Pulse(batch=batch), dict(params), {})

        rowwise = create_transform(spec_type, spec_type, dict(params), None)
        rowwise.columnar = False
        out_rows = rowwise.run(
            Pulse(rows=[dict(r) for r in input_rows]), dict(params), {})

        _assert_rows_identical(out_batch.rows, out_rows.rows)
        if out_rows.value is not None or out_batch.value is not None:
            assert out_batch.value == out_rows.value

    def test_empty_input_agrees(self):
        for spec_type, params in TRANSFORM_CASES:
            empty = ColumnBatch.from_rows([dict(r) for r in ROWS]).head(0)
            columnar = create_transform(
                spec_type, spec_type, dict(params), None)
            columnar.columnar = True
            out_batch = columnar.run(Pulse(batch=empty), dict(params), {})
            rowwise = create_transform(
                spec_type, spec_type, dict(params), None)
            rowwise.columnar = False
            out_rows = rowwise.run(Pulse(rows=[]), dict(params), {})
            _assert_rows_identical(out_batch.rows, out_rows.rows)

    def test_wide_group_keys_do_not_wrap_around_int64(self):
        """Five DOUBLE key fields of 65 535 distinct values each need 80
        bits of mixed-radix group code.  Unguarded, the first field's
        share wraps around int64 to zero, and rows 0 and 65 535 — equal
        except in that field — share a group.  The client twin of the
        engine's pin in ``tests/test_engine_executor.py``."""
        size = 65536
        columns = [np.arange(size, dtype=np.float64) for _ in range(5)]
        columns[0][-1] = 1.0
        for column in columns[1:]:
            column[-1] = 0.0
        fields = ["k0", "k1", "k2", "k3", "k4"]
        batch = ColumnBatch()
        for field, column in zip(fields, columns):
            batch.add_column(field, Column(SQLType.DOUBLE, column))
        params = {"groupby": fields, "ops": ["count"], "as": ["n"]}

        columnar = create_transform("aggregate", "aggregate", params, None)
        columnar.columnar = True
        out_batch = columnar.run(Pulse(batch=batch), dict(params), {})
        rowwise = create_transform("aggregate", "aggregate", params, None)
        rowwise.columnar = False
        out_rows = rowwise.run(
            Pulse(rows=batch.to_rows()), dict(params), {})

        assert out_rows.num_rows == size
        assert out_batch.num_rows == size
        _assert_rows_identical(out_batch.rows, out_rows.rows)


class TestPulseLazyRowView:
    def test_num_rows_does_not_materialize(self):
        pulse = Pulse(batch=ColumnBatch.from_rows(ROWS))
        assert pulse.num_rows == len(ROWS)
        assert not pulse.materialized

    def test_row_view_is_cached(self):
        pulse = Pulse(batch=ColumnBatch.from_rows(ROWS))
        first = pulse.rows
        assert pulse.materialized
        assert pulse.rows is first

    def test_mutating_row_view_leaves_batch_intact(self):
        batch = ColumnBatch.from_rows(ROWS)
        pulse = Pulse(batch=batch)
        rows = pulse.rows
        rows[0]["a"] = 999.0
        rows.pop()
        # the batch (shared with other consumers) is untouched
        assert batch.num_rows == len(ROWS)
        assert batch.row(0)["a"] == 1.0

    def test_unchanged_and_with_value_share_data(self):
        batch = ColumnBatch.from_rows(ROWS)
        pulse = Pulse(batch=batch)
        assert Pulse.unchanged(pulse).batch is batch
        assert not Pulse.unchanged(pulse).changed
        valued = pulse.with_value([1, 2])
        assert valued.batch is batch
        assert valued.value == [1, 2]


class TestNoRowTripsOnHappyPath:
    """The grep assertion from the issue: the server -> cache -> client
    path carries batches, never converting through dict rows."""

    @pytest.mark.parametrize("module_name", [
        "repro.core.executors",
        "repro.backends.sqlite",
        "repro.net.payload",
    ])
    def test_request_path_modules_never_convert(self, module_name):
        import importlib
        import inspect

        module = importlib.import_module(module_name)
        source = inspect.getsource(module)
        assert "to_rows(" not in source, module_name
        assert "from_rows(" not in source, module_name

    def test_cache_converts_only_in_lazy_accessors(self):
        import inspect

        from repro.core import cache

        # CacheEntry materializes rows only in the lazy `.rows` view and
        # builds a batch only in the `rows=`-constructor back-compat
        # path; ResultCache itself never converts.
        assert "to_rows(" not in inspect.getsource(cache.ResultCache)
        assert "from_rows(" not in inspect.getsource(cache.ResultCache)
        entry_source = inspect.getsource(cache.CacheEntry)
        assert entry_source.count("to_rows(") == 1   # CacheEntry.rows
        assert entry_source.count("from_rows(") == 1  # CacheEntry.as_batch


class TestColumnarPipelineDicts:
    def test_columnar_builds_only_output_dicts(self, monkeypatch):
        """filter -> bin -> aggregate over a 1M-row batch builds dict rows
        only for its 26 renderer-facing output rows, counted at
        ``ColumnBatch.iter_rows``, the one funnel every row
        materialization goes through."""
        rng = np.random.default_rng(11)
        pulse = Pulse(batch=ColumnBatch.from_columns(
            v=rng.normal(size=1_000_000),
            w=rng.gamma(2.0, 5.0, size=1_000_000),
        ), changed=True)
        built = []
        iter_rows = ColumnBatch.iter_rows

        def counted(batch):
            for row in iter_rows(batch):
                built.append(1)
                yield row

        monkeypatch.setattr(ColumnBatch, "iter_rows", counted)
        for spec_type, params in [
            ("filter", {"expr": "datum.v > -1"}),
            ("bin", {"field": "v", "extent": [-4.0, 4.0], "maxbins": 50}),
            ("aggregate", {"groupby": ["bin0", "bin1"],
                           "ops": ["count", "mean"],
                           "fields": [None, "v"]}),
        ]:
            transform = create_transform(spec_type, spec_type, params, None)
            transform.columnar = True
            pulse = transform.run(pulse, params, {})
        assert len(pulse.rows) == len(built) == 26


class TestPassthroughTelemetry:
    def _session(self, columnar):
        session = VegaPlus(
            flights_histogram_spec(),
            data={"flights": generate_flights(500)},
            latency_ms=0.0,
            bandwidth_mbps=100000.0,
            trace=True,
            columnar=columnar,
        )
        session.startup()
        session.run_client_only()
        return session

    @staticmethod
    def _materialized(session):
        """The ``materialized`` attribute of every pulse span whose input
        arrived as a batch."""
        return [span.attributes["materialized"]
                for span in session.tracer.find_spans(prefix="pulse:")
                if "materialized" in span.attributes]

    def test_columnar_session_counts_passthrough(self):
        assert False in self._materialized(self._session(columnar=True))

    def test_rowwise_session_counts_materialization(self):
        flags = self._materialized(self._session(columnar=False))
        assert flags and all(flags)

    def test_columnar_modes_agree_end_to_end(self):
        results = {}
        for columnar in (True, False):
            session = self._session(columnar)
            name = next(iter(session.optimize().datasets))
            results[columnar] = session.results(name)
        _assert_rows_identical(results[True], results[False])


class TestDataPackage:
    def test_table_is_the_batch(self):
        assert Table is ColumnBatch
        from repro.engine import Table as EngineTable

        assert EngineTable is ColumnBatch

    def test_from_values_folds_nan_to_null(self):
        column = Column.from_values([1.0, float("nan"), None, 2.5])
        assert column.type is SQLType.DOUBLE
        assert column.to_list() == [1.0, None, None, 2.5]
        assert column.null_count() == 2

    def test_round_trip_preserves_key_order(self):
        batch = ColumnBatch.from_rows(ROWS)
        assert batch.column_names == ["a", "b", "c"]
        assert [list(row.keys()) for row in batch.to_rows()] == \
            [["a", "b", "c"]] * len(ROWS)

    def test_set_column_copies_are_independent(self):
        batch = ColumnBatch.from_rows(ROWS)
        derived = batch.select(["a", "b"])
        derived.set_column("a", Column.constant(0.0, batch.num_rows))
        assert batch.column("a").to_list()[0] == 1.0
