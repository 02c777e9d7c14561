"""Coverage for small primitives: pulses, type helpers, results."""

import pytest

from repro.core.results import QueryLogEntry, RunResult
from repro.data import SQLType, python_value_type
from repro.dataflow.pulse import Pulse
from repro.planner.plans import CostBreakdown, PartitionPlan, all_client_plan


class TestPulse:
    def test_unchanged_preserves_payload(self):
        original = Pulse(rows=[{"x": 1}], value=[0, 1])
        unchanged = Pulse.unchanged(original)
        assert unchanged.rows is original.rows
        assert unchanged.value == [0, 1]
        assert unchanged.changed is False

    def test_fork_replaces_rows(self):
        original = Pulse(rows=[{"x": 1}], value="v")
        forked = original.fork([{"y": 2}])
        assert forked.rows == [{"y": 2}]
        assert forked.changed is True
        assert forked.value == "v"


class TestTypeHelpers:
    def test_python_value_type(self):
        assert python_value_type(True) is SQLType.BOOLEAN
        assert python_value_type(1.5) is SQLType.DOUBLE
        assert python_value_type("x") is SQLType.VARCHAR

    def test_python_value_type_rejects_other(self):
        with pytest.raises(TypeError):
            python_value_type([1, 2])

    def test_numpy_dtype_mapping(self):
        import numpy as np

        assert SQLType.DOUBLE.numpy_dtype() is np.float64
        assert SQLType.BOOLEAN.numpy_dtype() is np.bool_
        assert SQLType.VARCHAR.numpy_dtype() is object


class TestRunResult:
    def test_summary_mentions_components(self):
        result = RunResult(label="x", plan=None)
        result.breakdown = CostBreakdown(server=0.1, network=0.2)
        text = result.summary()
        assert "server" in text and "network" in text
        assert "0.3000" in text  # total

    def test_rows_accessor(self):
        result = RunResult(label="x", plan=None,
                           datasets={"d": [{"a": 1}]})
        assert result.rows("d") == [{"a": 1}]

    def test_query_log_entry_defaults(self):
        entry = QueryLogEntry(sql="SELECT 1", rows=1,
                              server_seconds=0.0, network_seconds=0.0)
        assert entry.cached is False
        assert entry.kind == "rows"


class TestPlanHelpers:
    def test_all_client_plan(self):
        plan = all_client_plan({"a": [1, 2, 3], "b": []})
        assert plan.datasets["a"].cut == 0
        assert plan.datasets["a"].max_cut == 3
        assert plan.datasets["b"].max_cut == 0

    def test_plan_estimate_aggregates_datasets(self):
        plan = all_client_plan({"a": [1], "b": [1]})
        plan.datasets["a"].estimate = CostBreakdown(client=1.0)
        plan.datasets["b"].estimate = CostBreakdown(network=2.0)
        assert plan.estimate.total == 3.0

    def test_placement(self):
        plan = all_client_plan({"a": [1, 2]})
        plan.datasets["a"].cut = 1
        assert plan.datasets["a"].placement(0) == "server"
        assert plan.datasets["a"].placement(1) == "client"
