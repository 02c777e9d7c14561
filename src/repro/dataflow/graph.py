"""The dataflow graph and its rank-ordered scheduler."""

from collections import defaultdict, deque

from repro.dataflow.operator import Operator
from repro.dataflow.pulse import Pulse
from repro.telemetry.tracer import NOOP


class DataflowError(Exception):
    """Graph construction or scheduling failure."""


class Dataflow:
    """A directed graph of operators plus a signal scope.

    Edges come from two places: ``source`` (the data edge) and parameter
    references (value edges).  ``run()`` evaluates dirty operators in
    topological rank order; an operator is dirty when explicitly touched,
    when an upstream operator produced a changed pulse, or when a signal
    it references was updated.
    """

    def __init__(self):
        self.operators = []
        self.signals = {}
        self.signal_graph = None  # optional SignalGraph for derived signals
        self._signal_watchers = defaultdict(set)  # signal -> operator set
        self._dirty = set()
        self._ranked = False
        #: telemetry sink; sessions and suffix runners install a tracer
        #: here to get one span per operator pulse
        self.tracer = NOOP

    def attach_signal_graph(self, graph):
        """Use a SignalGraph for signal storage (enables ``update``
        expressions); its current values seed the plain snapshot."""
        self.signal_graph = graph
        self.signals = graph.values()

    # -- construction -----------------------------------------------------------

    def add(self, operator):
        if not isinstance(operator, Operator):
            raise DataflowError("expected an Operator")
        if any(existing.name == operator.name for existing in self.operators):
            raise DataflowError(
                "duplicate operator name {!r}".format(operator.name)
            )
        self.operators.append(operator)
        self._ranked = False
        self._dirty.add(operator)
        return operator

    def add_signal(self, name, value):
        self.signals[name] = value

    def operator(self, name):
        for operator in self.operators:
            if operator.name == name:
                return operator
        raise DataflowError("unknown operator {!r}".format(name))

    # -- dependency structure ------------------------------------------------------

    def upstream(self, operator):
        """Direct dependencies: the data source plus parameter refs."""
        deps = list(operator.param_dependencies())
        if operator.source is not None:
            deps.append(operator.source)
        return deps

    def downstream_map(self):
        downstream = defaultdict(list)
        for operator in self.operators:
            for dep in self.upstream(operator):
                downstream[dep].append(operator)
        return downstream

    def rank(self):
        """Assign topological ranks; raises on cycles."""
        indegree = {operator: 0 for operator in self.operators}
        downstream = self.downstream_map()
        for operator in self.operators:
            for dep in self.upstream(operator):
                if dep not in indegree:
                    raise DataflowError(
                        "operator {!r} depends on {!r} which is not in the "
                        "graph".format(operator.name, dep.name)
                    )
                indegree[operator] += 1
        queue = deque(
            operator for operator in self.operators if indegree[operator] == 0
        )
        rank = 0
        seen = 0
        while queue:
            operator = queue.popleft()
            operator.rank = rank
            rank += 1
            seen += 1
            for successor in downstream[operator]:
                indegree[successor] -= 1
                if indegree[successor] == 0:
                    queue.append(successor)
        if seen != len(self.operators):
            raise DataflowError("dataflow graph contains a cycle")
        self._rebuild_signal_watchers()
        self._ranked = True

    def _rebuild_signal_watchers(self):
        self._signal_watchers.clear()
        known = set(self.signals)
        for operator in self.operators:
            for signal in operator.signal_dependencies(known):
                self._signal_watchers[signal].add(operator)

    # -- updates ----------------------------------------------------------------

    def touch(self, operator):
        """Mark an operator dirty for the next run."""
        self._dirty.add(operator)

    def set_signal(self, name, value):
        """Update a signal; marks watching operators dirty.

        With an attached SignalGraph, derived signals re-evaluate and
        their watchers are dirtied too.  Returns the set of signal names
        whose values changed.
        """
        if name not in self.signals:
            raise DataflowError("unknown signal {!r}".format(name))
        if not self._ranked:
            self.rank()
        if self.signal_graph is not None:
            from repro.dataflow.signals import SignalError

            try:
                changed = self.signal_graph.set(name, value)
            except SignalError as exc:
                raise DataflowError(str(exc)) from exc
            self.signals = self.signal_graph.values()
        else:
            old = self.signals[name]
            self.signals[name] = value
            changed = {name} if old != value else set()
        for changed_name in changed:
            for operator in self._signal_watchers.get(changed_name, ()):
                self._dirty.add(operator)
        return changed

    # -- execution ---------------------------------------------------------------

    def run(self):
        """Propagate all pending changes; returns evaluated operators."""
        if not self._ranked:
            self.rank()
        dirty = set(self._dirty)
        self._dirty.clear()
        evaluated = []
        for operator in sorted(self.operators, key=lambda op: op.rank):
            needs_eval = operator in dirty
            if not needs_eval:
                for dep in self.upstream(operator):
                    pulse = dep.last_pulse
                    if pulse is not None and pulse.changed:
                        needs_eval = True
                        break
            if not needs_eval:
                if operator.last_pulse is not None:
                    operator.last_pulse = Pulse.unchanged(operator.last_pulse)
                continue
            source_pulse = (
                operator.source.last_pulse
                if operator.source is not None
                else Pulse(rows=[], changed=True)
            )
            if source_pulse is None:
                source_pulse = Pulse(rows=[], changed=True)
            if self.tracer.enabled:
                with self.tracer.span(
                    "pulse:" + operator.name, kind=operator.kind,
                    rows_in=source_pulse.num_rows,
                ) as span:
                    pulse = operator.evaluate(source_pulse, self.signals)
                    span.set(
                        rows_out=pulse.num_rows if pulse is not None else 0,
                        changed=bool(pulse.changed) if pulse is not None
                        else False,
                    )
                    if source_pulse.batch is not None:
                        # did the columnar input survive this operator, or
                        # did it (or a fallback) force the dict-row view?
                        span.set(materialized=pulse is None
                                 or pulse.batch is None
                                 or source_pulse.materialized)
            else:
                operator.evaluate(source_pulse, self.signals)
            evaluated.append(operator)
        return evaluated

    def results(self, name):
        """Convenience: the current output rows of a named operator."""
        pulse = self.operator(name).last_pulse
        return [] if pulse is None else pulse.rows

    def total_eval_seconds(self):
        return sum(operator.eval_seconds for operator in self.operators)

    def reset_instrumentation(self):
        for operator in self.operators:
            operator.eval_count = 0
            operator.eval_seconds = 0.0
