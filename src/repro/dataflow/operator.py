"""Operators: nodes of the reactive dataflow graph.

An operator has named parameters.  A parameter is either a plain value or
a live reference (:class:`OperatorRef` to another operator's value output,
or :class:`SignalRef` — an expression over signals), matching Vega's
"parameters that define an operator can either be fixed values or live
references to other operators" (§2.1).
"""

import time
from dataclasses import dataclass
from functools import cached_property

from repro.expr.evaluator import Evaluator
from repro.expr.fields import signal_refs
from repro.expr.parser import parse


@dataclass(frozen=True)
class OperatorRef:
    """A live reference to another operator's ``value`` output."""

    operator: "Operator"

    def __repr__(self):
        return "OperatorRef({})".format(self.operator.name)


@dataclass(frozen=True)
class DataRef:
    """A live reference to another operator's output *rows* (used by
    lookup's secondary data source)."""

    operator: "Operator"

    def __repr__(self):
        return "DataRef({})".format(self.operator.name)


@dataclass(frozen=True)
class SignalRef:
    """A live reference to an expression over signals."""

    expression: str

    @cached_property
    def ast(self):
        """The parsed expression: parsed once per compiled spec, evaluated
        per event."""
        return parse(self.expression)

    def signals(self, known=None):
        return signal_refs(self.ast, known_signals=known)


class Operator:
    """Base dataflow operator.

    Subclasses implement :meth:`run`, receiving the input pulse and the
    resolved parameter dict; the scheduler handles dirty tracking, timing,
    and propagation.  ``source`` is the upstream data operator (or None
    for roots).
    """

    kind = "operator"

    #: parameter names whose string values are Vega expressions; signals
    #: referenced inside them are tracked as reactive dependencies.
    expression_params = ("expr",)

    def __init__(self, name, params=None, source=None):
        self.name = name
        self.params = dict(params or {})
        self.source = source
        self.rank = -1
        self.last_pulse = None
        self.eval_count = 0
        self.eval_seconds = 0.0

    # -- dependencies ---------------------------------------------------------

    def param_dependencies(self):
        """Operators referenced by parameters (for edge construction)."""
        deps = []
        for value in self.params.values():
            deps.extend(_refs_in(value))
        return deps

    def signal_dependencies(self, known_signals=None):
        """Signal names referenced by parameters (explicit SignalRefs plus
        implicit references inside expression-string parameters)."""
        names = set()
        for key, value in self.params.items():
            if key in self.expression_params and isinstance(value, str):
                try:
                    names |= signal_refs(parse(value), known_signals)
                except Exception:
                    pass  # a bad expression surfaces at evaluation time
            names |= _signals_in(value, known_signals)
        return names

    # -- evaluation -------------------------------------------------------------

    def resolve_params(self, signals):
        """Materialize parameter values: follow refs, evaluate signal
        expressions."""
        evaluator = Evaluator(signals=signals)
        return {
            key: _resolve(value, evaluator) for key, value in self.params.items()
        }

    def evaluate(self, pulse, signals):
        """Timed wrapper around :meth:`run`; updates instrumentation."""
        params = self.resolve_params(signals)
        start = time.perf_counter()
        result = self.run(pulse, params, signals)
        self.eval_seconds += time.perf_counter() - start
        self.eval_count += 1
        self.last_pulse = result
        return result

    def run(self, pulse, params, signals):
        raise NotImplementedError

    def __repr__(self):
        return "{}({!r})".format(type(self).__name__, self.name)


def _refs_in(value):
    if isinstance(value, (OperatorRef, DataRef)):
        return [value.operator]
    if isinstance(value, (list, tuple)):
        refs = []
        for item in value:
            refs.extend(_refs_in(item))
        return refs
    if isinstance(value, dict):
        refs = []
        for item in value.values():
            refs.extend(_refs_in(item))
        return refs
    return []


def _signals_in(value, known_signals):
    if isinstance(value, SignalRef):
        return value.signals(known_signals)
    if isinstance(value, (list, tuple)):
        names = set()
        for item in value:
            names |= _signals_in(item, known_signals)
        return names
    if isinstance(value, dict):
        names = set()
        for item in value.values():
            names |= _signals_in(item, known_signals)
        return names
    return set()


def _resolve(value, evaluator):
    if isinstance(value, OperatorRef):
        pulse = value.operator.last_pulse
        return pulse.value if pulse is not None else None
    if isinstance(value, DataRef):
        pulse = value.operator.last_pulse
        return pulse.rows if pulse is not None else []
    if isinstance(value, SignalRef):
        return evaluator.evaluate(value.ast)
    if isinstance(value, list):
        return [_resolve(item, evaluator) for item in value]
    if isinstance(value, tuple):
        return tuple(_resolve(item, evaluator) for item in value)
    if isinstance(value, dict):
        return {key: _resolve(item, evaluator) for key, item in value.items()}
    return value
