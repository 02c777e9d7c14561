"""SQL semantics over the shared grouping kernels.

The executor (:mod:`repro.engine.executor`) groups rows and reduces them
to partial states with :mod:`repro.data.grouping`, the kernels every
placement shares.  What is SQL about it lives here: which aggregate
calls decompose into a partial state (:func:`partial_kind`), and how a
final state reads as the output column (:func:`state_column`) — a group
with no valid input is NULL (0 for counts), as is a NaN result, like
``Column.from_values`` folds it.
"""

import numpy as np

from repro.data import Column, SQLType
from repro.engine.sqlast import Star

_DECOMPOSABLE = {"SUM": "sum", "AVG": "avg", "MIN": "min", "MAX": "max"}


def partial_kind(call):
    """Partial-state kind for a decomposable aggregate call, else None."""
    if call.distinct:
        return None
    name = call.name.upper()
    if name == "COUNT":
        star = len(call.args) == 1 and isinstance(call.args[0], Star)
        return "count_star" if star else "count"
    return _DECOMPOSABLE.get(name)


def state_column(kind, state, result_type):
    """The aggregate's output column from its final state: groups with
    no valid input are NULL (0 for counts), as is a NaN result."""
    if kind in ("count", "count_star"):
        return Column(SQLType.DOUBLE, state[0])
    if kind in ("min", "max"):
        values, present = state
        if result_type is SQLType.VARCHAR:
            return Column(
                SQLType.VARCHAR, np.where(present, values, ""), present
            )
    else:
        values, counts = state
        present = counts > 0
        if kind == "avg":
            values = values / np.where(present, counts, 1.0)
    values = np.asarray(values, dtype=np.float64)
    present = present & ~np.isnan(values)
    return Column(SQLType.DOUBLE, np.where(present, values, 0.0), present)
