"""Shared by the paper-claim tests (``tests/paper/test_e*.py``).

Each test prints the table EXPERIMENTS.md shows for its claim; run
``python -m pytest tests/paper -s`` to see them.
"""

import pytest


def _print_table(title, headers, rows):
    rule = "=" * max(len(title), 8)
    print("\n{}\n{}\n{}".format(rule, title, rule))
    widths = [
        max([len(str(header))] + [len(str(row[index])) for row in rows])
        for index, header in enumerate(headers)
    ]

    def render(cells):
        return "  ".join("{:>{}}".format(str(cell), width)
                         for cell, width in zip(cells, widths))

    print(render(headers))
    print("-" * (sum(widths) + 2 * (len(widths) - 1)))
    for row in rows:
        print(render(row))


@pytest.fixture
def print_table():
    """``print_table(title, headers, rows)`` prints one titled table."""
    return _print_table
