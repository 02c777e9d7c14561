"""Pinned regression tests for equivalence bugs the differential fuzzer
surfaced.  Each seed below produced a genuine client/server or
backend/backend divergence when first fuzzed; the fix is described on the
test.  ``check_case`` re-runs the full oracle (every partition cut on
every backend plus the optimizer metamorphic check), so a regression in
any of the fixed layers re-fails its seed here.
"""

import pytest

from repro.fuzz import generate_case
from repro.fuzz.oracle import check_case

pytestmark = pytest.mark.differential


def _assert_clean(seed):
    report = check_case(generate_case(seed))
    assert not report.mismatches, report.describe()


def test_seed_0_lookup_default_type_mismatch():
    """Lookup with a numeric ``default`` over a string value column: the
    embedded engine rejected the CASE at execution time while sqlite
    silently coerced the default to text.  Fixed by typing LookupTable
    markers and making type-mismatched defaults Untranslatable (the
    planner pins the lookup to the client)."""
    _assert_clean(0)


def test_seed_2_window_sum_over_all_null_partition():
    """joinaggregate sum over an all-NULL partition: the client returns
    0 (Vega sum-of-nothing) while a bare windowed SUM returns NULL.
    Fixed by COALESCE(..., 0) around windowed SUM in the translator."""
    _assert_clean(2)


def test_seed_34_null_unsafe_inequality():
    """``datum.k != 'x'`` with NULL k: JS keeps the row (true) while
    SQL ``<>`` drops it (NULL).  Fixed by emitting COALESCE-wrapped
    comparisons that produce total booleans (safe under NOT)."""
    _assert_clean(34)


def test_seed_36_stack_magnitude_of_negatives():
    """Stack over negative values: Vega stacks |value| magnitudes while
    the translation summed raw values, flipping segment signs.  Fixed by
    ABS+COALESCE magnitudes in the stack translation (and NaN-as-zero on
    the client side)."""
    _assert_clean(36)


def test_seed_39_pushdown_below_window_function():
    """Predicate pushdown moved a filter inside the derived table whose
    SELECT list contained a window function, shrinking the window's row
    set (joinaggregate-then-filter computed the mean over post-filter
    groups).  Fixed by refusing pushdown below window functions.  Also
    pins the NaN-vs-NULL group-key fold in the client aggregate."""
    _assert_clean(39)


def test_seed_700050_bin_top_edge_clamp():
    """Bin over a zero-width extent: bin_params widens stop to lo+1, so
    the translation's blanket ``LEAST(raw, stop - step)`` clamped every
    bucket below the start.  Fixed by a CASE clamp that mirrors the
    client exactly (only raw >= stop folds into the last bin)."""
    _assert_clean(700050)


def test_seed_123403708_empty_dataset_schema():
    """An empty dataset (zero rows, so zero known columns) diverged three
    ways: sqlite raised at load time on ``CREATE TABLE t ()``, the
    zero-column base projection rendered invalid ``SELECT FROM t``, and a
    pushed-down window transform referencing a never-materialized column
    failed the server's static binding while the client succeeded
    vacuously on zero rows.  Fixed by a placeholder column in the sqlite
    loader, a constant placeholder projection, and treating transforms
    over a zero-column schema as Untranslatable (pinned to the client)."""
    _assert_clean(123403708)


def test_seed_700105_clamp_null_folds_to_hi():
    """``clamp(datum.f2, -1, 5)`` over a NULL input: the client coerces
    through ``_number`` (NULL -> NaN) and Python's min/max keep the
    non-NaN side, so clamp(NULL) yields the *hi* bound — while the SQL
    translation ``LEAST(GREATEST(x, lo), hi)`` yields NULL.  Downstream
    extent+bin then computed different bucket widths per cut.  Fixed by
    a CASE translation that folds NULL to the hi bound (literal bounds
    only; computed bounds are pinned to the client).

    The shrunk repro also exposed a second bug this commit fixes: a
    formula/filter expression over a column absent from the input schema
    diverged three ways (client reads missing fields as NULL, the
    embedded engine errors on the unknown column, sqlite's
    double-quoted-string fallback reads ``"m1"`` as the literal
    ``'m1'``).  ``_compile_expr`` now refuses such expressions, pinning
    the step to the client."""
    _assert_clean(700105)


def test_seed_80802431_sqlite_quoted_literal_fallback():
    """A mark/scale referencing a field absent from the dataset: the
    embedded engine raised ``unknown column`` while SQLite's legacy
    double-quoted-string fallback read ``"y3_top"`` as the *literal*
    ``'y3_top'`` and returned fake rows — a success-vs-error outcome
    split.  Python's stdlib sqlite3 cannot switch the misfeature off, so
    the adapter now validates every quoted identifier against the loaded
    schemas (plus aliases the statement itself defines; a reference's
    own trailing alias does not vouch for it) and raises like the
    embedded engine.  All configurations now fail consistently."""
    _assert_clean(80802431)


def test_seed_700152_clamp_null_after_variance():
    """Same clamp-over-NULL class as seed 700105, reached through
    ``clamp(datum.variance_f2, -1, 5)`` where the variance aggregate
    yields NULL for single-row groups: server cuts produced NULL, client
    cuts produced 5.0.  Pinned by the NULL-folding CASE clamp
    translation."""
    _assert_clean(700152)


# -- tiles-vs-direct axis ----------------------------------------------------


def _assert_tiles_clean(seed):
    from repro.fuzz.tiles import check_tiles_case, generate_tiles_case

    report = check_tiles_case(generate_tiles_case(seed))
    assert report.ok, report.describe()


def test_tiles_seed_1_ordered_comparison_against_null_literal():
    """A brush bound cleared to null: the client evaluator coerces null
    to NaN, so ``datum.bx >= lo`` is uniformly false — while the SQL
    compiler's null-literal special case rewrote the ordered comparison
    to ``IS NOT NULL``, keeping every non-null row.  The tile path
    (representative-evaluation membership, client semantics) disagreed
    with the direct requery until the translator emitted FALSE for
    ordered comparisons against a null literal."""
    _assert_tiles_clean(1)


def test_tiles_seed_0_two_axis_brush_with_null_bounds():
    """2-D brush over bx/by grouped by a nullable category, with null
    bounds arriving mid-sequence: pins separable-axis membership, the
    NaN-vs-NULL group-key fold in cube group keys, and null-slot
    handling on both axes."""
    _assert_tiles_clean(0)


def test_tiles_seed_12_append_delta_patch():
    """Mid-sequence streaming append into a binned 2-D brush target: the
    delta pulse must patch the cube in place (bin the incoming rows,
    extend the group dictionary) and keep agreeing with a direct requery
    over the merged table."""
    _assert_tiles_clean(12)


@pytest.mark.xfail(strict=True, reason=(
    "open (ROADMAP item 1): the client's running sum and the server's "
    "windowed SUM differ in the last bit, and the next step groups on it"))
def test_seed_1700069_order_sensitive_float_sum_feeds_group_key():
    """``stack`` over a column holding 1e12, then an ``aggregate`` grouped
    on the stacked float: ``embedded/cut=0`` (the client's running sum)
    and every ``cut>=1`` config (the server's windowed ``SUM``) disagree
    in the last bit, and grouping on that float turns the difference into
    a different set of groups, which no tolerance can hide.  Not fixed
    yet; the xfail is strict, so the fix must remove the mark."""
    _assert_clean(1700069)
