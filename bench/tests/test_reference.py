"""The numpy oracle against hand-written expected tables."""

import numpy as np

import reference


def column(values):
    """A (values, valid) pair from a list where None is NULL."""
    valid = np.array([value is not None for value in values])
    data = np.array([0.0 if value is None else value for value in values])
    return data, valid


def strings(values):
    out = np.empty(len(values), dtype=object)
    out[:] = values
    return out, np.ones(len(values), dtype=bool)


def test_nice_bins_follow_vega():
    assert reference.nice_bins(0.0, 100.0, 10) == (0.0, 100.0, 10.0)
    assert reference.nice_bins(-28.0, 612.0, 20) == (-50.0, 650.0, 50.0)
    assert reference.nice_bins(3.0, 7.0, 5) == (3.0, 7.0, 1.0)
    assert reference.nice_bins(0.0, 1.0, 4) == (0.0, 1.0, 0.5)


def test_histogram_against_hand_table():
    # extent [1, 9] over 4 bins: step 2, buckets from 0 to 10
    expected = {
        (0.0, 2.0): {"count": 1.0},     # 1
        (2.0, 4.0): {"count": 2.0},     # 2.5, 3.9
        (4.0, 6.0): {"count": 1.0},     # 4.0 (left-closed)
        (8.0, 10.0): {"count": 1.0},    # 9
        (None, None): {"count": 2.0},   # the NULLs group together
    }
    got = reference.histogram(
        column([1.0, 2.5, 3.9, 4.0, None, 9.0, None]), 4)
    assert got == expected


def test_delay_cube_against_hand_table():
    columns = {
        "dep_delay": column([10.0, 10.0, None, 1.0, 30.0, 30.0]),
        "arr_delay": column([10.0, 15.0, 50.0, 1.0, 30.0, None]),
        "distance": column([100.0, 150.0, 100.0, 100.0, 900.0, 100.0]),
        "air_time": column([20.0, 40.0, 10.0, 10.0, None, 10.0]),
        "carrier": strings(["AA", "AA", "AA", "AA", "DL", "DL"]),
    }
    # threshold 15: rows 0, 1, 4 pass (NULL delays never do); distance
    # extent [100, 900] over 2 bins: step 500
    expected = {
        (0.0, 500.0, "AA"): {"n": 2.0, "mean_air": 30.0},
        (500.0, 1000.0, "DL"): {"n": 1.0, "mean_air": None},
    }
    assert reference.delay_cube(columns, 15.0, maxbins=2) == expected


def test_log_window_against_hand_table():
    latency, latency_ok = column([10.0, 30.0, None, 5.0, None])
    got = reference.log_window(
        strings(["a", "a", "a", "b", "c"])[0],
        strings(["INFO", "INFO", "WARN", "INFO", "INFO"])[0],
        latency, latency_ok)
    assert got == {
        ("a", "INFO"): {"n": 2.0, "mean_latency": 20.0, "max_latency": 30.0},
        ("a", "WARN"): {"n": 1.0, "mean_latency": None, "max_latency": None},
        ("b", "INFO"): {"n": 1.0, "mean_latency": 5.0, "max_latency": 5.0},
        ("c", "INFO"): {"n": 1.0, "mean_latency": None, "max_latency": None},
    }


def test_compare_ignores_order_and_last_bits_but_nothing_else():
    expected = {(0.0, 2.0): {"count": 3.0}, (None, None): {"count": 1.0}}
    rows = [{"bin0": None, "bin1": None, "count": 1},
            {"bin0": 0.0, "bin1": 2.0 + 4e-16, "count": 3.0 * (1 + 1e-12)}]
    assert reference.compare_groups(rows, expected, ("bin0", "bin1")) == []
    rows[1]["count"] = 3.0 * (1 + 1e-6)
    assert reference.compare_groups(rows, expected, ("bin0", "bin1"))
    assert reference.compare_groups(rows[:1], expected, ("bin0", "bin1"))
    assert reference.compare_groups(
        rows + [{"bin0": 2.0, "bin1": 4.0, "count": 1.0}], expected,
        ("bin0", "bin1"))


def test_scatter_check_accepts_the_truth_and_rejects_a_stranger():
    rng = np.random.default_rng(0)
    distance = rng.uniform(50.0, 3000.0, 500)
    air = distance / 7.5 + rng.normal(18.0, 8.0, 500)
    columns = {"distance": (distance, np.ones(500, dtype=bool)),
               "air_time": (air, np.ones(500, dtype=bool)),
               "carrier": strings(["AA"] * 500)}
    keep = distance >= 400.0
    slope, intercept = np.polyfit(distance[keep], air[keep], 1)
    points = [{"distance": d, "air_time": a, "carrier": "AA"}
              for d, a in zip(distance[keep][:100], air[keep][:100])]
    ends = (distance[keep].min(), distance[keep].max())
    trend = [{"distance": x, "air_time": intercept + slope * x}
             for x in ends]
    assert reference.check_scatter(columns, 400.0, 100, points, trend) == []
    points[3] = dict(points[3], air_time=points[3]["air_time"] + 1.0)
    trend[1] = dict(trend[1], air_time=trend[1]["air_time"] * 1.001)
    errors = reference.check_scatter(columns, 400.0, 100, points, trend)
    assert len(errors) == 2
