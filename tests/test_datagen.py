"""Tests for the synthetic dataset generators."""

import numpy as np
import pytest

from repro.data import SQLType
from repro.datagen import (
    CARRIERS,
    ORIGINS,
    generate_census,
    generate_events,
    generate_flights,
)


class TestFlights:
    def test_row_count(self):
        assert generate_flights(1234).num_rows == 1234

    def test_deterministic(self):
        a = generate_flights(500, seed=9).to_rows()
        b = generate_flights(500, seed=9).to_rows()
        assert a == b

    def test_different_seeds_differ(self):
        a = generate_flights(500, seed=1).to_rows()
        b = generate_flights(500, seed=2).to_rows()
        assert a != b

    def test_schema(self):
        table = generate_flights(10)
        names = set(table.column_names)
        assert {"carrier", "origin", "dest", "dep_delay", "arr_delay",
                "distance", "air_time", "year", "month",
                "day_of_week", "date_ms"} <= names
        assert table.column("carrier").type is SQLType.VARCHAR
        assert table.column("dep_delay").type is SQLType.DOUBLE

    def test_carriers_from_catalog(self):
        table = generate_flights(1000)
        assert set(table.column("carrier").to_list()) <= set(CARRIERS)
        assert set(table.column("origin").to_list()) <= set(ORIGINS)

    def test_delay_distribution_shape(self):
        table = generate_flights(20000)
        delays = [value for value in table.column("dep_delay").to_list()
                  if value is not None]
        delays = np.array(delays)
        # Right-skewed: mean above median, long positive tail.
        assert delays.mean() > np.median(delays)
        assert delays.max() > 100
        assert delays.min() >= -30

    def test_cancelled_flights_have_null_delays(self):
        table = generate_flights(20000)
        null_count = table.column("dep_delay").null_count()
        # ~2% of rows.
        assert 0.005 < null_count / 20000 < 0.05

    def test_air_time_correlates_with_distance(self):
        table = generate_flights(5000)
        distance = np.array(table.column("distance").to_list())
        air_time = np.array(table.column("air_time").to_list())
        corr = np.corrcoef(distance, air_time)[0, 1]
        assert corr > 0.9

    def test_years_in_paper_range(self):
        table = generate_flights(2000)
        years = table.column("year").to_list()
        assert min(years) >= 1987 and max(years) <= 2008

    def test_as_rows(self):
        rows = generate_flights(5, as_rows=True)
        assert isinstance(rows, list) and isinstance(rows[0], dict)


class TestCensus:
    def test_panel_shape(self):
        table = generate_census()
        # 16 decades x 15 occupations x 2 sexes.
        assert table.num_rows == 16 * 15 * 2

    def test_replicate_scales(self):
        assert generate_census(replicate=3).num_rows == 3 * 480

    def test_deterministic(self):
        assert generate_census(seed=5).to_rows() == \
            generate_census(seed=5).to_rows()

    def test_farmers_decline(self):
        table = generate_census()
        rows = table.to_rows()
        farmers = {
            row["year"]: row["count"]
            for row in rows
            if row["job"] == "Farmer" and row["sex"] == "male"
        }
        assert farmers[1870.0] > farmers[2000.0]

    def test_clerical_rises(self):
        rows = generate_census().to_rows()
        clerical = {}
        for row in rows:
            if row["job"] == "Clerical Worker":
                clerical[row["year"]] = clerical.get(row["year"], 0) + \
                    row["count"]
        assert clerical[1960.0] > clerical[1860.0]

    def test_nurses_mostly_female(self):
        rows = generate_census().to_rows()
        female = sum(row["count"] for row in rows
                     if row["job"] == "Nurse" and row["sex"] == "female")
        male = sum(row["count"] for row in rows
                   if row["job"] == "Nurse" and row["sex"] == "male")
        assert female > male * 3

    def test_counts_non_negative(self):
        rows = generate_census().to_rows()
        assert all(row["count"] >= 0 for row in rows)


class TestEvents:
    def test_shape(self):
        table = generate_events(1000, num_categories=5)
        assert table.num_rows == 1000
        assert len(set(table.column("category").to_list())) == 5

    def test_values_positive(self):
        table = generate_events(1000)
        assert min(table.column("value").to_list()) >= 0

    def test_deterministic(self):
        assert generate_events(100, seed=4).to_rows() == \
            generate_events(100, seed=4).to_rows()


class TestSessionIntrospection:
    def test_explain_and_dashboard(self):
        from repro.core import VegaPlus
        from repro.spec import flights_histogram_spec

        session = VegaPlus(
            flights_histogram_spec(),
            data={"flights": generate_flights(2000)},
        )
        session.startup()
        text = session.explain()
        assert "cut=" in text
        assert "SELECT" in text
        data = session.dashboard()
        assert data["graph"]["nodes"]
        assert data["breakdown"]["total"] > 0
        assert "round_trips" in data["network"]

    def test_explain_requires_startup(self):
        from repro.core import SessionError, VegaPlus
        from repro.spec import flights_histogram_spec

        session = VegaPlus(
            flights_histogram_spec(),
            data={"flights": generate_flights(100)},
        )
        with pytest.raises(SessionError):
            session.explain()
