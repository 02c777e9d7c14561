"""E8 (ablation) — cost model accuracy: estimated vs measured.

The partitioning decision (§2.2 step 2) is only as good as the cost
model behind it.  Every cut of the flights pipeline is estimated and
measured, with the shipped default constants and with on-machine
calibration (:func:`repro.planner.calibrate`).

Pass criteria: the cut the estimates rank best is the cut measured best,
and every estimate is within an order of magnitude of its measurement.
"""

from repro.core import VegaPlus
from repro.datagen import generate_flights
from repro.planner import calibrate
from repro.spec import flights_histogram_spec

ROWS = 100_000
CUTS = range(4)


def test_e8_cost_model_ranks_cuts(print_table):
    table = generate_flights(ROWS)
    for label, cost_params in (
        ("default constants", None),
        ("calibrated", calibrate(client_rows=5_000, server_rows=50_000)),
    ):
        session = VegaPlus(flights_histogram_spec(), data={"flights": table},
                           latency_ms=20, cost_params=cost_params)
        estimated = {}
        measured = {}
        for cut in CUTS:
            plan = session.custom_plan({"binned": cut},
                                       label="cut{}".format(cut))
            session.cache.clear()
            estimated[cut] = plan.estimate.total
            measured[cut] = session.run_with_plan(plan).total_seconds
        print_table(
            "E8: cost model accuracy ({})".format(label),
            ["cut", "estimated(s)", "measured(s)", "est/meas"],
            [[cut, "{:.4f}".format(estimated[cut]),
              "{:.4f}".format(measured[cut]),
              "{:.2f}".format(estimated[cut] / measured[cut])]
             for cut in CUTS],
        )

        assert min(CUTS, key=estimated.get) == min(CUTS, key=measured.get)
        for cut in CUTS:
            assert 0.1 < estimated[cut] / measured[cut] < 10.0, (label, cut)
