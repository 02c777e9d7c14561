#!/usr/bin/env python3
"""The one benchmark command of this repository.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload in this (fresh) process, prints every metric by name
with its unit and sample count, checks the program's outputs against the
benchmark's own reference, and prints one JSON object as the last line of
stdout: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  It exits non-zero when anything failed.

Without ``--workload`` it runs all six, each in its own subprocess, one at
a time; ``--repeat K`` does that K times and prints the spread of every
(workload, metric) pair against the bounds in ``BENCHMARK.json``.
``--smoke`` divides row counts by 20 and runs 30 events per workload.

See README.md for what each workload and metric means.
"""

import argparse
import functools
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCES = os.path.join(ROOT, "src")
#: everything the benchmark writes (spill files, records) goes here
SCRATCH = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("flights_cold", "flights_warm", "scatter_client",
             "brush_stream", "logs_spill", "serve_hist")


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed phase "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_const", const=1,
                        dest="trace", help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--repeat", type=int, default=1, metavar="K")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="where to write the full record(s) as JSON "
                             "(default: a fresh file under .bench_out/)")
    return parser.parse_args(argv)


def default_seconds(args):
    """``--seconds``, else the contract's run length; a smoke run stops at
    its 30 events."""
    if args.seconds is not None:
        return args.seconds
    return 0.0 if args.smoke else load_contract()["run_seconds"]


# -- one workload, in this process ----------------------------------------------


def build(name):
    """``(workload, run_end_to_end, run_traced)`` for one workload name."""
    import harness
    import serving
    import workloads

    if name == serving.ServeHist.name:
        workload = serving.ServeHist()
        return workload, workload.run_end_to_end, workload.run_traced
    workload = next(cls for cls in workloads.IN_PROCESS
                    if cls.name == name)()
    return (workload, functools.partial(harness.run_end_to_end, workload),
            functools.partial(harness.run_traced, workload))


def run_one(args):
    if not os.path.isdir(os.path.join(SOURCES, "repro")):
        sys.exit("bench/run.py: the program's sources (src/repro) are not "
                 "in this checkout")
    sys.path.insert(0, SOURCES)
    import host

    os.makedirs(SCRATCH, exist_ok=True)
    seconds = default_seconds(args)
    _, end_to_end, traced = build(args.workload)
    if args.trace:
        record = traced(args.seed, seconds, args.smoke, SCRATCH,
                        host.calibrate())
    else:
        record = end_to_end(args.seed, seconds, args.smoke, SCRATCH)
    record["provenance"] = host.provenance(ROOT)
    record["seconds"] = seconds
    record["trace"] = args.trace
    write_out(args.out, record, "{}-trace{}".format(args.workload,
                                                    args.trace))
    print_record(record)
    correct = record["failed"] == 0
    # the contract line: last on stdout
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


def write_out(path, payload, stem):
    if path is None:
        os.makedirs(SCRATCH, exist_ok=True)
        path = os.path.join(SCRATCH, "{}-{}-{}.json".format(
            stem, os.getpid(), time.time_ns()))
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path


def print_record(record):
    samples = record["samples"]
    print("{} seed={} plan={} events={} failed_share={:.6f}{}".format(
        record["workload"], record["seed"], record["plan_hash"],
        samples["events"], record["failed_share"],
        " (smoke)" if record["smoke"] else ""))
    counts = {
        "setup_s": samples.get("setups"),
        "startup_ms": samples.get("startups"),
    }
    missing = set(record.get("missing", ()))
    for name, metric in record["metrics"].items():
        if name in missing:   # a boundary of this layer did not resolve
            print("  {:<34}{:>16} {}".format(name, "missing",
                                             metric["unit"]))
            continue
        count = counts.get(name, samples["events"]
                           if name.startswith(("event_", "perceived_"))
                           else None)
        note = "" if count is None else "  n={}".format(count)
        if count == samples["events"] and samples["blocks"] > 1:
            note += " (median of {} blocks)".format(samples["blocks"])
        if name == "event_p95_ms" and not samples["p95_supported"]:
            note += "  (fewer than 10 samples beyond p95)"
        print("  {:<34}{:>16.6g} {}{}".format(
            name, metric["value"], metric["unit"], note))
    for message in record["errors"]:
        print("  FAILED {}".format(message))


# -- all six, each in its own subprocess ------------------------------------------


def run_child(name, args, seconds):
    os.makedirs(SCRATCH, exist_ok=True)
    out = os.path.join(SCRATCH, "set-{}-{}-{}.json".format(
        name, os.getpid(), time.time_ns()))
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(seconds), "--trace", str(args.trace),
               "--out", out]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    # the child's report, without its contract line
    sys.stdout.write("".join(done.stdout.splitlines(True)[:-1]))
    sys.stdout.flush()
    try:
        with open(out) as handle:
            record = json.load(handle)
        os.unlink(out)
    except (OSError, ValueError):
        record = None
    return done.returncode, record


def run_set(args, seconds):
    """One full set; returns ``(all ok, [records])``."""
    ok = True
    records = []
    for name in WORKLOADS:
        code, record = run_child(name, args, seconds)
        ok = ok and code == 0 and record is not None
        if record is not None:
            records.append(record)
    return ok, records


def spread_table(sets, contract):
    """Median, quartiles and largest relative deviation from the median
    per (workload, metric) over repeated sets, against the bounds."""
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    lines = ["{:<16}{:<20}{:>12}{:>12}{:>12}{:>9}{:>9}{:>7}".format(
        "workload", "metric", "q1", "median", "q3", "iqr/med", "maxdev",
        "bound")]
    flagged = 0
    for name in WORKLOADS:
        runs = [r for records in sets for r in records
                if r["workload"] == name]
        for metric in (runs[0]["metrics"] if runs else ()):
            values = [r["metrics"][metric]["value"] for r in runs]
            median = statistics.median(values)
            if len(values) < 2 or median == 0:
                continue
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / abs(median)
            worst = max(abs(v - median) for v in values) / abs(median)
            bound = bounds.get(metric)
            flag = ""
            if bound is not None and spread > bound:
                flag = "  EXCEEDS BOUND"
                flagged += 1
            elif bound is not None and spread > bound / 3.0:
                flag = "  above bound/3"
            lines.append(
                "{:<16}{:<20}{:>12.5g}{:>12.5g}{:>12.5g}{:>9.4f}{:>9.4f}"
                "{:>7}{}".format(
                    name, metric, q1, median, q3, spread, worst,
                    "" if bound is None else "{:.2f}".format(bound), flag))
    return lines, flagged


def run_all(args):
    sys.path.insert(0, SOURCES)
    import host

    contract = load_contract()
    seconds = default_seconds(args)
    ok = True
    sets = []
    for index in range(args.repeat):
        if args.repeat > 1:
            print("== set {} of {} ==".format(index + 1, args.repeat))
        set_ok, records = run_set(args, seconds)
        ok = ok and set_ok
        sets.append(records)
    flagged = 0
    if args.repeat > 1:
        lines, flagged = spread_table(sets, contract)
        print("\n".join(lines))
        if not args.smoke and flagged:
            print("{} metric(s) spread wider than their bound".format(
                flagged))
    # calibrate here, in the parent, and last: a child inherits its
    # parent's peak RSS across fork/exec, and calibration allocates 0.5 GB
    calibration = host.calibrate()
    print("host: " + "  ".join(
        "{}={:.4g}".format(key, value)
        for key, value in calibration.items()))
    path = write_out(args.out, {
        "host": calibration, "provenance": host.provenance(ROOT),
        "seed": args.seed, "seconds": seconds, "sets": sets,
    }, "sets")
    print("records written to {}".format(os.path.relpath(path, ROOT)))
    return 0 if ok else 1


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, HERE)
    if args.workload:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
