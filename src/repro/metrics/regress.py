"""Benchmark regression gate: compare fresh BENCH_*.json records against
committed baselines.

The bench suite writes machine-readable ``BENCH_<name>.json`` records
(see ``benchmarks/conftest.py``); the first recorded run of each lives
under ``benchmarks/baselines/``.  This tool compares per-metric with two
kinds of tolerance:

* **floor** — an absolute, scale-independent bound (the CI tripwires:
  parallel serial fallbacks == 0 and speedup >= 1.0, columnar >= 2.0,
  tiles >= 5.0).  Always checked, also for a metric the baseline
  predates, because ratio metrics normalize out machine speed.
* **ratio** — current must stay within a fraction of the baseline value.
  Only checked when the two records ran at the same ``REPRO_BENCH_SCALE``
  (a 0.2-scale CI run against a 1.0-scale baseline would false-alarm:
  e.g. the tile speedup shrinks with the requery being beaten).

Raw wall-clock timings are deliberately not gated — they track the host,
not the code.  Exit status 1 on any regression::

    python -m repro.metrics.regress --baseline-dir benchmarks/baselines
"""

import argparse
import fnmatch
import glob
import json
import os
import sys
from dataclasses import dataclass


@dataclass
class Rule:
    """One gated metric pattern (dotted-path fnmatch into ``results``)."""

    pattern: str
    #: "higher" = regressions are drops; "lower" = regressions are rises
    direction: str = "higher"
    #: current must stay >= baseline * ratio (higher) or <= baseline /
    #: ratio (lower); None disables the baseline-relative check
    ratio: float = 0.5
    #: absolute scale-independent bound; None disables
    floor: float = None


#: per-benchmark gates; unknown benchmarks get envelope checks only
DEFAULT_RULES = {
    "parallel": [
        # "serial" is the one executor with one worker (the same morsel
        # tasks, run inline), so the speedup is only what the extra
        # workers buy: a node that stops reducing per morsel is caught
        # by its fallback count, not by a speedup margin.  Nearly all of
        # the aggregate is morsel tasks, so more workers must not lose
        # to one.  Only top-N's per-morsel selection runs as morsel tasks
        # (under half of the query): on two cores its ratio reads
        # 0.89-1.02 at 2 M rows and 1.03-1.08 at 10 M, so its floor
        # only bounds what handing tasks to a pool costs.
        Rule("queries.*.serial_fallbacks.*", "lower", ratio=None,
             floor=0),
        Rule("queries.aggregate.speedup_vs_serial.*", "higher",
             ratio=0.5, floor=1.0),
        Rule("queries.topn.speedup_vs_serial.*", "higher",
             ratio=0.5, floor=0.8),
    ],
    "columnar": [
        Rule("speedup", "higher", ratio=0.5, floor=2.0),
    ],
    "tiles": [
        Rule("median_speedup", "higher", ratio=0.5, floor=5.0),
    ],
    "interaction": [
        Rule("*.prefetch_on.cache_hit_rate", "higher",
             ratio=0.7, floor=0.5),
    ],
    "serving": [
        # Zero dropped requests: everything issued is served or
        # explicitly rejected, on both sides of the wire.
        Rule("totals.unaccounted", "lower", ratio=None, floor=0),
        Rule("totals.errors", "lower", ratio=None, floor=0),
        Rule("checks.server_unaccounted", "lower", ratio=None, floor=0),
        # The constrained tenant must actually hit admission control.
        Rule("checks.bronze_rejections", "higher", ratio=None, floor=1),
        Rule("totals.throughput_rps", "higher", ratio=0.5, floor=5.0),
    ],
    "scaling": [
        # The out-of-core tentpole: no layer may silently flatten a
        # chunked/memmap column during the query phase, and at the
        # largest swept scale net peak RSS stays under half the on-disk
        # dataset size.  The bench only records an enforceable fraction
        # when its largest scale is big enough for the criterion to be
        # physical (see bench_e14_scaling.py), and CI runs it at such a
        # scale — so the floor is safe to check scale-independently.
        # Only the scale-independent gate.* paths are ruled: per-scale
        # paths (scales.<rows>.*) change names with REPRO_BENCH_SCALE,
        # so a reduced-scale CI record would trip the presence check.
        Rule("gate.max_query_consolidations", "lower", ratio=None,
             floor=0),
        Rule("gate.net_rss_over_disk", "lower", ratio=None, floor=0.5),
    ],
}

ENVELOPE_KEYS = ("benchmark", "results", "scale", "timestamp")


@dataclass
class Finding:
    benchmark: str
    path: str
    current: object
    baseline: object
    check: str
    ok: bool
    detail: str = ""


def flatten(value, prefix=""):
    """Numeric leaves of a nested dict as {dotted path: number}."""
    out = {}
    if isinstance(value, dict):
        for key, item in value.items():
            dotted = "{}.{}".format(prefix, key) if prefix else str(key)
            out.update(flatten(item, dotted))
    elif isinstance(value, bool):
        pass
    elif isinstance(value, (int, float)):
        out[prefix] = value
    return out


def compare_records(name, baseline, current, rules=None):
    """All findings for one benchmark record pair (ok and regressed)."""
    rules = DEFAULT_RULES.get(name, []) if rules is None else rules
    findings = []
    for key in ENVELOPE_KEYS:
        if key not in current:
            findings.append(Finding(
                name, key, None, None, "envelope", False,
                "missing envelope key"))
    base_flat = flatten(baseline.get("results", {}))
    curr_flat = flatten(current.get("results", {}))
    same_scale = baseline.get("scale") == current.get("scale")

    for rule in rules:
        matched = sorted(
            path for path in set(base_flat) | set(curr_flat)
            if fnmatch.fnmatch(path, rule.pattern)
        )
        for path in matched:
            base_value = base_flat.get(path)
            if path not in curr_flat:
                findings.append(Finding(
                    name, path, None, base_value, "presence", False,
                    "metric missing from current record"))
                continue
            value = curr_flat[path]
            if rule.floor is not None:
                ok = (value >= rule.floor if rule.direction == "higher"
                      else value <= rule.floor)
                findings.append(Finding(
                    name, path, value, base_value, "floor", ok,
                    "{} {} floor {}".format(
                        "above" if ok else "BELOW",
                        rule.direction, rule.floor)))
            if rule.ratio is not None and same_scale and base_value:
                if rule.direction == "higher":
                    bound = base_value * rule.ratio
                    ok = value >= bound
                else:
                    bound = base_value / rule.ratio
                    ok = value <= bound
                findings.append(Finding(
                    name, path, value, base_value, "ratio", ok,
                    "bound {:.4g} (baseline {:.4g} x tol {})".format(
                        bound, base_value, rule.ratio)))
    if not same_scale:
        findings.append(Finding(
            name, "scale", current.get("scale"), baseline.get("scale"),
            "scale", True,
            "scales differ; baseline-relative checks skipped"))
    return findings


def _load(path):
    with open(path) as handle:
        return json.load(handle)


def run(baseline_dir, current_dir, names=None, strict_missing=False,
        out=None):
    """Compare every baseline against its current record; returns the
    exit status (0 clean, 1 regression)."""
    out = out or sys.stdout
    baselines = sorted(glob.glob(os.path.join(baseline_dir, "BENCH_*.json")))
    if names:
        wanted = {"BENCH_{}.json".format(name) for name in names}
        baselines = [p for p in baselines if os.path.basename(p) in wanted]
    if not baselines:
        print("no baselines found under {}".format(baseline_dir), file=out)
        return 1

    status = 0
    for baseline_path in baselines:
        file_name = os.path.basename(baseline_path)
        name = file_name[len("BENCH_"):-len(".json")]
        current_path = os.path.join(current_dir, file_name)
        if not os.path.exists(current_path):
            message = "{}: no current record at {} (skipped)".format(
                name, current_path)
            print(message, file=out)
            if strict_missing:
                status = 1
            continue
        findings = compare_records(name, _load(baseline_path),
                                   _load(current_path))
        regressions = [f for f in findings if not f.ok]
        for finding in findings:
            marker = "ok  " if finding.ok else "FAIL"
            print("{} {:<12} {:<52} current={} baseline={} [{}] {}".format(
                marker, finding.benchmark, finding.path,
                _fmt(finding.current), _fmt(finding.baseline),
                finding.check, finding.detail), file=out)
        if regressions:
            status = 1
    print("regress: {}".format("REGRESSION" if status else "clean"),
          file=out)
    return status


def _fmt(value):
    if isinstance(value, float):
        return "{:.4g}".format(value)
    return str(value)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="repro.metrics.regress",
        description="Gate fresh BENCH_*.json records against baselines.",
    )
    parser.add_argument(
        "names", nargs="*",
        help="benchmark names to check (default: every baseline present)",
    )
    parser.add_argument("--baseline-dir", default="benchmarks/baselines")
    parser.add_argument("--current-dir", default=".")
    parser.add_argument(
        "--strict-missing", action="store_true",
        help="fail when a baseline has no current record to compare",
    )
    args = parser.parse_args(argv)
    return run(args.baseline_dir, args.current_dir, names=args.names,
               strict_missing=args.strict_missing)


if __name__ == "__main__":
    sys.exit(main())
