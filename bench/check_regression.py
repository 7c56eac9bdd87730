#!/usr/bin/env python3
"""Benchmark-regression gate for the sweep benches.

Compares a freshly produced BENCH_sweep.json against the committed
bench/baseline.json and fails (exit 1) when either of these regresses
beyond the tolerance on any sweep label present in both files:

  * trials_per_sec drops below (1 - TOLERANCE) x baseline  -> slower
  * allocs_per_event rises above (1 + TOLERANCE) x baseline + ABS_EPS
    -> the hot path started allocating again
  * cascades_per_event rises above (1 + TOLERANCE) x baseline + ABS_EPS
    -> the timing wheel started moving events between buckets more than
       the workload warrants (a scheduler-placement regression)
  * campaign_trials_per_sec drops below (1 - TOLERANCE) x baseline
    -> the streaming-sink path (AggregatingSink, collect_results=false;
       what tools/h2sim-campaign runs) got slower. Only gated on sweeps
       where either side records a non-zero value: collected sweeps
       legitimately report 0 for it.

A gated metric that the baseline entry records but the run entry omits
entirely is a HARD failure (shown as "missing" in the delta table): a
silently dropped field would otherwise pass the ceiling/floor checks
forever with its implicit zero.

setup_seconds_mean (per-trial world-construction time) is reported for
trend-watching but never gated: it is wall-clock and machine-dependent.
A baseline entry that predates a gated ratio leaves that ratio ungated;
--strict-new refuses such stale entries so the baseline must be
refreshed together with the field that introduced it.

It also fails if the run's "deterministic" flag is false, or if a label
recorded in the baseline is missing from the run (a silently dropped
sweep would otherwise hide a regression forever).

The reverse direction is checked too: a sweep present in the run but
absent from the baseline is reported, and with --strict-new it fails
the gate — CI passes the flag so a newly added bench cannot merge
without its baseline entry, which would leave it permanently ungated.

Baseline formats
----------------
Two shapes are accepted:

  * combined (preferred): {"benches": {"<bench name>": <sweep doc>, ...}}
    — one file gating several benches; the section matching the run's
    "bench" field is selected (missing section = every run sweep counts
    as new, so --strict-new fails until the baseline is refreshed).
  * legacy flat: a single sweep doc ({"bench": ..., "sweeps": [...]}),
    compared directly.

Refreshing the baseline
-----------------------
When a PR intentionally changes performance (hardware-independent ratios
like allocs_per_event should stay put; trials_per_sec moves with real
optimisations), regenerate the sweeps CI runs and merge them:

    cd build/bench
    ./bench_table2_accuracy 4 && cp BENCH_sweep.json /tmp/t2.json
    ./bench_load_matrix 4 1,16 && cp BENCH_sweep.json /tmp/lm.json
    cd ../..
    python3 bench/check_regression.py --merge bench/baseline.json \
        /tmp/t2.json /tmp/lm.json

and mention the before/after numbers in the PR description. The
tolerance is deliberately wide (+-25%) so machine-to-machine variance in
trials_per_sec does not flap the gate; allocs_per_event is a pure
function of the workload and barely moves between machines.

Usage:
    python3 bench/check_regression.py [--strict-new] <BENCH_sweep.json> [baseline.json]
    python3 bench/check_regression.py --merge <baseline.json> <sweep.json>...
"""

import json
import os
import sys

TOLERANCE = 0.25
# Absolute slack for allocs_per_event: warm-up allocations shift slightly
# with trial count, and a ratio near zero makes pure relative comparison
# brittle.
ABS_EPS = 0.002


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def fmt_delta(new, old):
    if old == 0:
        return "n/a" if new == 0 else "+inf"
    return f"{(new - old) / old * 100.0:+.1f}%"


def select_baseline(base, bench_name):
    """Returns (sweep doc or {}, note or None) for the run's bench."""
    if "benches" in base:
        section = base["benches"].get(bench_name)
        if section is None:
            return {}, f"baseline has no section for bench '{bench_name}'"
        return section, None
    return base, None


def merge_baselines(out_path, sweep_paths):
    """--merge: fold one sweep doc per bench into the combined format."""
    benches = {}
    if os.path.exists(out_path):
        existing = load(out_path)
        if "benches" in existing:
            benches = existing["benches"]
        elif "bench" in existing:
            benches[existing["bench"]] = existing
    for path in sweep_paths:
        doc = load(path)
        name = doc.get("bench")
        if not name:
            sys.stderr.write(f"{path}: no 'bench' field, not a sweep doc\n")
            return 2
        benches[name] = doc
        print(f"merged '{name}' from {path}")
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump({"benches": dict(sorted(benches.items()))}, f, indent=1)
        f.write("\n")
    print(f"wrote {out_path} ({len(benches)} benches)")
    return 0


def main(argv):
    args = argv[1:]
    if args and args[0] == "--merge":
        if len(args) < 3:
            sys.stderr.write(__doc__)
            return 2
        return merge_baselines(args[1], args[2:])
    strict_new = "--strict-new" in args
    args = [a for a in args if a != "--strict-new"]
    if not args:
        sys.stderr.write(__doc__)
        return 2
    sweep_path = args[0]
    baseline_path = (
        args[1]
        if len(args) > 1
        else os.path.join(os.path.dirname(os.path.abspath(__file__)), "baseline.json")
    )

    run = load(sweep_path)
    base, note = select_baseline(load(baseline_path), run.get("bench", ""))
    if note:
        print(f"note: {note}; every run sweep is treated as new")

    failures = []
    if not run.get("deterministic", False):
        failures.append("run reports deterministic=false")

    run_by_label = {e["label"]: e for e in run.get("sweeps", [])}
    base_by_label = {e["label"]: e for e in base.get("sweeps", [])}

    rows = []
    for label, b in base_by_label.items():
        r = run_by_label.get(label)
        if r is None:
            failures.append(f"sweep '{label}' present in baseline but missing from run")
            continue

        # A gated metric the baseline records but the run omits is a hard
        # failure: its implicit zero would sail under every ceiling.
        def run_metric(key, gated_when=lambda bv: True):
            bv = b.get(key)
            rv = r.get(key)
            if bv is not None and rv is None and gated_when(bv):
                failures.append(
                    f"sweep '{label}': metric '{key}' present in baseline "
                    f"but missing from run"
                )
                return bv, None
            return bv, rv

        verdicts = []
        missing = []

        tps_old, tps_new = run_metric("trials_per_sec")
        if tps_new is None:
            missing.append("trials_per_sec")
            tps_new_txt = "missing"
            tps_old = tps_old or 0.0
            tps_new = 0.0
            delta_tps = "n/a"
        else:
            tps_floor = tps_old * (1.0 - TOLERANCE)
            if tps_new < tps_floor:
                verdicts.append(f"trials/s {tps_new:.2f} < floor {tps_floor:.2f}")
            tps_new_txt = f"{tps_new:.2f}"
            delta_tps = fmt_delta(tps_new, tps_old)

        ape_old, ape_new = run_metric("allocs_per_event")
        if ape_old is not None and ape_new is None:
            missing.append("allocs_per_event")
            ape_new_txt = "missing"
            ape_new = 0.0
            delta_ape = "n/a"
        else:
            ape_old = ape_old or 0.0
            ape_new = ape_new or 0.0
            ape_ceil = ape_old * (1.0 + TOLERANCE) + ABS_EPS
            if ape_new > ape_ceil:
                verdicts.append(f"allocs/event {ape_new:.6f} > ceil {ape_ceil:.6f}")
            ape_new_txt = f"{ape_new:.6f}"
            delta_ape = fmt_delta(ape_new, ape_old)

        cpe_old = b.get("cascades_per_event")
        cpe_new = r.get("cascades_per_event")
        if cpe_old is None:
            msg = f"sweep '{label}': baseline predates cascades_per_event"
            if strict_new:
                failures.append(msg + " (--strict-new); refresh bench/baseline.json")
            else:
                print(f"note: {msg}; refresh bench/baseline.json to gate it")
            cpe_old = 0.0
            cpe_new = cpe_new or 0.0
            cpe_new_txt = f"{cpe_new:.4f}"
        elif cpe_new is None:
            failures.append(
                f"sweep '{label}': metric 'cascades_per_event' present in "
                f"baseline but missing from run"
            )
            missing.append("cascades_per_event")
            cpe_new = 0.0
            cpe_new_txt = "missing"
        else:
            cpe_ceil = cpe_old * (1.0 + TOLERANCE) + ABS_EPS
            if cpe_new > cpe_ceil:
                verdicts.append(f"cascades/event {cpe_new:.6f} > ceil {cpe_ceil:.6f}")
            cpe_new_txt = f"{cpe_new:.4f}"

        camp_old = b.get("campaign_trials_per_sec")
        camp_new = r.get("campaign_trials_per_sec")
        camp_new_txt = f"{camp_new or 0.0:.2f}"
        if (camp_new or 0.0) > 0.0 or (camp_old or 0.0) > 0.0:
            if camp_old is None:
                # Stale baseline: the run records a streamed-sink throughput
                # the baseline has never seen, so the floor would be ungated.
                msg = f"sweep '{label}': baseline predates campaign_trials_per_sec"
                if strict_new:
                    failures.append(msg + " (--strict-new); refresh bench/baseline.json")
                else:
                    print(f"note: {msg}; refresh bench/baseline.json to gate it")
            elif camp_new is None and camp_old > 0.0:
                failures.append(
                    f"sweep '{label}': metric 'campaign_trials_per_sec' present "
                    f"in baseline but missing from run"
                )
                missing.append("campaign_trials_per_sec")
                camp_new_txt = "missing"
            else:
                camp_floor = (camp_old or 0.0) * (1.0 - TOLERANCE)
                if (camp_new or 0.0) < camp_floor:
                    verdicts.append(
                        f"campaign trials/s {camp_new or 0.0:.2f} < floor {camp_floor:.2f}"
                    )
        camp_old = camp_old or 0.0

        setup_new = r.get("setup_seconds_mean", 0.0)
        setup_old = b.get("setup_seconds_mean", 0.0)
        if verdicts:
            failures.append(f"sweep '{label}': " + "; ".join(verdicts))

        verdict_txt = "FAIL" if (verdicts or missing) else "ok"
        rows.append(
            (
                label,
                f"{tps_old:.2f}",
                tps_new_txt,
                delta_tps,
                f"{ape_old:.6f}",
                ape_new_txt,
                delta_ape,
                f"{cpe_old:.4f}",
                cpe_new_txt,
                f"{camp_old:.2f}",
                camp_new_txt,
                f"{setup_old * 1e3:.2f}",
                f"{setup_new * 1e3:.2f}",
                verdict_txt,
            )
        )

    # Reverse direction: sweeps the run produced that the baseline has never
    # seen. Without a baseline entry they are ungated, so CI (--strict-new)
    # refuses them until bench/baseline.json is refreshed alongside the new
    # bench.
    new_labels = [label for label in run_by_label if label not in base_by_label]
    for label in new_labels:
        r = run_by_label[label]
        rows.append(
            (
                label,
                "-",
                f"{r.get('trials_per_sec', 0.0):.2f}",
                "n/a",
                "-",
                f"{r.get('allocs_per_event', 0.0):.6f}",
                "n/a",
                "-",
                f"{r.get('cascades_per_event', 0.0):.4f}",
                "-",
                f"{r.get('campaign_trials_per_sec', 0.0):.2f}",
                "-",
                f"{r.get('setup_seconds_mean', 0.0) * 1e3:.2f}",
                "NEW" if not strict_new else "FAIL",
            )
        )
        msg = f"sweep '{label}' present in run but missing from baseline"
        if strict_new:
            failures.append(msg + " (--strict-new)")
        else:
            print(f"note: {msg}; refresh bench/baseline.json to gate it")

    header = (
        "sweep",
        "trials/s (base)",
        "trials/s (run)",
        "delta",
        "allocs/event (base)",
        "allocs/event (run)",
        "delta",
        "casc/event (base)",
        "casc/event (run)",
        "camp/s (base)",
        "camp/s (run)",
        "setup ms (base)",
        "setup ms (run)",
        "verdict",
    )
    widths = [
        max(len(header[i]), *(len(row[i]) for row in rows)) if rows else len(header[i])
        for i in range(len(header))
    ]

    def line(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths))

    print(line(header))
    print(line(tuple("-" * w for w in widths)))
    for row in rows:
        print(line(row))
    print()

    if failures:
        print("REGRESSION GATE FAILED:")
        for f in failures:
            print(f"  - {f}")
        print("\nIf this change is intentional, refresh bench/baseline.json")
        print("(instructions in this script's header).")
        return 1

    print(f"regression gate passed (tolerance +-{TOLERANCE:.0%}).")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
