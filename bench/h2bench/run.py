#!/usr/bin/env python3
"""Builds and runs h2bench, the trial-cost benchmark (see README.md).

One run of one workload, printing one JSON result as the last stdout line:
    python3 bench/h2bench/run.py --workload table2_single --seed 1 --seconds 30 --trace 0

Every workload, each in its own process, printing every metric with its unit:
    python3 bench/h2bench/run.py [--traced] [--repeat 5 --out set.json]

Other modes:
    --compare A.json B.json   label each metric x workload of two result sets
    --write-expected          regenerate expected/<workload>.digests (seed 1)
    --smoke                   3 trials per workload plus one traced trial,
                              output checked against BENCHMARK.json
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
EXPECTED = HERE / "expected"
DEFAULT_SEED = 1
# Per-layer units of work counts: a seed's counts repeat exactly, so
# --compare holds them to equality instead of a bound.
COUNT_UNITS = {"count", "B", "1/event"}
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def build(build_dir):
    """Configures (once) and builds the benchmark package; returns the binary."""
    build_dir = Path(build_dir)
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "h2bench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("h2bench: build failed")
    return build_dir / "h2bench"


def run_one(binary, workload, seed, seconds=None, trace=False, trials=None,
            digests_out=None):
    """Runs the binary once; returns (exit code, parsed result or None)."""
    tmp = Path(binary).resolve().parent / "h2bench-tmp"
    tmp.mkdir(exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--trace", "1" if trace else "0", "--tmp", str(tmp)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    if trials is not None:
        cmd += ["--trials", str(trials)]
    if digests_out:
        cmd += ["--digests-out", str(digests_out)]
    elif seed == DEFAULT_SEED:
        golden = EXPECTED / f"{workload}.digests"
        if not golden.exists():
            sys.exit(f"h2bench: missing {golden}; run --write-expected")
        cmd += ["--expected", str(golden)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def schema_problems(result, spec, trace):
    """Differences between a result and the BENCHMARK.json contract."""
    if not isinstance(result, dict):
        return ["no JSON result"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not isinstance(result.get("correct"), bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result.get(key), int):
            problems.append(f"{key} is not an integer")
    if isinstance(result.get("attempted"), int) and result["attempted"] < 1:
        problems.append("attempted < 1")
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    if set(got) != set(want):
        problems.append(f"metric names differ: missing {sorted(set(want) - set(got))}, "
                        f"extra {sorted(set(got) - set(want))}")
    for name, m in got.items():
        if name in want and (m.get("unit") != want[name]
                             or not isinstance(m.get("value"), (int, float))):
            problems.append(f"{name}: {m} (want unit {want[name]})")
    return problems


def spec_problems(spec):
    """Checks BENCHMARK.json's names and bounds."""
    problems = []
    names = [w["name"] for w in spec["workloads"]]
    for section in ("end_to_end", "per_layer"):
        names += [m["name"] for m in spec[section]]
    problems += [f"bad name {n!r}" for n in names if not NAME_RE.match(n)]
    problems += [f"duplicate name {n!r}" for n in set(names) if names.count(n) > 1]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if any(b > 0.25 for b in bounds.values()):
        problems.append("a bound exceeds 0.25")
    if bounds.get("setup_s") != max(bounds.values()):
        problems.append("setup_s must have the largest bound")
    return problems


def run_single(args, spec):
    """The benchmark contract: one workload, one result line, exit status."""
    binary = args.bin or build(args.build)
    rc, result = run_one(binary, args.workload, args.seed, args.seconds,
                         trace=args.trace == 1)
    problems = schema_problems(result, spec, args.trace == 1)
    if problems:
        sys.exit("h2bench: " + "; ".join(problems))
    print(json.dumps(result))
    return rc


def run_set(binary, spec, args):
    """Every workload in its own process; one entry per workload."""
    run, ok = {}, True
    for w in (w["name"] for w in spec["workloads"]):
        rc, res = run_one(binary, w, args.seed, args.seconds)
        problems = schema_problems(res, spec, False)
        entry = {"attempted": 0, "failed": 0, "metrics": {}, "layers": {}}
        if not problems:
            entry.update(attempted=res["attempted"], failed=res["failed"],
                         metrics={k: v["value"] for k, v in res["metrics"].items()})
        if args.traced and not problems:
            rc2, tres = run_one(binary, w, args.seed,
                                max(1, args.seconds // 4), trace=True)
            problems = schema_problems(tres, spec, True)
            if not problems:
                entry["layers"] = {k: v["value"] for k, v in tres["metrics"].items()}
                entry["attempted"] += tres["attempted"]
                entry["failed"] += tres["failed"]
            rc = rc or rc2
        if rc or problems or entry["failed"]:
            ok = False
            log(f"h2bench: {w} FAILED (exit {rc}) {'; '.join(problems)}")
        run[w] = entry
    return run, ok


def print_run(run, spec):
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for w, entry in run.items():
        print(f"{w}: {entry['attempted']} trials attempted, {entry['failed']} failed")
        for name, value in {**entry["metrics"], **entry["layers"]}.items():
            print(f"  {name:36s} {value:16.6g} {units[name]}")


def fmt_quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"


def label_pair(a, b, bound, better):
    """improved / unchanged / worse / unresolved for one metric x workload."""
    qa, qb = statistics.quantiles(a, n=4), statistics.quantiles(b, n=4)
    spread = max((q[2] - q[0]) / q[1] if q[1] else 0.0 for q in (qa, qb))
    sign = 1 if better == "lower" else -1
    all_better = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
    if spread > bound:
        return "improved" if all_better else "unresolved"
    worse_by = sign * (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "improved"
    return "unchanged"


def compare(path_a, path_b, spec):
    sets = [json.loads(Path(p).read_text())["runs"] for p in (path_a, path_b)]
    if min(len(s) for s in sets) < 5:
        sys.exit("h2bench: --compare needs at least 5 runs per side")
    bad = 0
    row = "{:30s} {:17s} {:36s} {:36s} {:>7s}  {}"
    print(row.format("metric", "workload", "A median [q1, q3]",
                     "B median [q1, q3]", "max/min", "label"))
    for w in (w["name"] for w in spec["workloads"]):
        for m in spec["end_to_end"]:
            a, b = ([run[w]["metrics"][m["name"]] for run in s] for s in sets)
            label = label_pair(a, b, m["bound"], m["better"])
            bad += label == "worse"
            both = a + b
            spread = max(both) / min(both) if min(both) > 0 else float("inf")
            print(row.format(m["name"], w, fmt_quartiles(a), fmt_quartiles(b),
                             f"{spread:.3f}", label))
        for m in spec["per_layer"]:
            if m["unit"] not in COUNT_UNITS:
                continue
            values = {run[w]["layers"].get(m["name"]) for s in sets for run in s}
            if values == {None}:
                continue
            label = "identical" if len(values) == 1 else "changed"
            bad += label == "changed"
            print(row.format(m["name"], w, "", "", "", label))
    return 1 if bad else 0


def write_expected(binary, spec):
    EXPECTED.mkdir(exist_ok=True)
    for w in (w["name"] for w in spec["workloads"]):
        out = EXPECTED / f"{w}.digests"
        rc, res = run_one(binary, w, DEFAULT_SEED, trials="pass", digests_out=out)
        if rc or not res or not res["correct"]:
            sys.exit(f"h2bench: {w} failed; {out} not trustworthy")
        log(f"wrote {out} ({res['attempted']} trials)")
    return 0


def smoke(binary, spec):
    problems = spec_problems(spec)
    for w in (w["name"] for w in spec["workloads"]):
        for trace, trials in ((False, 3), (True, 1)):
            rc, res = run_one(binary, w, DEFAULT_SEED, trace=trace, trials=trials)
            found = schema_problems(res, spec, trace)
            if not found and (rc or not res["correct"]):
                found.append(f"exit {rc}, correct={res['correct']}")
            problems += [f"{w} trace={int(trace)}: {p}" for p in found]
    for p in problems:
        log(f"h2bench smoke: {p}")
    print("h2bench smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--traced", action="store_true",
                    help="add a traced pass of a quarter of the seconds per workload")
    ap.add_argument("--repeat", type=int, default=1)
    ap.add_argument("--out", help="write the result set (all repeats) here")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    ap.add_argument("--write-expected", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--build", default=str(ROOT / ".bench_build" / "h2bench"),
                    help="CMake build directory of the benchmark package")
    ap.add_argument("--bin", help="use this h2bench binary instead of building")
    args = ap.parse_args()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.seed < 0 or args.seconds < 1:
        sys.exit("h2bench: --seed must be >= 0 and --seconds >= 1")

    if args.compare:
        return compare(*args.compare, spec)
    if args.workload:
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            sys.exit(f"h2bench: unknown workload {args.workload}")
        return run_single(args, spec)
    binary = args.bin or build(args.build)
    if args.write_expected:
        return write_expected(binary, spec)
    if args.smoke:
        return smoke(binary, spec)
    runs, ok = [], True
    for i in range(args.repeat):
        run, run_ok = run_set(binary, spec, args)
        if args.repeat > 1:
            print(f"== run {i + 1}/{args.repeat}")
        print_run(run, spec)
        runs.append(run)
        ok = ok and run_ok
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": runs}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
