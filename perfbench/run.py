#!/usr/bin/env python3
"""Benchmark of the fsmc checker: time to verdict on four paper workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare OLD.jsonl NEW.jsonl

The first form builds the harness (perfbench/CMakeLists.txt, a Release
build of the checker from src/) if needed, times set-up, runs the workload,
checks every result against its known answer and prints one JSON result
line last. --trace 0 reports the end-to-end metrics of BENCHMARK.json;
--trace 1 reports its per-layer metrics. Every run is also appended to
.bench_out/results.jsonl (or --out), and traced runs write their spans to
.bench_out/spans/. The second form compares two such result files metric
by metric against the bounds in BENCHMARK.json. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = ROOT / ".bench_out"
SETUP_LAUNCHES = 5
RUN_LIMIT_S = 175


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return (d if d.is_absolute() else ROOT / d) / "perfbench"


def build():
    """Configures and builds the harness; returns its path or exits 2."""
    bdir = build_dir()
    bdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(bdir))
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", str(BENCH), "-B", str(bdir),
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", str(bdir), "-j", jobs]):
        p = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                           text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-4000:] + p.stderr[-4000:])
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            sys.exit(2)
    return bdir / "fsmc_perfbench"


def launch(cmd, timeout):
    """Runs the harness; returns (spawn_ns, parsed stdout) or exits 3."""
    spawn = time.monotonic_ns()
    try:
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: harness timed out\n")
        sys.exit(3)
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        sys.stderr.write("perfbench: harness exited %d\n" % p.returncode)
        sys.exit(3)
    return spawn, json.loads(p.stdout.strip().splitlines()[-1])


def source_digest():
    h = hashlib.sha256()
    for sub in ("src", "perfbench"):
        for f in sorted((ROOT / sub).rglob("*")):
            if f.is_file() and "__pycache__" not in f.parts:
                h.update(str(f.relative_to(ROOT)).encode())
                h.update(f.read_bytes())
    return h.hexdigest()[:16]


def commit():
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
        if p.returncode == 0:
            return p.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def quantile(values, q):
    """Linear-interpolation quantile; +inf values sort last."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    if math.isinf(v[hi]):
        return v[hi] if pos > lo or math.isinf(v[lo]) else v[lo]
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def tail_level(n):
    """The highest percentile, at most p90, with ten samples beyond it."""
    return min(0.9, 1 - 10 / n) if n > 10 else None


def end_to_end(res, setup_s):
    """The end-to-end metrics from the untraced samples of a run."""
    samples = [s for s in res["samples"] if not s["traced"]]
    # A run whose every check failed still reports its time to failure.
    ok = [s for s in samples if not s["failure"]] or samples
    decided = sum(1 for s in samples if not s["failure"])
    per_entry = {}
    for s in ok:
        per_entry.setdefault(s["entry"], []).append(s["ns"] / 1e9)
    medians = [statistics.median(v) for v in per_entry.values()]
    geomean = math.exp(sum(math.log(max(m, 1e-9)) for m in medians)
                       / len(medians))
    ns = sum(s["ns"] for s in ok)
    return {
        "setup_s": (setup_s, "s"),
        "time_to_verdict_s": (geomean, "s"),
        "execs_per_sec": (sum(s["executions"] for s in ok) * 1e9 / ns
                          if ns else 0.0, "1/s"),
        "decided_share": (decided / len(samples), "ratio"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024, "MB"),
    }


def bug_times(res):
    """Pooled time-to-bug percentiles of bug-hunt, failures as +inf."""
    ms = [s["ns"] / 1e6 if not s["failure"] else float("inf")
          for s in res["samples"] if not s["traced"]]
    out = {"time_to_bug_p50_ms": quantile(ms, 0.5)}
    level = tail_level(len(ms))
    if level is not None:
        out["time_to_bug_p%g_ms" % round(level * 100, 1)] = \
            quantile(ms, level)
    return out, len(ms)


def entry_medians(res):
    """Each bug-hunt entry's median time to its verdict in ms, untraced
    checks only; None for an entry that never decided."""
    times = {}
    for s in res["samples"]:
        if not s["traced"]:
            t = times.setdefault(s["entry"], [])
            if not s["failure"]:
                t.append(s["ns"] / 1e6)
    return {"bughunt.%s.ms_p50" % e: statistics.median(t) if t else None
            for e, t in times.items()}


def print_table(rows, head):
    w = [max(len(str(r[i])) for r in rows + [head]) for i in range(len(head))]
    for r in [head] + rows:
        print("  " + "  ".join(str(c).ljust(w[i]) for i, c in enumerate(r)))


def fmt(v):
    return "%.6g" % v if isinstance(v, float) else str(v)


def run(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    binary = build()
    start = time.monotonic()
    base = [str(binary), "--workload=" + args.workload,
            "--seed=%d" % args.seed, "--seconds=%g" % args.seconds,
            "--trace=%d" % args.trace]

    # Set-up: process start to the first check() call, several launches.
    setups = []
    for _ in range(SETUP_LAUNCHES):
        spawn, r = launch(base + ["--setup-only"], 30)
        setups.append((r["ready_ns"] - spawn) / 1e9)

    spans = OUT / "spans" / ("%s-seed%d.json" % (args.workload, args.seed))
    spans.parent.mkdir(parents=True, exist_ok=True)
    cmd = base + (["--spans=" + str(spans)] if args.trace else [])
    left = RUN_LIMIT_S - (time.monotonic() - start)
    spawn, res = launch(cmd, max(1, left))
    setups.append((res["ready_ns"] - spawn) / 1e9)
    setup_s = statistics.median(setups)

    samples = res["samples"]
    failed = [s for s in samples if s["failure"]]
    correct = not any(s["failure"] == "wrong" for s in samples)
    build_info = res["build"]
    meta = {
        "commit": commit(),
        "source_digest": source_digest(),
        "compiler": build_info["compiler"],
        "build_type": build_info["build_type"],
        "asserts": build_info["asserts"],
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "seed": args.seed,
    }
    flagged = build_info["build_type"] not in ("Release", "RelWithDebInfo") \
        or build_info["asserts"]

    e2e = end_to_end(res, setup_s)
    print("fsmc benchmark: workload %s, seed %d, %g s, trace %d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("build: %(build_type)s, %(compiler)s, asserts %(asserts)s, "
          "commit %(commit)s, sources %(source_digest)s, nproc %(nproc)s"
          % meta)
    if flagged:
        print("WARNING: this build is not optimized or has asserts on; "
              "its timings are not comparable")
    print("checks: %d attempted, %d failed, failed_share %.4f"
          % (len(samples), len(failed), len(failed) / len(samples)))
    for s in failed:
        print("  FAILED %s (round %d): %s: %s"
              % (s["entry"], s["round"], s["failure"], s["detail"]))
    rows = [[k, fmt(v), u] for k, (v, u) in e2e.items()]
    entries = {}
    if args.workload == "bug-hunt":
        pct, n = bug_times(res)
        rows += [[k, fmt(v), "ms (%d samples)" % n] for k, v in pct.items()]
        rows.append(["time_to_bug_geomean_ms",
                     fmt(e2e["time_to_verdict_s"][0] * 1e3), "ms"])
        entries = entry_medians(res)
        rows += [[k, "undecided" if v is None else fmt(v), "ms"]
                 for k, v in sorted(entries.items())]
    print("end-to-end (untraced checks):")
    print_table(rows, ["metric", "value", "unit"])

    if args.trace:
        layers = res["layers"]
        acc = res["accounting"]
        print("per-transition accounting (%s): measured %.1f ns"
              % (acc["entry"], acc["measured_ns_per_transition"]))
        print_table([[r["call"], "%.1f" % r["ns_per_call"],
                      "%.4g" % r["calls_per_transition"],
                      "%.1f" % r["ns_per_transition"]] for r in acc["rows"]]
                    + [["(of step) fiber round trip",
                        "%.1f" % acc["fiber_roundtrip_ns"], "", ""],
                       ["attributed", "", "",
                        "%.1f" % acc["attributed_ns_per_transition"]],
                       ["unattributed", "", "",
                        "%.1f" % acc["unattributed_ns_per_transition"]]],
                    ["call", "ns/call", "calls/transition",
                     "ns/transition"])
        print("span self time:")
        print_table([[k, "%d" % v["count"], "%.3f" % v["total_ms"],
                      "%.3f" % v["self_ms"]]
                     for k, v in sorted(res["self_time"].items())],
                    ["span", "count", "total ms", "self ms"])
        if "fleet_survival" in res:
            f = res["fleet_survival"]
            print("fleet survival check (%s): %s %s"
                  % (f["entry"], f["verdict"], f["detail"] or "ok"))
        print("per-layer:")
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        print_table([[k, fmt(layers[k]), units[k]] for k in units],
                    ["metric", "value", "unit"])
        metrics = {k: {"value": layers[k], "unit": units[k]} for k in units}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]][0], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "meta": meta,
              "flagged": flagged, "correct": correct,
              "attempted": len(samples), "failed": len(failed),
              "metrics": metrics, "entries": entries}
    out = Path(args.out) if args.out else OUT / "results.jsonl"
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("a") as f:
        f.write(json.dumps(record) + "\n")
    print(json.dumps({"correct": correct, "attempted": len(samples),
                      "failed": len(failed), "metrics": metrics}))


def classify(old, new, bound, lower_better):
    """improved / unchanged / worse / unresolved, per the README rules."""
    mo, mn = statistics.median(old), statistics.median(new)
    if mo == 0:
        return "unchanged" if mn == 0 else "unresolved", 0.0

    def spread(v):
        if len(v) < 2:
            return float("inf")
        q = statistics.quantiles(v, n=4)
        m = statistics.median(v)
        return (q[2] - q[0]) / m if m else float("inf")

    sign = 1 if lower_better else -1
    worse_by = sign * (mn - mo) / mo
    all_better = (max(new) < min(old)) if lower_better else \
        (min(new) > max(old))
    all_worse = (min(new) > max(old)) if lower_better else \
        (max(new) < min(old))
    if spread(old) > bound or spread(new) > bound:
        verdict = "improved" if all_better else \
            "worse" if all_worse else "unresolved"
        return verdict, worse_by
    if worse_by > bound:
        return "worse", worse_by
    pairs = list(zip(old, new))
    wins = sum(1 for o, n in pairs if sign * (n - o) < 0)
    if -worse_by > spread(old) and wins >= 0.9 * len(pairs):
        return "improved", worse_by
    return "unchanged", worse_by


def compare(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def load(path):
        runs = {}
        for line in Path(path).read_text().splitlines():
            if line.strip():
                r = json.loads(line)
                runs.setdefault((r["workload"], r["trace"]), []).append(r)
        for v in runs.values():
            v.sort(key=lambda r: r["seed"])
        return runs

    old, new = load(args.compare[0]), load(args.compare[1])
    rows = []
    for (workload, trace) in sorted(set(old) & set(new)):
        o, n = old[(workload, trace)], new[(workload, trace)]
        # Pair runs by seed where both sides ran it, else in order.
        seeds = sorted({r["seed"] for r in o} & {r["seed"] for r in n})
        if seeds:
            o = [r for r in o if r["seed"] in seeds]
            n = [r for r in n if r["seed"] in seeds]
        metrics = spec["per_layer"] if trace else spec["end_to_end"]
        for m in metrics:
            ov = [r["metrics"][m["name"]]["value"] for r in o
                  if m["name"] in r["metrics"]]
            nv = [r["metrics"][m["name"]]["value"] for r in n
                  if m["name"] in r["metrics"]]
            if not ov or not nv:
                continue
            if "bound" in m:
                verdict, d = classify(ov, nv, m["bound"],
                                      m["better"] == "lower")
            else:
                verdict, d = "(no bound)", 0.0
                mo = statistics.median(ov)
                if mo:
                    d = (statistics.median(nv) - mo) / mo
                    d = d if m["better"] == "lower" else -d
            rows.append([workload, m["name"],
                         fmt(statistics.median(ov)),
                         fmt(statistics.median(nv)),
                         "%+.1f%%" % (0.0 - 100 * d), verdict,
                         "%d/%d" % (len(ov), len(nv))])
    print_table(rows, ["workload", "metric", "old median", "new median",
                       "better by", "verdict", "runs"])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload",
                    choices=["deep-replay", "wsq-tso-por", "par-channels",
                             "bug-hunt"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", help="result file to append to "
                    "(default .bench_out/results.jsonl)")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                    help="compare two result files")
    args = ap.parse_args()
    if args.compare:
        compare(args)
    elif args.workload:
        run(args)
    else:
        ap.error("--workload or --compare is required")


if __name__ == "__main__":
    main()
