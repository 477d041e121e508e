#!/usr/bin/env python3
"""DCDiff receiver benchmark.

Builds perfbench (the C++ program in this directory) against the enclosing
source tree, runs one workload, and prints every metric by name with its
unit and direction. The last line of stdout is the result as one JSON
object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload serve_final --seed 1 --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
(see perfbench/metric_map.json for both, and for what each one should move).
A full report with provenance is written to
<build dir>/reports/<workload>-seed<N>-trace<T>.json. The build directory is
$CARGO_TARGET_DIR (default .bench_build) under the source tree.

    python3 perfbench/run.py --print-benchmark-json   # regenerate BENCHMARK.json
"""

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
NOT_COMPARABLE = {"DCDIFF_PLAN": "0", "DCDIFF_GEMM_NAIVE": "1"}
PLAN_KINDS = ["conv2d", "group_norm", "upsample2x", "add"]


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_map():
    with open(os.path.join(HERE, "metric_map.json")) as f:
        m = json.load(f)
    per_layer = []
    for entry in m["per_layer"]:
        if "shapes" not in entry:
            per_layer.append(entry)
            continue
        for shape in entry["shapes"]:
            for batch in entry["batches"]:
                e = {k: v for k, v in entry.items() if k not in ("shapes", "batches")}
                e["name"] = entry["name"].format(shape=shape, batch=batch)
                per_layer.append(e)
    m["per_layer"] = per_layer
    return m


def benchmark_json(m):
    keep = lambda e, keys: {k: e[k] for k in keys}
    return {
        "command": m["command"],
        "paths": m["paths"],
        "run_seconds": m["run_seconds"],
        "workloads": [keep(w, ("name", "why")) for w in m["workloads"]],
        "end_to_end": [keep(e, ("name", "unit", "better", "bound")) for e in m["end_to_end"]],
        "per_layer": [keep(e, ("name", "unit", "better")) for e in m["per_layer"]],
    }


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configures once, then builds the perfbench target (a no-op when current)."""
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", bdir, "--target", "perfbench",
                      "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                die("build failed (log: %s)" % log_path)
    return os.path.join(bdir, "perfbench")


def run_child(cmd, env=None):
    """Runs cmd to completion (killed and reaped on timeout); returns (rc, out, err)."""
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True, env=env)
    try:
        out, err = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        p.kill()
        out, err = p.communicate()
        return -1, out, err + "\nperfbench: timed out"
    return p.returncode, out, err


def plan_op_shares(binary, seed):
    """Per-op-kind shares of planned time from DCDIFF_PLAN_PROFILE tables."""
    env = dict(os.environ, DCDIFF_PLAN_PROFILE="1")
    rc, _, err = run_child([binary, "--plan-profile", "--seed", str(seed)], env)
    if rc != 0:
        return None
    tables, cur = [], None
    for line in err.splitlines():
        if line.startswith("plan profile"):
            cur = {}
            tables.append(cur)
            continue
        m = re.match(r"\s+(\S+)\s+x\d+\s+([\d.]+) us", line)
        if m and cur is not None:
            cur[m.group(1)] = float(m.group(2))
    tables = tables[1:]  # the first run touches every buffer for the first time
    if not tables:
        return None
    shares = {}
    for kind in PLAN_KINDS + ["other"]:
        vals = []
        for t in tables:
            total = sum(t.values())
            us = (sum(v for k, v in t.items() if k not in PLAN_KINDS)
                  if kind == "other" else t.get(kind, 0.0))
            vals.append(us / total)
        shares["plan.op.%s_share" % kind] = statistics.median(vals)
    return shares


def provenance(seed, info):
    def git_sha():
        try:
            r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                               capture_output=True, text=True, timeout=10)
            return r.stdout.strip() if r.returncode == 0 else "unknown"
        except OSError:
            return "unknown"

    digest = hashlib.sha256()
    for top in ("src", "CMakeLists.txt", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for fp in files:
            digest.update(os.path.relpath(fp, ROOT).encode())
            with open(fp, "rb") as f:
                digest.update(f.read())
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    env = {k: v for k, v in sorted(os.environ.items()) if k.startswith("DCDIFF_")}
    bad = [k + "=" + v for k, v in env.items() if NOT_COMPARABLE.get(k) == v]
    return {
        "git_sha": git_sha(),
        "source_sha256": digest.hexdigest(),
        "build_type": info.get("build_type", "unknown"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "seed": seed,
        "dcdiff_env": env,
        "comparable": not bad,
        "not_comparable_because": bad,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--print-benchmark-json", action="store_true")
    args = ap.parse_args()

    m = load_map()
    if args.print_benchmark_json:
        print(json.dumps(benchmark_json(m), indent=2))
        return 0
    names = [w["name"] for w in m["workloads"]]
    if args.workload not in names:
        die("--workload must be one of " + ", ".join(names))
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        die("no DCDiff source tree next to perfbench/ (%s)" % ROOT)
    seconds = args.seconds if args.seconds is not None else m["run_seconds"]

    bdir = build_dir()
    binary = build(bdir)
    out_dir = os.path.join(bdir, "runs", "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    os.makedirs(out_dir, exist_ok=True)
    rc, out, err = run_child([binary, "--workload", args.workload, "--seed", str(args.seed),
                              "--seconds", repr(seconds), "--trace", str(args.trace),
                              "--out-dir", out_dir])
    lines = out.strip().splitlines()
    try:
        raw = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(err[-4000:])
        die("perfbench exited %d without a report" % rc, 1)
    if args.trace:
        shares = plan_op_shares(binary, args.seed)
        if shares is None:
            raw["errors"].append("plan profile run failed")
        else:
            raw["metrics"].update(shares)

    wanted = m["per_layer"] if args.trace else m["end_to_end"]
    metrics, missing = {}, []
    for e in wanted:
        v = raw["metrics"].get(e["name"])
        if v is None:
            missing.append(e["name"])
            continue
        metrics[e["name"]] = {"value": v, "unit": e["unit"]}
    if missing:
        raw["errors"].append("metrics not produced: " + ", ".join(missing))
    correct = bool(raw["correct"]) and rc == 0 and not missing and not raw["errors"]

    prov = provenance(args.seed, raw["info"])
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": seconds,
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "errors": raw["errors"],
        "provenance": prov,
        "settings": m["settings"],
        "metrics": {e["name"]: dict(metrics[e["name"]], better=e["better"],
                                    **({"bound": e["bound"]} if "bound" in e else {}))
                    for e in wanted if e["name"] in metrics},
        "info": raw["info"],
    }
    os.makedirs(os.path.join(os.path.dirname(bdir), "reports"), exist_ok=True)
    report_path = os.path.join(os.path.dirname(bdir), "reports",
                               "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(report_path, "w") as f:
        json.dump(report, f, indent=2)

    print("perfbench %s seed=%d trace=%d seconds=%g git=%s build=%s nproc=%s cpu=%s" % (
        args.workload, args.seed, args.trace, seconds, prov["git_sha"][:12],
        prov["build_type"], prov["nproc"], prov["cpu_model"]))
    if not prov["comparable"]:
        print("NOT COMPARABLE: run with " + " ".join(prov["not_comparable_because"]))
    n = raw["info"].get("latency_samples", "?")
    for e in wanted:
        if e["name"] in metrics:
            extra = " n=%s" % n if e["name"].startswith("e2e_") else ""
            print("  %-44s %16.6g %-8s (%s is better)%s" % (
                e["name"], metrics[e["name"]]["value"], e["unit"], e["better"], extra))
    for msg in raw["errors"]:
        print("  ERROR: " + msg)
    print("  report: " + report_path)
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
