#!/usr/bin/env python3
"""End-to-end benchmark of raxh: real analyses, checked results, metrics.

Run from the root of a source checkout:

    python3 e2ebench/run.py --workload search_div --seed 1 --seconds 10 --trace 0

It builds the program and the in-process driver from source (optimised, into
.bench_build/), runs the workload, checks every result against its reference
and prints a metric table, an environment stamp and, as its last line, one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json, with --trace 1 the
per-layer ones from a separate traced run. See README.md.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
SCRATCH = os.path.join(".bench_build", "e2ebench-scratch")  # relative to ROOT
REF_CACHE = os.path.join(ROOT, ".bench_build", "e2ebench-refs.json")
RESULTS = os.path.join(ROOT, ".bench_build", "e2ebench-results")
WORKLOADS = ["search_div", "search_dup", "comprehensive_2x2", "served_jobs"]
DRIVER_TIMEOUT_S = 170


def fail(msg, code=2):
    print("e2ebench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then an incremental build (a no-op when current)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("program sources not found next to the benchmark (%s/src)" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(ROOT, ".bench_build", "e2ebench-build.log")
    with open(log_path, "w") as log:
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            rc = subprocess.call(["cmake", "-S", HERE, "-B", BUILD,
                                  "-DCMAKE_BUILD_TYPE=Release"],
                                 stdout=log, stderr=subprocess.STDOUT)
            if rc != 0:
                fail("cmake configure failed, see " + log_path, 1)
        rc = subprocess.call(["cmake", "--build", BUILD, "-j", "4"],
                             stdout=log, stderr=subprocess.STDOUT)
    if rc != 0:
        fail("build failed, see " + log_path, 1)


def cpu_times():
    with open("/proc/stat") as f:
        fields = f.readline().split()[1:]
    return [int(x) for x in fields]


def steal_share(before, after):
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])  # user..steal; guest time is inside user
    return delta[7] / total if total > 0 and len(delta) > 7 else 0.0


def run_driver(binary, workload, seed, seconds, mode, inputs=None):
    cmd = [os.path.join(BUILD, binary), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--scratch", os.path.join(SCRATCH, workload), "--mode", mode]
    if inputs:
        cmd += ["--inputs", ",".join(inputs)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver timed out: " + " ".join(cmd), 1)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        fail("driver exited %d: %s" % (proc.returncode, " ".join(cmd)),
             proc.returncode if proc.returncode > 0 else 1)
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    if not lines:
        fail("driver printed no record", 1)
    return json.loads(lines[-1])


def load_json(path, default):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return default


def references(record, reference_file):
    """lnL + taxon-set reference per input id: stored for the default seed,
    from one cached plain run for any other seed. Both are tied to the
    workload's recipe, so a changed recipe never meets a stale reference."""
    workload, seed = record["workload"], record["seed"]
    stored = load_json(reference_file, {})
    if seed == stored.get("default_seed"):
        if stored.get("recipes", {}).get(workload) != record["recipe"]:
            fail("%s holds no reference for this %s recipe; rerun with "
                 "--write-reference %d" % (reference_file, workload, seed), 1)
        return stored["inputs"][workload]
    cache = load_json(REF_CACHE, {})
    have = cache.setdefault(
        workload + " " + json.dumps(record["recipe"], sort_keys=True), {})
    missing = [i for i in record["reference_inputs"] if i not in have]
    if missing:
        plain = run_driver("e2ebench", workload, seed, 1, "reference", missing)
        for op in plain["ops"]:
            if op["error"] or not op["taxa_ok"]:
                fail("plain reference run failed for input %s: %s"
                     % (op["input"], op["error"] or "taxon set"), 1)
            have[op["input"]] = {"lnl": op["lnl"], "lnl_bits": op["lnl_bits"],
                                 "taxa_hash": op["taxa_hash"]}
        os.makedirs(os.path.dirname(REF_CACHE), exist_ok=True)
        tmp = REF_CACHE + ".tmp"
        with open(tmp, "w") as f:
            json.dump(cache, f, indent=1, sort_keys=True)
        os.replace(tmp, REF_CACHE)
    return have


def check_ops(record, refs):
    """Marks each operation failed or not; a failure is never dropped."""
    referenced = set(record["reference_inputs"])
    failed = 0
    for op in record["ops"]:
        why = op["error"]
        if not why and not op["taxa_ok"]:
            why = "best tree does not hold the alignment's taxa"
        if not why and not op["digest_ok"]:
            why = "served result differs from the one-shot run"
        if not why and op["input"] in referenced:
            ref = refs.get(op["input"])
            if ref is None:
                why = "no reference for input " + op["input"]
            elif ref["lnl_bits"] != op["lnl_bits"]:
                why = "lnL %.17g != reference %.17g" % (op["lnl"], ref["lnl"])
            elif ref["taxa_hash"] != op["taxa_hash"]:
                why = "taxon set differs from the reference"
        op["failure"] = why
        failed += bool(why)
    return failed


def tail(samples):
    """Highest percentile <= p90 with at least 10 samples above it; the
    median when that percentile would lie below it (fewer than ~21 samples)."""
    s = sorted(samples)
    n = len(s)
    if n == 0:
        return 0.0, 0.5
    i = min(math.ceil(0.9 * n) - 1, n - 11)
    if i < (n - 1) // 2:
        return statistics.median(s), 0.5
    return s[i], (i + 1) / n


def interquartile_mean(values):
    """Mean of the middle half: robust to a stray slow run, and averages
    the alignment-to-alignment spread of search length."""
    s = sorted(values)
    cut = len(s) // 4
    return statistics.mean(s[cut:len(s) - cut])


def end_to_end(record):
    walls = [op["wall_s"] for op in record["ops"] if not op["error"]]
    if not walls:
        fail("no operation completed", 1)
    if record["recipe"]["mode"] == "s":
        wall = statistics.median(walls)
        rss = record["peak_rss_mb"]  # the daemon process over the loop
    else:
        # One value per alignment (its median over passes), then the
        # interquartile mean over the run's alignments.
        per_input = {}
        for op in record["ops"]:
            if not op["error"]:
                per_input.setdefault(op["input"], []).append(op["wall_s"])
        wall = interquartile_mean([statistics.median(v)
                                   for v in per_input.values()])
        rss = statistics.median(op["rss_mb"] for op in record["ops"])
    p_tail, q = tail(walls)
    metrics = {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(record["setup_s"]), "s"),
        "peak_rss_mb": (rss, "MiB"),
        "job_p90_s": (p_tail, "s"),
        "jobs_per_s": (len(walls) / record["loop_wall_s"], "1/s"),
    }
    notes = {"samples": len(walls), "tail_percentile": round(100 * q, 1)}
    return metrics, notes


def per_layer(record):
    metrics = {k: (v["value"], v["unit"]) for k, v in record["per_layer"].items()}
    tc = record["trace_check"]
    problems = []
    if tc["nest_violations"] != 0:
        problems.append("%d spans do not nest in their parent"
                        % tc["nest_violations"])
    if tc["max_thread_self_s"] > tc["wall_s"] * 1.001 + 1e-4:
        problems.append("a thread's layer self time %.4f s exceeds the wall "
                        "%.4f s" % (tc["max_thread_self_s"], tc["wall_s"]))
    for name, layer in tc["layers"].items():
        if layer["self_s"] < 0 or layer["self_s"] > layer["incl_s"] * 1.001 + 1e-6:
            problems.append("layer %s self time out of range" % name)
    return metrics, problems


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def source_digest():
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def write_reference(seed, path):
    stored = {"default_seed": seed, "recipes": {}, "inputs": {}}
    for workload in WORKLOADS:
        plain = run_driver("e2ebench", workload, seed, 1, "reference")
        stored["recipes"][workload] = plain["recipe"]
        refs = stored["inputs"][workload] = {}
        for op in plain["ops"]:
            if op["error"] or not op["taxa_ok"]:
                fail("plain run failed for %s input %s" % (workload, op["input"]), 1)
            refs[op["input"]] = {"lnl": op["lnl"], "lnl_bits": op["lnl_bits"],
                                 "taxa_hash": op["taxa_hash"]}
    with open(path, "w") as f:
        json.dump(stored, f, indent=1, sort_keys=True)
        f.write("\n")
    print("wrote %s" % path)
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--reference-file",
                    default=os.path.join(HERE, "reference.json"),
                    help="stored references for the default seed")
    ap.add_argument("--write-reference", type=int, metavar="SEED",
                    help="store plain-run references of every workload for "
                         "SEED (the default seed) in --reference-file")
    args = ap.parse_args()

    if args.write_reference is not None:
        build()
        return write_reference(args.write_reference, args.reference_file)
    if args.workload is None or args.seed is None or args.seconds is None:
        ap.error("--workload, --seed and --seconds are required")
    build()
    before = cpu_times()
    if args.trace:
        record = run_driver("e2ebench_traced", args.workload, args.seed,
                            args.seconds, "traced")
    else:
        record = run_driver("e2ebench", args.workload, args.seed,
                            args.seconds, "run")
    steal = steal_share(before, cpu_times())

    failed = check_ops(record, references(record, args.reference_file))
    problems = []
    if args.trace:
        metrics, problems = per_layer(record)
        notes = {"trace_check": record["trace_check"],
                 "phases_per_rank": record["phases"]}
    else:
        metrics, notes = end_to_end(record)
    attempted = len(record["ops"])
    stamp = dict(record["stamp"])
    stamp.update({"nproc": len(os.sched_getaffinity(0)),
                  "steal_share": round(steal, 4),
                  "commit": git_commit(), "source_digest": source_digest()})

    print("e2ebench %s seed %d, %s run, %d operations (%d failed)"
          % (args.workload, args.seed, "traced" if args.trace else "untraced",
             attempted, failed))
    for op in record["ops"]:
        if op["failure"]:
            print("  FAILED input %s: %s" % (op["input"], op["failure"]))
    for p in problems:
        print("  TRACE CHECK: " + p)
    print("  %-34s %14.6g %s" % ("fail_ratio", failed / max(1, attempted),
                                 "failed/attempted (%d/%d)" % (failed, attempted)))
    for name, (value, unit) in metrics.items():
        print("  %-34s %14.6g %s" % (name, value, unit))
    print("notes " + json.dumps(notes, sort_keys=True))
    print("stamp " + json.dumps(stamp, sort_keys=True))

    result = {"correct": failed == 0 and not problems,
              "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as f:
        json.dump({"result": result, "stamp": stamp, "notes": notes,
                   "record": record}, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
