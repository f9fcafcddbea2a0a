#!/usr/bin/env python3
"""The benchmark's own tests. Run from the root of a source checkout:

    python3 e2ebench/selftest.py

Short mode: every workload once, untraced and traced, at the default seed,
checking that every metric named in BENCHMARK.json is printed with its unit,
that traced spans nest, and that every result passes its check. Then:
a corrupted reference must count as failed operations; the generated inputs
must be byte-identical to raxh_make_alignment's; and each one-shot
workload's lnL must equal what the raxh CLI prints for the same input and
flags. Exits non-zero on the first failed check.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run as bench  # noqa: E402

WORK = os.path.join(bench.ROOT, ".bench_build", "e2ebench-selftest")
CLI_FLAGS = {"d": ["-f", "d", "-N", "1"], "a": ["-f", "a"]}


def check(ok, what):
    print("%s %s" % ("ok  " if ok else "FAIL", what))
    if not ok:
        sys.exit(1)


def run_bench(workload, trace, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace)] + list(extra)
    proc = subprocess.run(cmd, cwd=bench.ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=300)
    check(proc.returncode == 0, "%s trace %d exits 0" % (workload, trace))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    saved = json.load(open(os.path.join(
        bench.RESULTS, "%s-seed1-trace%d.json" % (workload, trace))))
    return result, saved["record"]


def check_metrics(workload, result, spec, kind):
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    check(got == want, "%s prints every %s metric with its unit" % (workload, kind))
    check(all(isinstance(v["value"], (int, float))
              for v in result["metrics"].values()),
          "%s %s metric values are numbers" % (workload, kind))


def main():
    spec = json.load(open(os.path.join(bench.ROOT, "BENCHMARK.json")))
    bench.build()
    os.makedirs(WORK, exist_ok=True)
    records = {}
    for w in [x["name"] for x in spec["workloads"]]:
        result, record = run_bench(w, 0)
        check(result["correct"] and result["failed"] == 0
              and result["attempted"] >= 1, "%s: every result checks" % w)
        check_metrics(w, result, spec["end_to_end"], "end-to-end")
        records[w] = record
        result, record = run_bench(w, 1)
        check(result["correct"], "%s traced: results check, spans nest, "
              "layer self times fit the wall" % w)
        tc = record["trace_check"]
        check(tc["nest_violations"] == 0 and tc["raw_spans"] > 0
              and tc["max_thread_self_s"] <= tc["wall_s"] * 1.001 + 1e-4,
              "%s traced: %d spans, self <= wall" % (w, tc["raw_spans"]))
        check_metrics(w, result, spec["per_layer"], "per-layer")

    # A corrupted reference is a failed operation, never dropped.
    refs = json.load(open(os.path.join(HERE, "reference.json")))
    victim = sorted(refs["inputs"]["search_dup"])[0]
    bits = refs["inputs"]["search_dup"][victim]["lnl_bits"]
    refs["inputs"]["search_dup"][victim]["lnl_bits"] = (
        bits[:-1] + ("0" if bits[-1] != "0" else "1"))
    bad = os.path.join(WORK, "reference.json")
    with open(bad, "w") as f:
        json.dump(refs, f)
    result, record = run_bench("search_dup", 0, ["--reference-file", bad])
    hits = sum(op["input"] == victim for op in record["ops"])
    check(not result["correct"] and result["failed"] == hits >= 1,
          "corrupted reference counts %d failed operation(s)" % hits)

    for w, record in records.items():
        recipe = record["recipe"]
        if recipe["mode"] == "s":
            continue
        first = record["reference_inputs"][0]
        ours = os.path.join(bench.ROOT, bench.SCRATCH, w, "inputs",
                            "%s-%s.phy" % (w, first))
        theirs = os.path.join(WORK, "%s-%s.phy" % (w, first))
        subprocess.run([os.path.join(bench.BUILD, "raxh_make_alignment"),
                        "-o", theirs, "-taxa", str(recipe["taxa"]),
                        "-distinct", str(recipe["distinct"]),
                        "-sites", str(recipe["sites"]), "-seed", first,
                        "-mean-branch", repr(recipe["mean_branch"])],
                       check=True, stdout=subprocess.DEVNULL)
        check(open(ours, "rb").read() == open(theirs, "rb").read(),
              "%s input is byte-identical to raxh_make_alignment's" % w)

        flags = CLI_FLAGS[recipe["mode"]] + [
            "-np", str(recipe["ranks"]), "-T", str(recipe["threads"]), "-n", w]
        if recipe["mode"] == "a":
            flags += ["-N", str(recipe["bootstraps"])]
        proc = subprocess.run(
            [os.path.join(bench.BUILD, "raxh_src", "cli", "raxh"), "-s", ours]
            + flags, cwd=WORK, stdout=subprocess.PIPE, text=True, timeout=300,
            check=True)
        m = re.search(r"lnL (-?[0-9.]+)", proc.stdout)
        ours_lnl = next(op["lnl"] for op in record["ops"] if op["input"] == first)
        check(m is not None and m.group(1) == "%.6f" % ours_lnl,
              "%s lnL %.6f equals raxh %s" % (w, ours_lnl, " ".join(flags)))
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
