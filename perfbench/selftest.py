#!/usr/bin/env python3
"""Fast self-test of the benchmark: tiny inputs, a handful of solves.

    python3 perfbench/selftest.py

Run it from the repository root. For every workload in BENCHMARK.json it
runs perfbench/run.py with --size tiny in both modes and checks that

  * the last stdout line is the result object, correct, with no failures;
  * --trace 0 emits exactly the end-to-end metrics, --trace 1 exactly the
    per-layer metrics, each with the unit BENCHMARK.json gives it;
  * on the traced solve, the top-level spans plus hypar.unspanned_s add up
    to obs.traced_solve_s;
  * the filter runs only on web-4node-filter, the streamed loader only on
    road-4node-stream, and rmat-1node has no ring rounds.

It also checks that a directory holding only BENCHMARK.json and perfbench/
makes run.py fail without printing a result. Exits non-zero on the first
failed check.
"""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOP_LEVEL = ["partGraph", "filterEdges", "makeGhost", "indComp", "mergeParts",
             "postProcess", "collectResults"]


def run(args, cwd=ROOT, env=None):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args,
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=900)


def check(cond, what):
    if not cond:
        sys.exit("selftest FAILED: " + what)


def result_of(proc, what):
    check(proc.returncode == 0,
          f"{what}: exit {proc.returncode}\n{proc.stderr[-3000:]}")
    r = json.loads(proc.stdout.strip().splitlines()[-1])
    check(sorted(r) == ["attempted", "correct", "failed", "metrics"],
          f"{what}: result keys {sorted(r)}")
    check(r["correct"] is True and r["failed"] == 0 and r["attempted"] >= 1,
          f"{what}: {r['correct']=} {r['attempted']=} {r['failed']=}")
    return {k: v["value"] for k, v in r["metrics"].items()}, r["metrics"]


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in (x["name"] for x in spec["workloads"]):
        for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
            what = f"{w} --trace {trace}"
            values, metrics = result_of(
                run(["--workload", w, "--seed", "7", "--seconds", "0",
                     "--trace", trace, "--size", "tiny"]), what)
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in metrics.items()}
            check(got == want, f"{what}: metrics {got} != {want}")
            if trace == "0":
                check(values["forest_match_rate"] == 1.0, what)
                check(all(values[k] > 0 for k in want), f"{what}: a zero")
                continue
            spans = sum(values[f"hypar.{p}_s"] for p in TOP_LEVEL)
            total = spans + values["hypar.unspanned_s"]
            check(abs(total - values["obs.traced_solve_s"]) <= 1e-9 * total,
                  f"{what}: spans + unspanned = {total}, traced solve = "
                  f"{values['obs.traced_solve_s']}")
            check((values["hypar.filterEdges_s"] > 0) ==
                  (w == "web-4node-filter"), f"{what}: filterEdges_s")
            check((values["hypar.stream_load_s"] > 0) ==
                  (w == "road-4node-stream"), f"{what}: stream_load_s")
            if w == "rmat-1node":
                check(values["hypar.ring_rounds"] == 0 and
                      values["hypar.ringRound_s"] == 0, f"{what}: ring")
            print(f"ok  {w}: solve {values['obs.traced_solve_s']:.4f} s "
                  f"traced, indComp {values['hypar.indComp_s']:.4f} s")

    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench")
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    proc = run(["--workload", "rmat-1node", "--seed", "1", "--seconds", "1",
                "--trace", "0"], cwd=bare, env=env)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "bare directory: expected a failure without a result")
    shutil.rmtree(bare)
    print("ok  bare directory fails without a result")
    print("selftest passed")


if __name__ == "__main__":
    main()
