#!/usr/bin/env python3
"""Self-test of the perfbench benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout. Checks, at tiny size (m of 1-2, two serve
connections, one-second runs):
  * every workload prints every end-to-end metric of BENCHMARK.json with its
    unit (--trace 0) and every per-layer metric with its unit (--trace 1),
    and the traced run writes a Chrome trace-event file;
  * paper_serial and paper_parallel map every code to the same latency;
  * a deliberately corrupted trace trips the correctness gate (non-zero
    exit, "correct": false) on a paper and on the serve workload;
  * a determinism record of these sources that disagrees with the run
    fails it, and a record of other sources is ignored;
  * without the library sources next to it the benchmark exits non-zero
    and prints no result.
Exits 0 when every check passes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
FAILURES = []


def check(condition, message):
    if not condition:
        FAILURES.append(message)
        print(f"FAIL: {message}")


def run(workload, trace, *extra, cwd=ROOT, script=RUN):
    command = [sys.executable, str(script), "--workload", workload, "--seed",
               "1", "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    done = subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=600)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith(
        '{"correct"') else None
    detail = json.loads(lines[-2]) if result and len(lines) >= 2 else None
    return done.returncode, result, detail, done.stderr


def check_metrics(workload, trace, result, expected):
    label = f"{workload} --trace {trace}"
    if result is None:
        check(False, f"{label}: no result line")
        return
    check(result["correct"] is True, f"{label}: not correct")
    check(result["attempted"] >= 1 and result["failed"] == 0,
          f"{label}: attempted/failed {result['attempted']}/{result['failed']}")
    metrics = result["metrics"]
    names = [metric["name"] for metric in expected]
    check(sorted(metrics) == sorted(names),
          f"{label}: metric names differ: {sorted(set(metrics) ^ set(names))}")
    for metric in expected:
        got = metrics.get(metric["name"])
        if got is not None:
            check(got["unit"] == metric["unit"],
                  f"{label}: {metric['name']} unit {got['unit']} != "
                  f"{metric['unit']}")
            check(isinstance(got["value"], (int, float)),
                  f"{label}: {metric['name']} value is not a number")


def check_determinism_record():
    """The paper workloads check their results against the record of the
    first run of the same sources. A disagreeing record of these sources
    must fail the run; one of other sources must not be read."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from run import source_digest
    out = ROOT / ".bench_build" / "perfbench-out"
    mine = out / f"determinism-{source_digest(ROOT)}-seed1-m2.txt"
    other = out / "determinism-0000000000000000-seed1-m2.txt"
    if not mine.is_file():
        check(False, f"no determinism record {mine.name}")
        return
    saved = mine.read_text()
    bogus = "".join(f"{line.split()[0]} 0\n" for line in saved.splitlines())
    try:
        other.write_text(bogus)
        code, result, _, _ = run("paper_serial", 0)
        check(code == 0 and result is not None and result["correct"],
              "a determinism record of other sources failed the run")
        mine.write_text(bogus)
        code, result, _, _ = run("paper_serial", 0)
        check(code != 0 and result is not None and not result["correct"],
              "a disagreeing determinism record did not fail the run")
    finally:
        mine.write_text(saved)
        other.unlink(missing_ok=True)


def main():
    latencies = {}
    for workload in (w["name"] for w in SPEC["workloads"]):
        code, result, detail, stderr = run(workload, 0)
        check(code == 0, f"{workload}: exit {code}: {stderr[-500:]}")
        check_metrics(workload, 0, result, SPEC["end_to_end"])
        if detail and workload.startswith("paper_"):
            latencies[workload] = [row["latency_us"] for row in
                                   detail["workload_detail"]["programs"]]
        for metric in SPEC["end_to_end"]:
            if result and metric["name"] in result["metrics"]:
                check(result["metrics"][metric["name"]]["value"] != 0,
                      f"{workload}: end-to-end {metric['name']} is 0")

        code, result, detail, stderr = run(workload, 1)
        check(code == 0, f"{workload} traced: exit {code}: {stderr[-500:]}")
        check_metrics(workload, 1, result, SPEC["per_layer"])
        trace_file = Path(detail["trace_file"]) if detail else None
        check(trace_file is not None and trace_file.is_file(),
              f"{workload}: no trace file")
        if trace_file and trace_file.is_file():
            events = json.loads(trace_file.read_text())["traceEvents"]
            check(len(events) > 0 and all(e["ph"] == "X" for e in events),
                  f"{workload}: trace file has no complete events")

    check(len(latencies) == 2 and
          latencies["paper_serial"] == latencies["paper_parallel"],
          f"serial and parallel latencies differ: {latencies}")

    check_determinism_record()

    for workload in ("paper_serial", "serve_sessions"):
        code, result, _, _ = run(workload, 0, "--corrupt-trace")
        check(code != 0, f"{workload}: corrupted trace did not fail the run")
        check(result is not None and result["correct"] is False,
              f"{workload}: corrupted trace not reported as incorrect")

    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    code, result, _, _ = run("paper_serial", 0, cwd=bare,
                             script=bare / "perfbench" / "run.py")
    check(code != 0 and result is None,
          "benchmark without the library sources did not fail cleanly")
    shutil.rmtree(bare, ignore_errors=True)

    print("selftest:", "FAILED" if FAILURES else "passed",
          f"({len(FAILURES)} failures)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
