#!/usr/bin/env python3
"""Self-tests of the repository benchmark (perfbench/run.py).

    python3 perfbench/selftest.py

Run from the repository root; takes a few minutes. Checks that:
  * every workload emits every named metric, untraced and traced;
  * metric names match [A-Za-z0-9_.-]+ and BENCHMARK.json lists exactly
    run.py's metrics with the same units and directions;
  * simulated metrics are identical across two runs of one seed;
  * a tampered reference digest, or a failed verification pass, yields
    failed_run_share > 0;
  * the traced run's Perfetto trace passes tools/validate_perfetto.py.
Exit status 0 when every check passes.
"""

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "tools"))

import run  # noqa: E402
import validate_perfetto  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SIM_METRICS = ("sim_throughput", "sim_latency_p50_cycles", "sim_latency_p99_cycles")
SECONDS = "1"

failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def bench(workload, trace, seed=1):
    """Run run.py; return (report lines, final JSON object)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", SECONDS, "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"run.py failed ({proc.returncode}): {' '.join(cmd)}")
    return lines[:-1], json.loads(lines[-1])


def report_value(lines, name):
    for line in lines:
        fields = line.split()
        if fields and fields[0] == name:
            return float(fields[1])
    return None


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [(n, u, b) for n, u, b in run.END_TO_END if n not in run.REPORTED_ONLY]
    check([(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == e2e,
          "BENCHMARK.json end_to_end matches run.py")
    check([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] ==
          [(n, u, b) for n, u, b, *_ in run.PER_LAYER],
          "BENCHMARK.json per_layer matches run.py")
    check([w["name"] for w in spec["workloads"]] == run.WORKLOADS,
          "BENCHMARK.json workloads match run.py")
    names = [n for n, *_ in run.END_TO_END] + [n for n, *_ in run.PER_LAYER]
    check(all(NAME.fullmatch(n) for n in names) and len(set(names)) == len(names),
          "metric names match [A-Za-z0-9_.-]+ and are unique")

    for w in run.WORKLOADS:
        lines, first = bench(w, 0)
        check(first["correct"] and first["failed"] == 0, f"{w}: correct, nothing failed")
        check(set(first["metrics"]) == {n for n, *_ in e2e},
              f"{w}: untraced run emits every end-to-end metric")
        check(all(report_value(lines, n) is not None for n, *_ in run.END_TO_END),
              f"{w}: report prints all {len(run.END_TO_END)} end-to-end metrics")
        _, second = bench(w, 0)
        check(all(first["metrics"][m] == second["metrics"][m] for m in SIM_METRICS),
              f"{w}: simulated metrics identical across two runs")

        _, traced = bench(w, 1)
        check(traced["correct"], f"{w}: traced run correct (1- and 4-worker digests match)")
        check(set(traced["metrics"]) == {n for n, *_ in run.PER_LAYER},
              f"{w}: traced run emits every per-layer metric")
        trace = run.BUILD / f"trace_{w}_1.json"
        check(not validate_perfetto.validate(trace), f"{w}: trace passes validate_perfetto")

    # The runner's output of one seed-1 run, checked once against the
    # recorded reference and once against a copy with one digit changed.
    w = "banyan32_hotsenders"
    args = argparse.Namespace(workload=w, seed=run.DEFAULT_SEED, seconds=SECONDS, trace=0)
    binary = run.build()
    out = run.run_runner(binary, args, run.BUILD / "selftest_trace.json")
    verification = run.run_verification(binary, args)
    ref = json.loads(run.REFERENCE.read_text())[w]
    *_, failed, _ = run.evaluate_untraced(out, ref, verification)
    check(failed == 0, "recorded reference passes")
    tampered = dict(ref)
    digest = ref["digest"]
    tampered["digest"] = digest[:-1] + ("0" if digest[-1] != "0" else "1")
    values, _, _, failed, _ = run.evaluate_untraced(out, tampered, verification)
    check(failed > 0 and values["failed_run_share"] > 0,
          "tampered reference digest yields failed_run_share > 0")
    values, _, _, failed, _ = run.evaluate_untraced(
        out, ref, [{"name": "fabric audit pass", "failure": "injected fault"}])
    check(failed > 0 and values["failed_run_share"] > 0,
          "a failed verification pass yields failed_run_share > 0")

    print(f"\n{len(failures)} check(s) failed" if failures else "\nall checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
