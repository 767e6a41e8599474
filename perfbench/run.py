#!/usr/bin/env python3
"""The repository benchmark: build the simulator, run one workload, check
its simulated output and print every metric by name and unit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
perfbench/ (the pmsb library from src/ plus the workload runner
perfbench.cpp) under .bench_build/perfbench; later runs only rebuild what
changed.

--trace 0 measures the end-to-end metrics, then runs the untimed
verification passes in a second process with PMSB_CHECK=1; --trace 1 is the
separate traced run that measures the per-layer metrics and writes a
Perfetto trace under .bench_build/. The last line of stdout is one JSON
object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

Workloads, metrics and the per-layer targets are described in
perfbench/README.md.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
REFERENCE = HERE / "reference.json"

# The seed whose simulated results reference.json records.
DEFAULT_SEED = 1

WORKLOADS = [
    "switch16_saturated",
    "torus8x8_uniform",
    "torus8x8_hotquad",
    "torus8x8_sparse",
    "banyan32_hotsenders",
]

# End-to-end metrics: (name, unit, better). BENCHMARK.json lists all but the
# last two, which are 0 whenever the program is correct (sim_loss on the
# lossless wormhole fabric and the torus workloads, failed_run_share on every
# correct run) and so cannot carry a relative bound; both are printed here,
# and failed_run_share is also the final line's failed / attempted.
END_TO_END = [
    ("node_cycles_per_s", "1/s", "higher"),
    ("cpu_ns_per_node_cycle", "ns", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
    ("sim_throughput", "1/port/cycle", "higher"),
    ("sim_latency_p50_cycles", "cycles", "lower"),
    ("sim_latency_p99_cycles", "cycles", "lower"),
    ("sim_loss", "ratio", "lower"),
    ("failed_run_share", "ratio", "lower"),
]
REPORTED_ONLY = {"sim_loss", "failed_run_share"}

# Per-layer metrics: (name, unit, better, end-to-end metric it should move,
# workload it should move it on). NCS = node_cycles_per_s.
PER_LAYER = [
    ("core.switch_eval_ns_per_cycle", "ns", "lower", "NCS",
     "switch16_saturated, less on torus8x8_uniform"),
    ("core.switch_commit_ns_per_cycle", "ns", "lower", "NCS",
     "switch16_saturated, less on torus8x8_uniform"),
    ("core.ns_per_initiation", "ns", "lower", "NCS", "switch16_saturated"),
    ("core.admit_ratio", "ratio", "higher", "sim_loss",
     "switch16_saturated, torus8x8_uniform"),
    ("core.read_stall_ratio", "ratio", "lower",
     "sim_throughput, sim_latency_p99_cycles", "switch16_saturated, torus8x8_uniform"),
    ("core.switch4_ns_per_cycle", "ns", "lower", "NCS", "torus8x8_uniform"),
    ("core.fast_switch4_ns_per_cycle", "ns", "lower", "NCS", "torus8x8_hotquad"),
    ("traffic.source_ns_per_cycle", "ns", "lower", "NCS", "switch16_saturated"),
    ("traffic.sink_ns_per_cycle", "ns", "lower", "NCS", "switch16_saturated"),
    ("sim.engine_self_ns_per_cycle", "ns", "lower", "NCS", "switch16_saturated"),
    ("sim.skip_ratio", "ratio", "higher", "NCS, cpu_ns_per_node_cycle", "torus8x8_sparse"),
    ("fabric.active_ns_per_node_cycle", "ns", "lower", "NCS, cpu_ns_per_node_cycle",
     "torus8x8_uniform, torus8x8_hotquad, banyan32_hotsenders"),
    ("fabric.glue_ns_per_node_cycle", "ns", "lower", "NCS", "torus8x8_uniform"),
    ("fabric.cells_relayed_per_node_cycle", "1/cycle", "higher", "NCS", "torus8x8_uniform"),
    ("fabric.worm_ns_per_flit", "ns", "lower", "NCS", "banyan32_hotsenders"),
    ("sync.wait_share", "ratio", "lower", "NCS, cpu_ns_per_node_cycle",
     "torus8x8_uniform, banyan32_hotsenders, torus8x8_hotquad"),
    ("sync.rounds_per_cycle", "1/cycle", "lower", "NCS, cpu_ns_per_node_cycle",
     "banyan32_hotsenders"),
    ("sync.wait_ns_per_round", "ns", "lower", "NCS, cpu_ns_per_node_cycle",
     "banyan32_hotsenders"),
    ("sync.steals", "count", "lower", "NCS", "torus8x8_hotquad"),
    ("sync.parallel_efficiency", "ratio", "higher", "NCS",
     "torus8x8_uniform, banyan32_hotsenders"),
    ("trace.ncs_ratio", "ratio", "higher", "(tracing overhead: traced / untraced NCS)",
     "every workload"),
]

# Pooled simulated results recorded for DEFAULT_SEED and compared exactly,
# beside each realization's own digest.
REFERENCE_KEYS = ("digest", "delivered", "dropped", "p50", "p99")


def log(msg=""):
    print(msg, flush=True)


def build():
    """Configure once, then build incrementally. Exits 1 on failure."""
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD)])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target", "perfbench"])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-8000:])
            sys.stderr.write(f"\nperfbench: build failed: {' '.join(cmd)}\n")
            sys.exit(1)
    return BUILD / "perfbench"


def clean_env():
    """The program's defaults only: no PMSB_* setting (threads, fabric
    engine, idle skip, checking, pinning, fast nodes) reaches the run."""
    return {k: v for k, v in os.environ.items() if not k.startswith("PMSB_")}


def host_info(build_info):
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sha = build_info.get("git_sha", "unknown")
    if sha == "unknown" and (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        sha = proc.stdout.strip() or sha
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "os": platform.platform(),
        "compiler": build_info.get("compiler", "?"),
        "flags": build_info.get("flags", "?"),
        "git_sha": sha,
    }


def runner_cmd(binary, args, *extra):
    return [str(binary), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]


def run_runner(binary, args, trace_out):
    try:
        proc = subprocess.run(runner_cmd(binary, args, "--trace-out", str(trace_out)),
                              cwd=ROOT, env=clean_env(), stdout=subprocess.PIPE,
                              text=True, timeout=120)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: workload runner timed out\n")
        sys.exit(1)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(f"perfbench: workload runner failed (exit {proc.returncode})\n")
        sys.exit(1)
    return json.loads(lines[-1])


def run_verification(binary, args):
    """The untimed verification passes, in their own process with
    PMSB_CHECK=1: the program's invariant checkers abort on a violation,
    which fails the pass instead of the benchmark."""
    env = dict(clean_env(), PMSB_CHECK="1")
    try:
        proc = subprocess.run(runner_cmd(binary, args, "--verify", "1"), cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=50)
    except subprocess.TimeoutExpired:
        return [{"name": "verification", "failure": "timed out"}]
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        err = " ".join(proc.stderr.split())[-300:]
        return [{"name": "verification",
                 "failure": f"PMSB_CHECK pass failed (exit {proc.returncode}): {err}"}]
    return json.loads(lines[-1])["verification"]


def load_reference(path):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        sys.stderr.write(f"perfbench: cannot read reference {path}: {e}\n")
        sys.exit(1)


def decile(values, k):
    """The k-th decile (k * 10th percentile) of `values`."""
    return statistics.quantiles(values, n=10, method="inclusive")[k - 1]


def evaluate_untraced(out, ref, verification):
    reps = out["reps"]
    pooled = out["pooled"]
    failures = []
    failed_reps = set()
    for i, rep in enumerate(reps):
        why = rep["sim"]["failure"]
        if ref is not None:
            want = ref["realization_digests"][rep["realization"]]
            if rep["sim"]["digest"] != want:
                why = why or f"digest {rep['sim']['digest']} != reference {want}"
        if why:
            failures.append(f"rep {i} (realization {rep['realization']}): {why}")
            failed_reps.add(i)
    pooled_why = [pooled["failure"]] if pooled["failure"] else []
    if ref is not None:
        pooled_why += [f"pooled {k} {pooled[k]} != reference {ref[k]}"
                       for k in REFERENCE_KEYS if pooled[k] != ref[k]]
    if pooled_why:
        # The pooled output is every rep's output: all of them fail.
        failures += pooled_why
        failed_reps = set(range(len(reps)))
    failed_passes = [v for v in verification if v["failure"]]
    failures += [f"{v['name']}: {v['failure']}" for v in failed_passes]
    attempted = len(reps) + len(verification)
    failed = len(failed_reps) + len(failed_passes)
    # Timings of failed reps are discarded; with none left, the metrics come
    # from every rep and the run still reports correct = false.
    timed = [r for i, r in enumerate(reps) if i not in failed_reps] or reps
    rates, cpu = [], []
    for r in timed:
        cycles = sum(b["node_cycles"] for b in r["blocks"])
        rates.append(cycles / sum(b["wall_s"] for b in r["blocks"]))
        cpu.append(sum(b["cpu_s"] for b in r["blocks"]) * 1e9 / cycles)
    blocks = [b for r in timed for b in r["blocks"]]
    block_rates = [b["node_cycles"] / b["wall_s"] for b in blocks]
    values = {
        # Each rep's rate is over its whole measured window, so a stall the
        # program causes always counts. The host's other tenants only ever
        # slow a rep down, so the run reports the fastest tenth of the reps
        # (the least CPU time per node-cycle).
        "node_cycles_per_s": decile(rates, 9),
        "cpu_ns_per_node_cycle": decile(cpu, 1),
        "setup_s": statistics.median(out["setup_samples"]),
        "peak_rss_mib": out["peak_rss_mib"],
        "sim_throughput": pooled["throughput"],
        "sim_latency_p50_cycles": pooled["p50"],
        "sim_latency_p99_cycles": pooled["p99"],
        "sim_loss": pooled["loss"],
        "failed_run_share": failed / attempted,
    }
    notes = {
        "node_cycles_per_s": f"p90 of {len(timed)} reps (median {statistics.median(rates):.4g}; "
                             f"median of {len(blocks)} blocks "
                             f"{statistics.median(block_rates):.4g})",
        "cpu_ns_per_node_cycle": f"p10 of the same reps (median {statistics.median(cpu):.4g})",
        "setup_s": f"median of {len(out['setup_samples'])} set-ups",
        "sim_throughput": f"{out['realizations']} realizations pooled",
        "sim_latency_p50_cycles": f"{pooled['latency_samples']} samples",
        "sim_latency_p99_cycles": f"{pooled['latency_samples']} samples, "
                                  f"{pooled['beyond_p99']} beyond",
        "failed_run_share": f"{failed} of {attempted} runs",
    }
    return values, notes, attempted, failed, failures


def evaluate_traced(out, trace_out):
    failures = list(out["failures"])
    try:
        doc = json.loads(Path(trace_out).read_text())
        if not doc.get("traceEvents"):
            failures.append(f"trace {trace_out} has no events")
    except (OSError, json.JSONDecodeError) as e:
        failures.append(f"trace {trace_out} unreadable: {e}")
    values = {l["name"]: l["value"] for l in out["layers"]}
    notes = {l["name"]: l["source"] for l in out["layers"]}
    attempted = out["passes"]
    failed = min(len(failures), attempted)
    return values, notes, attempted, failed, failures


def fmt(v):
    if isinstance(v, int):
        return str(v)
    return f"{v:.6g}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="write this run's seed-%d results into perfbench/reference.json "
                         "instead of comparing against it" % DEFAULT_SEED)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    binary = build()
    trace_out = BUILD / f"trace_{args.workload}_{args.seed}.json"
    out = run_runner(binary, args, trace_out)
    host = host_info(out["build"])
    log(f"perfbench: workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
        f"trace {args.trace}, {out['workers']} worker(s)")
    log("host: nproc {nproc}, cpu {cpu}, {os}".format(**host))
    log("build: {compiler}, flags '{flags}', git {git_sha}".format(**host))

    if args.trace:
        values, notes, attempted, failed, failures = evaluate_traced(out, trace_out)
        log(f"traced passes: {out['passes']}, spans kept {out['spans']} "
            f"(dropped {out['spans_dropped']}), trace {trace_out}")
        log(f"tracing overhead: traced / untraced NCS = {values['trace.ncs_ratio']:.4f}")
        log()
        log(f"{'per-layer metric':40} {'value':>14} {'unit':8} {'moves':42} measured on")
        for name, unit, _, moves, on in PER_LAYER:
            log(f"{name:40} {fmt(values[name]):>14} {unit:8} {moves + ' on ' + on:42} "
                f"{notes[name]}")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, *_ in PER_LAYER}
    else:
        ref = None
        reference = {} if args.record_reference else load_reference(REFERENCE)
        if args.seed == DEFAULT_SEED and not args.record_reference:
            ref = reference.get(args.workload)
            if ref is None:
                sys.stderr.write(f"perfbench: no reference for {args.workload}\n")
                sys.exit(1)
        verification = run_verification(binary, args)
        values, notes, attempted, failed, failures = evaluate_untraced(out, ref, verification)
        log()
        log(f"{'end-to-end metric':26} {'value':>14} {'unit':14} note")
        for name, unit, _ in END_TO_END:
            log(f"{name:26} {fmt(values[name]):>14} {unit:14} {notes.get(name, '')}")
        pooled = out["pooled"]
        log(f"simulated ({out['realizations']} realizations): digest {pooled['digest']}, "
            f"injected {pooled['injected']}, delivered {pooled['delivered']}, dropped "
            f"{pooled['dropped']}, backlog {pooled['backlog']}, in network "
            f"{pooled['in_network']}")
        if args.record_reference:
            if args.seed != DEFAULT_SEED or failed:
                sys.stderr.write("perfbench: record the reference from a passing run of "
                                 f"seed {DEFAULT_SEED}\n")
                sys.exit(1)
            table = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
            entry = {k: pooled[k] for k in REFERENCE_KEYS}
            entry["realization_digests"] = [r["sim"]["digest"]
                                            for r in out["reps"][:out["realizations"]]]
            table[args.workload] = entry
            REFERENCE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
            log(f"recorded reference for {args.workload} in {REFERENCE}")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in END_TO_END if name not in REPORTED_ONLY}

    for f in failures:
        log(f"FAILED: {f}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
