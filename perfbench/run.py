#!/usr/bin/env python3
"""Shipped-path benchmark of cbs: analyze, cross-cloud compare and serve.

Usage (from the repository root):

    python3 perfbench/run.py --workload alicloud-analyze --seed 1 \
        --seconds 30 --trace 0

Builds perfbench/ (and the cbs libraries from src/) into the directory
named by CARGO_TARGET_DIR (default .bench_build), generates the
workload's input from --seed, computes a reference output on another
code path, then repeats one timed call of the shipped entry point, each
in its own process so every call has its own peak RSS, until --seconds
have passed. --trace 0 reports the end-to-end metrics of BENCHMARK.json;
--trace 1 alternates untraced and traced calls and reports the
per-layer metrics. The last stdout line is the result JSON; the line
before it records the machine. Results and spans are kept under
<build dir>/results/. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("alicloud-analyze", "alicloud-msrc-compare", "alicloud-serve")
SETUP_REPS = 5
MIN_CALLS = 3        # timed calls per --trace 0 run, even past --seconds
MIN_PAIRS = 2        # untraced + traced pairs per --trace 1 run
RUN_BUDGET_S = 170   # the whole run, after the build


class BenchError(Exception):
    pass


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configure once, then (re)build the benchmark binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no cbs sources at {ROOT / 'src'}")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "--target",
                    "cbs_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return out / "cbs_perfbench"


def step(binary, args, deadline):
    """Run one cbs_perfbench step; return (its JSON, peak RSS in MB)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before " + args[0])
    proc = subprocess.Popen([str(binary)] + args, cwd=ROOT,
                            stdout=subprocess.PIPE)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"step {args[0]} exited with {proc.returncode}")
    lines = out.decode().strip().splitlines()
    if not lines:
        raise BenchError(f"step {args[0]} printed nothing")
    return json.loads(lines[-1]), usage.ru_maxrss / 1024.0


def machine(binary, deadline):
    record, _ = step(binary, ["machine"], deadline)
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True).stdout.strip() or None
    except (OSError, subprocess.CalledProcessError):
        pass
    # The checkout need not be a git repository: the source digest
    # identifies the code either way.
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    record.update(cpu_model=cpu, nproc=os.cpu_count(), commit=commit,
                  source_sha256=digest.hexdigest())
    return record


def median(values):
    return statistics.median(values) if values else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    binary = build()
    deadline = time.monotonic() + RUN_BUDGET_S
    host = machine(binary, deadline)

    out = build_dir()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = out / "work" / tag
    results = out / "results"
    results.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    base = ["--workload", args.workload, "--dir", os.path.relpath(work, ROOT)]
    try:
        setup, _ = step(binary, ["setup"] + base +
                        ["--seed", str(args.seed), "--reps", str(SETUP_REPS)],
                        deadline)
        step(binary, ["reference"] + base, deadline)

        untraced, traced = [], []
        start = time.monotonic()
        while True:
            # Write back this run's files (inputs, the last call's
            # outputs) before each call, so that call does not pay for it.
            os.sync()
            report, rss = step(binary, ["run"] + base, deadline)
            report["peak_rss_mb"] = rss
            untraced.append(report)
            if args.trace:
                os.sync()
                run_id = f"{tag}-call{len(traced)}"
                spans = results / f"spans-{run_id}.jsonl"
                report, rss = step(binary, ["run"] + base + [
                    "--traced", "--run-id", run_id,
                    "--spans", os.path.relpath(spans, ROOT)], deadline)
                report["peak_rss_mb"] = rss
                traced.append(report)
            elapsed = time.monotonic() - start
            if elapsed >= args.seconds and \
                    len(untraced) >= (MIN_PAIRS if args.trace else MIN_CALLS):
                break
            # Leave room for one more call of the longest seen so far.
            longest = max(r["seconds"] for r in untraced + traced)
            if time.monotonic() + (2 if args.trace else 1) * longest * 1.5 \
                    + 5 > deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    calls = untraced + traced
    digests = {r["digest"] for r in calls}
    attempted = sum(r["records"] for r in calls)
    failed = sum(r["records"] for r in calls
                 if not r["ok"] or len(digests) != 1)
    for r in calls:
        if not r["ok"]:
            log("output check failed:", r["why"])
    if len(digests) != 1:
        log("outputs differ between calls:", sorted(digests))

    if args.trace == 0:
        values = {
            "records_per_s": median([r["records"] / r["seconds"]
                                     for r in untraced]),
            "records_per_cpu_s": median([r["records"] / r["cpu_seconds"]
                                         for r in untraced]),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in untraced]),
            "setup_s": median(setup["setup_s"]),
            "correct_frac": 1.0 - failed / attempted,
        }
        wanted = spec["end_to_end"]
    else:
        values = {}
        for name in {k for r in traced for k in r["layers"]}:
            values[name] = median([r["layers"].get(name, 0.0)
                                   for r in traced])
        values["bench.tracing_overhead"] = (
            median([r["seconds"] for r in traced]) /
            median([r["seconds"] for r in untraced]) - 1.0)
        publish = sorted(ms for r in untraced for ms in r["publish_ms"])
        if len(publish) >= 2:
            deciles = statistics.quantiles(publish, n=10)
            values["serve.window_publish_p50_ms"] = median(publish)
            values["serve.window_publish_p90_ms"] = deciles[8]
            values["serve.window_publish_samples"] = float(len(publish))
        wanted = spec["per_layer"]

    metrics = {m["name"]: {"value": values.get(m["name"], 0.0),
                           "unit": m["unit"]} for m in wanted}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = {"machine": host, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "setup_s": setup["setup_s"],
              "calls": [{k: v for k, v in r.items() if k != "publish_ms"}
                        for r in calls],
              "result": result}
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"machine": host}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.CalledProcessError) as err:
        log("perfbench:", err)
        sys.exit(1)
