#!/usr/bin/env python3
"""Benchmark entry point: builds the harness, runs one workload, checks it.

    python3 perfbench/run.py --workload sim_paper [--seed 1] [--seconds 10]
                             [--trace 0|1]

Run it from the root of a source checkout. It configures and builds
perfbench/CMakeLists.txt into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), runs the harness for one workload, adds the checks
that live on this side (the figures cell checks and the self-check of every
name in BENCHMARK.json), prints each metric by name with its unit and
provenance, appends the record to results.jsonl in the build directory, and
prints one JSON object as the last line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
The exit code is 0 only when every check passed. The default seed is 1;
perfbench/manifest.json names the held-out seed.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DEFAULT_SEED = 1
HARNESS_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
# What the source hash covers: everything the harness is built from.
SOURCE_DIRS = ("src", "bench", "tools", "perfbench")
SOURCE_FILES = ("CMakeLists.txt",)


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return (ROOT / target / "perfbench").resolve()


def build(out_dir):
    """Configures once, then builds the harness (a no-op when up to date)."""
    (out_dir / "tmp").mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(out_dir / "tmp"))  # compiler scratch
    log_path = out_dir / "build.log"
    steps = []
    if not (out_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out_dir), "--target",
                  "perfbench_harness", "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      env=env, timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as error:
                fail(f"build step {step[:2]} failed: {error}", 3)
            if done.returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace")[-4000:]
                fail(f"build failed (see {log_path}):\n{tail}", 3)
    return out_dir / "perfbench_harness"


def source_sha256():
    """Hash of the built sources: the commit stand-in where no git exists."""
    digest = hashlib.sha256()
    paths = [ROOT / name for name in SOURCE_FILES]
    for directory in SOURCE_DIRS:
        paths.extend(p for p in (ROOT / directory).rglob("*") if p.is_file())
    for path in sorted(paths):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def figures_checks(work):
    """Mean cross-shard fraction over every figure cell, and how many cells
    did not complete."""
    data = json.loads((work / "figures.json").read_text())
    fractions = []
    incomplete = []

    def walk(node, path):
        if isinstance(node, dict):
            if isinstance(node.get("cross_fraction"), dict):
                fractions.append(node["cross_fraction"]["mean"])
                if node.get("completed") is False:
                    incomplete.append("/".join(path))
            for key, value in node.items():
                walk(value, path + [key])

    walk(data, [])
    mean = sum(fractions) / len(fractions) if fractions else 0.0
    return mean, len(fractions), incomplete


def self_check(benchmark, manifest, emitted, mode_key):
    """Every workload and metric name BENCHMARK.json lists is known to the
    manifest and emitted with its unit."""
    problems = []
    listed = {w["name"] for w in benchmark["workloads"]}
    described = set(manifest["workloads"])
    if listed != described:
        problems.append(f"workloads differ: BENCHMARK.json {sorted(listed)} "
                        f"vs manifest {sorted(described)}")
    known = {m["name"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    for prediction in manifest["predictions"]:
        for name in prediction["layer_metrics"] + prediction["moves"]:
            if name not in known:
                problems.append(f"manifest names unknown metric {name}")
        for name in prediction["on"] + prediction.get("unchanged_on", []):
            if name not in listed:
                problems.append(f"manifest names unknown workload {name}")
    for metric in benchmark[mode_key]:
        got = emitted.get(metric["name"])
        if got is None:
            problems.append(f"metric {metric['name']} not emitted")
        elif got["unit"] != metric["unit"]:
            problems.append(f"metric {metric['name']} emitted in "
                            f"{got['unit']}, listed in {metric['unit']}")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in ("CMakeLists.txt", "src", "bench/scenarios.cpp"):
        if not (ROOT / needed).exists():
            fail(f"{ROOT / needed} is missing: run from a full source "
                 "checkout")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    manifest = json.loads((BENCH_DIR / "manifest.json").read_text())
    if args.workload not in {w["name"] for w in benchmark["workloads"]}:
        fail(f"unknown workload {args.workload!r}")

    out_dir = build_dir()
    harness = build(out_dir)
    work = out_dir / "run" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    result_path = work / "result.json"
    env = dict(os.environ, TMPDIR=str(work / "tmp"))
    command = [str(harness), f"--workload={args.workload}",
               f"--seed={args.seed}", f"--seconds={args.seconds}",
               f"--trace={args.trace}", f"--work={work}",
               f"--out={result_path}"]
    with open(work / "harness.log", "w") as log:
        try:
            done = subprocess.run(command, stdout=log, env=env,
                                  timeout=HARNESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"harness exceeded {HARNESS_TIMEOUT_S} s", 4)
    try:
        result = json.loads(result_path.read_text())
    except (OSError, ValueError):
        fail(f"harness exited {done.returncode} without a result", 4)
    metrics = {name: {"value": m["value"], "unit": m["unit"]}
               for name, m in result["metrics"].items()}
    attempted = result["attempted"]
    failed = result["failed"]
    failures = list(result["failures"])
    if done.returncode != 0 and failed == 0:
        failed, failures = 1, failures + [f"harness exit {done.returncode}"]

    if args.workload == "figures":
        mean, cells, incomplete = figures_checks(work)
        metrics["cross_fraction"] = {"value": mean, "unit": "ratio"}
        if cells == 0 or incomplete:
            failed += max(1, len(incomplete))
            failures.append(f"figures: {len(incomplete)} of {cells} cells "
                            "did not complete")
    metrics["failed_fraction"] = {"value": failed / max(attempted, 1),
                                  "unit": "ratio"}

    mode_key = "per_layer" if args.trace else "end_to_end"
    problems = self_check(benchmark, manifest, metrics, mode_key)
    if problems:
        failed += len(problems)
        failures.extend(f"self-check: {p}" for p in problems)

    provenance = {
        "commit": git_commit(),
        "source_sha256": source_sha256(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": result["build"]["compiler"],
        "build_type": result["build"]["build_type"],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "timed_reps": result["timed_reps"],
    }
    with open(out_dir / "results.jsonl", "a") as records:
        records.write(json.dumps({"provenance": provenance,
                                  "attempted": attempted, "failed": failed,
                                  "failures": failures,
                                  "metrics": metrics}) + "\n")

    print(f"# perfbench {args.workload} seed={args.seed} "
          f"trace={args.trace} timed_reps={result['timed_reps']}")
    print("# provenance " + json.dumps(provenance))
    for name in sorted(metrics):
        print(f"{name:34s} {metrics[name]['value']:>18.6g} "
              f"{metrics[name]['unit']}")
    for failure in failures:
        print(f"# FAILED {failure}")
    listed = [m["name"] for m in benchmark[mode_key]]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: metrics[name] for name in listed if name in metrics},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
