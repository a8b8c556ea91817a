#!/usr/bin/env python3
"""End-to-end benchmark of the ranycast lab: builds the benchmark from
source, runs one workload (or all three) and prints a JSON result line.

Usage (from the repository root):

  python3 perfbench/run.py --workload paper|chaos72k|serve|all --seed N \
      --seconds S --trace 0|1

  --workload all     run the three workloads in turn; each prints its own
                     result line, and the last line combines them with
                     metric names prefixed by the workload

  --quick            tiny worlds and short phases (the benchmark's tests)
  --inject KIND      corrupt one output after it is produced
                     (flip-digest | forge-serve); the run must then fail
  --record-digests   rerun every workload, quick and full, for seeds 0-31 and
                     rewrite perfbench/digests.json (after a deliberate
                     output change)

The last line of stdout is {"correct", "attempted", "failed", "metrics"}.
The exit code is 0 only when every output check passed. Build logs go to
stderr; the human-readable summary and the environment stamp go to stdout
before the result line. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper", "chaos72k", "serve")
OPTIMISED_BUILDS = ("Release", "RelWithDebInfo")
RUN_TIMEOUT_S = 170
DIGEST_SEEDS = range(0, 32)
DIGEST_MODES = ("quick", "full")
BUILD_TIMEOUT_S = 840


def die(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configure (once) and build the perfbench executable; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file() or not (ROOT / "configs").is_dir():
        die(f"{ROOT} is not a ranycast checkout (src/ or configs/ missing)")
    if shutil.which("cmake") is None:
        die("cmake not found")
    out = build_dir()
    jobs = str(os.cpu_count() or 1)
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_build_step(cmd)
    run_build_step(["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs])
    exe = out / "perfbench"
    if not exe.is_file():
        die(f"build produced no {exe}")
    return exe


def run_build_step(cmd):
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"build step timed out: {' '.join(cmd)}")
    if proc.returncode != 0:
        die(f"build step failed ({proc.returncode}): {' '.join(cmd)}")


def source_digest():
    """sha256 over the sources the benchmark builds and reads (the checkout
    the benchmark runs in is not always a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "configs", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_workload(exe, workload, seed, seconds, trace, quick=False, inject=None):
    """Runs the executable once; returns (exit code, result dict or None)."""
    out_dir = build_dir() / "runs" / f"{workload}-s{seed}-t{int(trace)}{'-quick' if quick else ''}"
    result_path = out_dir / "result.json"
    if result_path.exists():
        result_path.unlink()
    cmd = [str(exe), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--out-dir", str(out_dir), "--root", str(ROOT)]
    if quick:
        cmd.append("--quick")
    if inject:
        cmd += ["--inject", inject]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} did not finish within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 124, None
    sys.stdout.write(proc.stdout)
    if not result_path.is_file():
        return proc.returncode or 1, None
    with open(result_path, encoding="utf-8") as f:
        return proc.returncode, json.load(f)


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def check_trace_outputs(result, failures):
    stamp = result.get("stamp", {})
    trace = stamp.get("chrome_trace")
    spans = stamp.get("span_log")
    if not trace or not Path(trace).is_file() or not spans or not Path(spans).is_file():
        failures.append("traced run wrote no trace file or span log")
        return
    checker = ROOT / "tools" / "check_trace.py"
    proc = subprocess.run([sys.executable, str(checker), trace, "--min-events", "1"],
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        failures.append(f"tools/check_trace.py rejected {trace}: {proc.stderr.strip()}")
    keys = {"id", "parent", "request", "name", "start_ns", "end_ns", "thread"}
    count = 0
    with open(spans, encoding="utf-8") as f:
        for line in f:
            span = json.loads(line)
            if set(span) != keys or span["end_ns"] < span["start_ns"]:
                failures.append(f"malformed span record: {line.strip()}")
                return
            count += 1
    if count == 0:
        failures.append("traced run recorded no spans")


def evaluate(args, workload, bench, code, result):
    """All checks on one run; returns (correct, attempted, failed, metrics,
    failure messages)."""
    failures = []
    if result is None:
        return False, 1, 1, {}, [f"the benchmark exited {code} without a result"]
    failures += result.get("failures", [])
    if code != 0:
        failures.append(f"the benchmark exited {code}")

    stamp = result.get("stamp", {})
    if stamp.get("build_type") not in OPTIMISED_BUILDS:
        failures.append(f"refusing numbers from a {stamp.get('build_type')!r} build")
    if not 1 <= stamp.get("threads_used", 0) <= stamp.get("nproc", 0):
        failures.append("the workload ran more busy threads than nproc")

    mode = "quick" if args.quick else "full"
    recorded = load_json(HERE / "digests.json").get(mode, {}).get(workload, {})
    expected = recorded.get(str(args.seed))
    digests = result.get("digests", {})
    if not digests:
        failures.append("the workload produced no output digest")
    if expected is not None:
        for name, value in expected.items():
            if digests.get(name) != value:
                failures.append(f"digest {name} is {digests.get(name)}, recorded {value}")
    stamp["digests_recorded"] = expected is not None

    kind = "per_layer" if args.trace else "end_to_end"
    produced = result.get(kind, {})
    metrics = {}
    for m in bench[kind]:
        got = produced.get(m["name"])
        if got is None:
            failures.append(f"metric {m['name']} missing")
            continue
        if got["unit"] != m["unit"]:
            failures.append(f"metric {m['name']} has unit {got['unit']}, declared {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    extra = set(produced) - {m["name"] for m in bench[kind]}
    if extra:
        failures.append(f"undeclared {kind} metrics: {sorted(extra)}")
    if args.trace:
        check_trace_outputs(result, failures)

    attempted = max(1, int(result.get("attempted", 0)))
    failed = int(result.get("failed", 0))
    return not failures, attempted, failed, metrics, failures


def record_digests():
    exe = build()
    path = HERE / "digests.json"
    table = {}
    for mode in DIGEST_MODES:
        quick = mode == "quick"
        for workload in WORKLOADS:
            entry = table.setdefault(mode, {}).setdefault(workload, {})
            for seed in DIGEST_SEEDS:
                code, result = run_workload(exe, workload, seed, 0.001, False, quick=quick)
                if code != 0 or result is None:
                    die(f"{mode} {workload} seed {seed} failed while recording")
                entry[str(seed)] = result["digests"]
                print(f"recorded {mode} {workload} seed {seed}", file=sys.stderr)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--inject", choices=("flip-digest", "forge-serve"))
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"{ROOT} is not a ranycast checkout (src/ missing)")
    if args.record_digests:
        record_digests()
        return 0
    if args.workload is None:
        die("--workload is required")
    bench = load_json(ROOT / "BENCHMARK.json")

    exe = build()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        code, result = run_workload(exe, workload, args.seed, args.seconds, args.trace,
                                    quick=args.quick, inject=args.inject)
        correct, attempted, failed, metrics, failures = evaluate(args, workload, bench, code,
                                                                 result)
        stamp = dict(result.get("stamp", {})) if result else {}
        stamp["git_commit"] = git_commit()
        stamp["source_sha256"] = source_digest()
        print("stamp: " + json.dumps(stamp, sort_keys=True))
        for f in failures:
            print(f"CHECK FAILED: {f}")
        line = {"correct": correct, "attempted": attempted, "failed": failed,
                "metrics": metrics}
        if len(workloads) == 1:
            total = line
            break
        # --workload all: one line per workload, then the combined line.
        print(f"{workload}: {json.dumps(line)}")
        total["correct"] = total["correct"] and correct
        total["attempted"] += attempted
        total["failed"] += failed
        total["metrics"].update({f"{workload}.{k}": v for k, v in metrics.items()})
    print(json.dumps(total))
    return 0 if total["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
