#!/usr/bin/env python3
"""Builds and runs the dpjl benchmark.

    python3 perfbench/run.py --workload query_local --seed 7 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a dpjl checkout. The first call configures and builds
perfbench/ (which pulls in the library next to it) under
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable
is unset; later calls only rebuild what changed. --seconds defaults to
BENCHMARK.json's run_seconds. The last line of standard
output is the result: {"correct", "attempted", "failed", "metrics"}, with
the end-to-end metrics of BENCHMARK.json for --trace 0 and its per-layer
metrics for --trace 1. The full result (machine block, per-operation
figures, health gauges) goes to <build>/results/, the spans of a traced run
to <build>/traces/.

--self-test runs every workload at tiny sizes in both modes and checks that
each named metric is present with its unit and every answer check passes.
"""

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BINARY = "dpjl_perfbench"
RUN_TIMEOUT_S = 170
# Workloads the binary runs that BENCHMARK.json does not gate: query_routed's
# latency medians spread 12-31% between runs on a shared VM (every request is
# 16 thread wake-ups), beyond any bound the gate allows. Run them by name.
MANUAL_WORKLOADS = ("query_routed",)


class BenchError(Exception):
    pass


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError("no BENCHMARK.json at the checkout root")
    return json.loads(path.read_text())


def build(out):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"{ROOT} holds no dpjl sources to build")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))

    # A build tree configured from another source directory (a moved or
    # copied checkout) is configured afresh; otherwise builds are incremental.
    cache = out / "CMakeCache.txt"
    configure = not cache.is_file() or (
        f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}" not in cache.read_text().splitlines())
    try:
        with open(log_path, "w") as log:
            if configure:
                cache.unlink(missing_ok=True)
                subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                                "-DCMAKE_BUILD_TYPE=Release"],
                               stdout=log, stderr=subprocess.STDOUT, check=True)
            subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                           stdout=log, stderr=subprocess.STDOUT, check=True)
    except subprocess.CalledProcessError:
        tail = log_path.read_text().splitlines()[-30:]
        raise BenchError("build failed:\n" + "\n".join(tail))
    binary = out / BINARY
    if not binary.is_file():
        raise BenchError(f"build produced no {binary}")
    return binary


def source_id():
    """A hash of the sources the benchmark builds, plus the git commit when
    the checkout has one (a dirty tree changes the hash, not the commit)."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    ident = "tree-" + digest.hexdigest()[:16]
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True)
            ident += " git-" + sha.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return ident


def raise_fd_limit():
    """Lifts the soft open-file limit to the hard one (at most 65536): the
    routed workload's servers keep one fd per connection ever accepted, and
    the count is reported, not capped."""
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    want = 65536 if hard == resource.RLIM_INFINITY else min(hard, 65536)
    if soft != resource.RLIM_INFINITY and soft < want:
        resource.setrlimit(resource.RLIMIT_NOFILE, (want, hard))
    return resource.getrlimit(resource.RLIMIT_NOFILE)[0]


def run_binary(binary, workload, seed, seconds, trace, smoke, out, source):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--source-id", source]
    if trace:
        (out / "traces").mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(out / "traces" / f"{workload}-seed{seed}.jsonl")]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"{workload} exited with {proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} printed nothing")
    return lines[:-1], json.loads(lines[-1])


def expected_metrics(trace):
    return {m["name"]: m["unit"] for m in spec()["per_layer" if trace else "end_to_end"]}


def metric_problems(result, trace):
    """Names missing, unexpected, with the wrong unit, or not a finite
    number (zero too, for end-to-end metrics)."""
    want = expected_metrics(trace)
    got = result["metrics"]
    problems = [f"missing {n}" for n in want if n not in got]
    problems += [f"unexpected {n}" for n in got if n not in want]
    for name, unit in want.items():
        if name not in got:
            continue
        value = got[name]["value"]
        if got[name]["unit"] != unit:
            problems.append(f"{name} has unit {got[name]['unit']}, want {unit}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name} is not a finite number")
        elif not trace and value == 0:
            problems.append(f"{name} is 0")
    return problems


def check_digest(out, key, digest):
    """The answer digest must be the same on every run with the same seed."""
    path = out / "digests.json"
    known = json.loads(path.read_text()) if path.is_file() else {}
    if key in known and known[key] != digest:
        return f"answer digest {digest} differs from {known[key]} of an earlier run ({key})"
    known[key] = digest
    path.write_text(json.dumps(known, indent=1, sort_keys=True))
    return None


def run_once(binary, workload, seed, seconds, trace, smoke, out):
    source = source_id()
    report, result = run_binary(binary, workload, seed, seconds, trace, smoke, out,
                                source)
    problems = list(result.get("check_failures", []))
    problems += metric_problems(result, trace)
    tree = source.split()[0]
    mismatch = check_digest(out, f"{tree} {workload} seed={seed} smoke={int(smoke)}",
                            result["digest"])
    if mismatch:
        problems.append(mismatch)
    correct = bool(result["correct"]) and not problems
    result["problems"] = problems
    (out / "results").mkdir(parents=True, exist_ok=True)
    name = f"{workload}-seed{seed}-trace{int(trace)}{'-smoke' if smoke else ''}.json"
    (out / "results" / name).write_text(json.dumps(result, indent=1))
    return report, result, correct, problems


def self_test(binary, out):
    workloads = [w["name"] for w in spec()["workloads"]] + list(MANUAL_WORKLOADS)
    ok = True
    for workload in workloads:
        for trace in (False, True):
            try:
                _, result, correct, problems = run_once(binary, workload, 3, 1, trace,
                                                        True, out)
            except BenchError as e:
                correct, problems, result = False, [str(e)], {"failed": -1}
            if result.get("failed") != 0:
                problems.append(f"{result.get('failed')} operations failed")
            status = "PASS" if correct and not problems else "FAIL"
            ok = ok and status == "PASS"
            print(f"{status} {workload} trace={int(trace)}"
                  + ("" if status == "PASS" else ": " + "; ".join(problems)))
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    try:
        out = build_dir()
        fd_limit = raise_fd_limit()
        binary = build(out)
        if args.self_test:
            return self_test(binary, out)
        if not args.workload:
            parser.error("--workload is required")
        seconds = args.seconds or spec()["run_seconds"]
        known = [w["name"] for w in spec()["workloads"]] + list(MANUAL_WORKLOADS)
        if args.workload not in known:
            raise BenchError(f"unknown workload {args.workload}")
        report, result, correct, problems = run_once(
            binary, args.workload, args.seed, seconds, bool(args.trace), False, out)
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2
    for line in report:
        print(line)
    print("machine " + json.dumps(result["machine"]))
    print(f"open-file limit {fd_limit}")
    for problem in problems:
        print("PROBLEM " + problem)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
