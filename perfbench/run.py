#!/usr/bin/env python3
"""Benchmark entry point for the abstract-MAC consensus service and fuzzer.

Builds the perfbench binary (Release) from this checkout's sources, then
runs one workload and passes its output through. The last line printed is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload log-leased --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --all [--seed 1] [--seconds 10]   # every workload
    python3 perfbench/run.py --selftest                        # known defect

Run it from the root of the checkout. Build output goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); the
determinism pins of earlier runs of the same build are kept next to it.
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
WORKLOADS = ["log-leased", "log-paxos", "log-failover", "fuzz-soak"]
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def source_digest():
    """Digest of the sources the binary is built from. Pins are only
    comparable between runs of the same program, so they are kept per
    digest."""
    h = hashlib.sha256()
    files = [p for d in (ROOT / "src", HERE) for p in d.rglob("*")
             if p.suffix in (".cpp", ".hpp", ".txt") and p.is_file()]
    for path in sorted(files):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def build():
    if not (ROOT / "src" / "log" / "replicated_log.cpp").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    out = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve() / "perfbench"
    configure = ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = [["cmake", "--build", str(out), "-j", "4"]]
    if not (out / "CMakeCache.txt").is_file():
        steps.insert(0, configure)
    for step in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    binary = out / "perfbench"
    if not binary.is_file():
        fail(f"build produced no {binary}")
    pins = out / "pins" / source_digest()
    pins.mkdir(parents=True, exist_ok=True)
    return binary, pins


def declared_metrics():
    """(name, unit) of each metric BENCHMARK.json declares, per trace mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {trace: [(m["name"], m["unit"]) for m in spec[key]]
            for trace, key in ((False, "end_to_end"), (True, "per_layer"))}


def run_workload(binary, pins, workload, seed, seconds, trace):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--pins-dir", str(pins)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        print(proc.stdout, end="")
        fail(f"{workload} exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    # The printed metric set must be exactly what BENCHMARK.json declares.
    expected = declared_metrics()[trace]
    printed = [(name, m["unit"]) for name, m in result["metrics"].items()]
    if printed != expected:
        lines.insert(-1, "PROBLEM metrics differ from BENCHMARK.json: "
                         f"{sorted(set(expected) ^ set(printed))}")
        result["correct"] = False
    return lines[:-1], result


def text_metrics(lines):
    """name -> (value, unit) from the binary's '  name value unit' lines."""
    out = {}
    for line in lines:
        parts = line.split()
        if line.startswith("  ") and len(parts) == 3:
            try:
                out.setdefault(parts[0], (float(parts[1]), parts[2]))
            except ValueError:
                pass
    return out


def run_all(binary, pins, seed, seconds):
    """Every workload, untraced then traced, and one summary table of the
    end-to-end figures by name and unit."""
    summary = {}
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            lines, result = run_workload(binary, pins, workload, seed, seconds, trace)
            print("\n".join(lines))
            print(json.dumps(result))
            ok = ok and result["correct"]
            # End-to-end figures come from the untraced run, which goes first.
            for name, value in text_metrics(lines).items():
                summary.setdefault(workload, {}).setdefault(name, value)
    names = ["setup_s", "ops_per_s", "scenarios_per_s", "decide_p50_ticks",
             "decide_p99_ticks", "read_p99_ticks", "bytes_per_op", "outage_ticks",
             "signatures", "peak_rss_mb", "failed_share"]
    print(f"\n{'metric':<20}{'unit':<8}" + "".join(f"{w:>16}" for w in WORKLOADS))
    for name in names:
        unit = next((summary[w][name][1] for w in WORKLOADS if name in summary[w]), "")
        cells = "".join(f"{summary[w][name][0]:>16.6g}" if name in summary[w] else f"{'-':>16}"
                        for w in WORKLOADS)
        print(f"{name:<20}{unit:<8}{cells}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (args.all or args.selftest or args.workload):
        parser.error("one of --workload, --all or --selftest is required")

    binary, pins = build()
    if args.selftest:
        return subprocess.run([str(binary), "--selftest"]).returncode
    if args.all:
        return run_all(binary, pins, args.seed, args.seconds)
    lines, result = run_workload(binary, pins, args.workload, args.seed,
                                 args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
