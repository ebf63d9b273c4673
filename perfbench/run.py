#!/usr/bin/env python3
"""Simulator host-speed benchmark: build the benchmark binary, run one
workload, print the result.

    python3 perfbench/run.py --workload stamp_htm --seed 1 --seconds 30 --trace 0

Run it from the repository root. The binary (perfbench/src) is built from
source with CMake into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench
when that variable is unset; the first run builds, later runs only re-check
the build. The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics. With --seed equal to the seed of
perfbench/reference_fingerprints.json, the run also reports how many cells'
simulated statistics differ from the stored reference (sim_drift_cells).
"""
import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference_fingerprints.json"
WORKLOADS = ("stamp_htm", "stamp_stm", "sync_net")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 800


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configure and build the binary (both are no-ops when up to date);
    returns its path. Build output goes to stderr so that stdout carries only
    the benchmark's report."""
    out = build_dir()
    subprocess.run(
        ["cmake", "-S", str(HERE), "-B", str(out),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", str(out), "--target", "perfbench", "-j", "4"],
        stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return out / "perfbench"


def run_binary(binary, workload, seed, seconds, trace, fingerprints,
               spans=None):
    """Run the binary once; returns (report lines, result dict). Raises
    RuntimeError when it fails or prints no valid result."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--fingerprints", str(fingerprints)]
    if spans:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench exited with {proc.returncode}:\n"
                           f"{proc.stdout}{proc.stderr}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        raise RuntimeError(f"perfbench printed no JSON result ({e}):\n"
                           f"{proc.stdout}{proc.stderr}") from e
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise RuntimeError(f"unexpected result keys: {sorted(result)}")
    return lines[:-1], result


def read_fingerprints(path):
    with open(path) as f:
        return json.load(f)["cells"]


def drift_line(workload, seed, cells):
    """sim_drift_cells against the stored reference, as one report line."""
    if not REFERENCE.exists():
        return "sim_drift_cells: not checked (no reference fingerprints)"
    ref = json.loads(REFERENCE.read_text())
    if seed != ref["seed"]:
        return (f"sim_drift_cells: not checked (reference fingerprints are "
                f"stored for seed {ref['seed']} only)")
    want = ref["workloads"].get(workload, {})
    drifted = sorted(name for name in set(want) | set(cells)
                     if want.get(name) != cells.get(name))
    line = (f"sim_drift_cells: {len(drifted)} of {len(want)} cells differ "
            f"from the reference fingerprints (seed {seed})")
    if drifted:
        line += "\n  drifted: " + ", ".join(drifted[:10])
    return line


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if not 1 <= args.seconds <= 60:
        ap.error("--seconds must be between 1 and 60")
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    try:
        binary = build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    fingerprints = build_dir() / f"fingerprints_{stem}.json"
    spans = build_dir() / f"spans_{stem}.json" if args.trace else None
    try:
        lines, result = run_binary(binary, args.workload, args.seed,
                                   args.seconds, args.trace, fingerprints,
                                   spans)
        cells = read_fingerprints(fingerprints)
    except (RuntimeError, subprocess.TimeoutExpired, OSError,
            json.JSONDecodeError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(drift_line(args.workload, args.seed, cells))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
