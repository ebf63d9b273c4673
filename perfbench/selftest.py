#!/usr/bin/env python3
"""Self-test of the simulator benchmark.

    python3 perfbench/selftest.py                     # check
    python3 perfbench/selftest.py --write-reference   # refresh the reference

The check runs every workload twice with one seed and requires identical
per-cell fingerprints of the simulated statistics, requires a correct result
with no failed cell, and requires zero drift from
perfbench/reference_fingerprints.json at the reference seed. A change meant
only to speed up the simulator must pass it unchanged; a change that moves
simulated results on purpose refreshes the reference and says why.
"""
import argparse
import json
import sys

import run

REFERENCE_SEED = 1
CHECK_SEED = 7


def one_run(binary, workload, seed, tag):
    path = run.build_dir() / f"selftest_{workload}_seed{seed}_{tag}.json"
    _, result = run.run_binary(binary, workload, seed, 1, False, path)
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} of "
                           f"{result['attempted']} cell runs failed")
    return run.read_fingerprints(path)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--write-reference", action="store_true",
                    help=f"store seed-{REFERENCE_SEED} fingerprints as the "
                         "reference")
    args = ap.parse_args()
    binary = run.build()

    if args.write_reference:
        ref = {"seed": REFERENCE_SEED,
               "workloads": {w: one_run(binary, w, REFERENCE_SEED, "ref")
                             for w in run.WORKLOADS}}
        run.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True)
                                 + "\n")
        print(f"selftest: wrote {run.REFERENCE}")
        return 0

    ok = True
    for w in run.WORKLOADS:
        a = one_run(binary, w, CHECK_SEED, "a")
        b = one_run(binary, w, CHECK_SEED, "b")
        differ = sorted(n for n in set(a) | set(b) if a.get(n) != b.get(n))
        print(f"selftest: {w}: seed {CHECK_SEED} twice, {len(a)} cells, "
              f"{len(differ)} fingerprints differ")
        ok &= not differ
        drift = run.drift_line(w, REFERENCE_SEED,
                               one_run(binary, w, REFERENCE_SEED, "ref"))
        print(f"selftest: {w}: {drift}")
        ok &= drift.startswith("sim_drift_cells: 0 ")
    print("selftest: PASS" if ok else "selftest: FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
