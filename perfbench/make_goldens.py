#!/usr/bin/env python3
"""Regenerates perfbench/goldens.txt: one "<request sha256> <response sha256>"
line for every request in the benchmark's universe (pool.py).

Each response is computed in-process by `perfbench_tool golden`, with
`option bound_prune 0` and no DesignCache or SweepCache: the exhaustive
sweep is the prune-equivalence oracle the daemon's pruned, cached answers
must match byte for byte. Entries already present are kept, so an
interrupted run resumes. Single-threaded; the whole universe takes about
half an hour on one core.

    python3 perfbench/make_goldens.py --tool <path to perfbench_tool>
"""

import argparse
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import pool  # noqa: E402


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--tool", required=True)
    args = ap.parse_args()
    have = pool.load_goldens()
    todo = [r for r in pool.universe() if pool.digest(r) not in have]
    print(f"{len(have)} goldens present, {len(todo)} to compute",
          file=sys.stderr)
    if todo:
        compute(args.tool, todo)
    # Keep the file in universe order, without entries the universe no longer
    # has, so regenerations diff cleanly.
    have = pool.load_goldens()
    with open(pool.GOLDENS, "w") as out:
        for r in pool.universe():
            out.write(f"{pool.digest(r)} {have[pool.digest(r)]}\n")
    return 0


def compute(tool, todo):
    """Appends the goldens of `todo` as each is computed, so an interrupted
    run resumes where it stopped."""
    proc = subprocess.Popen([tool, "golden"], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    with open(pool.GOLDENS, "a") as out:
        for i, req in enumerate(todo):
            proc.stdin.write(req)
            proc.stdin.flush()
            lines = []
            while True:
                line = proc.stdout.readline()
                if not line:
                    raise SystemExit("perfbench_tool golden exited early")
                lines.append(line)
                if line == "end\n":
                    break
            response = "".join(lines)
            if not response.startswith("sasynth-response v1 ok\n"):
                raise SystemExit(f"golden request failed:\n{req}{response}")
            out.write(f"{pool.digest(req)} {pool.digest(response)}\n")
            out.flush()
            print(f"{i + 1}/{len(todo)}", file=sys.stderr)
    proc.stdin.close()
    proc.wait()


if __name__ == "__main__":
    sys.exit(main())
