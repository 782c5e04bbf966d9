"""Regenerate ``digests.json``: the SHA-256 of every checked output.

    python3 perfbench/record_digests.py

Runs every workload variant and kind once and records its outputs,
after the same sanity checks the benchmark applies.  Rerun only for a
change that alters output bytes on purpose, and say so in that change.
"""

import json
import shutil
import sys
import time

import run
import workloads


def main() -> int:
    table = {}
    record_dir = run.WORK / "record"
    shutil.rmtree(record_dir, ignore_errors=True)
    try:
        for name in workloads.WORKLOAD_NAMES:
            table[name] = {}
            for v in range(workloads.VARIANTS):
                entry = {}
                for kind in workloads.KINDS:
                    wl = workloads.build(name, v, kind)
                    directory = run.prepare(record_dir / f"{name}-{v}-{kind}", wl)
                    rep = run.run_rep(directory, wl, None, time.perf_counter() + run.DEADLINE_S)
                    if rep.problems:
                        print(f"{name} variant {v} {kind}: {rep.problems}", file=sys.stderr)
                        return 1
                    entry[kind] = {f: run.sha256(directory / "out" / f) for f in wl.outputs}
                table[name][str(v)] = entry
                print(f"{name} variant {v}: {rep.wall_s:.2f} s", file=sys.stderr)
    finally:
        shutil.rmtree(record_dir, ignore_errors=True)
        try:
            run.WORK.rmdir()
        except OSError:
            pass
    with open(run.DIGESTS, "w") as f:
        json.dump({"variants": workloads.VARIANTS, "workloads": table}, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
