"""Interleaved A/B of the benchmark's workloads between two checkouts.

    python3 tools/ab_steps.py BASE CHANGE [--pairs 30] [--seed 0] [--workload NAME ...]

BASE and CHANGE are the roots of two checkouts.  For each workload, both
trees get the same configs of both kinds, ``setup`` and ``measured``,
built by BASE's ``perfbench/workloads.py``.  Each tree first runs both
once untimed (bytecode, file cache); then ``--pairs`` pairs of runs
follow, one process at a time, with the tree that goes first
alternating from pair to pair.  A tree's turn in a pair is a set-up run
then a measured one, as ``perfbench/run.py`` alternates them.  A run is
the workload's commands, each a child process of the tree's
``perfbench/child.py``, with the caller's ``PYTHON*`` variables dropped
and ``PYTHONPATH`` set to the tree's ``src``, as ``perfbench/run.py``
runs them.  A run's wall time is the sum over its commands and its peak
RSS the largest ``wait4`` max-RSS.

It prints, per workload and tree, the median and quartiles of the
measured runs' wall time (``wall_s``) and of the set-up runs' wall time
(``setup_s``), the median peak RSS of the measured runs, the pairs in
which CHANGE was faster on each time, and the SHA-256 of each output
file of the measured runs.  The outputs of each kind must agree between
the trees and across all runs, and the files of each of the workload's
``same_bytes`` pairs must be byte-identical in every run.  The last line
is the same as JSON.  It exits 1 if a command fails, the outputs differ
or a ``same_bytes`` pair differs.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path


def _workloads(root: Path):
    spec = importlib.util.spec_from_file_location("workloads", root / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # its dataclass looks its module up
    spec.loader.exec_module(module)
    return module


def _run(root: Path, directory: Path, workload) -> tuple[float, float, dict[str, str], list[str]]:
    """Wall seconds, peak RSS (MiB), output digests and the ``same_bytes``
    pairs that differ, of one run."""
    out = directory / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=str(root / "src"), MMCSIM_OUTPUT_DIR="out")
    wall, rss = 0.0, 0.0
    for command in workload.commands:
        argv = [sys.executable, str(root / "perfbench" / "child.py"), *command]
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=directory, env=env,
                                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall += time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            raise SystemExit(f"ab_steps: {' '.join(command)} in {root} exited {proc.returncode}")
        rss = max(rss, usage.ru_maxrss / 1024)
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in workload.outputs
    }
    differ = [f"{a} != {b}" for a, b in workload.same_bytes
              if (out / a).read_bytes() != (out / b).read_bytes()]
    return wall, rss, digests, differ


def _quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


# A tree's turn in a pair: a set-up run, then a measured one.
KINDS = ("setup", "measured")
# The time reported of each kind's runs.
TIMES = {"measured": "wall_s", "setup": "setup_s"}


def compare(base: Path, change: Path, name: str, seed: int, pairs: int, work: Path) -> dict:
    """Run ``pairs`` interleaved pairs of workload ``name`` and summarize them."""
    module = _workloads(base)
    workloads = {kind: module.build(name, seed, kind) for kind in KINDS}
    trees = {"base": base, "change": change}
    dirs = {}
    for label in trees:
        for kind, workload in workloads.items():
            dirs[label, kind] = work / f"{name}-{label}-{kind}"
            dirs[label, kind].mkdir()
            for file, text in workload.configs.items():
                (dirs[label, kind] / file).write_text(text)
    runs = {(label, kind): [] for label in trees for kind in KINDS}
    digests = {kind: set() for kind in KINDS}
    differ = set()

    def run(label: str, kind: str) -> tuple[float, float]:
        wall, rss, outputs, pairs_differ = _run(trees[label], dirs[label, kind], workloads[kind])
        digests[kind].add(json.dumps(outputs, sort_keys=True))
        differ.update(f"{kind}: {pair}" for pair in pairs_differ)
        return wall, rss

    for label in trees:   # untimed warm-up
        for kind in KINDS:
            run(label, kind)
    for k in range(pairs):
        order = ("base", "change") if k % 2 == 0 else ("change", "base")
        for label in order:
            for kind in KINDS:
                runs[label, kind].append(run(label, kind))
    result = {
        "workload": name,
        "seed": seed,
        "pairs": pairs,
        "outputs_equal": all(len(d) == 1 for d in digests.values()),
        "outputs": json.loads(min(digests["measured"])),
        "same_bytes_equal": not differ,
        "same_bytes_differ": sorted(differ),
    }
    for kind, metric in TIMES.items():
        times = {label: [w for w, _ in runs[label, kind]] for label in trees}
        result[f"change_faster_{metric}"] = sum(
            c < b for b, c in zip(times["base"], times["change"])
        )
        for label in trees:
            result.setdefault(label, {}).update({
                f"{metric}_median": statistics.median(times[label]),
                f"{metric}_quartiles": _quartiles(times[label]),
            })
        result[f"{metric}_change"] = (
            result["change"][f"{metric}_median"] / result["base"][f"{metric}_median"] - 1
        )
    for label in trees:
        result[label]["peak_rss_mb_median"] = statistics.median(
            r for _, r in runs[label, "measured"]
        )
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=30)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)
    base, change = args.base.resolve(), args.change.resolve()
    names = args.workload or list(_workloads(base).WORKLOAD_NAMES)
    results = []
    with tempfile.TemporaryDirectory(prefix="ab_steps-") as tmp:
        for name in names:
            r = compare(base, change, name, args.seed, args.pairs, Path(tmp))
            results.append(r)
            print(f"{name} (seed {args.seed}, {args.pairs} pairs): change faster in"
                  f" {r['change_faster_wall_s']} (wall_s), {r['change_faster_setup_s']}"
                  f" (setup_s); medians wall_s {r['wall_s_change']:+.1%},"
                  f" setup_s {r['setup_s_change']:+.1%};"
                  f" outputs {'equal' if r['outputs_equal'] else 'DIFFER'},"
                  f" same_bytes {'equal' if r['same_bytes_equal'] else 'DIFFER'}")
            for label in ("base", "change"):
                line = f"  {label:6s}"
                for metric in TIMES.values():
                    q = r[label][f"{metric}_quartiles"]
                    line += (f" {metric} median {r[label][f'{metric}_median']:.4f}"
                             f" quartiles {q[0]:.4f} {q[2]:.4f} ")
                print(f"{line} peak_rss_mb {r[label]['peak_rss_mb_median']:.2f}")
            for file, digest in r["outputs"].items():
                print(f"  {file} {digest}")
            for pair in r["same_bytes_differ"]:
                print(f"  same_bytes DIFFER: {pair}")
    print(json.dumps(results))
    return 0 if all(r["outputs_equal"] and r["same_bytes_equal"] for r in results) else 1

if __name__ == "__main__":
    raise SystemExit(main())
