"""Interleaved A/B of the benchmark's workloads between two checkouts.

    python3 tools/ab_steps.py BASE CHANGE [--pairs 30] [--seed 0] [--workload NAME ...]

BASE and CHANGE are the roots of two checkouts.  For each workload, both
trees get the same configs, built by BASE's ``perfbench/workloads.py``.
Each tree first runs them once untimed (bytecode, file cache); then
``--pairs`` pairs of runs follow, one process at a time, with the tree
that goes first alternating from pair to pair.  A run is the workload's
measured commands, each a child process of the tree's
``perfbench/child.py``, with the caller's ``PYTHON*`` variables dropped
and ``PYTHONPATH`` set to the tree's ``src``, as ``perfbench/run.py``
runs them.  A run's wall time is the sum over its commands and its peak
RSS the largest ``wait4`` max-RSS.

It prints, per workload and tree, the median and quartiles of the wall
time, the median peak RSS, the pairs in which CHANGE was faster, and
the SHA-256 of each output file, which must agree between the trees and
across all runs.  The last line is the same as JSON.  It exits 1 if a
command fails or the outputs differ.
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


def _run(root: Path, directory: Path, workload) -> tuple[float, float, dict[str, str]]:
    """Wall seconds, peak RSS (MiB) and output digests of one run."""
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
    return wall, rss, digests


def _quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def compare(base: Path, change: Path, name: str, seed: int, pairs: int, work: Path) -> dict:
    """Run ``pairs`` interleaved pairs of workload ``name`` and summarize them."""
    workload = _workloads(base).build(name, seed, "measured")
    trees = {"base": base, "change": change}
    dirs = {}
    for label in trees:
        dirs[label] = work / f"{name}-{label}"
        dirs[label].mkdir()
        for file, text in workload.configs.items():
            (dirs[label] / file).write_text(text)
    runs = {label: [] for label in trees}
    digests = set()
    for label, root in trees.items():   # untimed warm-up
        digests.add(json.dumps(_run(root, dirs[label], workload)[2], sort_keys=True))
    for k in range(pairs):
        order = ("base", "change") if k % 2 == 0 else ("change", "base")
        for label in order:
            wall, rss, outputs = _run(trees[label], dirs[label], workload)
            runs[label].append((wall, rss))
            digests.add(json.dumps(outputs, sort_keys=True))
    walls = {label: [w for w, _ in r] for label, r in runs.items()}
    result = {
        "workload": name,
        "seed": seed,
        "pairs": pairs,
        "change_faster": sum(c < b for b, c in zip(walls["base"], walls["change"])),
        "outputs_equal": len(digests) == 1,
        "outputs": json.loads(min(digests)),
    }
    for label in trees:
        result[label] = {
            "wall_s_median": statistics.median(walls[label]),
            "wall_s_quartiles": _quartiles(walls[label]),
            "peak_rss_mb_median": statistics.median(r for _, r in runs[label]),
        }
    result["wall_change"] = result["change"]["wall_s_median"] / result["base"]["wall_s_median"] - 1
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
                  f" {r['change_faster']}, median wall {r['wall_change']:+.1%},"
                  f" outputs {'equal' if r['outputs_equal'] else 'DIFFER'}")
            for label in ("base", "change"):
                q = r[label]["wall_s_quartiles"]
                print(f"  {label:6s} wall_s median {r[label]['wall_s_median']:.4f}"
                      f" quartiles {q[0]:.4f} {q[2]:.4f}"
                      f"  peak_rss_mb {r[label]['peak_rss_mb_median']:.2f}")
            for file, digest in r["outputs"].items():
                print(f"  {file} {digest}")
    print(json.dumps(results))
    return 0 if all(r["outputs_equal"] for r in results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
