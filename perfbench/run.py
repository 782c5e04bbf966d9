"""Benchmark of the ``mmcsim`` command line, run from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; ``mmcsim`` is imported from ``src/``,
nothing is installed or built.  Every command is a fresh process and
one process runs at a time (the program is single-threaded).  All
times are host wall-clock seconds; the simulated statistics are
correctness checks, not speed metrics.

``--trace 0`` alternates a set-up repetition (the workload's commands on
its configs shortened to one sampling period) with a measured
repetition until ``--seconds`` have passed, and reports medians:

* ``wall_s``: seconds for the workload's commands, end to end;
* ``setup_s``: the same for the set-up repetitions: interpreter start,
  ``import mmcsim``, config parsing and output files;
* ``peak_rss_mb``: largest max-RSS of the workload's processes
  (``wait4`` rusage), MiB;
* ``ok_frac``: repetitions that passed every check over repetitions
  attempted.

``--trace 1`` alternates untraced and traced measured repetitions and
reports the per-layer numbers of ``PER_LAYER`` from the traced ones
(see ``spans.py``); ``trace.overhead_frac`` compares the two.

A repetition fails if a command exits non-zero, an output's SHA-256
differs from ``digests.json``, a reported metric is not finite, or a
workload's sanity band breaks.  The second-to-last line of standard
output holds machine facts and every sample; the last line is the
result object.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
DIGESTS = HERE / "digests.json"
WORK = ROOT / ".perfbench_work"

MIN_REPS = 3
# Stop repeating after this long, whatever --seconds says, and kill a
# command still running this long after the start, so that a run of a
# much slower or hung program still ends inside three minutes.
MAX_MEASURE_S = 120.0
DEADLINE_S = 160.0
MIB = 2**20

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "ok_frac": "frac"}
PER_LAYER = {
    "config.parse_s": "s",
    "testbench.simulate_s": "s",
    "testbench.self_us_per_phase_step": "us",
    "testbench.record_mb": "MiB",
    "controller.phase_steps": "count",
    "controller.targets_us": "us",
    "controller.rank_us": "us",
    "controller.select_us": "us",
    "controller.self_us": "us",
    "model.advance_us": "us",
    "metrics.summarize_s": "s",
    "metrics.summarize_calls": "count",
    "csvio.write_s": "s",
    "csvio.write_mb_per_s": "MiB/s",
    "csvio.bytes_written": "B",
    "csvio.load_s": "s",
    "csvio.load_mb_per_s": "MiB/s",
    "cli.self_s": "s",
    "process.cpu_s": "s",
    "sim.switch_transitions": "count",
    "trace.overhead_frac": "frac",
    "failed_frac": "frac",
}


@dataclass
class Rep:
    """One repetition of a workload's commands."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mib: float = 0.0
    csv_bytes: int = 0
    problems: list[str] = field(default_factory=list)
    traces: list[dict] = field(default_factory=list)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _numbers(value):
    if isinstance(value, dict):
        for v in value.values():
            yield from _numbers(v)
    elif isinstance(value, (int, float)):
        yield value


def check_outputs(out: Path, wl: workloads.Workload, expected: dict | None) -> list[str]:
    """Problems with a repetition's outputs; ``expected=None`` skips digests."""
    problems = []
    for name in wl.outputs:
        path = out / name
        if not path.is_file():
            problems.append(f"{name} missing")
            continue
        if expected is not None and sha256(path) != expected.get(name):
            problems.append(f"{name} differs from its recorded digest")
        if name.endswith(".json"):
            data = json.loads(path.read_text())
            if not all(math.isfinite(v) for v in _numbers(data)):
                problems.append(f"{name} holds a non-finite metric")
            if wl.max_fs_ratio is not None:
                ratio = data["fs_ratio_b_over_a"]
                if not ratio < wl.max_fs_ratio:
                    problems.append(f"fs_ratio_b_over_a {ratio} not below {wl.max_fs_ratio}")
    for a, b in wl.same_bytes:
        if not ((out / a).is_file() and (out / a).read_bytes() == (out / b).read_bytes()):
            problems.append(f"{a} differs from {b}")
    return problems


def prepare(directory: Path, wl: workloads.Workload) -> Path:
    directory.mkdir(parents=True)
    for name, text in wl.configs.items():
        (directory / name).write_text(text)
    return directory


def run_rep(
    directory: Path,
    wl: workloads.Workload,
    expected: dict | None,
    deadline: float,
    trace: bool = False,
) -> Rep:
    """Run the workload's commands once in ``directory`` and check them.

    A command still running at ``deadline`` (``perf_counter`` time) is
    killed and fails the repetition.
    """
    out = directory / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    # The caller's PYTHON* settings are dropped so that bytecode is cached
    # as for an installed package, whatever the caller's environment.
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=str(ROOT / "src"), MMCSIM_OUTPUT_DIR="out")
    rep = Rep()
    for i, command in enumerate(wl.commands):
        trace_path = directory / f"trace{i}.json"
        argv = [sys.executable, str(CHILD)]
        if trace:
            argv += ["--trace-out", str(trace_path)]
        argv += command
        stderr_path = directory / "stderr.txt"
        with open(directory / "stdout.txt", "w") as so, open(stderr_path, "w") as se:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=directory, env=env, stdout=so, stderr=se)
            killer = threading.Timer(max(0.0, deadline - start), proc.kill)
            killer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            rep.wall_s += time.perf_counter() - start
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        rep.cpu_s += usage.ru_utime + usage.ru_stime
        rep.rss_mib = max(rep.rss_mib, usage.ru_maxrss / 1024)
        if proc.returncode != 0:
            tail = stderr_path.read_text().strip().splitlines()[-1:]
            rep.problems.append(
                f"mmcsim {' '.join(command)} exited {proc.returncode}: {' '.join(tail)}"
            )
            return rep
        if trace:
            rep.traces.append(json.loads(trace_path.read_text()))
    rep.problems += check_outputs(out, wl, expected)
    csv = out / "run.csv"
    rep.csv_bytes = csv.stat().st_size if csv.is_file() else 0
    return rep


def layer_values(rep: Rep) -> dict[str, float]:
    """Per-layer numbers of one traced repetition (all its commands)."""
    spans = collections.defaultdict(lambda: [0, 0.0, 0.0])   # calls, total, children
    for summary in rep.traces:
        for name, s in summary["spans"].items():
            acc = spans[name]
            acc[0] += s["calls"]
            acc[1] += s["total_s"]
            acc[2] += s["children_s"]

    def calls(name):
        return spans[name][0]

    def total(name):
        return spans[name][1]

    def self_s(name):
        return spans[name][1] - spans[name][2]

    steps = calls("controller.control_step")

    def per_step_us(seconds):
        return seconds / steps * 1e6 if steps else 0.0

    write_s = total("csvio.write_record")
    load_s = total("csvio.load_record_csv")
    csv_mib = rep.csv_bytes / MIB
    return {
        "config.parse_s": total("config.parse_config"),
        "testbench.simulate_s": total("testbench.simulate"),
        "testbench.self_us_per_phase_step": per_step_us(self_s("testbench.simulate")),
        "testbench.record_mb": max(s["record_bytes"] for s in rep.traces) / MIB,
        "controller.phase_steps": steps,
        "controller.targets_us": per_step_us(total("controller.compute_targets")),
        "controller.rank_us": per_step_us(total("controller.sort_arm")),
        "controller.select_us": per_step_us(total("controller.select_submodules")),
        "controller.self_us": per_step_us(self_s("controller.control_step")),
        "model.advance_us": per_step_us(total("model.advance_phase")),
        "metrics.summarize_s": total("metrics.summarize"),
        "metrics.summarize_calls": calls("metrics.summarize"),
        "csvio.write_s": write_s,
        "csvio.write_mb_per_s": csv_mib / write_s if write_s else 0.0,
        "csvio.bytes_written": rep.csv_bytes if calls("csvio.write_record") else 0,
        "csvio.load_s": load_s,
        "csvio.load_mb_per_s": csv_mib / load_s if load_s else 0.0,
        "cli.self_s": rep.wall_s - sum(s["top_level_s"] for s in rep.traces),
        "sim.switch_transitions": sum(s["switch_transitions"] for s in rep.traces),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
    }


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return values * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


def measure(args: argparse.Namespace, run_dir: Path, expected: dict) -> dict:
    """Run the repetitions; return samples, counts and metric values."""
    deadline = time.perf_counter() + DEADLINE_S
    dirs, wls = {}, {}
    for kind in workloads.KINDS:
        wls[kind] = workloads.build(args.workload, args.seed, kind)
        dirs[kind] = prepare(run_dir / kind, wls[kind])

    def rep(kind, trace=False):
        return run_rep(dirs[kind], wls[kind], expected[kind], deadline, trace)

    # The first start writes bytecode and warms the file cache: untimed.
    reps = {"warmup": [rep("setup")], "setup": [], "measured": [], "traced": []}
    start = time.perf_counter()
    last = 0.0   # duration of the latest iteration
    while True:
        elapsed = time.perf_counter() - start
        # Stop before an iteration that would overrun --seconds.
        enough = elapsed + last > args.seconds and len(reps["measured"]) >= MIN_REPS
        if enough or elapsed >= MAX_MEASURE_S:
            break
        if args.trace:
            reps["measured"].append(rep("measured"))
            reps["traced"].append(rep("measured", trace=True))
        else:
            reps["setup"].append(rep("setup"))
            reps["measured"].append(rep("measured"))
        last = time.perf_counter() - start - elapsed

    every = [r for group in reps.values() for r in group]
    attempted = len(every)
    failed = sum(1 for r in every if r.problems)
    measured = reps["measured"]
    samples = {
        "wall_s": [r.wall_s for r in measured],
        "peak_rss_mb": [r.rss_mib for r in measured],
        "cpu_s": [r.cpu_s for r in measured],
    }
    if args.trace:
        samples["traced_wall_s"] = [r.wall_s for r in reps["traced"]]
        ok_traced = [r for r in reps["traced"] if not r.problems and r.traces]
        layers = [layer_values(r) for r in ok_traced]
        values = {
            name: statistics.median(v[name] for v in layers) if layers else 0.0
            for name in PER_LAYER
            if name not in ("process.cpu_s", "trace.overhead_frac", "failed_frac")
        }
        values["process.cpu_s"] = statistics.median(samples["cpu_s"])
        # Each traced repetition directly follows an untraced one, so the
        # pairwise ratio cancels the host's slow drift in speed.
        values["trace.overhead_frac"] = statistics.median(
            t / u for t, u in zip(samples["traced_wall_s"], samples["wall_s"])
        ) - 1.0
        values["failed_frac"] = failed / attempted
        units = PER_LAYER
    else:
        samples["setup_s"] = [r.wall_s for r in reps["setup"]]
        values = {
            "wall_s": statistics.median(samples["wall_s"]),
            "setup_s": statistics.median(samples["setup_s"]),
            "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
            "ok_frac": (attempted - failed) / attempted,
        }
        units = END_TO_END
    problems = sorted({p for r in every for p in r.problems})
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "samples": samples,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mmcsim" / "cli.py").is_file():
        print(f"perfbench: no mmcsim sources in {ROOT / 'src'}", file=sys.stderr)
        return 2
    table = json.loads(DIGESTS.read_text())["workloads"][args.workload]
    expected = table.get(str(workloads.variant(args.seed)))
    if expected is None:
        print(f"perfbench: no recorded digests for seed {args.seed}", file=sys.stderr)
        return 2

    facts = machine_facts()
    facts["loadavg_before"] = os.getloadavg()
    run_dir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        result = measure(args, run_dir, expected)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    facts["loadavg_after"] = os.getloadavg()

    for problem in result["problems"][:10]:
        print(f"perfbench: {problem}", file=sys.stderr)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "variant": workloads.variant(args.seed),
        "trace": args.trace,
        "machine": facts,
        "sample_count": len(result["samples"]["wall_s"]),
        "quartiles": {k: _quartiles(v) for k, v in result["samples"].items()},
        "samples": result["samples"],
    }
    print(json.dumps({"perfbench": info}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
