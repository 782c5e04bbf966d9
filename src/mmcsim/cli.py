"""Command-line front end: ``run``, ``compare`` and ``metrics``.

* ``run <config>`` simulates one configuration, writes ``run.csv`` plus
  a metrics report into the output directory, and prints the report.
* ``compare <config_a> <config_b>`` runs two configurations that may
  differ only in their policy schedule (anything else is refused with a
  listing of the offending keys) and reports both metric sets
  side by side together with the switching-frequency ratio b/a.
* ``metrics <csv> [--window t0 t1]`` recomputes the summary metrics of
  a persisted run.

The environment variable ``MMCSIM_OUTPUT_DIR`` overrides the configured
output directory of ``run`` and ``compare`` and the report location of
``metrics``.  There is no randomness anywhere: identical inputs produce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import replace

from .config import RunConfig, parse_config, serialize_config
from .csvio import (
    TimeSeriesSink,
    format_metrics_text,
    load_record_csv,
    write_metrics_report,
)
from .errors import ConfigError
from .metrics import SummaryMetrics, summarize
from .testbench import run_scenario

__all__ = ["main"]

OUTPUT_DIR_ENV = "MMCSIM_OUTPUT_DIR"


def _output_dir(config: RunConfig) -> str:
    return os.environ.get(OUTPUT_DIR_ENV) or config.output_dir


def _load_config(path: str) -> RunConfig:
    try:
        with open(path) as f:
            text = f.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config(text)


def _run_config(config: RunConfig, sink: TimeSeriesSink | None) -> SummaryMetrics:
    return run_scenario(
        config.scenario,
        sink,
        params=config.params,
        grid=config.grid,
        dc_link=config.dc_link,
        decimation=config.decimation,
        window=config.window,
    )


def _cmd_run(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    out_dir = _output_dir(config)
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "run.csv")
    with TimeSeriesSink(csv_path, config.params.n) as sink:
        metrics = _run_config(config, sink)
    write_metrics_report(
        metrics,
        os.path.join(out_dir, "metrics.txt"),
        os.path.join(out_dir, "metrics.json"),
    )
    sys.stdout.write(format_metrics_text(metrics))
    return 0


def _schedule_stripped(config: RunConfig) -> RunConfig:
    return replace(config, scenario=replace(config.scenario, events=[]))


def _config_diff(a: RunConfig, b: RunConfig) -> list[str]:
    """Human-readable listing of non-schedule differences."""
    lines_a = serialize_config(_schedule_stripped(a)).splitlines()
    lines_b = serialize_config(_schedule_stripped(b)).splitlines()
    diffs = []
    for la, lb in zip(lines_a, lines_b):
        if la != lb:
            diffs.append(f"  a: {la}\n  b: {lb}")
    return diffs


def _cmd_compare(args: argparse.Namespace) -> int:
    config_a = _load_config(args.config_a)
    config_b = _load_config(args.config_b)
    if _schedule_stripped(config_a) != _schedule_stripped(config_b):
        listing = "\n".join(_config_diff(config_a, config_b))
        raise ConfigError(
            "compare requires configs that differ only in policy_schedule;"
            f" found other differences:\n{listing}"
        )
    metrics_a = _run_config(config_a, None)
    metrics_b = _run_config(config_b, None)

    flat_a = metrics_a.to_flat()
    flat_b = metrics_b.to_flat()
    fs_a, fs_b = metrics_a.fs_mean, metrics_b.fs_mean
    if fs_a == fs_b:
        ratio = 1.0
    elif fs_a == 0.0:
        ratio = math.inf
    else:
        ratio = fs_b / fs_a

    lines = [f"# a = {args.config_a}", f"# b = {args.config_b}"]
    lines += [
        f"{key} = {flat_a[key]:.17g} | {flat_b[key]:.17g}"
        for key in sorted(flat_a)
    ]
    lines.append(f"fs_ratio_b_over_a = {ratio:.17g}")
    report = "\n".join(lines) + "\n"

    out_dir = _output_dir(config_a)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "compare.txt"), "w") as f:
        f.write(report)
    with open(os.path.join(out_dir, "compare.json"), "w") as f:
        json.dump(
            {"a": flat_a, "b": flat_b, "fs_ratio_b_over_a": ratio},
            f,
            sort_keys=True,
            indent=2,
        )
        f.write("\n")
    sys.stdout.write(report)
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    record = load_record_csv(args.csv)
    if args.sm_nominal is not None:
        nominal = args.sm_nominal
    else:
        # In ideal-dc runs the recorded link voltage is the nominal bus.
        nominal = float(record.v_dc_link[0, 0]) / record.n
    metrics = summarize(record, tuple(args.window) if args.window else None, nominal)

    out_dir = os.environ.get(OUTPUT_DIR_ENV) or os.path.dirname(args.csv) or "."
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.splitext(os.path.basename(args.csv))[0]
    write_metrics_report(
        metrics,
        os.path.join(out_dir, f"{stem}.metrics.txt"),
        os.path.join(out_dir, f"{stem}.metrics.json"),
    )
    sys.stdout.write(format_metrics_text(metrics))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmcsim",
        description="Fixed-step simulator of a modular multilevel converter "
        "with predictive sorted-selection switching control.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one configuration")
    p_run.add_argument("config", help="path to a configuration file")
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser(
        "compare", help="run two configs differing only in policy schedule"
    )
    p_cmp.add_argument("config_a", help="baseline configuration")
    p_cmp.add_argument("config_b", help="alternative configuration")
    p_cmp.set_defaults(func=_cmd_compare)

    p_met = sub.add_parser("metrics", help="recompute metrics from a run CSV")
    p_met.add_argument("csv", help="path to a run.csv produced by `run`")
    p_met.add_argument(
        "--window",
        nargs=2,
        type=float,
        metavar=("T0", "T1"),
        help="evaluation window in seconds (default: 0 to the last sample time)",
    )
    p_met.add_argument(
        "--sm-nominal",
        type=float,
        help="nominal SM voltage for ripple [V] (default: first-row bus / n)",
    )
    p_met.set_defaults(func=_cmd_metrics)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(name)s: %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
