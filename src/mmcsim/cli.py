"""Command-line front end: ``run``, ``compare`` and ``metrics``.

* ``run <config>`` simulates one configuration, writes ``run.csv``, its
  sidecar and a metrics report into the output directory, and prints
  the report.
* ``compare <config_a> <config_b>`` runs two configurations that may
  differ only in their policy schedule (anything else is refused with a
  listing of the offending keys), stepping both in one pass, and reports
  both metric sets side by side together with the switching-frequency
  ratio b/a.
* ``metrics <csv> [--window t0 t1]`` recomputes the summary metrics of
  a persisted run from the sidecar ``<csv>.rec`` that ``run`` wrote
  beside the CSV; the CSV is an export for other tools.  A sidecar that
  is missing or does not match the CSV is refused (exit 2), naming the
  CSV and the reason.  The sidecar names the run's nominal SM voltage,
  which the ripple is taken against, and its decimation: when the run
  kept one step in k > 1, a WARNING says that the metrics come from the
  kept samples only.  A WARNING also names a ``--window`` that ends
  after the record's last sample.

Each command ends in one report path (:func:`_report`): it writes the
report text to ``<stem>.txt`` and its numbers to ``<stem>.json`` in the
output directory, then prints the text.  The output directory is the
configured one for ``run`` and ``compare`` and the CSV's directory for
``metrics``; the environment variable ``MMCSIM_OUTPUT_DIR`` overrides
all three.  There is no randomness anywhere: identical inputs produce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import itertools
import logging
import math
import os
import sys
from dataclasses import replace

from .config import RunConfig, parse_config, serialize_config
from .csvio import (
    TimeSeriesSink,
    _sidecar,
    format_metrics_text,
    write_report,
)
from .errors import ConfigError
from .metrics import SummaryAccumulator
from .testbench import _summarize_batch, run_scenario

__all__ = ["main"]

log = logging.getLogger("mmcsim.cli")

OUTPUT_DIR_ENV = "MMCSIM_OUTPUT_DIR"


def _output_dir(default: str) -> str:
    """The output directory, ``MMCSIM_OUTPUT_DIR`` or else ``default``, made."""
    out_dir = os.environ.get(OUTPUT_DIR_ENV) or default
    os.makedirs(out_dir, exist_ok=True)
    return out_dir


def _report(default: str, stem: str, text: str, payload) -> int:
    """Write ``text`` and ``payload`` as ``<stem>.txt`` and ``<stem>.json``
    into the output directory, print ``text`` and return exit code 0."""
    path = os.path.join(_output_dir(default), stem)
    write_report(text, payload, path + ".txt", path + ".json")
    sys.stdout.write(text)
    return 0


def _load_config(path: str) -> RunConfig:
    try:
        with open(path) as f:
            text = f.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config(text)


def _cmd_run(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    out_dir = _output_dir(config.output_dir)
    csv_path = os.path.join(out_dir, "run.csv")
    with TimeSeriesSink(csv_path, config.params, config.decimation) as sink:
        metrics = run_scenario(
            config.scenario,
            sink,
            params=config.params,
            grid=config.grid,
            dc_link=config.dc_link,
            window=config.window,
        )
    return _report(out_dir, "metrics", format_metrics_text(metrics), metrics.to_flat())


def _schedule_stripped(config: RunConfig) -> RunConfig:
    return replace(config, scenario=replace(config.scenario, events=[]))


def _config_diff(a: RunConfig, b: RunConfig) -> list[str]:
    """Human-readable listing of non-schedule differences."""
    lines_a = serialize_config(_schedule_stripped(a)).splitlines()
    lines_b = serialize_config(_schedule_stripped(b)).splitlines()
    pairs = itertools.zip_longest(lines_a, lines_b, fillvalue="")
    return [f"  a: {la}\n  b: {lb}" for la, lb in pairs if la != lb]


def _cmd_compare(args: argparse.Namespace) -> int:
    config_a = _load_config(args.config_a)
    config_b = _load_config(args.config_b)
    if _schedule_stripped(config_a) != _schedule_stripped(config_b):
        listing = "\n".join(_config_diff(config_a, config_b))
        raise ConfigError(
            "compare requires configs that differ only in policy_schedule;"
            f" found other differences:\n{listing}"
        )
    # a, then b: the first error is the one running them in turn gives.
    metrics_a, metrics_b = _summarize_batch(
        [config_a.scenario, config_b.scenario],
        config_a.window,
        params=config_a.params,
        grid=config_a.grid,
        dc_link=config_a.dc_link,
    )
    flat_a, flat_b = metrics_a.to_flat(), metrics_b.to_flat()
    fs_a, fs_b = metrics_a.fs_mean, metrics_b.fs_mean
    ratio = fs_b / fs_a if fs_a else (1.0 if fs_b == 0.0 else math.inf)

    lines = [f"# a = {args.config_a}", f"# b = {args.config_b}"]
    lines += [f"{key} = {flat_a[key]:.17g} | {flat_b[key]:.17g}" for key in sorted(flat_a)]
    lines.append(f"fs_ratio_b_over_a = {ratio:.17g}")
    payload = {"a": flat_a, "b": flat_b, "fs_ratio_b_over_a": ratio}
    return _report(config_a.output_dir, "compare", "\n".join(lines) + "\n", payload)


def _cmd_metrics(args: argparse.Namespace) -> int:
    # Summarized block by block as the sidecar is read.
    blocks = _sidecar(args.csv)
    meta = next(blocks)
    if meta["decimation"] > 1:
        log.warning("metrics: %s holds one step in %d of its run (decimation %d): fs_* and the"
                    " other window metrics come from the kept samples only",
                    args.csv, meta["decimation"], meta["decimation"])
    summary = SummaryAccumulator(tuple(args.window) if args.window else None, meta["v_sm_nominal"])
    for block in blocks:
        summary.add(block)
    metrics = summary.result()
    if args.window and args.window[1] > summary.t_last:
        log.warning("metrics: the window ends at %r s, after the last sample of %s at %r s:"
                    " fs_* divide its transitions by the whole window",
                    args.window[1], args.csv, summary.t_last)
    stem = os.path.splitext(os.path.basename(args.csv))[0]
    return _report(os.path.dirname(args.csv) or ".", f"{stem}.metrics",
                   format_metrics_text(metrics), metrics.to_flat())


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

    p_met = sub.add_parser(
        "metrics", help="recompute metrics from the sidecar `run` wrote beside its CSV"
    )
    p_met.add_argument("csv", help="path to a run.csv produced by `run`, beside its .rec sidecar")
    p_met.add_argument(
        "--window",
        nargs=2,
        type=float,
        metavar=("T0", "T1"),
        help="evaluation window in seconds (default: 0 to the last sample time)",
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
