"""Run configuration: flat sectioned key-value files, defaults, round-trip.

A configuration file is INI-style text with up to five sections:
``[converter]``, ``[grid]``, ``[dc_link]``, ``[scenario]`` and
``[output]``.  Every key is optional; missing keys fall back to the
stock test-system defaults (logged at INFO level), so an empty file is
a complete, runnable configuration.  Unknown sections or keys are
rejected rather than ignored: a typo must never silently change a
benchmark run.
"""

from __future__ import annotations

import configparser
import io
import logging
import math
import re
from dataclasses import dataclass

from .controller import SortPolicy
from .errors import ConfigError
from .model import ConverterParams
from .testbench import DcLink, GridSource, Scenario, _signed_amplitudes, build_stock_system

__all__ = ["RunConfig", "parse_config", "serialize_config"]

log = logging.getLogger(__name__)

# section -> {config key: dataclass field}, in file order, for the
# sections that map one to one onto ConverterParams, GridSource and DcLink
_FIELDS: dict[str, dict[str, str]] = {
    "converter": {
        "n_sm": "n", "r": "R", "l": "L", "l_arm": "l_arm", "c_sm": "C",
        "v_dc": "V_dc", "t_s": "T_s", "w": "w", "w_z": "w_z",
    },
    "grid": {"amplitude": "amplitude", "frequency": "frequency"},
    "dc_link": {"length_km": "length_km", "c_per_km": "c_per_km", "l_per_km": "l_per_km"},
}

# section -> ordered tuple of known keys
_SCHEMA: dict[str, tuple[str, ...]] = {
    **{section: tuple(keys) for section, keys in _FIELDS.items()},
    "scenario": ("mode", "duration", "policy_schedule", "p_set", "i_amp"),
    "output": ("directory", "decimation", "window_start", "window_end"),
}

_PAIR_RE = re.compile(r"\(\s*([^\s,()]+)\s*,\s*([^\s,()]+)\s*\)")

DEFAULT_OUTPUT_DIR = "out"


@dataclass
class RunConfig:
    """A fully validated, runnable configuration."""

    params: ConverterParams
    grid: GridSource
    dc_link: DcLink
    scenario: Scenario
    output_dir: str = DEFAULT_OUTPUT_DIR
    decimation: int = 1
    window: tuple[float, float] | None = None


def _read_ini(text: str) -> configparser.ConfigParser:
    # No header can name the empty section, so ``[DEFAULT]`` is read as
    # an ordinary, and thus unknown, section instead of as defaults.
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        parser.read_file(io.StringIO(text))
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from exc
    return parser


def _reject_unknown(parser: configparser.ConfigParser) -> None:
    problems = []
    for section in parser.sections():
        if section not in _SCHEMA:
            problems.append(f"unknown section [{section}]")
            continue
        for key in parser.options(section):
            if key not in _SCHEMA[section]:
                problems.append(f"unknown key {key!r} in [{section}]")
    if problems:
        raise ConfigError("; ".join(problems))


def _value(parser: configparser.ConfigParser, section: str, key: str, default):
    """``key`` of ``section`` cast to ``type(default)``, or ``default`` if unset."""
    raw = parser.get(section, key, fallback=None)
    if raw is None:
        log.info("config: [%s] %s not set, using stock default %r", section, key, default)
        return default
    try:
        return type(default)(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r} ({exc})") from exc


def _build(parser: configparser.ConfigParser, section: str, default):
    """Build ``type(default)`` from the ``_FIELDS`` keys of ``section``;
    unset keys take ``default``'s values."""
    values = {
        field: _value(parser, section, key, getattr(default, field))
        for key, field in _FIELDS[section].items()
    }
    try:
        return type(default)(**values)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}") from exc


def _parse_policy_schedule(raw: str) -> list[tuple[float, SortPolicy]]:
    """Parse ``[(1.2, F1V2), (1.4, V1F2)]`` into scenario events."""
    stripped = raw.strip()
    if not (stripped.startswith("[") and stripped.endswith("]")):
        raise ConfigError(f"policy_schedule must be a [...] list, got {raw!r}")
    body = stripped[1:-1]
    leftover = _PAIR_RE.sub("", body).replace(",", "").strip()
    if leftover:
        raise ConfigError(f"policy_schedule: cannot parse near {leftover!r}")
    events = []
    for t_text, name in _PAIR_RE.findall(body):
        try:
            t = float(t_text)
        except ValueError as exc:
            raise ConfigError(f"policy_schedule: bad time {t_text!r}") from exc
        try:
            policy = SortPolicy(name)
        except ValueError as exc:
            valid = ", ".join(p.value for p in SortPolicy)
            raise ConfigError(
                f"policy_schedule: unknown policy {name!r} (valid: {valid})"
            ) from exc
        events.append((t, policy))
    return events


def _parse_float_list(raw: str, section: str, key: str) -> tuple[float, ...]:
    parts = [p.strip() for p in raw.split(",")]
    if any(not p for p in parts):
        raise ConfigError(f"[{section}] {key}: empty element in {raw!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r} ({exc})") from exc


def parse_config(text: str) -> RunConfig:
    """Parse and validate configuration text.

    Missing keys fall back to the stock test-system defaults; unknown
    keys are rejected.  All physical validation of the underlying types
    runs here, so a returned RunConfig is guaranteed runnable.
    """
    parser = _read_ini(text)
    _reject_unknown(parser)

    d_params, d_grid, d_link, d_scenario = build_stock_system()

    params = _build(parser, "converter", d_params)
    grid = _build(parser, "grid", d_grid)
    dc_link = _build(parser, "dc_link", d_link)

    mode = _value(parser, "scenario", "mode", d_scenario.mode)
    duration = _value(parser, "scenario", "duration", d_scenario.duration)
    raw_schedule = parser.get("scenario", "policy_schedule", fallback=None)
    if raw_schedule is None:
        events = [e for e in d_scenario.events if e[0] <= duration]
        log.info("config: [scenario] policy_schedule not set, using stock default %r",
                 [(t, p.value) for t, p in events])
    else:
        events = _parse_policy_schedule(raw_schedule)

    raw_p = parser.get("scenario", "p_set", fallback=None)
    raw_i = parser.get("scenario", "i_amp", fallback=None)
    n_conv = 2 if mode == "back_to_back" else 1
    p_set: tuple[float, ...] | None = None
    i_amp: tuple[float, ...] | None = None
    if raw_p is not None and raw_i is not None:
        raise ConfigError("[scenario] p_set and i_amp are mutually exclusive")
    if raw_i is not None:
        i_amp = _parse_float_list(raw_i, "scenario", "i_amp")
    elif raw_p is not None:
        p_set = _parse_float_list(raw_p, "scenario", "p_set")
    else:
        p_set = d_scenario.p_set[:n_conv]
        log.info("config: [scenario] p_set not set, using stock default %r", p_set)
    try:
        scenario = Scenario(
            duration=duration, events=events, mode=mode, p_set=p_set, i_amp=i_amp
        )
        _signed_amplitudes(scenario, grid)
    except ValueError as exc:
        raise ConfigError(f"[scenario] {exc}") from exc
    if mode == "back_to_back":
        dc_link.check_step(params.T_s)

    output_dir = _value(parser, "output", "directory", DEFAULT_OUTPUT_DIR)
    decimation = _value(parser, "output", "decimation", 1)
    if decimation < 1:
        raise ConfigError(f"[output] decimation must be >= 1, got {decimation}")
    raw_w0 = parser.get("output", "window_start", fallback=None)
    raw_w1 = parser.get("output", "window_end", fallback=None)
    if (raw_w0 is None) != (raw_w1 is None):
        raise ConfigError("[output] window_start and window_end must be given together")
    window: tuple[float, float] | None = None
    if raw_w0 is not None:
        window = (
            _value(parser, "output", "window_start", 0.0),
            _value(parser, "output", "window_end", 0.0),
        )
        if not (math.isfinite(window[0]) and math.isfinite(window[1])) or (
            window[1] <= window[0]
        ):
            raise ConfigError(f"[output] window must satisfy start < end, got {window}")

    return RunConfig(
        params=params,
        grid=grid,
        dc_link=dc_link,
        scenario=scenario,
        output_dir=output_dir,
        decimation=decimation,
        window=window,
    )


def serialize_config(config: RunConfig) -> str:
    """Render a RunConfig as text that parses back to an equal config.

    Every key is written explicitly; floats use shortest round-trip
    notation, so parse -> serialize -> parse is exact.
    """
    s = config.scenario
    schedule = "[" + ", ".join(f"({t!r}, {pol.value})" for t, pol in s.events) + "]"
    lines = []
    for section, obj in zip(_FIELDS, (config.params, config.grid, config.dc_link)):
        lines.append(f"[{section}]")
        lines += [f"{key} = {getattr(obj, field)!r}" for key, field in _FIELDS[section].items()]
        lines.append("")
    lines += [
        "[scenario]",
        f"mode = {s.mode}",
        f"duration = {s.duration!r}",
        f"policy_schedule = {schedule}",
    ]
    if s.p_set is not None:
        lines.append("p_set = " + ", ".join(repr(x) for x in s.p_set))
    else:
        lines.append("i_amp = " + ", ".join(repr(x) for x in s.i_amp))
    lines += [
        "",
        "[output]",
        f"directory = {config.output_dir}",
        f"decimation = {config.decimation}",
    ]
    if config.window is not None:
        lines.append(f"window_start = {config.window[0]!r}")
        lines.append(f"window_end = {config.window[1]!r}")
    return "\n".join(lines) + "\n"
