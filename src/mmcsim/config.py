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
from dataclasses import dataclass, replace

from .controller import SortPolicy
from .errors import ConfigError
from .model import ConverterParams
from .testbench import DcLink, GridSource, Scenario, build_stock_system

__all__ = ["RunConfig", "parse_config", "serialize_config"]

log = logging.getLogger(__name__)

# section -> ordered tuple of known keys
_SCHEMA: dict[str, tuple[str, ...]] = {
    "converter": ("n_sm", "r", "l", "l_arm", "c_sm", "v_dc", "t_s", "w", "w_z"),
    "grid": ("amplitude", "frequency"),
    "dc_link": ("length_km", "c_per_km", "l_per_km"),
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
    parser = configparser.ConfigParser(interpolation=None)
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


class _SectionReader:
    """Typed access to one section with default-fallback logging."""

    def __init__(self, parser: configparser.ConfigParser, section: str):
        self._parser = parser
        self._section = section

    def raw(self, key: str) -> str | None:
        if self._parser.has_option(self._section, key):
            return self._parser.get(self._section, key)
        return None

    def _get(self, key: str, cast, default):
        raw = self.raw(key)
        if raw is None:
            log.info("config: [%s] %s not set, using stock default %r",
                     self._section, key, default)
            return default
        try:
            return cast(raw)
        except ValueError as exc:
            raise ConfigError(
                f"[{self._section}] {key}: cannot parse {raw!r} ({exc})"
            ) from exc

    def number(self, key: str, default: float) -> float:
        return self._get(key, float, default)

    def integer(self, key: str, default: int) -> int:
        return self._get(key, int, default)

    def text(self, key: str, default: str) -> str:
        return self._get(key, str, default)


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

    conv = _SectionReader(parser, "converter")
    try:
        params = ConverterParams(
            n=conv.integer("n_sm", d_params.n),
            R=conv.number("r", d_params.R),
            L=conv.number("l", d_params.L),
            l_arm=conv.number("l_arm", d_params.l_arm),
            C=conv.number("c_sm", d_params.C),
            V_dc=conv.number("v_dc", d_params.V_dc),
            T_s=conv.number("t_s", d_params.T_s),
            w=conv.number("w", d_params.w),
            w_z=conv.number("w_z", d_params.w_z),
        )
    except ValueError as exc:
        raise ConfigError(f"[converter] {exc}") from exc

    grid_r = _SectionReader(parser, "grid")
    try:
        grid = GridSource(
            amplitude=grid_r.number("amplitude", d_grid.amplitude),
            frequency=grid_r.number("frequency", d_grid.frequency),
        )
    except ValueError as exc:
        raise ConfigError(f"[grid] {exc}") from exc

    link_r = _SectionReader(parser, "dc_link")
    try:
        dc_link = DcLink(
            length_km=link_r.number("length_km", d_link.length_km),
            c_per_km=link_r.number("c_per_km", d_link.c_per_km),
            l_per_km=link_r.number("l_per_km", d_link.l_per_km),
        )
    except ValueError as exc:
        raise ConfigError(f"[dc_link] {exc}") from exc

    scen = _SectionReader(parser, "scenario")
    mode = scen.text("mode", d_scenario.mode)
    duration = scen.number("duration", d_scenario.duration)
    raw_schedule = scen.raw("policy_schedule")
    if raw_schedule is None:
        events = [e for e in d_scenario.events if e[0] <= duration]
        log.info("config: [scenario] policy_schedule not set, using stock default %r",
                 [(t, p.value) for t, p in events])
    else:
        events = _parse_policy_schedule(raw_schedule)

    raw_p = scen.raw("p_set")
    raw_i = scen.raw("i_amp")
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
    except ValueError as exc:
        raise ConfigError(f"[scenario] {exc}") from exc
    if mode == "back_to_back":
        dc_link.check_step(params.T_s)

    out = _SectionReader(parser, "output")
    output_dir = out.text("directory", DEFAULT_OUTPUT_DIR)
    decimation = out.integer("decimation", 1)
    if decimation < 1:
        raise ConfigError(f"[output] decimation must be >= 1, got {decimation}")
    raw_w0 = out.raw("window_start")
    raw_w1 = out.raw("window_end")
    if (raw_w0 is None) != (raw_w1 is None):
        raise ConfigError("[output] window_start and window_end must be given together")
    window: tuple[float, float] | None = None
    if raw_w0 is not None:
        window = (out.number("window_start", 0.0), out.number("window_end", 0.0))
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
    p, g, k, s = config.params, config.grid, config.dc_link, config.scenario
    schedule = "[" + ", ".join(f"({t!r}, {pol.value})" for t, pol in s.events) + "]"
    lines = [
        "[converter]",
        f"n_sm = {p.n}",
        f"r = {p.R!r}",
        f"l = {p.L!r}",
        f"l_arm = {p.l_arm!r}",
        f"c_sm = {p.C!r}",
        f"v_dc = {p.V_dc!r}",
        f"t_s = {p.T_s!r}",
        f"w = {p.w!r}",
        f"w_z = {p.w_z!r}",
        "",
        "[grid]",
        f"amplitude = {g.amplitude!r}",
        f"frequency = {g.frequency!r}",
        "",
        "[dc_link]",
        f"length_km = {k.length_km!r}",
        f"c_per_km = {k.c_per_km!r}",
        f"l_per_km = {k.l_per_km!r}",
        "",
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
