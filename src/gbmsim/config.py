"""Sectioned key=value run configuration.

The format is deliberately plain: ``[section]`` headers, one ``key = value``
per line, ``#`` comments.  Unknown sections, unknown keys and keys of the
other scenario are hard errors (a silently ignored typo is the classic way to
invalidate a sweep).  An error caused by one line carries that line's number;
an error that involves several keys, such as the tumor center outside the
``[mesh]`` bounds, carries none.

A file edits the preset its ``scenario`` key names (the ring preset by
default), so an empty file gives that preset; ``[output] theta`` is the
scenario's region threshold.  README.md lists every key and its default.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields

from .errors import ConfigError, InvalidParameterError, SimulationError, check_type
from .experiments import (
    PARAMETER_NAMES,
    Scenario,
    ZoneSpec,
    scenario_ring_width,
    scenario_surface_regularity,
)
from .kinetics import FieldTriple
from .solver import SolverConfig, homogeneous_start

__all__ = ["RunConfig", "parse_config"]

_ZONE_KEY = re.compile(r"zone(\d+)$")
# The base-level keys read by one scenario only; so are the zoneN keys.
_SCENARIO_OF = {"vasculature_level": "ring", "zone_base_level": "surface"}


def _scenario(text: str) -> str:
    if text not in ("ring", "surface"):
        raise InvalidParameterError(f"scenario must be 'ring' or 'surface', got {text!r}")
    return text


@dataclass(frozen=True)
class RunConfig(Scenario):
    """The named preset ``Scenario`` as a config file edits it, with the run
    settings of one run/sweep/ode invocation."""

    vtk: bool = False
    ode_initial: FieldTriple = FieldTriple(0.1, 0.0, 0.5)

    def __post_init__(self):
        super().__post_init__()
        check_type("vtk", self.vtk, bool)
        homogeneous_start(self.ode_initial)

    def to_scenario(self) -> Scenario:
        """This config as a plain ``Scenario``; kept only for ``bench/workloads.py``."""
        return Scenario(**{f.name: getattr(self, f.name) for f in fields(Scenario)})


# The config that an empty file gives, for each value of the scenario key.
_PRESETS = {
    "ring": RunConfig(**vars(scenario_ring_width())),
    "surface": RunConfig(**vars(scenario_surface_regularity())),
}

_EXPECTED = {float: "a number", int: "an integer"}


def _parse(parser, text: str):
    """``parser(text)``; a number that does not parse says what was expected."""
    try:
        return parser(text)
    except ValueError:
        if parser in _EXPECTED:
            raise ValueError(f"expected {_EXPECTED[parser]}, got {text!r}") from None
        raise


def _bool(text: str) -> bool:
    if text.lower() not in ("true", "yes", "on", "1", "false", "no", "off", "0"):
        raise ValueError(f"expected a boolean, got {text!r}")
    return text.lower() in ("true", "yes", "on", "1")


def _zone(text: str) -> ZoneSpec:
    parts = [part.strip() for part in text.split(",")]
    if len(parts) != 4:
        raise ValueError(f"zone needs 'cx, cy, radius, level', got {text!r}")
    cx, cy, radius, level = (_parse(float, part) for part in parts)
    return ZoneSpec(center=(cx, cy), radius=radius, level=level)


# Every key once: section -> key -> (parser, path).  The path leads into
# RunConfig: a field name, then dataclass field names and tuple slots.  The
# zoneN keys match _ZONE_KEY, with the zone path's last slot N.
_KEYS = {
    "mesh": {
        "xmin": (float, ("bounds", 0)),
        "xmax": (float, ("bounds", 1)),
        "ymin": (float, ("bounds", 2)),
        "ymax": (float, ("bounds", 3)),
        "n_sub": (int, ("n_sub",)),
    },
    "params": {name: (float, ("params", name)) for name in PARAMETER_NAMES},
    "ic": {
        "scenario": (_scenario, ("scenario",)),
        "tumor_center_x": (float, ("tumor_ic", "center", 0)),
        "tumor_center_y": (float, ("tumor_ic", "center", 1)),
        "tumor_radius": (float, ("tumor_ic", "radius")),
        "tumor_peak": (float, ("tumor_ic", "peak")),
        "necrosis_level": (float, ("necrosis_level",)),
        "vasculature_level": (float, ("vasculature_ic", "base_level")),
        "zone_base_level": (float, ("vasculature_ic", "base_level")),
        "ode_tumor": (float, ("ode_initial", "t_density")),
        "ode_necrosis": (float, ("ode_initial", "n_density")),
        "ode_vasculature": (float, ("ode_initial", "phi_density")),
        _ZONE_KEY: (_zone, ("vasculature_ic", "zones")),
    },
    "solver": {
        f.name: (type(f.default), ("solver", f.name)) for f in fields(SolverConfig)
    },
    "output": {"theta": (float, ("theta",)), "vtk": (_bool, ("vtk",))},
}


def _edit(value, edits: dict):
    """``value`` with ``edits`` (field name or slot -> new value, or the edits of
    that value), each dataclass built once so that its checks see the whole
    edited value.  A tuple keeps its other slots; a file's zones replace all."""
    if isinstance(value, tuple):
        slots = {**dict(enumerate(value)), **edits}
        return tuple(slots[slot] for slot in sorted(slots))
    changed = dict(vars(value))
    for name, edit in edits.items():
        if isinstance(edit, dict):
            edit = _edit(() if name == "zones" else changed[name], edit)
        changed[name] = edit
    return type(value)(**changed)


def _resolve(found: dict) -> RunConfig:
    """The checked RunConfig of ``{key: (value, line, path)}``."""
    edits: dict = {}
    for value, _, path in found.values():
        node = edits
        for step in path[:-1]:
            node = node.setdefault(step, {})
        node[path[-1]] = value
    return _edit(_PRESETS[edits.pop("scenario", "ring")], edits)


def _line_of(found: dict, message: str) -> int | None:
    """The line of the one key whose value alone (with the scenario, the one text
    value) raises ``message``; tuple slots enter only checks across keys."""
    mode = {key: item for key, item in found.items() if isinstance(item[0], str)}
    for key, item in found.items():
        if isinstance(item[2][-1], str):
            try:
                _resolve({**mode, key: item})
            except SimulationError as exc:
                if str(exc) == message:
                    return item[1]
    return None


def parse_config(text: str) -> RunConfig:
    """Parse config text into a resolved :class:`RunConfig`, or raise ConfigError."""
    found, keys = {}, None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        try:
            if stripped.startswith("["):
                if not stripped.endswith("]"):
                    raise ValueError(f"malformed section header {raw!r}")
                section = stripped[1:-1].strip()
                keys = _KEYS.get(section)
                if keys is None:
                    raise ValueError(f"unknown section [{section}]")
            elif stripped:
                if "=" not in stripped:
                    raise ValueError(f"expected key=value, got {raw!r}")
                if keys is None:
                    raise ValueError("key=value before any [section]")
                key, value = (part.strip() for part in stripped.split("=", 1))
                entry = keys.get(key)
                zone = entry is None and _ZONE_KEY in keys and _ZONE_KEY.match(key)
                if zone:
                    parser, path = keys[_ZONE_KEY]
                    key, entry = f"zone{int(zone[1])}", (parser, (*path, int(zone[1])))
                if entry is None:
                    raise ValueError(f"unknown key {key!r} in [{section}]")
                if key in found:
                    where = "" if zone else f" in [{section}]"
                    raise ValueError(f"duplicate key {key!r}{where}")
                found[key] = (_parse(entry[0], value), line_no, entry[1])
        except ValueError as exc:
            raise ConfigError(str(exc), line=line_no) from None
    # Before resolution: vasculature_level and zone_base_level edit one field.
    scenario = found["scenario"][0] if "scenario" in found else "ring"
    for key, (_, line, _) in found.items():
        zone = _ZONE_KEY.match(key)
        owner = "surface" if zone else _SCENARIO_OF.get(key, scenario)
        if owner != scenario:
            subject = "zone keys require" if zone else f"{key} requires"
            raise ConfigError(f"{subject} scenario={owner}", line=line)
    try:
        return _resolve(found)
    except SimulationError as exc:
        raise ConfigError(str(exc), line=_line_of(found, str(exc))) from None
