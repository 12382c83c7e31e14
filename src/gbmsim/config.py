"""Sectioned key=value run configuration.

The format is deliberately plain: ``[section]`` headers, one ``key = value``
per line, ``#`` comments.  Unknown sections, unknown keys and keys of the
other scenario are hard errors (a silently ignored typo is the classic way to
invalidate a sweep).  An error caused by one line carries that line's number;
an error that involves several keys, such as the tumor center outside the
``[mesh]`` bounds, carries none.

README.md lists every key and its default; an empty file gives the ring preset.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields, is_dataclass, replace

from .errors import ConfigError, InvalidParameterError, SimulationError
from .experiments import (
    DEFAULT_BOUNDS,
    DEFAULT_N_SUB,
    DEFAULT_PARAMETERS,
    DEFAULT_UNIFORM_LEVEL,
    DEFAULT_ZONE_BASE,
    DEFAULT_ZONES,
    PARAMETER_NAMES,
    BumpSpec,
    Scenario,
    ZonedVasculature,
    ZoneSpec,
)
from .kinetics import DimensionlessParameters, FieldTriple
from .metrics import DEFAULT_THRESHOLD, check_threshold
from .solver import SolverConfig, homogeneous_start

__all__ = ["RunConfig", "parse_config"]

_ZONE_KEY = re.compile(r"zone(\d+)$")
# The base-level keys read by one scenario only; so are the zoneN keys.
_SCENARIO_OF = {"vasculature_level": "ring", "zone_base_level": "surface"}


@dataclass
class RunConfig:
    """Fully resolved configuration for one run/sweep/ode invocation."""

    scenario: str = "ring"
    bounds: tuple[float, float, float, float] = DEFAULT_BOUNDS
    n_sub: int = DEFAULT_N_SUB
    params: DimensionlessParameters = DEFAULT_PARAMETERS
    tumor_center: tuple[float, float] = BumpSpec.center
    tumor_radius: float = BumpSpec.radius
    tumor_peak: float = BumpSpec.peak
    necrosis_level: float = 0.0
    vasculature_level: float = DEFAULT_UNIFORM_LEVEL
    zone_base_level: float = DEFAULT_ZONE_BASE
    zones: tuple[ZoneSpec, ...] | None = None
    solver: SolverConfig = field(default_factory=SolverConfig)
    theta: float = DEFAULT_THRESHOLD
    vtk: bool = False
    ode_initial: FieldTriple = field(
        default_factory=lambda: FieldTriple(0.1, 0.0, 0.5)
    )

    def to_scenario(self) -> Scenario:
        if self.scenario == "ring":
            vasculature = ZonedVasculature(self.vasculature_level, ())
        else:
            zones = self.zones if self.zones is not None else DEFAULT_ZONES
            vasculature = ZonedVasculature(self.zone_base_level, zones)
        return Scenario(
            bounds=self.bounds,
            n_sub=self.n_sub,
            params=self.params,
            tumor_ic=BumpSpec(
                center=self.tumor_center,
                radius=self.tumor_radius,
                peak=self.tumor_peak,
            ),
            vasculature_ic=vasculature,
            necrosis_level=self.necrosis_level,
            solver=self.solver,
        )


_DEFAULT = RunConfig()
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


def _scenario(text: str) -> str:
    if text not in ("ring", "surface"):
        raise ValueError(f"scenario must be 'ring' or 'surface', got {text!r}")
    return text


def _zone(text: str) -> ZoneSpec:
    parts = [part.strip() for part in text.split(",")]
    if len(parts) != 4:
        raise ValueError(f"zone needs 'cx, cy, radius, level', got {text!r}")
    cx, cy, radius, level = (_parse(float, part) for part in parts)
    return ZoneSpec(center=(cx, cy), radius=radius, level=level)


# Every key once: section -> key -> (parser, target).  Target None sets the
# RunConfig field of the key's name, (field, slot) one slot of a tuple or a
# dataclass field.  The zoneN keys match _ZONE_KEY, with slot N.
_KEYS = {
    "mesh": {
        "xmin": (float, ("bounds", 0)),
        "xmax": (float, ("bounds", 1)),
        "ymin": (float, ("bounds", 2)),
        "ymax": (float, ("bounds", 3)),
        "n_sub": (int, None),
    },
    "params": {name: (float, ("params", name)) for name in PARAMETER_NAMES},
    "ic": {
        "scenario": (_scenario, None),
        "tumor_center_x": (float, ("tumor_center", 0)),
        "tumor_center_y": (float, ("tumor_center", 1)),
        "tumor_radius": (float, None),
        "tumor_peak": (float, None),
        "necrosis_level": (float, None),
        "vasculature_level": (float, None),
        "zone_base_level": (float, None),
        "ode_tumor": (float, ("ode_initial", "t_density")),
        "ode_necrosis": (float, ("ode_initial", "n_density")),
        "ode_vasculature": (float, ("ode_initial", "phi_density")),
        _ZONE_KEY: (_zone, "zones"),
    },
    "solver": {
        f.name: (type(f.default), ("solver", f.name)) for f in fields(SolverConfig)
    },
    "output": {"theta": (float, None), "vtk": (_bool, None)},
}


def _resolve(found: dict) -> RunConfig:
    """The checked RunConfig of ``{key: (value, line, target)}``."""
    kwargs = {key: item[0] for key, item in found.items() if item[2] is None}
    slots: dict[str, dict] = {}
    for value, _, target in found.values():
        if target is not None:
            slots.setdefault(target[0], {})[target[1]] = value
    for name, values in slots.items():
        default = getattr(_DEFAULT, name)
        if is_dataclass(default):
            kwargs[name] = replace(default, **values)
        else:  # a tuple, or the zones (None by default), in slot order
            merged = {**dict(enumerate(default or ())), **values}
            kwargs[name] = tuple(merged[slot] for slot in sorted(merged))
    config = RunConfig(**kwargs)
    if config.n_sub < 1:
        raise InvalidParameterError("n_sub must be >= 1")
    check_threshold(config.theta)
    homogeneous_start(config.ode_initial)
    config.to_scenario()
    return config


def _line_of(found: dict, message: str) -> int | None:
    """The line of the one key whose value alone (with the scenario, the one text
    value) raises ``message``; tuple slots enter only checks across keys."""
    mode = {key: item for key, item in found.items() if isinstance(item[0], str)}
    for key, item in found.items():
        if item[2] is None or isinstance(item[2][1], str):
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
                    parser, name = keys[_ZONE_KEY]
                    key, entry = f"zone{int(zone[1])}", (parser, (name, int(zone[1])))
                if entry is None:
                    raise ValueError(f"unknown key {key!r} in [{section}]")
                if key in found:
                    where = "" if zone else f" in [{section}]"
                    raise ValueError(f"duplicate key {key!r}{where}")
                found[key] = (_parse(entry[0], value), line_no, entry[1])
        except ValueError as exc:
            raise ConfigError(str(exc), line=line_no) from None
    try:
        config = _resolve(found)
    except SimulationError as exc:
        raise ConfigError(str(exc), line=_line_of(found, str(exc))) from None
    for key, (_, line, _) in found.items():
        zone = _ZONE_KEY.match(key)
        owner = "surface" if zone else _SCENARIO_OF.get(key, config.scenario)
        if owner != config.scenario:
            subject = "zone keys require" if zone else f"{key} requires"
            raise ConfigError(f"{subject} scenario={owner}", line=line)
    return config
