"""Run configuration: a single self-describing YAML document.

The `SCHEMA` table below is the whole schema: one row per key path, with its
type, default and constraint.  Unknown keys anywhere are rejected with their
full key path, and every float must be finite.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import yaml

from .checks import DEFAULT_TIME_HORIZON_UNITS
from .models import BUILTIN_INTERACTIONS, DEFAULT_COUPLING_STRENGTH, POLICIES, ModelSpec
from .modes import LatticeSpec
from .numerics import DEFAULT_DIMENSION_LIMIT


class ConfigError(ValueError):
    """Schema violation, reported with the offending key path."""


@dataclass
class SpeciesConfig:
    name: str
    mass: float


@dataclass
class CheckToggle:
    enabled: bool
    params: dict


@dataclass
class RunConfig:
    """A validated configuration: each attribute is the last key of its `SCHEMA`
    path (`model.interaction.name` is `interaction`), except `checks`."""

    dim: int
    sites_per_dim: int
    physical_length: float
    species: list[SpeciesConfig] | None
    interaction: str
    coupling_strength: float
    coupling: float
    policy: str
    order: int
    per_mode_cutoff: int
    total_cutoff: int
    lambdas: list[float]
    time_horizon: float
    dimension_limit: int
    checks: dict[str, CheckToggle]
    formats: list[str]

    def echo(self) -> dict:
        """The fully-defaulted configuration, embedded in every report."""
        checks = {name: {"enabled": t.enabled, **t.params} for name, t in self.checks.items()}
        doc: dict = {}
        for path, *_ in SCHEMA:
            section, *middle, key = path.split(".")
            value = checks[middle[0]][key] if section == "checks" \
                else getattr(self, _attribute(path))
            _put(doc, path, [asdict(s) for s in value] if key == "species" and value
                 else value)
        return doc


# ---- value types: (value, key path) -> parsed value, or ConfigError ----

def _typed(kind, what):
    def parse(value, path):
        if kind is float and isinstance(value, int) and not isinstance(value, bool):
            value = float(value)
        if not isinstance(value, kind) or (kind is not bool and isinstance(value, bool)):
            hint = _float_hint(value) if kind is float else ""
            raise ConfigError(f"{path}: expected {what}, got {value!r}{hint}")
        if kind is float and not math.isfinite(value):
            raise ConfigError(f"{path}: must be finite, got {value}")
        return value
    return parse


def _float_hint(value) -> str:
    """For a string that Python reads as a finite float: how to write it so
    that YAML reads it as a float too (a decimal point and a signed exponent,
    so `1.0e300` and `1e+300` are strings but `1.0e+300` is a float)."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        return ""
    if not isinstance(value, str) or not math.isfinite(number):
        return ""
    mantissa, e, exponent = repr(number).partition("e")
    if "." not in mantissa:
        mantissa += ".0"
    return f" (YAML reads it as a string; write {mantissa}{e}{exponent})"


def _list_of(item, what):
    def parse(value, path):
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected a list of {what}, got {value!r}")
        return [item(v, f"{path}[{i}]") for i, v in enumerate(value)]
    return parse


_bool, _int, _float, _str = (_typed(bool, "a boolean"), _typed(int, "int"),
                             _typed(float, "float"), _typed(str, "str"))
_floats, _strs = _list_of(_float, "numbers"), _list_of(_str, "strings")


def _triple(value, path):
    """[x, y, tau]: two sites, each an integer or a list of integers, and a time."""
    if not isinstance(value, list) or len(value) != 3:
        raise ConfigError(f"{path}: expected an [x, y, tau] triple, got {value!r}")
    sites = [(_list_of(_int, "integers") if isinstance(v, list) else _int)(v, f"{path}[{i}]")
             for i, v in enumerate(value[:2])]
    return sites + [_float(value[2], f"{path}[2]")]


def _species(value, path):
    """One `{name, mass}` entry of `model.species`."""
    entry = _mapping(value, ("name", "mass"), path)
    name = _str(entry.get("name"), f"{path}.name")
    mass = _float(entry.get("mass"), f"{path}.mass")
    if mass <= 0:
        raise ConfigError(f"{path} ({name!r}): mass must be a positive number, got {mass}")
    return SpeciesConfig(name=name, mass=mass)


# ---- constraints: value -> what is wrong with it, or a falsy value ----

def _at_least(low):
    return lambda v: None if v >= low else f"must be >= {low}, got {v}"


def _positive(v):
    return None if v > 0 else f"must be positive, got {v}"


def _odd(v):
    return None if v >= 1 and v % 2 else \
        f"must be odd and positive (mode set closed under k -> -k), got {v}"


def _distinct_names(species):
    names = [s.name for s in species]
    return None if names and all(names) and len(set(names)) == len(names) else \
        f"need one or more species with distinct non-empty names, got {names}"


def _one_of(what, choices):
    def check(v):
        bad = [item for item in (v if isinstance(v, list) else [v]) if item not in choices]
        return bad and f"unknown {what} {bad[0]!r}, expected {' or '.join(choices)}"
    return check


# A null section counts as an empty one.  A null value is an error, except
# for `model.species`, whose default (null) lets the interaction choose.
SCHEMA = (
    # key path                        type       default          constraint
    ("model.lattice.dim",             _int,      LatticeSpec.dim, _at_least(1)),
    ("model.lattice.sites_per_dim",   _int,      LatticeSpec.sites_per_dim, _odd),
    ("model.lattice.physical_length", _float,    LatticeSpec.physical_length, _positive),
    ("model.species",        _list_of(_species, "species"), None, _distinct_names),
    ("model.interaction.name",        _str,      "phi3",
     _one_of("interaction", BUILTIN_INTERACTIONS)),
    ("model.interaction.coupling_strength", _float, DEFAULT_COUPLING_STRENGTH, None),
    ("model.coupling",                _float,    ModelSpec.coupling, None),
    ("model.policy",                  _str,      ModelSpec.policy, _one_of("policy", POLICIES)),
    ("model.order",                   _int,      ModelSpec.max_order, _at_least(1)),
    ("numerics.per_mode_cutoff",      _int,      4,               _at_least(1)),
    ("numerics.total_cutoff",         _int,      4,               _at_least(1)),
    ("numerics.lambdas",              _floats,   [0.02, 0.04, 0.08, 0.16], None),
    ("numerics.time_horizon",         _float,    DEFAULT_TIME_HORIZON_UNITS, _positive),
    ("numerics.dimension_limit",      _int,      DEFAULT_DIMENSION_LIMIT, _at_least(1)),
    ("checks.residuals.enabled",      _bool,     True,            None),
    ("checks.residuals.slope_tolerance", _float, 0.4,             _at_least(0)),
    ("checks.oracle.enabled",         _bool,     True,            None),
    ("checks.oracle.block",           _int,      2,               _at_least(0)),
    ("checks.oracle.slope_tolerance", _float,    0.4,             _at_least(0)),
    ("checks.momentum.enabled",       _bool,     True,            None),
    ("checks.momentum.tolerance",     _float,    1e-10,           _at_least(0)),
    ("checks.equal_time.enabled",     _bool,     False,           None),
    ("checks.equal_time.times",       _floats,   [0.0, 1.0, 2.0], None),
    ("checks.equal_time.lambdas",     _floats,   [0.0, 0.1],      None),
    ("checks.equal_time.block",       _int,      2,               _at_least(0)),
    ("checks.equal_time.tolerance",   _float,    1e-8,            _at_least(0)),
    ("checks.spacelike.enabled",      _bool,     False,           None),
    # empty grid: x = origin, y = the most distant site, tau = one spacing, or
    # half the separation where that is only one spacing
    ("checks.spacelike.grid",         _list_of(_triple, "[x, y, tau] triples"), [], None),
    ("checks.spacelike.lambdas",      _floats,   [0.05, 0.1, 0.2],
     lambda v: None if v else "must not be empty"),
    ("checks.spacelike.block",        _int,      2,               _at_least(0)),
    ("checks.spacelike.slope",        _float,    2.0,             None),
    ("checks.spacelike.slope_tolerance", _float, 0.3,             _at_least(0)),
    ("output.formats",                _strs,     ["json"],
     _one_of("format", ("json", "csv"))),
)


def _put(tree: dict, path: str, value) -> None:
    """Set `value` at a dotted key path, creating the sections on the way."""
    *sections, leaf = path.split(".")
    for key in sections:
        tree = tree.setdefault(key, {})
    tree[leaf] = value


_TREE: dict = {}   # section -> ... -> key -> schema row
for _row in SCHEMA:
    _put(_TREE, _row[0], _row)


def _mapping(value, keys, path):
    """`value` as a mapping whose keys are all in `keys`; null is empty."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(value).__name__}")
    for key in value:
        if key not in keys:
            raise ConfigError(f"{path}.{key}: unknown key (allowed: {sorted(keys)})")
    return value


def _walk(doc, tree, path, out):
    """Check `doc` against `tree`, putting every key's value in `out`."""
    doc = _mapping(doc, tree, path or "<root>")
    for key, sub in tree.items():
        if isinstance(sub, dict):
            _walk(doc.get(key), sub, f"{path}.{key}" if path else key, out)
            continue
        where, parse, default, constraint = sub
        value = doc.get(key, default)
        if value is None and default is not None:
            raise ConfigError(f"{where}: required")
        if value is not None:
            value = parse(value, where)
            if constraint and (problem := constraint(value)):
                raise ConfigError(f"{where}: {problem}")
        out[where] = value


def _attribute(path: str) -> str:
    return "interaction" if path == "model.interaction.name" else path.rsplit(".", 1)[1]


def parse_config(text: str) -> RunConfig:
    """Parse and validate a YAML configuration document."""
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"not valid YAML: {exc}") from exc
    values: dict = {}
    _walk(doc, _TREE, "", values)
    dim = values["model.lattice.dim"]
    for i, (x, y, _) in enumerate(values["checks.spacelike.grid"]):
        if any(len(s if isinstance(s, list) else [s]) != dim for s in (x, y)):
            raise ConfigError(f"checks.spacelike.grid[{i}]: sites need {dim} "
                              f"coordinate(s), got {x!r} and {y!r}")
    nested: dict = {}
    for path in [p for p in values if p.startswith("checks.")]:
        _put(nested, path, values.pop(path))
    return RunConfig(**{_attribute(p): v for p, v in values.items()}, checks={
        name: CheckToggle(enabled=params.pop("enabled"), params=params)
        for name, params in nested["checks"].items()})


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
