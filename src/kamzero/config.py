"""Text configuration: ``key = value`` lines under ``[section]`` headers.

Unknown keys, type mismatches (a float must be finite: nan and inf are
rejected) and constraint violations are collected with the offending line
number and raised together, so a bad file reports every problem at once.
"""

from __future__ import annotations

import math
import sys

from .driver import _R_FLOOR_REL
from .series import _WEIGHT_A, _WEIGHT_P, Budgets, mode_weight


class ConfigError(Exception):
    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("\n".join(self.problems))


_MODES = ("nls", "synthetic")


# a key's kind is a type name or, for ``mode``, the tuple of its choices
_SCHEMA = {
    "run": {
        "mode": (_MODES, None),
        "seed": ("int", 0),
        "max_steps": ("int", 6),
    },
    "model": {
        "sites": ("intlist", ()),
        "jmax": ("int", 8),
        "xi": ("floatlist", ()),
    },
    "synthetic": {
        "n": ("int", 2),
        "b": ("int", 1),
        "jmax": ("int", 6),
        "eps0": ("float", 1e-6),
        "inject_z0": ("float", 0.0),
        "n_high": ("int", 8),
    },
    "schedule": {
        "s1": ("float", 0.6),
        "r1": ("float", 0.25),
        "gamma1": ("float", 0.05),
        "tau": ("float", 3.5),
        "eps_floor": ("float", 1e-14),
    },
    "budgets": {
        "degree_max": ("int", 6),
        "k_max": ("int", 512),
    },
    "grid": {
        "lo": ("floatlist", ()),
        "hi": ("floatlist", ()),
        "samples_per_axis": ("int", 32),
        "kmax": ("float", 10.0),
        "gamma_ladder": ("int", 1),
    },
    "output": {
        "dir": ("str", "out"),
    },
}


def _finite(raw):
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("not finite")
    return value


def _parse_value(kind, raw):
    if isinstance(kind, tuple):
        if raw not in kind:
            raise ValueError(raw)
        return raw
    if kind == "str":
        return raw
    if kind == "int":
        return int(raw)
    if kind == "float":
        return _finite(raw)
    if kind == "intlist":
        return tuple(int(v) for v in raw.replace(",", " ").split())
    if kind == "floatlist":
        return tuple(_finite(v) for v in raw.replace(",", " ").split())
    raise AssertionError(kind)


def parse_config(text):
    """Parse and validate config text into ``{section: {key: value}}``, every
    key of ``_SCHEMA`` present; raises ConfigError with line numbers."""
    problems = []
    values = {sec: {k: default for k, (_, default) in keys.items()}
              for sec, keys in _SCHEMA.items()}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                problems.append("line %d: unknown section [%s]" % (lineno, section))
                section = None
            continue
        if "=" not in line:
            problems.append("line %d: expected key = value" % lineno)
            continue
        if section is None:
            problems.append("line %d: key outside any [section]" % lineno)
            continue
        key, _, raw_val = line.partition("=")
        key = key.strip()
        raw_val = raw_val.strip()
        if key not in _SCHEMA[section]:
            problems.append("line %d: unknown key '%s' in [%s]" % (lineno, key, section))
            continue
        kind, _ = _SCHEMA[section][key]
        try:
            values[section][key] = _parse_value(kind, raw_val)
        except ValueError:
            expects = ("one of %s" % ", ".join(kind) if isinstance(kind, tuple)
                       else kind.replace("float", "finite float"))
            problems.append("line %d: key '%s' expects %s, got %r"
                            % (lineno, key, expects, raw_val))

    problems.extend(_validate(values))
    if problems:
        raise ConfigError(problems)
    return values


def _range_problems(v, mode):
    """Finite values that the norms cannot take: the vector-field norm divides
    by r^2 on every radius of the schedule, from r1 down to the floor
    ``driver._R_FLOOR_REL`` r1, and weighs mode j by ``series.mode_weight``,
    w_j = j^p e^{a j}."""
    problems = []
    sched = v["schedule"]
    floor = _R_FLOOR_REL * sched["r1"]
    for what, radius in (("r1", sched["r1"]), ("the radius floor %g * r1" % _R_FLOOR_REL, floor)):
        square = radius * radius
        if radius > 0 and not sys.float_info.min <= square < math.inf:
            problems.append("[schedule] %s = %g squares to %g; its square must be a positive "
                            "normal float" % (what, radius, square))
    if mode == "synthetic":
        # the synthetic zero modes are 1..b (``cli._build_problem``)
        syn = v["synthetic"]
        top = max(syn["jmax"], syn["b"])
        what = "[synthetic] jmax = %d and b = %d give" % (syn["jmax"], syn["b"])
    else:
        top = v["model"]["jmax"]
        what = "[model] jmax = %d gives" % top
    try:
        weight = mode_weight(top)
    except OverflowError:
        weight = math.inf
    if not weight < math.inf:
        problems.append("%s mode %d the weight j^%g e^(%g j) = inf; it must be finite"
                        % (what, top, _WEIGHT_P, _WEIGHT_A))
    return problems


def _validate(v):
    problems = []
    mode = v["run"]["mode"]
    if mode is None:
        problems.append("[run] mode must be set to one of %s" % ", ".join(_MODES))
        return problems
    g = v["grid"]
    positive = [("schedule", "s1"), ("schedule", "r1"), ("schedule", "gamma1")]
    least = [("run", "seed", 0), ("run", "max_steps", 1)]
    if mode == "synthetic":
        positive.append(("synthetic", "eps0"))
        least += [("synthetic", key, low) for key, low in (("n", 1), ("b", 1), ("n_high", 0))]
    if g["lo"] or g["hi"]:
        # an empty condition set or ladder would report every fraction as 0
        least += [("grid", "kmax", 1), ("grid", "gamma_ladder", 1)]
    for sec, key in positive:
        if not v[sec][key] > 0:
            problems.append("[%s] %s must be positive" % (sec, key))
    for sec, key, low in least:
        if not v[sec][key] >= low:
            problems.append("[%s] %s must be >= %d" % (sec, key, low))
    problems.extend(_range_problems(v, mode))
    try:
        Budgets(**v["budgets"])
    except ValueError as err:
        problems.append("[budgets] %s" % err)
    if mode == "nls":
        sites = v["model"]["sites"]
        xi = v["model"]["xi"]
        if not sites:
            problems.append("[model] sites is required for mode %s" % mode)
        if not xi:
            problems.append("[model] xi is required for mode %s" % mode)
        elif sites and len(xi) != len(sites):
            problems.append("[model] xi must list one action per site")
        elif any(x <= 0 for x in xi):
            problems.append("[model] xi entries must be positive")
        if any(not 1 <= j <= v["model"]["jmax"] for j in sites):
            problems.append("[model] sites must lie in 1..jmax = %d" % v["model"]["jmax"])
        if len(set(sites)) != len(sites):
            problems.append("[model] sites must be distinct")
        n = len(sites)
    else:
        n = v["synthetic"]["n"]
    if n and not v["schedule"]["tau"] > n + 1:
        problems.append("[schedule] tau must exceed n + 1 = %d" % (n + 1))
    return problems
