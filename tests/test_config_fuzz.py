"""Config-parser fuzzing: a mutated shipped config either parses or raises
ConfigError, and the CLI turns every ConfigError into exit code 5.

The mutations drop or duplicate lines and replace values with junk, nan,
inf, huge integers or nothing.  Only the configs that fail to parse are
handed to the CLI, so no iteration ever runs.
"""

import os
import tempfile

from hypothesis import given, settings, strategies as st

from kamzero.cli import main
from kamzero.config import ConfigError, parse_config

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")
TEXTS = {}
for _name in sorted(os.listdir(CONFIGS)):
    with open(os.path.join(CONFIGS, _name)) as _fh:
        TEXTS[_name] = _fh.read()

VALUES = ["", "nan", "NaN", "inf", "-inf", "1e999", "9" * 30, "9" * 5000, "-9" + "9" * 20,
          "xyz", "1 2 x", "0x10", "=", "[run]", "1,,2", "-0.0"]
MUTATION = st.tuples(st.sampled_from(("drop", "duplicate", "value")),
                     st.integers(0, 10 ** 6), st.sampled_from(VALUES))


def mutate(text, mutations):
    lines = text.splitlines()
    for op, pos, value in mutations:
        if not lines:
            break
        i = pos % len(lines)
        if op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif "=" in lines[i]:
            lines[i] = lines[i].split("=", 1)[0] + "= " + value
        else:
            lines[i] = value
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(sorted(TEXTS)), mutations=st.lists(MUTATION, min_size=1, max_size=4))
def test_mutated_config_parses_or_exits_5(name, mutations):
    text = mutate(TEXTS[name], mutations)
    try:
        parse_config(text)
        return
    except ConfigError as err:
        assert err.problems
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzzed.cfg")
        with open(path, "w") as fh:
            fh.write(text)
        assert main(["run", "--config", path, "--out", tmp]) == 5
