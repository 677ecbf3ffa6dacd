"""The report writer against the stdlib's `json.dumps`, its reference."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticedress import cli
from latticedress.cli import report_json

from conftest import phi3_config


def _reference(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)


STRINGS = st.one_of(
    st.text(),
    st.sampled_from(['"', "\\", 'a"b\\c', "\x00\x1f\x7f", "\n\t\r\b\f", "é",
                     " ", "\U0001f600", "\ud800", ""]),
)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
NUMBERS = st.one_of(
    st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),
    FINITE,
    FINITE.map(np.float64),
    st.sampled_from([-0.0, 0.0, 1e16, 1e-7, 1e300, 5e-324, np.float64(-0.0),
                     np.float64(1e16), np.float64(1e-7)]),
)
LEAVES = st.one_of(st.none(), st.booleans(), NUMBERS, STRINGS)
TREES = st.recursive(
    LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(STRINGS, children, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(TREES)
def test_writer_matches_json_dumps(tree):
    assert report_json(tree) == (_reference(tree), True)


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(TREES, st.sampled_from([math.nan, math.inf, -math.inf, np.float64("nan"),
                               np.float64("-inf")]))
def test_non_finite_float_is_written_as_null(tree, bad):
    text, finite = report_json({"tree": tree, "bad": [1.0, bad]})
    assert text == _reference({"tree": tree, "bad": [1.0, None]})
    assert not finite


@pytest.mark.parametrize("obj", [
    {1: "a"}, {None: 1}, {1.5: 2}, {True: 1}, {(1, 2): 3}, {"a": 1, 2: 3},
    {"a": {2: 3}}, {1, 2}, object(), np.int64(1), 1j, b"x", [np.bool_(True)],
], ids=["int-key", "none-key", "float-key", "bool-key", "tuple-key", "mixed-keys",
        "nested-int-key", "set", "object", "numpy-int", "complex", "bytes",
        "numpy-bool"])
def test_non_string_key_or_unknown_type_raises(obj):
    with pytest.raises(TypeError):
        report_json(obj)


def _types(obj) -> set:
    if isinstance(obj, dict):
        return {type(obj)}.union(*map(_types, obj.values()))
    if isinstance(obj, (list, tuple)):
        return {type(obj)}.union(*map(_types, obj))
    return {type(obj)}


@pytest.mark.parametrize("command, changes", [
    ("dress", {}),
    ("verify", {}),
    ("scan", {"numerics.per_mode_cutoff": 5, "numerics.total_cutoff": 5,
              "checks.spacelike.enabled": True}),
])
def test_live_reports_match_json_dumps(tmp_path, monkeypatch, command, changes):
    seen = []
    emit = cli.emit_report

    def capture(report, out_dir, formats):
        seen.append(report)
        return emit(report, out_dir, formats)

    monkeypatch.setattr(cli, "emit_report", capture)
    cli.run(phi3_config(changes), command, tmp_path)
    (report,) = seen
    assert (tmp_path / "report.json").read_text() == _reference(report) + "\n"
    if command == "scan":
        # the scan rows carry numpy floats, which must print as floats
        assert np.float64 in _types(report)
