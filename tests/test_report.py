"""The report writer against the stdlib's `json.dumps`, its reference."""

import json
import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticedress import cli
from latticedress.algebra import OperatorSeries, signature_json, term_type
from latticedress.cli import TermTable
from latticedress.modes import FieldSpecies, LatticeSpec, ModeSystem

from conftest import phi3_config, report_text


def _reference(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)


def term_rows(terms, order: int) -> list[dict]:
    """The rows of one order's term map, built as dicts: the reference for
    the text the writer makes straight from a `TermTable`."""
    return [{"order": order, "type": list(term_type(sig)), **signature_json(sig),
             "re": c.real, "im": c.imag} for sig, c in terms.items()]


def _expand(obj):
    """obj with every term table replaced by its reference rows."""
    if isinstance(obj, TermTable):
        return [row for n, terms in obj.orders for row in term_rows(terms, n)]
    if isinstance(obj, dict):
        return {k: _expand(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_expand(v) for v in obj]
    return obj


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
    assert report_text(tree) == (_reference(tree), True)


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(TREES, st.sampled_from([math.nan, math.inf, -math.inf, np.float64("nan"),
                               np.float64("-inf")]))
def test_non_finite_float_is_written_as_null(tree, bad):
    text, finite = report_text({"tree": tree, "bad": [1.0, bad]})
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
        report_text(obj)


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
    ("dress", {"model.interaction.name": "scalar-yukawa",
               "model.species": [{"name": "N", "mass": 1.0},
                                 {"name": "phi", "mass": 0.5}],
               "model.lattice.sites_per_dim": 7, "model.lattice.physical_length": 7.0}),
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
    assert isinstance(report["dressing"]["K"], TermTable)
    assert (tmp_path / "report.json").read_text() == _reference(_expand(report)) + "\n"
    if command == "scan":
        # the scan rows carry numpy floats, which must print as floats
        assert np.float64 in _types(report)


# ---------------------------------------------------------------------------
# term tables, written straight from their term maps


def _series(system, orders) -> OperatorSeries:
    return OperatorSeries(system, orders, len(orders) - 1)


def _tables():
    system = ModeSystem(LatticeSpec(dim=2, sites_per_dim=3),
                        [FieldSpecies("N", 1.0), FieldSpecies("ph\u00ee \"x\"", 0.5)])
    a, b, c = system.modes[0], system.modes[4], system.modes[13]
    series = _series(system, [
        {((), ()): -0.25 + 0j},
        {},
        {((a,), (b,)): 1.5 + 0.5j, ((a, a), ()): 1e-300 - 1e16j,
         ((), (b, c, c)): complex(-0.0, 2.0)},
        {},
    ])
    return [
        TermTable.of_series(series),
        TermTable.of_series(_series(system, [{}, {}])),
        TermTable([]),
        TermTable([(3, {}), (2, series.orders[2])]),
        TermTable([(1, {((c,), (a, b)): 2.0 - 3.0j})]),
    ]


def test_term_tables_match_json_dumps_of_their_rows():
    # every depth a report holds a table at, and deeper; the same signature
    # in several tables and at several indents
    tables = _tables()
    for obj in [
        tables[0],
        tables,
        {"dressing": {"K": tables[0], "generators": tables, "removed": tables[2:],
                      "bad_terms_left": tables[1]}},
        {"a": [[{"b": tables}], tables[3]], "c": (tables[4], [])},
    ]:
        assert report_text(obj) == (_reference(_expand(obj)), True)


def test_shared_mode_lists_at_two_indents():
    # as in a real report: many signatures share a creator or annihilator
    # tuple, on either side, in tables at `dressing.K` and one indent deeper
    # at `dressing.generators[i]`
    system = ModeSystem(LatticeSpec(dim=1, sites_per_dim=5),
                        [FieldSpecies("N", 1.0), FieldSpecies("phi", 0.5)])
    m = system.modes
    lists = [(), (m[0],), (m[3], m[3]), (m[1], m[7]), (m[2], m[5], m[9])]
    terms = {sig: complex(i, -i / 3)
             for i, sig in enumerate(sorted(product(lists, lists)))}
    half = dict(list(terms.items())[::2])
    obj = {"dressing": {"K": TermTable([(1, terms), (2, half)]),
                        "generators": [TermTable([(1, half)]),
                                       TermTable([(2, terms)])]}}
    assert report_text(obj) == (_reference(_expand(obj)), True)


def test_empty_term_tables_are_empty_lists():
    for table in _tables()[1:3]:
        assert report_text({"K": table}) == ('{\n  "K": []\n}', True)


@pytest.mark.parametrize("bad", [complex(math.nan, 1.0), complex(2.0, math.inf),
                                 complex(-math.inf, math.nan)])
def test_non_finite_term_coefficient_is_written_as_null(bad):
    system = ModeSystem(LatticeSpec(sites_per_dim=3), [FieldSpecies("phi", 1.0)])
    m = system.modes[1]
    terms = {((m,), ()): 1.0 + 0j, ((m,), (m,)): bad}
    table = TermTable([(2, terms)])
    text, finite = report_text({"dressing": {"K": table}})
    rows = term_rows(terms, 2)
    rows[1] = {**rows[1], **{part: None for part in ("re", "im")
                             if not math.isfinite(rows[1][part])}}
    assert text == _reference({"dressing": {"K": rows}})
    assert not finite


def test_repeated_values_and_signed_zeros_at_two_indents():
    # each nonzero float's text is made once per report, a zero's never:
    # 0.0 == -0.0 and both hash alike, yet each keeps its own text, in `re`
    # and `im`, over two orders, in a table at `dressing.K` and one at
    # `dressing.generators[0]`
    system = ModeSystem(LatticeSpec(dim=1, sites_per_dim=5),
                        [FieldSpecies("N", 1.0), FieldSpecies("phi", 0.5)])
    m = system.modes
    sigs = [((m[0],), ()), ((m[1],), (m[2],)), ((), (m[3], m[3])), ((m[4],), (m[4],))]
    first = dict(zip(sigs, [complex(0.5, 0.0), complex(-0.0, 0.5),
                            complex(0.5, -0.0), complex(-0.0, -0.0)]))
    second = dict(zip(sigs, [complex(-0.0, 0.0), complex(0.5, 0.5),
                             complex(0.0, 0.0), complex(0.5, -0.0)]))
    obj = {"dressing": {"K": TermTable([(1, first), (2, second)]),
                        "generators": [TermTable([(2, second), (1, first)])]}}
    text, finite = report_text(obj)
    assert (text, finite) == (_reference(_expand(obj)), True)
    assert '"re": -0.0' in text and '"im": -0.0' in text


def test_repeated_inf_and_nan_are_null_and_not_finite():
    # the second inf is a memo hit, the nan never hits; the finite rows
    # after them are written as usual
    system = ModeSystem(LatticeSpec(sites_per_dim=3), [FieldSpecies("phi", 1.0)])
    m = system.modes
    terms = {((m[0],), ()): complex(math.inf, 1.0),
             ((m[1],), ()): complex(1.0, math.inf),
             ((m[2],), ()): complex(math.nan, -0.0),
             ((m[0],), (m[1],)): complex(1.0, -0.0),
             ((m[1],), (m[2],)): complex(-0.0, 2.5)}
    text, finite = report_text({"dressing": {"K": TermTable([(2, terms)])}})
    rows = [{**row, **{part: None for part in ("re", "im")
                       if not math.isfinite(row[part])}}
            for row in term_rows(terms, 2)]
    assert text == _reference({"dressing": {"K": rows}})
    assert text.count("null") == 3
    assert not finite


@pytest.mark.parametrize("bad", [2.0, math.inf], ids=["finite", "non-finite"])
def test_emit_report_writes_the_chunks_and_a_newline(tmp_path, bad):
    system = ModeSystem(LatticeSpec(sites_per_dim=3), [FieldSpecies("phi", 1.0)])
    m = system.modes
    report = {"failures": [], "x": [1.0, bad],
              "dressing": {"K": TermTable([(1, {((m[0],), (m[1],)): 0.5 - 0.0j})])}}
    assert cli.emit_report(report, tmp_path, ["json"]) == [tmp_path / "report.json"]
    # the report as written, with the failure a non-finite number adds
    chunks, finite = cli.report_chunks(report)
    assert finite is (bad == 2.0)
    assert report["failures"] == ([] if finite else [cli.NONFINITE_FAILURE])
    assert (tmp_path / "report.json").read_bytes() == \
        ("".join(chunks) + "\n").encode("utf-8")
