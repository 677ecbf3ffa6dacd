import contextlib
import hashlib
import io
import json
import math
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
import yaml
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from latticedress import algebra, checks, cli, numerics
from latticedress.cli import NONFINITE_FAILURE, main, model_from_config, run
from latticedress.config import ConfigError, load_config, parse_config
from latticedress.models import VERTICES

from conftest import REPO_ROOT, phi3_config, run_python

FAST_YAML = """
model:
  lattice: {sites_per_dim: 3}
  interaction: {name: phi3}
  order: 2
numerics:
  per_mode_cutoff: 4
  total_cutoff: 4
  lambdas: [0.02, 0.04, 0.08, 0.16]
"""


# ---------------------------------------------------------------------------
# configuration parsing


def test_defaults_from_empty_document():
    cfg = parse_config("")
    assert cfg.interaction == "phi3"
    assert cfg.order == 2
    assert cfg.policy == "shirokov"
    assert (cfg.per_mode_cutoff, cfg.total_cutoff) == (4, 4)
    assert cfg.lambdas == [0.02, 0.04, 0.08, 0.16]
    assert cfg.physical_length == pytest.approx(2.0 * math.pi)
    assert cfg.formats == ["json"]
    assert cfg.checks["residuals"].enabled
    assert not cfg.checks["equal_time"].enabled


def test_shipped_example_config_parses():
    cfg = load_config(REPO_ROOT / "configs" / "phi3.yaml")
    assert cfg.sites_per_dim == 5
    assert cfg.interaction == "phi3"
    assert cfg.formats == ["json", "csv"]


def test_echo_round_trips_all_sections():
    cfg = parse_config(FAST_YAML)
    echo = cfg.echo()
    assert set(echo) == {"model", "numerics", "checks", "output"}
    assert echo["model"]["lattice"]["sites_per_dim"] == 3
    assert set(echo["checks"]) == {"residuals", "oracle", "momentum",
                                   "equal_time", "spacelike"}


SCHEMA_VIOLATIONS = [
    ("bogus: 1", "<root>.bogus"),
    ("model:\n  lattice: {sides: 3}", "model.lattice.sides"),
    ("model:\n  lattice: {sites_per_dim: 4}", "must be odd"),
    ("model:\n  species: [{name: phi, mass: -1.0}]", "mass must be a positive"),
    ("model:\n  interaction: {name: phi5}", "unknown interaction"),
    ("model:\n  policy: frobnicate", "shirokov or weidlich"),
    ("model:\n  order: 0", "must be >= 1"),
    ("numerics:\n  lambdas: nope", "list of numbers"),
    ("checks:\n  residuals: {enabled: maybe}", "expected a boolean"),
    ("checks:\n  sanity: {}", "checks.sanity"),
    ("output:\n  formats: [xml]", "unknown format"),
    ("model: [1, 2]", "expected a mapping"),
    ("{{{", "not valid YAML"),
    ("checks:\n  oracle: {block: x}", "checks.oracle.block"),
    ("checks:\n  spacelike: {lambdas: nope}", "checks.spacelike.lambdas"),
    ("checks:\n  momentum: {tolerance: \"1e-10\"}", "checks.momentum.tolerance"),
    ("checks:\n  spacelike: {grid: [[0, 1]]}", "checks.spacelike.grid[0]"),
    ("model:\n  coupling: .nan", "model.coupling"),
    ("model:\n  lattice: {physical_length: .inf}", "model.lattice.physical_length"),
    ("numerics:\n  time_horizon: .inf", "numerics.time_horizon"),
    ("checks:\n  spacelike: {lambdas: []}", "checks.spacelike.lambdas"),
    ("checks:\n  spacelike: {grid: [[[0, 1], [1, 0], 0.5]]}",
     "checks.spacelike.grid[0]: sites need 1"),
    ("model:\n  species: [{name: a, mass: 1.0}, {name: a, mass: 0.5}]",
     "model.species: need one or more species"),
    ("model:\n  species: [{name: '', mass: 1.0}]", "model.species[0].name: must be non-empty"),
    ("model:\n  coupling: 1.0e300", "got '1.0e300' (YAML reads it as a string; "
     "write 1.0e+300)"),
    ("numerics:\n  lambdas: [0.1, 2e-2]", "numerics.lambdas[1]: expected float, "
     "got '2e-2' (YAML reads it as a string; write 0.02)"),
]


@pytest.mark.parametrize("text, fragment", SCHEMA_VIOLATIONS)
def test_schema_violations_name_the_key(text, fragment):
    with pytest.raises(ConfigError, match=None) as exc:
        parse_config(text)
    assert fragment in str(exc.value)


def test_model_from_config_builds():
    model = model_from_config(parse_config(FAST_YAML))
    assert model.name == "phi3"
    assert len(model.system.modes) == 3


# ---------------------------------------------------------------------------
# pipeline runs and exit codes


def test_dress_command_passes(tmp_path):
    cfg = parse_config(FAST_YAML)
    assert run(cfg, "dress", tmp_path) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["schema_version"] == 1
    assert report["command"] == "dress"
    assert report["failures"] == []
    assert all(v["pass"] for v in report["verdicts"])
    assert report["dressing"]["bad_terms_left"] == []
    assert report["dressing"]["K"]


def test_verify_command_passes(tmp_path):
    cfg = parse_config(FAST_YAML)
    assert run(cfg, "all", tmp_path) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    names = {v["check"] for v in report["verdicts"]}
    assert {"no_bad_terms", "momentum_commutation", "oracle_equivalence_slope",
            "residual_slopes"} <= names


def test_report_is_byte_stable(tmp_path):
    cfg = parse_config(FAST_YAML)
    run(cfg, "dress", tmp_path / "a")
    run(cfg, "dress", tmp_path / "b")
    assert (tmp_path / "a" / "report.json").read_bytes() == \
        (tmp_path / "b" / "report.json").read_bytes()


def test_zero_denominator_exits_one(tmp_path):
    cfg = parse_config(FAST_YAML.replace("order: 2", "order: 2\n  policy: weidlich"))
    assert run(cfg, "dress", tmp_path) == 1
    report = json.loads((tmp_path / "report.json").read_text())
    (failure,) = report["failures"]
    assert failure["reason"] == "zero_denominator"
    assert failure["order"] == 2
    assert failure["signatures"]


def test_verify_assembles_each_coupling_once(tmp_path, monkeypatch, serial):
    # the verify-phi3 benchmark job (phi3 S=5, order 3, cutoffs 4, four
    # couplings): the oracle and residual checks share H(lam) and R(lam), so
    # each coupling assembles H, R and K once, 12 matrices in place of 20
    calls = []
    assemble = numerics.SeriesAssembler.__call__

    def counted(self, lam):
        calls.append(lam)
        return assemble(self, lam)

    monkeypatch.setattr(numerics.SeriesAssembler, "__call__", counted)
    assert run(phi3_config({"model.order": 3}), "verify", tmp_path) == 0
    assert len(calls) == 12


def test_out_of_memory_in_dress_is_a_setup_failure(tmp_path, monkeypatch):
    # the engine's tables are filled by the first plans, then a plan runs
    # out of memory: the run names the stage, writes its report and leaves
    # no table behind
    plan = algebra._plan
    sizes = []

    def failing(*args):
        if len(sizes) == 2:
            raise MemoryError
        sizes.append(len(algebra._plans) + len(algebra._patterns))
        return plan(*args)

    monkeypatch.setattr(algebra, "_plan", failing)
    assert run(parse_config(FAST_YAML), "dress", tmp_path) == 1
    report = _read_report(tmp_path / "report.json")
    assert report["verdicts"] == []
    assert report["failures"] == [{"check": "setup", "reason": "out of memory in dress"}]
    assert sizes[-1] > 0
    assert algebra._patterns == {} and algebra._merged == {} and algebra._plans == {}


def test_out_of_memory_keeps_the_verdicts_before_it(tmp_path, monkeypatch):
    def failing(*args):
        raise MemoryError

    monkeypatch.setattr(checks, "field_at_origin_time_zero", failing)
    text = FAST_YAML + "checks:\n  equal_time: {enabled: true}\n"
    assert run(parse_config(text), "all", tmp_path) == 1
    report = _read_report(tmp_path / "report.json")
    assert [v["check"] for v in report["verdicts"]] == [
        "no_bad_terms", "momentum_commutation", "oracle_equivalence_slope",
        "residual_slopes"]
    assert all(v["pass"] for v in report["verdicts"])
    assert report["failures"] == [{"check": "setup", "reason": "out of memory in scan"}]


def test_all_builds_one_basis(tmp_path, monkeypatch):
    # verify and scan share the basis, and with it every cached action
    built = []
    basis_class = cli.FockBasis

    def counted(*args, **kwargs):
        built.append(basis_class(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(cli, "FockBasis", counted)
    assert run(phi3_config({"checks.spacelike.enabled": True}), "all", tmp_path) == 0
    assert len(built) == 1
    report = _read_report(tmp_path / "report.json")
    assert "spacelike" in report["scan"]


def test_scan_command_writes_csv(tmp_path):
    text = FAST_YAML.replace("cutoff: 4", "cutoff: 6") + """
checks:
  equal_time: {enabled: true, times: [0.0], lambdas: [0.0, 0.1]}
output:
  formats: [json, csv]
"""
    cfg = parse_config(text)
    assert run(cfg, "scan", tmp_path) == 0
    assert (tmp_path / "equal_time.csv").exists()
    header = (tmp_path / "equal_time.csv").read_text().splitlines()[0]
    assert header == "separation,tau,lambda,magnitude,baseline,subtracted"


@pytest.mark.parametrize("text, command, prefix", [
    (FAST_YAML.replace("order: 2", "order: 2\n  species: [{name: a, mass: 1.0}, "
                       "{name: b, mass: 0.5}]"), "dress", "phi3 needs exactly one species"),
    ("model:\n  lattice: {sites_per_dim: 3}\n  interaction: {name: scalar-yukawa}\n"
     "numerics: {per_mode_cutoff: 2, total_cutoff: 2}\n"
     "checks:\n  equal_time: {enabled: true, times: [0.0]}\n", "scan",
     "the field scans support single-species"),
    # a tiny mass makes a mode energy 0 while the model is built; the reason
    # names the step and the vertex legs whose kernel divides by zero
    ("model:\n  species: [{name: phi, mass: 1.0e-300}]\n", "dress",
     "model build: vertex kernel of the legs phi[2] (E = 2.0), phi[0] (E = 0.0), "
     "phi[-2] (E = 2.0): the product of 2E over the legs times the lattice volume "
     "6.283185307179586 is 0"),
    # the coupling overflows two of the interaction's coefficients to inf
    ("model:\n  lattice: {sites_per_dim: 3, physical_length: 0.5}\n"
     "  species: [{name: phi, mass: 0.01}]\n"
     "  interaction: {name: phi3, coupling_strength: 1.0e+308}\n", "dress",
     "interaction has a non-finite coefficient"),
    ("model:\n  lattice: {dim: 2, sites_per_dim: 1, physical_length: 1.0e+300}\n"
     "  interaction: {name: scalar-yukawa}\n", "dress",
     "model build: lattice volume physical_length**dim = 1e+300**2 overflows a float"),
])
def test_setup_failure_exits_one_with_report(tmp_path, text, command, prefix):
    assert run(parse_config(text), command, tmp_path) == 1
    report = json.loads((tmp_path / "report.json").read_text())
    (failure,) = report["failures"]
    assert failure["check"] == "setup"
    assert failure["reason"].startswith(prefix)


@pytest.mark.parametrize("formats", [[], ["csv"]])
def test_report_json_is_written_for_any_formats(tmp_path, formats):
    cfg = parse_config(FAST_YAML + f"output:\n  formats: {formats}\n")
    assert run(cfg, "dress", tmp_path) == 0
    assert json.loads((tmp_path / "report.json").read_text())["failures"] == []


@pytest.mark.parametrize("value", ["nope", "\"inf\""])
def test_string_that_is_no_finite_float_gets_no_hint(value):
    with pytest.raises(ConfigError) as exc:
        parse_config(f"model:\n  coupling: {value}")
    assert str(exc.value).startswith("model.coupling: expected float, got ")
    assert str(exc.value).endswith("'")


def test_setup_failure_keeps_computed_verdicts(tmp_path):
    # the basis is refused after dress and the momentum check already ran
    text = "model:\n  lattice: {sites_per_dim: 5}\nnumerics: {dimension_limit: 10}\n"
    assert run(parse_config(text), "verify", tmp_path) == 1
    report = json.loads((tmp_path / "report.json").read_text())
    assert [v["check"] for v in report["verdicts"]] == ["no_bad_terms",
                                                        "momentum_commutation"]
    assert all(v["pass"] for v in report["verdicts"])
    (failure,) = report["failures"]
    assert failure["check"] == "setup"
    assert "exceeds the limit 10" in failure["reason"]


@pytest.mark.parametrize("command, verdicts", [
    ("verify", ["no_bad_terms", "momentum_commutation"]),
    ("scan", ["no_bad_terms"]),
    ("all", ["no_bad_terms", "momentum_commutation"]),
])
def test_dense_oracle_refuses_a_basis_it_cannot_hold(tmp_path, monkeypatch, command,
                                                     verdicts):
    # phi3 S=5 at cutoffs 20 has 53,130 states, under numerics.dimension_limit,
    # but one dense complex matrix of them takes 42 GiB: the oracle refuses
    # the basis before it lays out or assembles any matrix
    def assemble(*args):
        raise AssertionError("a matrix was assembled")

    monkeypatch.setattr(numerics, "matrix_of_terms", assemble)
    monkeypatch.setattr(numerics, "SeriesAssembler", assemble)
    text = "numerics: {per_mode_cutoff: 20, total_cutoff: 20}\n"
    assert run(parse_config(text), command, tmp_path) == 1
    report = json.loads((tmp_path / "report.json").read_text())
    assert [v["check"] for v in report["verdicts"]] == verdicts
    assert all(v["pass"] for v in report["verdicts"])
    (failure,) = report["failures"]
    assert failure["check"] == "setup"
    assert failure["reason"].startswith("basis dimension 53130 exceeds the dense "
                                        "oracle's limit 4096")


def test_default_spacelike_point_on_three_sites(tmp_path):
    # the farthest site is one spacing away, so tau = one spacing is lightlike
    text = ("model:\n  lattice: {sites_per_dim: 3, physical_length: 3.0}\n"
            "checks:\n  spacelike: {enabled: true}\n")
    assert run(parse_config(text), "scan", tmp_path) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert {row["tau"] for row in report["scan"]["spacelike"]["rows"]} == {0.5}
    (verdict,) = [v for v in report["verdicts"]
                  if v["check"] == "spacelike_nonlocality_slope"]
    assert verdict["pass"]


@pytest.mark.parametrize("text, command, verdicts", [
    ("model:\n  lattice: {sites_per_dim: 3}\nnumerics:\n  lambdas: [0.02, 1.0e+300]\n",
     "verify", ["no_bad_terms", "momentum_commutation"]),
    ("model:\n  lattice: {sites_per_dim: 3, physical_length: 3.0}\n"
     "checks:\n  spacelike: {enabled: true, lambdas: [0.05, 1.0e+300]}\n",
     "scan", ["no_bad_terms"]),
], ids=["numerics.lambdas", "checks.spacelike.lambdas"])
def test_huge_coupling_is_a_setup_failure(tmp_path, text, command, verdicts):
    # lambda**2 overflows a float while the order-2 Hamiltonian is evaluated
    assert run(parse_config(text), command, tmp_path) == 1
    report = json.loads((tmp_path / "report.json").read_text())
    assert [v["check"] for v in report["verdicts"]] == verdicts
    (failure,) = report["failures"]
    assert failure["check"] == "setup"
    assert failure["reason"] == "coupling 1e+300 to the power 2 overflows a float"


@pytest.mark.parametrize("lambdas", ["[1.0e+300, 1.0e+200]", "[1.0e+200, 1.0e+300]"])
def test_spacelike_scan_names_the_first_coupling_built(tmp_path, lambdas):
    # the couplings are built in the order of their set, not of the list,
    # so both orders name the same one
    text = ("model:\n  lattice: {sites_per_dim: 3, physical_length: 3.0}\n"
            f"checks:\n  spacelike: {{enabled: true, lambdas: {lambdas}}}\n")
    assert run(parse_config(text), "scan", tmp_path) == 1
    report = json.loads((tmp_path / "report.json").read_text())
    assert [v["check"] for v in report["verdicts"]] == ["no_bad_terms"]
    assert report["failures"] == [
        {"check": "setup", "reason": "coupling 1e+200 to the power 2 overflows a float"}]


def _reject_constant(name):
    raise ValueError(f"{name} in the report")


def _read_report(path):
    """The report, refusing NaN and Infinity, which are not JSON."""
    return json.loads(path.read_text(), parse_constant=_reject_constant)


NOT_UNITARY_FIELD = parse_config(
    "model:\n  lattice: {sites_per_dim: 3, physical_length: 1.0e+10}\n"
    "  interaction: {name: phi3-full, coupling_strength: 1.0e+10}\n"
    "  coupling: -0.5\n  order: 3\n  species: [{name: phi, mass: 0.02}]\n"
    "numerics: {per_mode_cutoff: 2, total_cutoff: 2}\n"
    "checks:\n  equal_time: {enabled: true, times: [0.0], lambdas: [0.02]}\n")
NOT_UNITARY_REASON = "exp(-R) at coupling 0.02 failed unitarity check (defect "


@pytest.mark.parametrize("cfg, command, verdicts, reason", [
    # exp(R) overflows to a finite but far from unitary matrix
    (phi3_config({"numerics.lambdas": [0.02, 1.0e+10]}), "verify",
     ["no_bad_terms", "momentum_commutation"], "exp(R) failed unitarity check (defect "),
    # exp(R) is NaN, whose defect compares false against any tolerance
    (phi3_config({"model.interaction.coupling_strength": 1.0e+300, "model.order": 1}),
     "verify", ["no_bad_terms", "momentum_commutation"],
     "exp(R) failed unitarity check (defect nan)"),
    # the residual check alone: exp(-R) itself is refused
    (phi3_config({"model.interaction.coupling_strength": 1.0e+300, "model.order": 1,
                  "checks.oracle.enabled": False}), "verify",
     ["no_bad_terms", "momentum_commutation"], "exp(-R) at coupling 0.02 is not finite"),
    # the mode energies overflow, and so does H's matrix
    (parse_config("model:\n  lattice: {sites_per_dim: 3, physical_length: 1.0e-300}\n"
                  "  order: 1\nnumerics: {per_mode_cutoff: 1, total_cutoff: 1}\n"),
     "verify", ["no_bad_terms", "momentum_commutation"],
     "the Fock-space matrix of a term map has a non-finite element"),
    # exp(-R) is finite but not unitary (exp(+R) is NaN, and so would be the
    # dressed field)
    (NOT_UNITARY_FIELD, "scan", ["no_bad_terms"], NOT_UNITARY_REASON),
    # exp(-R) at 1e10 is finite but far from unitary: the spacelike slope
    # fitted to it passed before it was checked
    (parse_config("model:\n  lattice: {sites_per_dim: 3, physical_length: 3.0}\n"
                  "checks:\n  oracle: {enabled: false}\n  residuals: {enabled: false}\n"
                  "  spacelike: {enabled: true, lambdas: [0.05, 1.0e+10]}\n"),
     "scan", ["no_bad_terms"], "exp(-R) at coupling 10000000000.0 failed unitarity check"),
    # the same exp(-R) in the residual check, which failed only on its slope
    (parse_config("model:\n  lattice: {sites_per_dim: 3, physical_length: 3.0}\n"
                  "numerics:\n  lambdas: [0.02, 0.04, 1.0e+10]\n"
                  "checks:\n  oracle: {enabled: false}\n"),
     "verify", ["no_bad_terms", "momentum_commutation"],
     "exp(-R) at coupling 10000000000.0 failed unitarity check"),
    # the order-2 products of g = 1e160 overflow to inf and then NaN, which
    # the prune used to drop: K kept its order-0 terms alone, and
    # no_bad_terms passed
    (parse_config("model:\n  lattice: {sites_per_dim: 5}\n"
                  "  interaction: {name: phi3, coupling_strength: 1.0e+160}\n  order: 3\n"),
     "dress", [], "dressing order 2 holds a non-finite coefficient"),
], ids=["numerics.lambdas", "coupling_strength", "residuals", "matrix", "field",
        "spacelike_unitarity", "residuals_unitarity", "dressing"])
def test_non_finite_oracle_is_a_setup_failure(tmp_path, cfg, command, verdicts, reason):
    assert run(cfg, command, tmp_path) == 1
    report = _read_report(tmp_path / "report.json")
    assert [v["check"] for v in report["verdicts"]] == verdicts
    assert all(v["pass"] for v in report["verdicts"])
    failure, *rest = report["failures"]
    assert failure["check"] == "setup"
    assert failure["reason"].startswith(reason)
    assert rest in ([], [NONFINITE_FAILURE])


def test_a_refused_exp_minus_r_forms_no_exp_plus_r(tmp_path):
    # exp(+R), whose products would overflow, is formed only after exp(-R)
    # passes its checks: the refused run warns of nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(NOT_UNITARY_FIELD, "scan", tmp_path) == 1
    failure = _read_report(tmp_path / "report.json")["failures"][0]
    assert failure["check"] == "setup"
    assert failure["reason"].startswith(NOT_UNITARY_REASON)


def test_an_overflowing_assembly_warns_of_nothing(tmp_path):
    # lam * g overflows H's order-1 coefficients to inf, whose complex
    # products with the amplitudes form inf * 0: the run refuses the NaN
    # entries, and numpy prints no warning of them
    cfg = parse_config("model:\n  lattice: {sites_per_dim: 3}\n"
                       "  interaction: {name: phi3, coupling_strength: 1.0e+10}\n"
                       "  order: 1\n"
                       "numerics: {per_mode_cutoff: 2, total_cutoff: 2, lambdas: [1.0e+300]}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(cfg, "verify", tmp_path) == 1
    failure = _read_report(tmp_path / "report.json")["failures"][0]
    assert failure == {"check": "setup",
                       "reason": "the Fock-space matrix of a term map has a non-finite element"}


def test_non_finite_number_in_the_report_fails_the_run(tmp_path):
    # a tiny lattice makes the momenta, and so the mode energies, overflow
    assert run(phi3_config({"model.lattice.physical_length": 1.0e-300}), "dress",
               tmp_path) == 1
    text = (tmp_path / "report.json").read_text()
    report = _read_report(tmp_path / "report.json")
    assert report["failures"][-1] == NONFINITE_FAILURE
    assert ": null" in text


NO_ORACLE = "  oracle: {enabled: false}\n  residuals: {enabled: false}\n"
VERIFY_S3 = ("model:\n  lattice: {sites_per_dim: 3}\n"
             "numerics: {per_mode_cutoff: 3, total_cutoff: 3, lambdas: %s}\n")


@pytest.mark.parametrize("text, command, failed", [
    ("model:\n  lattice: {sites_per_dim: 3, physical_length: 3.0}\nchecks:\n" + NO_ORACLE
     + "  equal_time: {enabled: true, lambdas: []}\n", "scan", "setup"),
    ("model:\n  lattice: {sites_per_dim: 3, physical_length: 3.0}\nchecks:\n" + NO_ORACLE
     + "  equal_time: {enabled: true, times: []}\n", "scan", "setup"),
    ("model:\n  lattice: {sites_per_dim: 1}\nchecks:\n" + NO_ORACLE
     + "  equal_time: {enabled: true}\n", "scan", "setup"),
    (VERIFY_S3 % "[]", "verify", ["oracle_equivalence_slope", "residual_slopes"]),
    (VERIFY_S3 % "[0.0]", "verify", ["oracle_equivalence_slope", "residual_slopes"]),
], ids=["equal_time.lambdas", "equal_time.times", "one_site", "no_lambdas", "zero_lambda"])
def test_nothing_to_judge_is_no_pass(tmp_path, text, command, failed):
    # each of these runs used to pass a verdict that judged nothing
    assert run(parse_config(text), command, tmp_path) == 1
    report = _read_report(tmp_path / "report.json")
    if failed == "setup":
        assert "equal_time_locality" not in [v["check"] for v in report["verdicts"]]
        (failure,) = report["failures"]
        assert failure == {"check": "setup", "reason": "the equal-time scan has no "
                           "point: it needs a time, a coupling and a site pair"}
    else:
        judged = {v["check"]: v for v in report["verdicts"]}
        for check in failed:
            assert not judged[check]["pass"]
            assert judged[check]["got"] is None
        assert report["failures"] == [{"check": c, "reason": "tolerance"} for c in failed]


YUKAWA_S3_YAML = """
model:
  lattice: {sites_per_dim: 3}
  interaction: {name: scalar-yukawa}
  order: 2
numerics: {per_mode_cutoff: 3, total_cutoff: 3}
"""
PHI3_S3_CUTOFF2_YAML = ("model:\n  lattice: {sites_per_dim: 3}\n  order: 2\n"
                        "numerics: {per_mode_cutoff: 2, total_cutoff: 2}\n")


@pytest.mark.parametrize("text, command, slope, passed", [
    # on this model's 2-quanta block the lambda^3 part vanishes, so the
    # differences fall as lambda^4, faster than the guaranteed lambda^3
    (YUKAWA_S3_YAML, "all", 3.96, True),
    # a total cutoff of 2 reaches the checked 2-quanta block: they fall as
    # lambda^2 only
    (PHI3_S3_CUTOFF2_YAML, "verify", 2.0, False),
], ids=["faster", "slower"])
def test_oracle_slope_is_judged_against_the_guaranteed_order(tmp_path, text, command,
                                                             slope, passed):
    assert run(parse_config(text), command, tmp_path) == (0 if passed else 1)
    report = _read_report(tmp_path / "report.json")
    (verdict,) = [v for v in report["verdicts"]
                  if v["check"] == "oracle_equivalence_slope"]
    assert (verdict["expected"], verdict["tolerance"]) == (3, 0.4)
    assert verdict["got"] == pytest.approx(slope, abs=0.01)
    assert verdict["pass"] is passed
    assert report["failures"] == ([] if passed else [
        {"check": "oracle_equivalence_slope", "reason": "tolerance"}])


def test_repeated_coupling_fits_no_slope(tmp_path):
    text = FAST_YAML.replace("[0.02, 0.04, 0.08, 0.16]", "[1.0, 1.0]")
    assert run(parse_config(text), "verify", tmp_path) == 1
    report = _read_report(tmp_path / "report.json")
    assert report["verify"]["oracle"]["slope"] is None
    assert report["verify"]["residuals"]["vacuum_slope"] is None


def test_verify_fits_each_series_once(tmp_path, monkeypatch):
    fits = []
    fit = checks._loglog_slope

    def counted(lambdas, values):
        fits.append(1)
        return fit(lambdas, values)

    monkeypatch.setattr(checks, "_loglog_slope", counted)
    cfg = parse_config(FAST_YAML)
    assert run(cfg, "verify", tmp_path) == 0
    # the oracle's differences, the vacuum and one series per mode
    assert len(fits) == 1 + 1 + len(model_from_config(cfg).system.modes)


# a menu of floats, extremes included; keys that must be positive draw from
# its positive part
FLOAT_MENU = [-0.5, 0.0, 1.0e-300, 0.02, 0.3, 1.0, 2.5, 1.0e+10, 1.0e+300]
POSITIVE_MENU = [x for x in FLOAT_MENU if x > 0]
# a vertex strength whose square overflows: the model builds, and the
# expansion goes non-finite inside the dressing
NEAR_OVERFLOW = 1.0e+160


@st.composite
def _small_configs(draw):
    """A config document that passes the schema, and a command.  A 2-D
    lattice has 1 or 3 sites per dimension and a total cutoff of at most 2,
    which keeps its basis small.  The spacelike grid has up to two [x, y, tau]
    points on lattice sites, spacelike or not, within the horizon or not."""
    real = st.sampled_from(FLOAT_MENU)
    positive = st.sampled_from(POSITIVE_MENU)
    dim = draw(st.sampled_from([1, 2]))
    sites_per_dim = draw(st.sampled_from([1, 3, 5] if dim == 1 else [1, 3]))
    site = st.lists(st.integers(0, sites_per_dim - 1), min_size=dim, max_size=dim)
    interaction = draw(st.sampled_from(list(VERTICES)))
    doc = {
        "model": {
            "lattice": {"dim": dim, "sites_per_dim": sites_per_dim,
                        "physical_length": draw(positive)},
            "interaction": {"name": interaction, "coupling_strength": draw(
                st.sampled_from(FLOAT_MENU + [NEAR_OVERFLOW]))},
            "coupling": draw(real),
            "policy": draw(st.sampled_from(["shirokov", "weidlich"])),
            "order": draw(st.integers(1, 3)),
        },
        "numerics": {"per_mode_cutoff": draw(st.integers(1, 3)),
                     "total_cutoff": draw(st.integers(1, 3 if dim == 1 else 2)),
                     "lambdas": draw(st.lists(real, max_size=4)),
                     "time_horizon": draw(positive)},
        "checks": {
            "equal_time": {"enabled": draw(st.booleans()),
                           "times": draw(st.lists(real, max_size=2)),
                           "lambdas": draw(st.lists(real, max_size=2))},
            "spacelike": {"enabled": draw(st.booleans()),
                          "grid": draw(st.lists(st.tuples(site, site, real).map(list),
                                                max_size=2)),
                          "lambdas": draw(st.lists(real, min_size=1, max_size=3))},
        },
        "output": {"formats": ["json", "csv"]},
    }
    # no species list (the interaction's defaults), or the interaction's own
    # species count, or now and then the other count, which the model build
    # rejects
    fits = len(VERTICES[interaction].species)
    count = draw(st.sampled_from([0] + [fits] * 6 + [3 - fits]))
    if count:
        names = ["phi"] if count == 1 else ["N", "phi"]
        doc["model"]["species"] = [{"name": n, "mass": draw(positive)} for n in names]
    return doc, draw(st.sampled_from(["dress", "verify", "scan", "all"]))


def _spacelike_scan_case(time_horizon):
    """A 1-D phi3 scan on 5 sites of spacing 0.5 whose one grid point is
    spacelike (separation 1.0, tau 0.3), within the horizon of
    time_horizon * spacing or beyond it: the drawn cases seldom reach the
    spacelike scan with such a point."""
    doc = {
        "model": {
            "lattice": {"dim": 1, "sites_per_dim": 5, "physical_length": 2.5},
            "interaction": {"name": "phi3", "coupling_strength": 1.0},
            "coupling": 1.0, "policy": "shirokov", "order": 2,
        },
        "numerics": {"per_mode_cutoff": 2, "total_cutoff": 2, "lambdas": [],
                     "time_horizon": time_horizon},
        "checks": {
            "equal_time": {"enabled": False, "times": [], "lambdas": []},
            "spacelike": {"enabled": True, "grid": [[[0], [2], 0.3]],
                          "lambdas": [0.02, 0.3]},
        },
        "output": {"formats": ["json", "csv"]},
    }
    return doc, "scan"


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(_small_configs())
@example(_spacelike_scan_case(2.5))     # scanned: tau within the horizon 1.25
@example(_spacelike_scan_case(0.3))     # a setup failure: beyond the horizon 0.15
def test_cli_contract_holds_on_small_configs(case):
    # exit 0, 1 or 2 and no exception; exit 0 or 1 leaves a report that is
    # valid JSON, with no NaN or Infinity in it
    doc, command = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.yaml"
        path.write_text(yaml.safe_dump(doc))
        code = main(["--config", str(path), "--command", command,
                     "--out-dir", str(Path(tmp) / "out")])
        assert code in (0, 1, 2)
        if code != 2:
            _read_report(Path(tmp) / "out" / "report.json")


def test_golden_dress_report(tmp_path):
    # digest of the shipped example's dress report, which a refactor must keep;
    # dressing is pure-Python float arithmetic, so it does not depend on BLAS
    code = main(["--config", str(REPO_ROOT / "configs" / "phi3.yaml"),
                 "--command", "dress", "--out-dir", str(tmp_path)])
    assert code == 0
    digest = hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest()
    assert digest == "8d69982e3a9900957cc660b54860f799dd5d04a3909357bd2c9ce276333d337e"


def test_unknown_command_rejected():
    with pytest.raises(ValueError, match="unknown command"):
        run(parse_config(""), "meditate", ".")


# ---------------------------------------------------------------------------
# command-line entry point


def test_cli_missing_config_file(tmp_path, capsys):
    code = main(["--config", str(tmp_path / "nope.yaml"), "--command", "dress"])
    assert code == 2
    assert "not found" in capsys.readouterr().err


def test_cli_config_error(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("model:\n  policy: frobnicate\n")
    code = main(["--config", str(path), "--command", "dress"])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_cli_non_finite_number(tmp_path, capsys):
    path = tmp_path / "nan.yaml"
    path.write_text("model:\n  coupling: .nan\n")
    code = main(["--config", str(path), "--command", "dress",
                 "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert "model.coupling" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _config_directory(tmp_path):
    (tmp_path / "configs").mkdir()
    return tmp_path / "configs", tmp_path / "out"


def _config_not_utf8(tmp_path):
    path = tmp_path / "latin1.yaml"
    path.write_bytes("model:\n  interaction: {name: ph\xef3}\n".encode("latin-1"))
    return path, tmp_path / "out"


def _out_dir_a_file(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(FAST_YAML)
    (tmp_path / "out").write_text("kept\n")
    return path, tmp_path / "out"


@pytest.mark.parametrize("paths, message", [
    (_config_directory, "Is a directory"),
    (_config_not_utf8, "is not UTF-8 text: invalid continuation byte"),
    (_out_dir_a_file, "File exists"),
], ids=["config-directory", "config-not-utf8", "out-dir-a-file"])
def test_cli_unusable_path_exits_two(tmp_path, capsys, paths, message):
    # one stderr line, no stage run, no report, and tmp_path as it was
    config, out_dir = paths(tmp_path)
    before = {p: p.read_bytes() if p.is_file() else None for p in tmp_path.rglob("*")}
    code = main(["--config", str(config), "--command", "dress",
                 "--out-dir", str(out_dir)])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and message in err[0]
    assert {p: p.read_bytes() if p.is_file() else None
            for p in tmp_path.rglob("*")} == before


# pieces of YAML syntax, config keys and characters that libyaml and the
# schema treat specially, for drawing config-like text
_YAML_PIECES = ["model", "order", "lattice", "numerics", "lambdas", "checks", "output",
                ":", ": ", " ", "  ", "\t", "\n", "\r\n", "- ", "[", "]", "{", "}", ",",
                "'", '"', "\\", "&a ", "*a", "!!str ", "!!binary ", "!!python/tuple ",
                "!x ", "%YAML 1.1", "%TAG", "---", "...", "? ", "|", ">", "#", "@", "`",
                "1", "-0.5", "1e3", ".inf", ".nan", "0x1F", "null", "~", "true", "no",
                "2001-01-01", "<<", "=", "\x00", "\x85", " ", "﻿", "\x1c",
                "é", "\udcff"]


@settings(max_examples=1000, deadline=None, derandomize=True)
@example(b"%.:\t*")                    # libyaml's error spans four lines
@example(b'checks: {"a\\nb": 1}')       # an unknown key with a line break
@given(st.one_of(
    st.binary(max_size=48),
    st.lists(st.sampled_from(_YAML_PIECES), max_size=16).map(
        lambda pieces: "".join(pieces).encode("utf-8", "surrogateescape"))))
def test_cli_random_config_exits_two_with_one_line(data):
    # any config file the loader refuses gets exit 2 and one stderr line,
    # runs no stage, writes no report and leaves the out-dir unmade; a draw
    # that happens to be a valid config (an empty one, say) is out of scope
    try:
        parse_config(data.decode("utf-8"))
    except (ConfigError, UnicodeDecodeError):
        pass
    else:
        assume(False)
    with tempfile.TemporaryDirectory() as tmp:
        config, out_dir = Path(tmp) / "run.yaml", Path(tmp) / "out"
        config.write_bytes(data)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["--config", str(config), "--command", "dress",
                         "--out-dir", str(out_dir)])
        assert code == 2
        assert len(err.getvalue().splitlines()) == 1
        assert err.getvalue().startswith("config error: ")
        assert sorted(p.name for p in Path(tmp).iterdir()) == ["run.yaml"]


def test_cli_bad_arguments():
    assert main(["--command", "dress"]) == 2


@pytest.mark.parametrize("argv, message", [
    (["--command", "dress"], "the following arguments are required: --config"),
    (["--config", "c.yaml", "--command", "fit"], "argument --command: invalid choice"),
    (["--config", "c.yaml", "--command", "dress", "--bogus"], "unrecognized arguments: --bogus"),
    (["--config", "c.yaml", "--command", "dress", "a\nb"], "unrecognized arguments: a b"),
], ids=["missing", "choice", "unknown", "line-break"])
def test_cli_usage_error_is_one_line(capsys, argv, message):
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and message in err[0]


def test_cli_end_to_end(tmp_path, capsys):
    path = tmp_path / "run.yaml"
    path.write_text(FAST_YAML)
    code = main(["--config", str(path), "--command", "dress",
                 "--out-dir", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "report.json").exists()
    err = capsys.readouterr().err
    assert "exit 0" in err


YUKAWA_ORDER3_YAML = """
model:
  lattice: {sites_per_dim: 5, physical_length: 5.0}
  species: [{name: N, mass: 1.0}, {name: phi, mass: 0.5}]
  interaction: {name: scalar-yukawa}
  order: 3
output:
  formats: [json]
"""


def test_golden_dress_report_two_species_order3(tmp_path):
    # two species and order 3, where the generator's last order enters K
    path = tmp_path / "yukawa.yaml"
    path.write_text(YUKAWA_ORDER3_YAML)
    code = main(["--config", str(path), "--command", "dress",
                 "--out-dir", str(tmp_path / "out")])
    assert code == 0
    digest = hashlib.sha256((tmp_path / "out" / "report.json").read_bytes()).hexdigest()
    assert digest == "f0a8c3c7dac8f49efa111aab2c47755c171b2107340170bc6e027b9f9627842e"


PHI3_FULL_2D_YAML = """
model:
  lattice: {dim: 2, sites_per_dim: 3}
  interaction: {name: phi3-full}
  order: 2
output:
  formats: [json]
"""


def test_golden_dress_report_phi3_full_2d(tmp_path):
    # phi3-full sums six contributions into each signature, so the order of
    # summation shows in the bytes; on a 2-D lattice with umklapp terms
    path = tmp_path / "phi3_full_2d.yaml"
    path.write_text(PHI3_FULL_2D_YAML)
    code = main(["--config", str(path), "--command", "dress",
                 "--out-dir", str(tmp_path / "out")])
    assert code == 0
    digest = hashlib.sha256((tmp_path / "out" / "report.json").read_bytes()).hexdigest()
    assert digest == "ebd3fabfea06029286eb3435a63be07ef6bb273bb3fb3c4940811b89fdfcd2c4"


WEIDLICH_ORDER2_YAML = """
model:
  lattice: {sites_per_dim: 5, physical_length: 5.0}
  interaction: {name: phi3}
  policy: weidlich
  order: 2
output:
  formats: [json]
"""


def test_golden_zero_denominator_report(tmp_path):
    # the failure path: the elastic (2,2) signatures of the zero-denominator
    # failure, named by their modes, in the order the dressing met them
    path = tmp_path / "weidlich.yaml"
    path.write_text(WEIDLICH_ORDER2_YAML)
    code = main(["--config", str(path), "--command", "dress",
                 "--out-dir", str(tmp_path / "out")])
    assert code == 1
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["failures"][-1]["reason"] == "zero_denominator"
    digest = hashlib.sha256((tmp_path / "out" / "report.json").read_bytes()).hexdigest()
    assert digest == "ad0a693e1469a4e124699541c115ba30a56419cec28c3fe6595281565a7c3d3f"


GOLDEN_VERIFY_YAML = """
model:
  lattice: {sites_per_dim: 5, physical_length: 5.0}
  interaction: {name: phi3}
  order: 3
numerics: {per_mode_cutoff: 4, total_cutoff: 4}
output:
  formats: [json]
"""

# the default grid with 0 added, where residuals_at_zero_coupling runs
GOLDEN_VERIFY_ZERO_YAML = """
model:
  lattice: {sites_per_dim: 5, physical_length: 5.0}
  interaction: {name: phi3}
  order: 3
numerics:
  per_mode_cutoff: 4
  total_cutoff: 4
  lambdas: [0.0, 0.02, 0.04, 0.08, 0.16]
output:
  formats: [json]
"""

# a free model: every oracle difference and residual is on the zero floor,
# so both slope verdicts pass with got null
GOLDEN_VERIFY_FREE_YAML = """
model:
  lattice: {sites_per_dim: 3}
  interaction: {name: free}
numerics: {per_mode_cutoff: 3, total_cutoff: 3}
output:
  formats: [json]
"""

GOLDEN_SCAN_YAML = """
model:
  lattice: {sites_per_dim: 5, physical_length: 5.0}
  interaction: {name: phi3}
  order: 2
numerics: {per_mode_cutoff: 5, total_cutoff: 5}
checks:
  spacelike: {enabled: true}
output:
  formats: [json]
"""


GOLDEN_BOTH_SCANS_YAML = """
model:
  lattice: {sites_per_dim: 3, physical_length: 3.0}
  interaction: {name: phi3}
  order: 2
numerics: {per_mode_cutoff: 8, total_cutoff: 8}
checks:
  equal_time: {enabled: true, times: [0.0, 1.0]}
  spacelike: {enabled: true}
output:
  formats: [json, csv]
"""


GOLDEN_ORACLE_CASES = [
    ("verify", GOLDEN_VERIFY_YAML,
     "4e1a9105553ef88745d70bbef22a09c95e21d182610723b9f46f2b859f4cd7ae"),
    ("verify", GOLDEN_VERIFY_ZERO_YAML,
     "db65d0e75134cb55220148d6bb912bffe2674bee58ccacfad76183f1c3977fa4"),
    ("verify", GOLDEN_VERIFY_FREE_YAML,
     "b4d9fdcea662cec21f759e02e31836c441aeae1125fd928132996ac475405f7f"),
    ("scan", GOLDEN_SCAN_YAML,
     "e96dd7cd246739b2e9519c063748a343e19688ca94c9e25badf05a16eae798eb"),
    ("all", None,
     "837fcc151270c1a6183ce369a720b0a2ede98116fb73a5275321d16b81baddd5"),
    ("all", GOLDEN_BOTH_SCANS_YAML,
     "1e2aedc4725956caae72c0377207537e839e348d015244349e5acd523e788e7f"),
]


def _golden_run(tmp_path, command, text, pinned=True) -> str:
    """The digest of `python -m latticedress`'s report on `text`, or on the
    shipped configs/phi3.yaml for text None."""
    path = REPO_ROOT / "configs" / "phi3.yaml"
    if text is not None:
        path = tmp_path / "run.yaml"
        path.write_text(text)
    proc = run_python(["-m", "latticedress", "--config", str(path),
                       "--command", command, "--out-dir", str(tmp_path / "out")],
                      pinned=pinned)
    assert proc.returncode == 0, proc.stderr
    return hashlib.sha256((tmp_path / "out" / "report.json").read_bytes()).hexdigest()


@pytest.mark.parametrize("command, text, digest", GOLDEN_ORACLE_CASES)
def test_golden_oracle_report(tmp_path, command, text, digest):
    # the oracle's numbers go through BLAS, whose rounding depends on the
    # thread count (and on the BLAS build), so the run is pinned to one
    # thread; text None runs the shipped configs/phi3.yaml
    assert _golden_run(tmp_path, command, text) == digest


@pytest.mark.parametrize("command, text, digest", GOLDEN_ORACLE_CASES)
def test_golden_oracle_report_without_thread_variables(tmp_path, command, text, digest):
    # a shell that sets no thread count: the command line sets one BLAS
    # thread before numpy loads, so the report keeps the golden bytes
    assert _golden_run(tmp_path, command, text, pinned=False) == digest


FORCED_CORES_SCRIPT = """
import sys
from latticedress import checks, cli

checks._usable_cores = lambda: int(sys.argv[1])
sys.exit(cli.main(sys.argv[2:]))
"""


@pytest.mark.parametrize("command, text", [("scan", GOLDEN_SCAN_YAML),
                                           ("all", GOLDEN_BOTH_SCANS_YAML),
                                           ("verify", GOLDEN_VERIFY_YAML)],
                         ids=["scan", "all", "verify"])
def test_report_bytes_do_not_depend_on_the_number_of_cores(tmp_path, command, text):
    # one usable core runs every coupling in this process; two and three
    # share the spacelike scan's couplings, and verify's, between it and one
    # or two worker processes; the report's bytes are the same, whatever
    # the BLAS build
    path = tmp_path / "run.yaml"
    path.write_text(text)
    reports = []
    for cores in ("1", "2", "3"):
        out = tmp_path / f"cores{cores}"
        proc = run_python(["-c", FORCED_CORES_SCRIPT, cores, "--config", str(path),
                           "--command", command, "--out-dir", str(out)])
        assert proc.returncode == 0, proc.stderr
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1] == reports[2]


def test_ci_scan_config_is_the_golden_scan():
    # the workflow compares this config's report on one core, on two and on all
    assert load_config(str(REPO_ROOT / "configs" / "phi3-scan.yaml")) == \
        parse_config(GOLDEN_SCAN_YAML)


HASH_SEED_YAML = """
model:
  lattice: {sites_per_dim: 3}
  interaction: {name: scalar-yukawa}
  order: 3
numerics: {per_mode_cutoff: 3, total_cutoff: 3}
"""


def test_report_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    # each interpreter salts its string hashes, which orders sets and
    # dicts of strings, such as species names; two species, so that the
    # order of their names could reach the report
    path = tmp_path / "run.yaml"
    path.write_text(HASH_SEED_YAML)
    reports = []
    for seed in ("1", "977"):
        out = tmp_path / f"seed{seed}"
        proc = run_python(["-m", "latticedress", "--config", str(path),
                            "--command", "all", "--out-dir", str(out)],
                           PYTHONHASHSEED=seed)
        assert proc.returncode == 0, proc.stderr
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]


def test_python_dash_m_entry_point():
    proc = run_python(["-m", "latticedress", "--help"])
    assert proc.returncode == 0, proc.stderr
    assert "--command" in proc.stdout


# the symbolic path in a fresh interpreter: every step but the last must
# leave numpy and scipy unloaded
IMPORT_GUARD_SCRIPT = """
import json, sys
from latticedress import FockBasis
from latticedress.cli import main

good, bad, out = sys.argv[1:]
steps = [("dress", main(["--config", good, "--command", "dress", "--out-dir", out]))]
steps.append(("schema error", main(["--config", bad, "--command", "dress"])))
steps.append(("help", main(["--help"])))
loaded = [sorted(m for m in ("numpy", "scipy") if m in sys.modules)]
steps.append(("verify", main(["--config", good, "--command", "verify", "--out-dir", out])))
loaded.append(sorted(m for m in ("numpy", "scipy") if m in sys.modules))
print(json.dumps({"steps": steps, "loaded": loaded, "basis": FockBasis.__name__}))
"""


def test_symbolic_path_loads_no_numerical_stack(tmp_path):
    good, bad = tmp_path / "run.yaml", tmp_path / "bad.yaml"
    good.write_text(FAST_YAML)
    bad.write_text("model:\n  policy: frobnicate\n")
    proc = run_python(["-c", IMPORT_GUARD_SCRIPT, str(good), str(bad),
                        str(tmp_path / "out")])
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["steps"] == [["dress", 0], ["schema error", 2], ["help", 0],
                            ["verify", 0]]
    assert got["loaded"] == [[], ["numpy", "scipy"]]
    assert got["basis"] == "FockBasis"


def test_importing_the_command_line_loads_no_process_pool():
    # the scans import multiprocessing when they run, not before
    proc = run_python(["-c", "import json, sys, latticedress.cli; print(json.dumps("
                       "[m for m in ('multiprocessing', 'concurrent.futures') "
                       "if m in sys.modules]))"])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_thread_variables_are_the_benchmarks():
    # the command line sets the thread counts that perfbench pins
    sys.path.insert(0, str(REPO_ROOT / "perfbench"))
    try:
        import run as perfbench_run
    finally:
        sys.path.pop(0)
    assert cli._THREAD_VARIABLES == perfbench_run.PINNED_THREADS


# ---------------------------------------------------------------------------
# the YAML reader: libyaml's CSafeLoader where PyYAML has it, SafeLoader else


def _perfbench_config_texts(seeds):
    """The config files perfbench writes for every workload at these seeds."""
    sys.path.insert(0, str(REPO_ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return [yaml.safe_dump(doc, sort_keys=False) for w in workloads.WORKLOADS.values()
            for seed in seeds for doc in workloads.generate(w, seed)]


def _outcome(text):
    """The RunConfig and its echo, or the ConfigError's message."""
    try:
        cfg = parse_config(text)
    except ConfigError as exc:
        return str(exc)
    return cfg, cfg.echo()


def _without_libyaml(monkeypatch, read):
    with monkeypatch.context() as m:
        m.delattr(yaml, "CSafeLoader", raising=False)
        return read()


def test_both_yaml_loaders_give_the_same_configs(monkeypatch):
    # the same constructor and resolver build the document under either
    # parser: every shipped, tested and benchmarked config parses alike
    texts = [(REPO_ROOT / "configs" / "phi3.yaml").read_text()]
    texts += [v for k, v in globals().items() if k.endswith("_YAML")]
    texts += [VERIFY_S3 % "[0.02, 0.04]"]
    texts += _perfbench_config_texts(range(1, 6))
    assert len(texts) >= 121
    for text in texts:
        got = _outcome(text)
        assert isinstance(got, tuple)
        assert _without_libyaml(monkeypatch, lambda: _outcome(text)) == got
    # and every schema violation is reported alike; a YAML syntax error is
    # worded by each parser in its own way
    for text, _ in SCHEMA_VIOLATIONS:
        got = _outcome(text)
        other = _without_libyaml(monkeypatch, lambda: _outcome(text))
        if got.startswith("not valid YAML: "):
            assert other.startswith("not valid YAML: ")
        else:
            assert other == got


@pytest.mark.parametrize("text", ["{{{", "model: [1, 2", "model:\n  order: 2\n order: 3",
                                  "model:\n\torder: 2", "a: b: c", "'unterminated"])
def test_malformed_yaml_is_a_config_error_under_both_loaders(monkeypatch, text):
    for read in (lambda f: f(), lambda f: _without_libyaml(monkeypatch, f)):
        with pytest.raises(ConfigError, match="^not valid YAML: ") as exc:
            read(lambda: parse_config(text))
        assert isinstance(exc.value.__cause__, yaml.YAMLError)


def test_config_is_read_by_libyaml_when_present(monkeypatch):
    # a PyYAML built without libyaml has no CSafeLoader: SafeLoader reads it
    used = []
    load = yaml.load

    def recorded(stream, Loader):
        used.append(Loader)
        return load(stream, Loader=Loader)

    monkeypatch.setattr(yaml, "load", recorded)
    fast = parse_config(FAST_YAML)
    slow = _without_libyaml(monkeypatch, lambda: parse_config(FAST_YAML))
    assert used == [getattr(yaml, "CSafeLoader", yaml.SafeLoader), yaml.SafeLoader]
    assert slow == fast
