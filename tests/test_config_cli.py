import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from latticedress.cli import NONFINITE_FAILURE, main, model_from_config, run
from latticedress.config import ConfigError, load_config, parse_config

from conftest import REPO_ROOT, phi3_config

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


@pytest.mark.parametrize("text, fragment", [
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
    ("model:\n  coupling: 1.0e300", "got '1.0e300' (YAML reads it as a string; "
     "write 1.0e+300)"),
    ("numerics:\n  lambdas: [0.1, 2e-2]", "numerics.lambdas[1]: expected float, "
     "got '2e-2' (YAML reads it as a string; write 0.02)"),
])
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
    # a tiny mass divides by zero while the model is built; the reason names the step
    ("model:\n  species: [{name: phi, mass: 1.0e-300}]\n", "dress",
     "model build: float division by zero"),
])
def test_setup_failure_exits_one_with_report(tmp_path, text, command, prefix):
    assert run(parse_config(text), command, tmp_path) == 1
    report = json.loads((tmp_path / "report.json").read_text())
    (failure,) = report["failures"]
    assert failure["check"] == "setup"
    assert failure["reason"].startswith(prefix)


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


def _reject_constant(name):
    raise ValueError(f"{name} in the report")


def _read_report(path):
    """The report, refusing NaN and Infinity, which are not JSON."""
    return json.loads(path.read_text(), parse_constant=_reject_constant)


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
    # exp(-R) is finite but exp(+R) is NaN, and so is the dressed field
    (parse_config("model:\n  lattice: {sites_per_dim: 3, physical_length: 1.0e+10}\n"
                  "  interaction: {name: phi3-full, coupling_strength: 1.0e+10}\n"
                  "  coupling: -0.5\n  order: 3\n  species: [{name: phi, mass: 0.02}]\n"
                  "numerics: {per_mode_cutoff: 2, total_cutoff: 2}\n"
                  "checks:\n  equal_time: {enabled: true, times: [0.0], lambdas: [0.02]}\n"),
     "scan", ["no_bad_terms"], "a matrix restricted to the low-quanta block is not finite"),
], ids=["numerics.lambdas", "coupling_strength", "residuals", "matrix", "field"])
def test_non_finite_oracle_is_a_setup_failure(tmp_path, cfg, command, verdicts, reason):
    assert run(cfg, command, tmp_path) == 1
    report = _read_report(tmp_path / "report.json")
    assert [v["check"] for v in report["verdicts"]] == verdicts
    assert all(v["pass"] for v in report["verdicts"])
    failure, *rest = report["failures"]
    assert failure["check"] == "setup"
    assert failure["reason"].startswith(reason)
    assert rest in ([], [NONFINITE_FAILURE])


def test_non_finite_number_in_the_report_fails_the_run(tmp_path):
    # a tiny lattice makes the momenta, and so the mode energies, overflow
    assert run(phi3_config({"model.lattice.physical_length": 1.0e-300}), "dress",
               tmp_path) == 1
    text = (tmp_path / "report.json").read_text()
    report = _read_report(tmp_path / "report.json")
    assert report["failures"][-1] == NONFINITE_FAILURE
    assert ": null" in text


def test_repeated_coupling_fits_no_slope(tmp_path):
    text = FAST_YAML.replace("[0.02, 0.04, 0.08, 0.16]", "[1.0, 1.0]")
    assert run(parse_config(text), "verify", tmp_path) == 1
    report = _read_report(tmp_path / "report.json")
    assert report["verify"]["oracle"]["slope"] is None
    assert report["verify"]["residuals"]["vacuum_slope"] is None


# a menu of floats, extremes included; keys that must be positive draw from
# its positive part
FLOAT_MENU = [-0.5, 0.0, 1.0e-300, 0.02, 0.3, 1.0, 2.5, 1.0e+10, 1.0e+300]
POSITIVE_MENU = [x for x in FLOAT_MENU if x > 0]


@st.composite
def _small_configs(draw):
    """A config document that passes the schema, and a command.  A 2-D
    lattice has 1 or 3 sites per dimension and a total cutoff of at most 2,
    which keeps its basis small."""
    real = st.sampled_from(FLOAT_MENU)
    positive = st.sampled_from(POSITIVE_MENU)
    dim = draw(st.sampled_from([1, 2]))
    doc = {
        "model": {
            "lattice": {"dim": dim,
                        "sites_per_dim": draw(st.sampled_from([1, 3, 5] if dim == 1 else [1, 3])),
                        "physical_length": draw(positive)},
            "interaction": {"name": draw(st.sampled_from(
                                ["phi3", "phi3-full", "scalar-yukawa", "free"])),
                            "coupling_strength": draw(real)},
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
                          "lambdas": draw(st.lists(real, min_size=1, max_size=3))},
        },
        "output": {"formats": ["json", "csv"]},
    }
    if draw(st.booleans()):
        names = draw(st.sampled_from([["phi"], ["N", "phi"]]))
        doc["model"]["species"] = [{"name": n, "mass": draw(positive)} for n in names]
    return doc, draw(st.sampled_from(["dress", "verify", "scan", "all"]))


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(_small_configs())
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


def test_cli_bad_arguments():
    assert main(["--command", "dress"]) == 2


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


GOLDEN_VERIFY_YAML = """
model:
  lattice: {sites_per_dim: 5, physical_length: 5.0}
  interaction: {name: phi3}
  order: 3
numerics: {per_mode_cutoff: 4, total_cutoff: 4}
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


def _run_module(args):
    """`python -m latticedress` in a fresh interpreter with one BLAS thread."""
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [
                   str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-m", "latticedress", *args], env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("command, text, digest", [
    ("verify", GOLDEN_VERIFY_YAML,
     "4e1a9105553ef88745d70bbef22a09c95e21d182610723b9f46f2b859f4cd7ae"),
    ("scan", GOLDEN_SCAN_YAML,
     "e96dd7cd246739b2e9519c063748a343e19688ca94c9e25badf05a16eae798eb"),
])
def test_golden_oracle_report(tmp_path, command, text, digest):
    # the oracle's numbers go through BLAS, whose rounding depends on the
    # thread count (and on the BLAS build), so the run is pinned to one thread
    path = tmp_path / "run.yaml"
    path.write_text(text)
    proc = _run_module(["--config", str(path), "--command", command,
                        "--out-dir", str(tmp_path / "out")])
    assert proc.returncode == 0, proc.stderr
    got = hashlib.sha256((tmp_path / "out" / "report.json").read_bytes()).hexdigest()
    assert got == digest


def test_python_dash_m_entry_point():
    proc = _run_module(["--help"])
    assert proc.returncode == 0, proc.stderr
    assert "--command" in proc.stdout
