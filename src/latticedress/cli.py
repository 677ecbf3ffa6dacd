"""Pipeline orchestration and machine-readable reporting.

Commands:
  dress   build the generators and the transformed Hamiltonian, emit tables
  verify  oracle equivalence, eigenstate residual slopes, momentum commutation
  scan    equal-time and spacelike field-commutator scans
  all     dress + verify + scan

Exit codes: 0 all enabled checks pass, 1 a check failed, the dressing hit
a zero denominator, a setup step failed or the report holds a non-finite
number (written as null), 2 usage or configuration error.  Exit 0 or 1
writes the report; a setup failure keeps the verdicts computed before it.

The JSON report is byte-stable for identical inputs and package version;
wall-clock timing goes to stderr, not into the report.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
import time
from json.encoder import encode_basestring_ascii as _encode_str
from pathlib import Path

from . import __version__
from .algebra import bad_part, series_rows, signature_json, term_rows
from .checks import (
    ScanError,
    _loglog_slope,
    eigenstate_residuals,
    equal_time_scan,
    momentum_commutation_defect,
    spacelike_scan,
)
from .config import ConfigError, RunConfig, load_config
from .dressing import ZeroDenominatorError, dress, residual_bad_norm
from .models import VERTICES, FieldSpecies, ModelError, ModelSpec, build_model
from .modes import LatticeSpec
from .numerics import (
    BasisError,
    FockBasis,
    conjugate_numeric,
    matrix_of,
    restricted_norm,
)

SCHEMA_VERSION = 1
COMMANDS = ("dress", "verify", "scan", "all")
NONFINITE_FAILURE = {"check": "report", "reason": "non-finite number in the report"}


def _finite(x):
    if x is None or (isinstance(x, float) and not math.isfinite(x)):
        return None
    return x


def model_from_config(cfg: RunConfig) -> ModelSpec:
    lattice = LatticeSpec(dim=cfg.dim, sites_per_dim=cfg.sites_per_dim,
                          physical_length=cfg.physical_length)
    species = None
    if cfg.species is not None:
        species = [FieldSpecies(s.name, s.mass) for s in cfg.species]
    try:
        return build_model(
            cfg.interaction,
            lattice=lattice,
            species=species,
            g=cfg.coupling_strength,
            coupling=cfg.coupling,
            max_order=cfg.order,
            policy=cfg.policy,
        )
    except ArithmeticError as exc:
        raise ArithmeticError(f"model build: {exc}") from exc


def _basis_from_config(model: ModelSpec, cfg: RunConfig) -> FockBasis:
    return FockBasis(model.system, cfg.per_mode_cutoff, cfg.total_cutoff,
                     dimension_limit=cfg.dimension_limit)


def _verdict(check, expected, got, tolerance, ok):
    return {
        "check": check,
        "expected": _finite(expected),
        "got": _finite(got),
        "tolerance": _finite(tolerance),
        "pass": bool(ok),
    }


def _slope_ok(slope, target, tol):
    return slope is not None and abs(slope - target) <= tol


def run_dress(model: ModelSpec, cfg: RunConfig, report: dict):
    """Dress the model, write the `dressing` section and its verdict; return
    the dressing result."""
    result = dress(model)
    report["dressing"] = {
        "policy": model.policy,
        "order": model.max_order,
        "min_denominator": _finite(result.min_denominator),
        "near_resonances": [
            {"order": d["order"], "signature": signature_json(d["signature"]),
             "denominator": d["denominator"]}
            for d in result.diagnostics
        ],
        "K": series_rows(result.K),
        "generators": [series_rows(r) for r in result.generators],
        "removed": [
            term_rows(terms, order=n + 1)
            for n, terms in enumerate(result.removed)
        ],
        "bad_terms_left": series_rows(bad_part(result.K)),
        "vacuum_energy_order2": _coeff_json(
            result.vacuum_energy_coefficient(2) if model.max_order >= 2 else 0j),
        "umklapp_count": len(model.umklapp_signatures),
    }
    if model.max_order >= 2 and model.name in VERTICES and VERTICES[model.name].legs:
        from .dressing import extract_energy_correction
        table = []
        for m in model.system.modes:
            table.append({
                "species": m.species, "k": list(m.k),
                "delta": extract_energy_correction(result, m.species, m.k),
            })
        report["dressing"]["energy_corrections"] = table

    if model.policy == "shirokov":
        left = residual_bad_norm(result)
        report["verdicts"].append(
            _verdict("no_bad_terms", 0.0, left, 1e-10, left <= 1e-10))
    return result


def _coeff_json(c):
    return {"re": c.real, "im": c.imag}


def run_verify(model: ModelSpec, cfg: RunConfig, report: dict, result) -> None:
    """Oracle, residual and momentum checks; each verdict goes into the report
    as soon as it is computed, so a later setup failure keeps it."""
    verdicts = report["verdicts"]
    n = model.max_order

    momentum = cfg.checks["momentum"]
    if momentum.enabled:
        tol = momentum.params["tolerance"]
        defect = momentum_commutation_defect(result.K, model)
        verdicts.append(_verdict("momentum_commutation", 0.0, defect, tol,
                                 defect <= tol))

    basis = _basis_from_config(model, cfg)
    report["verify"] = {"basis_dimension": basis.dimension}

    oracle = cfg.checks["oracle"]
    if oracle.enabled:
        block = oracle.params["block"]
        tol = oracle.params["slope_tolerance"]
        lams = [l for l in cfg.lambdas if l > 0]
        diffs = []
        for lam in lams:
            mh = matrix_of(model.hamiltonian(), basis, lam)
            mr = matrix_of(result.generator, basis, lam)
            mk = matrix_of(result.K, basis, lam).toarray()
            conj = conjugate_numeric(mr, mh)
            diffs.append(restricted_norm(conj - mk, basis, block))
        slope = _loglog_slope(lams, diffs)
        report["verify"]["oracle"] = {
            "lambdas": lams, "differences": diffs, "slope": _finite(slope),
        }
        verdicts.append(_verdict("oracle_equivalence_slope", n + 1, slope, tol,
                                 _slope_ok(slope, n + 1, tol) or all(
                                     d < 1e-12 for d in diffs)))

    residuals = cfg.checks["residuals"]
    if residuals.enabled:
        tol = residuals.params["slope_tolerance"]
        rep = eigenstate_residuals(model, basis, result, cfg.lambdas)
        report["verify"]["residuals"] = {
            "rows": rep.rows(),
            "vacuum_slope": _finite(rep.vacuum_slope),
            "one_particle_slopes": {
                repr(m): _finite(s) for m, s in sorted(rep.one_particle_slopes.items())
            },
            "cutoff_sensitive": rep.cutoff_sensitive,
        }
        slopes = rep.all_slopes()
        all_floor = all(v <= rep.zero_floor for v in rep.vacuum) and all(
            v <= rep.zero_floor for r in rep.one_particle.values() for v in r)
        ok = all_floor or (
            bool(slopes) and all(abs(s - (n + 1)) <= tol for s in slopes))
        got = min(slopes, default=None)
        verdicts.append(_verdict("residual_slopes", n + 1, got, tol, ok))
        if 0.0 in cfg.lambdas:
            i = cfg.lambdas.index(0.0)
            worst0 = max([rep.vacuum[i]] + [r[i] for r in rep.one_particle.values()])
            verdicts.append(_verdict("residuals_at_zero_coupling", 0.0, worst0,
                                     1e-12, worst0 < 1e-12))


def run_scan(model: ModelSpec, cfg: RunConfig, report: dict, result) -> None:
    """Equal-time and spacelike scans; verdicts go into the report as computed."""
    verdicts = report["verdicts"]
    basis = _basis_from_config(model, cfg)
    report.setdefault("scan", {})

    et = cfg.checks["equal_time"]
    if et.enabled:
        sites = model.system.lattice.sites()
        pairs = [(a, b) for i, a in enumerate(sites) for b in sites[i + 1:]]
        rep = equal_time_scan(model, basis, result,
                              times=et.params["times"],
                              lambdas=et.params["lambdas"],
                              site_pairs=pairs,
                              block=et.params["block"],
                              horizon_units=cfg.time_horizon)
        worst = max((p.magnitude for p in rep.points), default=0.0)
        tol = et.params["tolerance"]
        report["scan"]["equal_time"] = {"rows": rep.rows(), "max_magnitude": worst}
        verdicts.append(_verdict("equal_time_locality", 0.0, worst, tol, worst < tol))

    sl = cfg.checks["spacelike"]
    if sl.enabled:
        grid = [tuple(g) for g in sl.params["grid"]]
        if not grid:
            grid = [_default_spacelike_point(model)]
        rep = spacelike_scan(model, basis, result,
                             lambdas=sl.params["lambdas"], grid=grid,
                             block=sl.params["block"],
                             horizon_units=cfg.time_horizon)
        report["scan"]["spacelike"] = {
            "rows": rep.rows(),
            "slope": _finite(rep.slope),
            "noise_floor": rep.noise_floor,
        }
        target = sl.params["slope"]
        tol = sl.params["slope_tolerance"]
        lam_max = max(sl.params["lambdas"])
        signal = max((p.subtracted for p in rep.points
                      if p.spacelike and p.lam == lam_max), default=0.0)
        ok = _slope_ok(rep.slope, target, tol) and signal > 10.0 * rep.noise_floor
        verdicts.append(_verdict("spacelike_nonlocality_slope", target,
                                 rep.slope, tol, ok))


def _default_spacelike_point(model: ModelSpec):
    """x = origin, y = the most distant site, tau = one lattice spacing.

    Where the most distant site is only one spacing away (3 sites in 1-D),
    tau = half the separation, so that the point stays spacelike.
    """
    lat = model.system.lattice
    origin = (0,) * lat.dim
    far = max(lat.sites(), key=lambda s: lat.min_image_distance(origin, s))
    separation = lat.min_image_distance(origin, far)
    return (origin, far, lat.spacing if separation > lat.spacing else separation / 2)


def run(cfg: RunConfig, command: str, out_dir: str | Path = ".") -> int:
    """Execute a pipeline command; write report files; return the exit code."""
    if command not in COMMANDS:
        raise ValueError(f"unknown command {command!r}; expected one of {COMMANDS}")
    t0 = time.monotonic()
    report: dict = {
        "schema_version": SCHEMA_VERSION,
        "package_version": __version__,
        "command": command,
        "config": cfg.echo(),
        "verdicts": [],
    }
    failure = None
    try:
        model = model_from_config(cfg)
        result = run_dress(model, cfg, report)
        if command in ("verify", "all"):
            run_verify(model, cfg, report, result)
        if command in ("scan", "all"):
            run_scan(model, cfg, report, result)
    except ZeroDenominatorError as exc:
        failure = {
            "check": "dressing",
            "reason": "zero_denominator",
            "order": exc.order,
            "policy": exc.policy,
            "signatures": [
                {**signature_json(sig), "denominator": den}
                for sig, den in exc.signatures
            ],
        }
    except (BasisError, ModelError, ScanError, ArithmeticError) as exc:
        failure = {"check": "setup", "reason": str(exc)}
    # verdicts computed before a failure stay in the report
    report["failures"] = [{"check": v["check"], "reason": "tolerance"}
                          for v in report["verdicts"] if not v["pass"]]
    if failure is not None:
        report["failures"].append(failure)

    emit_report(report, out_dir, cfg.formats)
    exit_code = 1 if report["failures"] else 0
    print(f"[latticedress] {command}: exit {exit_code} "
          f"({time.monotonic() - t0:.2f}s)", file=sys.stderr)
    return exit_code


def report_json(obj) -> tuple[str, bool]:
    """(text, finite): the text of json.dumps(obj, indent=2, sort_keys=True),
    built in one join with the stdlib's own formatters, except that a
    non-finite float is written as null; `finite` says there was none.

    Types are tested in the order the stdlib's encoder tests them, so float
    subclasses such as numpy.float64 come out as floats.  A key that is not
    a string, or a value of any other type, raises TypeError.
    """
    chunks: list[str] = []
    nonfinite: list[float] = []
    _put_json(obj, "", "\n", chunks.append, nonfinite)
    return "".join(chunks), not nonfinite


def _put_json(o, head: str, newline: str, put, nonfinite: list) -> None:
    """put(head + the text of o); `newline` starts o's own line.  A module
    function, not a closure: a recursive closure is a reference cycle that
    would keep every chunk alive until the cyclic garbage collector runs."""
    if isinstance(o, str):
        put(head + _encode_str(o))
    elif o is None:
        put(head + "null")
    elif o is True:
        put(head + "true")
    elif o is False:
        put(head + "false")
    elif isinstance(o, int):
        put(head + int.__repr__(o))
    elif isinstance(o, float):
        if math.isfinite(o):
            put(head + float.__repr__(o))
        else:
            nonfinite.append(o)
            put(head + "null")
    elif isinstance(o, (list, tuple)):
        if not o:
            put(head + "[]")
            return
        inner = newline + "  "
        head += "[" + inner
        for item in o:
            _put_json(item, head, inner, put, nonfinite)
            head = "," + inner
        put(newline + "]")
    elif isinstance(o, dict):
        if not o:
            put(head + "{}")
            return
        inner = newline + "  "
        head += "{" + inner
        for key, item in sorted(o.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            _put_json(item, head + _encode_str(key) + ": ", inner, put, nonfinite)
            head = "," + inner
        put(newline + "}")
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def emit_report(report: dict, out_dir: str | Path, formats) -> list[Path]:
    """Write the report files; return their paths.

    A non-finite number in the report is written as null and first adds
    the failure NONFINITE_FAILURE to `report["failures"]`.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    text, finite = report_json(report)
    if not finite:
        report.setdefault("failures", []).append(dict(NONFINITE_FAILURE))
        text, _ = report_json(report)
    if "json" in formats:
        path = out_dir / "report.json"
        path.write_text(text + "\n", encoding="utf-8")
        written.append(path)
    if "csv" in formats:
        for kind in ("equal_time", "spacelike"):
            rows = report.get("scan", {}).get(kind, {}).get("rows")
            if not rows:
                continue
            path = out_dir / f"{kind}.csv"
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(["separation", "tau", "lambda", "magnitude",
                                 "baseline", "subtracted"])
                for r in rows:
                    writer.writerow([r["separation"], r["tau"], r["lambda"],
                                     r["magnitude"], r["baseline"], r["subtracted"]])
            written.append(path)
    return written


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="latticedress",
        description="Dressing transformation engine on a finite momentum lattice",
    )
    parser.add_argument("--config", required=True, help="path to the YAML config")
    parser.add_argument("--command", required=True, choices=COMMANDS)
    parser.add_argument("--out-dir", default=".", help="report output directory")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = load_config(args.config)
    except FileNotFoundError:
        print(f"config file not found: {args.config}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return run(cfg, args.command, args.out_dir)


if __name__ == "__main__":
    sys.exit(main())
