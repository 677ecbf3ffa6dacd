"""Pipeline orchestration and machine-readable reporting.

Commands:
  dress   build the generators and the transformed Hamiltonian, emit tables
  verify  oracle equivalence, eigenstate residual slopes, momentum commutation
  scan    equal-time and spacelike field-commutator scans
  all     dress + verify + scan

Exit codes: 0 all enabled checks pass, 1 a check failed, the dressing hit
a zero denominator, a setup step failed or ran out of memory, or the report
holds a non-finite number (written as null), 2 usage or configuration
error.  Exit 0 or 1 writes the report; a setup failure keeps the verdicts
computed before it.

The JSON report is byte-stable for identical inputs and package version;
wall-clock timing goes to stderr, not into the report.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
import time
from json.encoder import encode_basestring_ascii as _encode_str
from pathlib import Path

from . import __version__
from .algebra import TermMap, bad_part, signature_json
# eigenstate_residuals, conjugate_numeric and restricted_norm are not called
# here: perfbench's layer hooks look them up where this module imports them
from .checks import (
    ZERO_FLOOR,
    ScanError,
    eigenstate_residuals,
    equal_time_scan,
    fall_off,
    momentum_commutation_defect,
    spacelike_scan,
    verify_pass,
)
from .config import ConfigError, RunConfig, load_config
from .dressing import ZeroDenominatorError, dress, extract_energy_correction
from .models import VERTICES, ModelError, ModelSpec, build_model
from .modes import LatticeSpec
from .numerics import (
    BasisError,
    CouplingMatrices,
    FockBasis,
    conjugate_numeric,
    restricted_norm,
)

# the BLAS and OpenMP thread counts, set to 1 by `main` unless the user set them
_THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SCHEMA_VERSION = 1
COMMANDS = ("dress", "verify", "scan", "all")
NONFINITE_FAILURE = {"check": "report", "reason": "non-finite number in the report"}
BAD_TERMS_TOL = 1e-10   # the norm of the bad terms the shirokov policy may leave


def _finite(x):
    if x is None or (isinstance(x, float) and not math.isfinite(x)):
        return None
    return x


def model_from_config(cfg: RunConfig) -> ModelSpec:
    lattice = LatticeSpec(dim=cfg.dim, sites_per_dim=cfg.sites_per_dim,
                          physical_length=cfg.physical_length)
    try:
        return build_model(
            cfg.interaction,
            lattice=lattice,
            species=cfg.species,
            g=cfg.coupling_strength,
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


def run_dress(model: ModelSpec, report: dict):
    """Dress the model, write the `dressing` section and its verdict; return
    the dressing result."""
    result = dress(model)
    bad = bad_part(result.K)
    report["dressing"] = {
        "policy": model.policy,
        "order": model.max_order,
        "min_denominator": _finite(result.min_denominator),
        "near_resonances": [
            {"order": d["order"], "signature": signature_json(d["signature"]),
             "denominator": d["denominator"]}
            for d in result.diagnostics
        ],
        "K": TermTable.of_series(result.K),
        "generators": [TermTable.of_series(r) for r in result.generators],
        "removed": [
            TermTable([(n + 1, terms)]) for n, terms in enumerate(result.removed)
        ],
        "bad_terms_left": TermTable.of_series(bad),
        "vacuum_energy_order2": _coeff_json(
            result.vacuum_energy_coefficient(2) if model.max_order >= 2 else 0j),
        "umklapp_count": len(model.umklapp_signatures),
    }
    if model.max_order >= 2 and model.name in VERTICES and VERTICES[model.name].legs:
        report["dressing"]["energy_corrections"] = [
            {"species": m.species, "k": list(m.k),
             "delta": extract_energy_correction(result, m.species, m.k)}
            for m in model.system.modes]

    if model.policy == "shirokov":
        left = bad.max_abs()
        report["verdicts"].append(
            _verdict("no_bad_terms", 0.0, left, BAD_TERMS_TOL, left <= BAD_TERMS_TOL))
    return result


def _coeff_json(c):
    return {"re": c.real, "im": c.imag}


def run_verify(cfg: RunConfig, report: dict, result) -> CouplingMatrices:
    """Oracle, residual and momentum checks of a dressing result; each verdict
    goes into the report as soon as it is computed, so a later setup failure
    keeps it.  Returns the result's `CouplingMatrices` in the config's basis.

    The oracle and the residuals come from one `checks.verify_pass` over the
    couplings, which may run some of them in worker processes.  The oracle's
    first failing coupling, in the order of its positive couplings, raises
    before the oracle verdict is written, and the residuals' first, in the
    order of `cfg.lambdas`, after it: what running the oracle over every
    coupling, then the residuals, raises."""
    model = result.model
    verdicts = report["verdicts"]
    n = model.max_order

    momentum = cfg.checks["momentum"]
    if momentum.enabled:
        tol = momentum.params["tolerance"]
        defect = momentum_commutation_defect(result.K, model)
        verdicts.append(_verdict("momentum_commutation", 0.0, defect, tol,
                                 defect <= tol))

    basis = _basis_from_config(model, cfg)
    matrices = CouplingMatrices(result, basis)
    report["verify"] = {"basis_dimension": basis.dimension}

    oracle, residuals = cfg.checks["oracle"], cfg.checks["residuals"]
    checked = verify_pass(matrices, cfg.lambdas,
                          oracle.params["block"] if oracle.enabled else None,
                          residuals.enabled)
    if oracle.enabled:
        tol = oracle.params["slope_tolerance"]
        lams = [l for l in cfg.lambdas if l > 0]
        diffs = checked.differences()
        (slope,), got, ok = fall_off(lams, [diffs], n + 1, tol)
        report["verify"]["oracle"] = {
            "lambdas": lams, "differences": diffs, "slope": _finite(slope),
        }
        verdicts.append(_verdict("oracle_equivalence_slope", n + 1, got, tol, ok))

    if residuals.enabled:
        tol = residuals.params["slope_tolerance"]
        rep = checked.residuals()
        (vacuum_slope, *mode_slopes), got, ok = fall_off(
            rep.lambdas, [rep.vacuum, *rep.one_particle.values()], n + 1, tol)
        report["verify"]["residuals"] = {
            "rows": rep.rows(),
            "vacuum_slope": _finite(vacuum_slope),
            "one_particle_slopes": {
                repr(m): _finite(s) for m, s in zip(rep.one_particle, mode_slopes)
            },
            "cutoff_sensitive": rep.cutoff_sensitive,
        }
        verdicts.append(_verdict("residual_slopes", n + 1, got, tol, ok))
        if 0.0 in cfg.lambdas:
            i = cfg.lambdas.index(0.0)
            worst0 = max([rep.vacuum[i]] + [r[i] for r in rep.one_particle.values()])
            verdicts.append(_verdict("residuals_at_zero_coupling", 0.0, worst0,
                                     ZERO_FLOOR, worst0 <= ZERO_FLOOR))
    return matrices


def run_scan(cfg: RunConfig, report: dict, result,
             matrices: CouplingMatrices | None = None) -> None:
    """Equal-time and spacelike scans; verdicts go into the report as computed.
    `matrices`, from `run_verify`, brings its basis and H(lam), R(lam)."""
    model = result.model
    verdicts = report["verdicts"]
    if matrices is None:
        matrices = CouplingMatrices(result, _basis_from_config(model, cfg))
    report.setdefault("scan", {})

    et = cfg.checks["equal_time"]
    if et.enabled:
        sites = model.system.lattice.sites()
        pairs = [(a, b) for i, a in enumerate(sites) for b in sites[i + 1:]]
        rep = equal_time_scan(matrices,
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
        rep = spacelike_scan(matrices,
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
        signal = max((p.subtracted for p in rep.points if p.lam == lam_max),
                     default=0.0)
        ok = (rep.slope is not None and abs(rep.slope - target) <= tol
              and signal > 10.0 * rep.noise_floor)
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
    stage = "model build"
    try:
        model = model_from_config(cfg)
        stage = "dress"
        result = run_dress(model, report)
        matrices = None     # one basis per run, and one H(lam), R(lam) per coupling
        if command in ("verify", "all"):
            stage = "verify"
            matrices = run_verify(cfg, report, result)
        if command in ("scan", "all"):
            stage = "scan"
            run_scan(cfg, report, result, matrices)
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
    except MemoryError:
        failure = {"check": "setup", "reason": f"out of memory in {stage}"}
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


class TermTable:
    """A term table, held as its term maps until the report is written.

    It is written as the list of its rows, order by order: one object per
    stored monomial, {"annihilators": [...], "creators": [...], "im",
    "order", "re", "type": [m, n]}, each mode as {"k": [...], "species"}.
    """

    __slots__ = ("orders",)

    def __init__(self, orders: list[tuple[int, TermMap]]):
        self.orders = orders

    @classmethod
    def of_series(cls, p) -> "TermTable":
        return cls(list(enumerate(p.orders)))


def report_chunks(obj) -> tuple[list[str], bool]:
    """(chunks, finite): the text of json.dumps(obj, indent=2, sort_keys=True)
    as pieces to be written in turn, made with the stdlib's own formatters,
    except that a non-finite float is written as null; `finite` says there
    was none.

    Types are tested in the order the stdlib's encoder tests them, so float
    subclasses such as numpy.float64 come out as floats.  A `TermTable` is
    written as its list of rows.  A key that is not a string, or a value of
    any other type, raises TypeError.
    """
    chunks: list[str] = []
    nonfinite: list[float] = []
    _put_json(obj, "", "\n", chunks.append, nonfinite, ({}, {}))
    return chunks, not nonfinite


def _put_json(o, head: str, newline: str, put, nonfinite: list, texts: tuple) -> None:
    """put(head + the text of o); `newline` starts o's own line, and `texts`
    keeps the term tables' texts for one report (see `_put_rows`).  A module
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
        put(head + _float_text(o, nonfinite))
    elif isinstance(o, (list, tuple)):
        if not o:
            put(head + "[]")
            return
        inner = newline + "  "
        head += "[" + inner
        for item in o:
            _put_json(item, head, inner, put, nonfinite, texts)
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
            _put_json(item, head + _encode_str(key) + ": ", inner, put, nonfinite,
                      texts)
            head = "," + inner
        put(newline + "}")
    elif isinstance(o, TermTable):
        _put_rows(o, head, newline, put, nonfinite, texts)
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _put_rows(table: TermTable, head: str, newline: str, put, nonfinite: list,
              texts: tuple) -> None:
    """_put_json of a term table: each row put as one string.

    `texts` is (floats, indents): the text of each nonzero float written in
    a row so far, and per indent the texts of its creator and annihilator
    tuples and of the row tails after "re", by the row's (m, n) type.  A
    NaN never hits its own text, and an inf that hits went into `nonfinite`
    on its miss.  A zero is never kept, as 0.0 == -0.0 and both hash alike;
    its sign picks its text.
    """
    floats, indents = texts
    inner = newline + "  "
    key = inner + "  "
    lists, tails = indents.setdefault(inner, ({}, {}))
    text_of = floats.get
    comma = "," + inner
    sep = head + "[" + inner
    for order, terms in table.orders:
        middle = f',{key}"order": {order},{key}"re": '
        for (creators, annihilators), c in terms.items():
            x = c.imag
            im = ((text_of(x) or _keep_float_text(x, floats, nonfinite)) if x
                  else "-0.0" if math.copysign(1.0, x) < 0 else "0.0")
            x = c.real
            re = ((text_of(x) or _keep_float_text(x, floats, nonfinite)) if x
                  else "-0.0" if math.copysign(1.0, x) < 0 else "0.0")
            shape = (len(creators), len(annihilators))
            tail = tails.get(shape)
            if tail is None:
                tail = tails[shape] = (f',{key}"type": [{key}  {shape[0]},'
                                       f'{key}  {shape[1]}{key}]{inner}}}')
            ann = lists.get(annihilators) or _modes_text(annihilators, key, lists)
            cre = lists.get(creators) or _modes_text(creators, key, lists)
            put(f'{sep}{{{key}"annihilators": {ann},{key}"creators": {cre},'
                f'{key}"im": {im}{middle}{re}{tail}')
            sep = comma
    put(newline + "]" if sep is comma else head + "[]")


def _float_text(x: float, nonfinite: list) -> str:
    """repr(x), or null for a non-finite x, which goes into `nonfinite`."""
    if math.isfinite(x):
        return float.__repr__(x)
    nonfinite.append(x)
    return "null"


def _keep_float_text(x: float, floats: dict, nonfinite: list) -> str:
    """_float_text(x), kept in `floats`."""
    text = floats[x] = _float_text(x, nonfinite)
    return text


def _modes_text(ms, key: str, lists: dict) -> str:
    """The text of a list of modes whose line ends at newline `key`, kept
    in `lists`."""
    item = key + "  "
    field = item + "  "
    texts = []
    for m in ms:
        digits = f",{field}  ".join(map(int.__repr__, m.k))
        texts.append(f'{item}{{{field}"k": [{field}  {digits}{field}],'
                     f'{field}"species": {_encode_str(m.species)}{item}}}')
    text = lists[ms] = "[" + ",".join(texts) + key + "]" if texts else "[]"
    return text


def emit_report(report: dict, out_dir: str | Path, formats) -> list[Path]:
    """Write report.json, and the scans' csv files if `formats` has csv;
    return their paths.

    The report's text goes to the file as the chunks of `report_chunks`,
    never joined into one string, and ends in a newline.  A non-finite
    number in the report is written as null and first adds the failure
    NONFINITE_FAILURE to `report["failures"]`, and the report is rendered
    again.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    chunks, finite = report_chunks(report)
    if not finite:
        report.setdefault("failures", []).append(dict(NONFINITE_FAILURE))
        chunks, _ = report_chunks(report)
    path = out_dir / "report.json"
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(chunks)
        fh.write("\n")
    written = [path]
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


class _OneLineParser(argparse.ArgumentParser):
    """An argument parser whose usage errors take one stderr line, as every
    exit-2 case does; `--help` still prints the usage."""

    def error(self, message):
        # an unrecognized argument is echoed as given, line breaks included
        self.exit(2, f"{self.prog}: error: {' '.join(message.split())} (see --help)\n")


def main(argv=None) -> int:
    """The command line.  Each of _THREAD_VARIABLES that is unset is set to 1
    before numpy loads: a BLAS thread count other than one changes the
    oracle's last bits, and the scans and `verify` give the cores to worker
    processes instead."""
    for name in _THREAD_VARIABLES:
        os.environ.setdefault(name, "1")
    parser = _OneLineParser(
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
        # made only once the config has loaded, and before any stage runs
        Path(args.out_dir).mkdir(parents=True, exist_ok=True)
    except FileNotFoundError:
        print(f"config file not found: {args.config}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:      # an unreadable config or an unusable out-dir
        print(f"file error: {exc}", file=sys.stderr)
        return 2
    return run(cfg, args.command, args.out_dir)


if __name__ == "__main__":
    sys.exit(main())
