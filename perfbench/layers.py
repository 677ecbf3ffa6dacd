"""The traced run's hooks into each layer, and the per-layer metrics.

Every hook wraps a public function at the attribute where its caller looks
it up (`cli.dress`, not `dressing.dress`, because `cli.run_dress` calls the
name it imported), so the program itself is never edited.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from spans import self_times

# Spans reported as inclusive seconds (`.s`) and self seconds (`.self_s`).
TIMED = (
    "cli.run",
    "config.load_config",
    "models.build_model",
    "cli.run_dress",
    "cli.run_verify",
    "cli.run_scan",
    "cli.emit_report",
    "dressing.dress",
    "dressing.bch_conjugate",
    "dressing.bch_conjugate.final",
    "dressing.solve_generator",
    "algebra.commutator",
    "algebra.product_terms",
    "algebra.series_init",
    "numerics.basis",
    "numerics.matrix_of_terms",
    "numerics.expm",
    "numerics.dressing_matrices",
    "numerics.conjugate_numeric",
    "numerics.field_at_origin_time_zero",
    "numerics.restricted_norm",
    "checks.spacelike_scan",
    "checks.eigenstate_residuals",
    "checks.momentum_commutation_defect",
)
# The hooks' own work runs under `perfbench.hook` spans: recorded, so that it
# is left out of the layers' self times, but not reported.
# Spans whose call count is reported as `.calls`.
CALLED = (
    "dressing.bch_conjugate",
    "algebra.commutator",
    "algebra.product_terms",
    "algebra.series_init",
    "numerics.matrix_of_terms",
    "numerics.expm",
    "numerics.field_at_origin_time_zero",
)
# Counters: name -> (unit, better, normalisation).  "job" divides by traced
# jobs; any other value names the span whose call count divides.
COUNTERS = {
    "modes.modes": ("count", "lower", "models.build_model"),
    "cli.report_bytes": ("bytes", "lower", "job"),
    "dressing.terms.R": ("count", "lower", "dressing.dress"),
    "dressing.terms.K": ("count", "lower", "dressing.dress"),
    "algebra.product_terms.pairs": ("count", "lower", "job"),
    "algebra.product_terms.pairs_sharing_mode": ("count", "lower", "job"),
    "algebra.product_terms.terms_out": ("count", "lower", "job"),
    "numerics.basis.dim": ("count", "lower", "numerics.basis"),
    "numerics.matrix_of_terms.term_states": ("count", "lower", "job"),
    "numerics.matrix_of_terms.nnz": ("count", "lower", "job"),
    "numerics.expm.n3": ("n3.computed", "lower", "job"),
    "numerics.expm.bytes": ("B.computed", "lower", "job"),
}
# Spans that run once per distinct input at set-up, not once per job.
PER_CALL = {"config.load_config"}


def metric_table() -> list[dict]:
    """Every per-layer metric: name, unit, better (the BENCHMARK.json rows)."""
    rows = []
    for name in TIMED:
        rows.append({"name": f"{name}.s", "unit": "s", "better": "lower"})
        rows.append({"name": f"{name}.self_s", "unit": "s", "better": "lower"})
    for name in CALLED:
        rows.append({"name": f"{name}.calls", "unit": "count", "better": "lower"})
    for name, (unit, better, _) in COUNTERS.items():
        rows.append({"name": name, "unit": unit, "better": better})
    rows.append({"name": "algebra.product_terms.useful_ratio", "unit": "ratio",
                 "better": "higher"})
    rows.append({"name": "trace_overhead", "unit": "ratio", "better": "lower"})
    return rows


def pairs_sharing_mode(p, q) -> int:
    """Term pairs (x in p, y in q) where an annihilator of x meets a creator
    of y: the only pairs whose product has a contraction."""
    masks: dict = {}
    for j, (creators, _) in enumerate(q):
        bit = 1 << j
        for mode in set(creators):
            masks[mode] = masks.get(mode, 0) | bit
    shared = 0
    for _, annihilators in p:
        hit = 0
        for mode in set(annihilators):
            hit |= masks.get(mode, 0)
        shared += hit.bit_count()
    return shared


def install(tracer) -> None:
    """Wrap each layer's public functions; `tracer.unwrap_all()` undoes it."""
    import scipy.linalg

    from latticedress import algebra, checks, cli, config, dressing, numerics

    count = tracer.count

    def modes_after(_, args, kwargs, model):
        count("modes.modes", len(model.system.modes))

    def report_after(_, args, kwargs, paths):
        count("cli.report_bytes",
              sum(p.stat().st_size for p in paths if p.name == "report.json"))

    def dress_after(_, args, kwargs, result):
        count("dressing.terms.R", result.generator.term_count())
        count("dressing.terms.K", result.K.term_count())

    def product_before(args, kwargs):
        p, q = args[0], args[1]
        out = kwargs.get("out", args[3] if len(args) > 3 else None)
        count("algebra.product_terms.pairs", len(p) * len(q))
        count("algebra.product_terms.pairs_sharing_mode", pairs_sharing_mode(p, q))
        return 0 if out is None else len(out)

    def product_after(size_before, args, kwargs, out):
        count("algebra.product_terms.terms_out", len(out) - size_before)

    def basis_after(_, args, kwargs, basis):
        count("numerics.basis.dim", basis.dimension)

    def matrix_before(args, kwargs):
        count("numerics.matrix_of_terms.term_states",
              len(args[0]) * args[1].dimension)

    def matrix_after(_, args, kwargs, m):
        count("numerics.matrix_of_terms.nnz", m.nnz)

    def expm_before(args, kwargs):
        a = args[0]
        n = a.shape[0]
        count("numerics.expm.n3", n ** 3)
        count("numerics.expm.bytes", 2 * a.dtype.itemsize * n * n)

    wrap = tracer.wrap
    wrap(config, "load_config", "config.load_config")
    wrap(cli, "build_model", "models.build_model", after=modes_after)
    wrap(cli, "run_dress", "cli.run_dress")
    wrap(cli, "run_verify", "cli.run_verify")
    wrap(cli, "run_scan", "cli.run_scan")
    wrap(cli, "emit_report", "cli.emit_report", after=report_after)
    wrap(cli, "dress", "dressing.dress", after=dress_after)
    wrap(dressing, "bch_conjugate", "dressing.bch_conjugate")
    wrap(dressing, "solve_generator", "dressing.solve_generator")
    wrap(dressing, "commutator", "algebra.commutator")
    wrap(algebra, "product_terms", "algebra.product_terms",
         before=product_before, after=product_after)
    wrap(algebra.OperatorSeries, "__init__", "algebra.series_init")
    wrap(cli, "FockBasis", "numerics.basis", after=basis_after)
    wrap(numerics, "matrix_of_terms", "numerics.matrix_of_terms",
         before=matrix_before, after=matrix_after)
    wrap(scipy.linalg, "expm", "numerics.expm", before=expm_before)
    wrap(checks, "dressing_matrices", "numerics.dressing_matrices")
    wrap(cli, "conjugate_numeric", "numerics.conjugate_numeric")
    wrap(checks, "field_at_origin_time_zero", "numerics.field_at_origin_time_zero")
    wrap(cli, "restricted_norm", "numerics.restricted_norm")
    wrap(checks, "restricted_norm", "numerics.restricted_norm")
    wrap(cli, "spacelike_scan", "checks.spacelike_scan")
    wrap(cli, "eigenstate_residuals", "checks.eigenstate_residuals")
    wrap(cli, "momentum_commutation_defect", "checks.momentum_commutation_defect")


def _final_bch(spans) -> set[int]:
    """Indices of the last bch_conjugate inside each dress span: the
    re-expansion at full order after the order-by-order loop."""
    last: dict[int, int] = {}
    for i, s in enumerate(spans):
        if s[0] == "dressing.bch_conjugate" and s[3] >= 0 \
                and spans[s[3]][0] == "dressing.dress":
            last[s[3]] = i
    return set(last.values())


def summarize(spans, counters, untraced_s, traced_s) -> dict:
    """Per-layer metrics {name: {"value", "unit"}} from one traced run.

    Times and counts are per traced job unless the metric table says
    otherwise; `traced_s` and `untraced_s` are the job wall times of the
    traced and untraced jobs run alternately on the same inputs.
    """
    final = _final_bch(spans)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for i, (s, self_s) in enumerate(zip(spans, self_times(spans))):
        for name in (s[0], "dressing.bch_conjugate.final") if i in final else (s[0],):
            total[name] += s[2] - s[1]
            own[name] += self_s
            calls[name] += 1

    jobs = len(traced_s)
    units = {row["name"]: row["unit"] for row in metric_table()}
    out: dict[str, dict] = {}

    def put(name, value):
        out[name] = {"value": value, "unit": units[name]}

    for name in TIMED:
        per = calls[name] if name in PER_CALL else jobs
        put(f"{name}.s", total[name] / per if per else 0.0)
        put(f"{name}.self_s", own[name] / per if per else 0.0)
    for name in CALLED:
        put(f"{name}.calls", calls[name] / jobs)
    for name, (_, _, norm) in COUNTERS.items():
        per = jobs if norm == "job" else calls[norm]
        put(name, counters.get(name, 0) / per if per else 0)
    pairs = counters.get("algebra.product_terms.pairs", 0)
    put("algebra.product_terms.useful_ratio",
        counters.get("algebra.product_terms.pairs_sharing_mode", 0) / pairs
        if pairs else 0.0)
    put("trace_overhead", statistics.median(traced_s) / statistics.median(untraced_s))
    return out
