import json
import math
import os
import threading
import weakref

import numpy as np
import pytest

from latticedress import checks, cli, processes
from latticedress.checks import (
    ZERO_FLOOR,
    ScanError,
    _loglog_slope,
    eigenstate_residuals,
    equal_time_scan,
    fall_off,
    momentum_commutation_defect,
    spacelike_scan,
)
from latticedress.dressing import dress
from latticedress.models import build_model
from latticedress.modes import LatticeSpec
from latticedress.numerics import CouplingMatrices, FockBasis, dressing_matrices

from conftest import REPO_ROOT, phi3_config, run_python, squeeze_deviation


@pytest.fixture(scope="module")
def small_model():
    # spacing 2.0, so site pairs at separation 2 with tau = 1 are spacelike
    return build_model("phi3", lattice=LatticeSpec(dim=1, sites_per_dim=3,
                                                   physical_length=6.0))


@pytest.fixture(scope="module")
def small_result(small_model):
    return dress(small_model)


@pytest.fixture(scope="module")
def small_basis(small_model):
    return FockBasis(small_model.system, 4, 4)


# the small model, result and basis of the fixtures above, built in a fresh
# interpreter with one BLAS thread and three usable cores, so that a scan
# of three couplings takes two worker processes on any machine; `log(*values)` appends a line
# of this process's id and the values to the file named by argv[1]
FORKED_PRELUDE = """
import json, multiprocessing, os, sys
from latticedress import checks, processes
from latticedress.checks import equal_time_scan, spacelike_scan
from latticedress.dressing import dress
from latticedress.models import build_model
from latticedress.modes import LatticeSpec
from latticedress.numerics import CouplingMatrices, FockBasis

model = build_model("phi3", lattice=LatticeSpec(dim=1, sites_per_dim=3,
                                                physical_length=6.0))
result = dress(model)
basis = FockBasis(model.system, 4, 4)
parent = os.getpid()
processes._usable_cores = lambda: 3

def log(*values):
    with open(sys.argv[1], "a") as fh:
        fh.write(json.dumps([os.getpid(), *values]) + "\\n")

log()
"""


def _forked(tmp_path, script: str, *args) -> tuple[object, list]:
    """Run FORKED_PRELUDE + script with the arguments log file, *args;
    return (the JSON of its last output line, the logged lines after the
    prelude's own as [in the first process, process id, *values])."""
    log = tmp_path / "log.jsonl"
    proc = run_python(["-c", FORKED_PRELUDE + script, str(log), *map(str, args)])
    assert proc.returncode == 0, proc.stderr
    (parent,), *lines = [json.loads(line) for line in log.read_text().splitlines()]
    return (json.loads(proc.stdout.splitlines()[-1]),
            [[pid == parent, pid, *values] for pid, *values in lines])


# ---------------------------------------------------------------------------
# momentum


def test_transformed_hamiltonian_commutes_with_momentum(small_model, small_result):
    assert momentum_commutation_defect(small_result.K, small_model) == 0.0


def test_momentum_defect_detects_violation(small_model):
    from latticedress.algebra import OperatorSeries

    system = small_model.system
    z, p1 = system.mode("phi", (0,)), system.mode("phi", (1,))
    moving = OperatorSeries.from_terms(system, [((p1,), (z,), 1.0)], order=0)
    assert momentum_commutation_defect(moving, small_model) > 0.0


def test_momentum_defect_of_a_nan_term_is_nan(small_model):
    # `max(0.0, nan)` kept 0.0, and after a range error the NaN's complex
    # abs raised OverflowError
    from latticedress.algebra import OperatorSeries

    system = small_model.system
    z, p1 = system.mode("phi", (0,)), system.mode("phi", (1,))
    # a term that conserves momentum adds nothing, even with an infinite coefficient
    kept = OperatorSeries.from_terms(system, [((z,), (z,), complex(math.inf, 0.0))], order=0)
    assert momentum_commutation_defect(kept, small_model) == 0.0
    broken = OperatorSeries.from_terms(system, [((z,), (z,), 1.0),
                                                ((p1,), (z,), complex(math.nan, 1.0))], order=0)
    assert math.isnan(momentum_commutation_defect(broken, small_model))
    try:
        math.exp(1000)      # leaves errno at ERANGE
    except OverflowError:
        pass
    assert math.isnan(momentum_commutation_defect(broken, small_model))


# ---------------------------------------------------------------------------
# slope fitting


def test_loglog_slope_recovers_power_law():
    lams = [0.02, 0.04, 0.08, 0.16]
    assert _loglog_slope(lams, [l**3 for l in lams]) == pytest.approx(3.0)


def test_loglog_slope_none_at_floor():
    assert _loglog_slope([0.1, 0.2], [1e-16, 1e-15]) is None


@pytest.mark.parametrize("lams", [[1.0, 1.0], [0.1, 0.1, 0.1], [0.1, -0.2, 0.1]])
def test_loglog_slope_none_for_a_single_coupling(lams):
    # one abscissa fixes no slope; log(1) = 0 used to make the fit NaN
    assert _loglog_slope(lams, [0.5, 0.7, 0.9][:len(lams)]) is None


def _oracle_rule(lams, diffs, target, tol):
    """The oracle verdict as it was written inline in the command line
    before `fall_off`: (got, pass)."""
    slope = _loglog_slope(lams, diffs)
    ok = (slope is not None and slope >= target - tol) or bool(diffs) and all(
        d < ZERO_FLOOR for d in diffs)
    return slope, ok


def _residual_rule(lambdas, series, target, tol):
    """The residual verdict as it was written inline in the command line
    before `fall_off`: (got, pass)."""
    slopes = [s for s in (_loglog_slope(lambdas, v) for v in series) if s is not None]
    all_floor = any(l > 0 for l in lambdas) and all(
        v <= ZERO_FLOOR for values in series for v in values)
    ok = all_floor or (bool(slopes) and all(s >= target - tol for s in slopes))
    return min(slopes, default=None), ok


_FIT = [0.02, 0.04, 0.08, 0.16]


@pytest.mark.parametrize("lambdas, series, got, ok", [
    # no fit: one value above the slope floor, another above the zero floor
    ([0.1, 0.2], [[1e-16, 1e-9]], None, False),
    # every value on the floor, with and without a positive coupling
    ([0.1, 0.2], [[0.0, 1e-13]], None, True),
    ([0.1, 0.2], [[0.0, 0.0], [1e-13, 0.0]], None, True),
    ([0.0], [[0.0], [0.0]], None, False),
    ([], [[]], None, False),
    # values at lambda <= 0 above the floor: out of the fit, not of the floor
    ([0.0, 0.1, 0.2], [[1e-3, 0.0, 0.0]], None, False),
    ([-0.1, 0.0, 0.1], [[1e-3, 1e-3, 0.0]], None, False),
    ([0.0] + _FIT, [[1e-3] + [l**3 for l in _FIT]], 3.0, True),
    # a faster fall passes, a slower one fails
    (_FIT, [[l**4 for l in _FIT]], 4.0, True),
    (_FIT, [[l**2.5 for l in _FIT]], 2.5, False),
    # one slow series among fast ones names the slow slope
    (_FIT, [[l**3 for l in _FIT], [l**2 for l in _FIT], [l**4 for l in _FIT]], 2.0, False),
    # a series with no fit beside a fitted one is left to the others
    (_FIT, [[l**3 for l in _FIT], [0.0] * 4], 3.0, True),
    (_FIT, [[0.0] * 4, [l**2 for l in _FIT]], 2.0, False),
    # a repeated coupling: alone it fixes no slope, among others it counts twice
    ([1.0, 1.0], [[0.5, 0.5]], None, False),
    ([0.1, 0.1, 0.2], [[1e-3, 1e-3, 8e-3]], 3.0, True),
])
def test_fall_off_judges_as_the_inline_rules_did(lambdas, series, got, ok):
    slopes, judged, passed = fall_off(lambdas, series, 3, 0.4)
    assert slopes == [_loglog_slope(lambdas, values) for values in series]
    assert passed is ok
    assert judged == (None if got is None else pytest.approx(got))
    assert (judged, passed) == _residual_rule(lambdas, series, 3, 0.4)
    if len(series) == 1 and all(l > 0 for l in lambdas):   # the oracle's inputs
        assert (judged, passed) == _oracle_rule(lambdas, series[0], 3, 0.4)


def test_fall_off_counts_a_value_at_the_zero_floor_as_zero():
    # ZERO_FLOOR is "at or below this is zero"; the old oracle rule used <
    assert fall_off([0.1, 0.2], [[ZERO_FLOOR, 0.0]], 3, 0.4) == ([None], None, True)
    assert _oracle_rule([0.1, 0.2], [ZERO_FLOOR, 0.0], 3, 0.4) == (None, False)
    assert fall_off([0.1, 0.2], [[2 * ZERO_FLOOR, 0.0]], 3, 0.4)[2] is False


# ---------------------------------------------------------------------------
# eigenstate residuals


def test_free_model_residuals_sit_at_floor():
    model = build_model("free", lattice=LatticeSpec(dim=1, sites_per_dim=3))
    result = dress(model)
    basis = FockBasis(model.system, 3, 3)
    rep = eigenstate_residuals(CouplingMatrices(result, basis), [0.0, 0.1])
    assert max(rep.vacuum) < 1e-12
    assert all(max(r) < 1e-12 for r in rep.one_particle.values())
    slopes, got, ok = fall_off(rep.lambdas, [rep.vacuum, *rep.one_particle.values()],
                               3, 0.4)
    assert slopes == [None] * (1 + len(model.system.modes))
    assert got is None and ok


def test_residual_rows_schema(small_model, small_basis, small_result):
    rep = eigenstate_residuals(CouplingMatrices(small_result, small_basis), [0.1])
    rows = rep.rows()
    assert len(rows) == 1 + len(small_model.system.modes)
    assert rows[0]["state"] == "vacuum"
    assert all(set(r) == {"state", "lambda", "residual"} for r in rows)


# ---------------------------------------------------------------------------
# field-commutator scans


def test_equal_time_scan_vanishes(small_model, small_result):
    basis = FockBasis(small_model.system, 6, 6)
    rep = equal_time_scan(CouplingMatrices(small_result, basis),
                          times=[0.0], lambdas=[0.0, 0.1],
                          site_pairs=[((0,), (1,))], block=2)
    assert len(rep.points) == 2
    assert max(p.magnitude for p in rep.points) < 1e-8
    assert all(p.tau == 0.0 for p in rep.points)


def test_equal_time_scan_horizon(small_basis, small_result):
    with pytest.raises(ScanError, match="horizon"):
        equal_time_scan(CouplingMatrices(small_result, small_basis),
                        times=[1000.0], lambdas=[0.0],
                        site_pairs=[((0,), (1,))])


def test_equal_time_scan_checks_times_before_any_matrix(monkeypatch, small_basis,
                                                        small_result):
    # a time past the horizon is refused before any coupling's exp(-R) is built
    def refuse(*args, **kwargs):
        raise AssertionError("dressing matrices built before the times were checked")

    monkeypatch.setattr(checks, "dressing_matrices", refuse)
    with pytest.raises(ScanError, match="horizon"):
        equal_time_scan(CouplingMatrices(small_result, small_basis),
                        times=[0.0, 1000.0], lambdas=[0.0, 0.1],
                        site_pairs=[((0,), (1,))])


@pytest.mark.parametrize("times, lambdas, site_pairs", [
    ([], [0.1], [((0,), (1,))]),
    ([0.0], [], [((0,), (1,))]),
    ([0.0], [0.1], []),
], ids=["times", "lambdas", "site_pairs"])
def test_equal_time_scan_without_points_is_refused(monkeypatch, small_basis,
                                                   small_result, times, lambdas,
                                                   site_pairs):
    def refuse(*args, **kwargs):
        raise AssertionError("dressing matrices built for a scan with no point")

    monkeypatch.setattr(checks, "dressing_matrices", refuse)
    with pytest.raises(ScanError, match="has no point"):
        equal_time_scan(CouplingMatrices(small_result, small_basis), times=times,
                        lambdas=lambdas, site_pairs=site_pairs)


def test_each_coupling_builds_its_fields_once(monkeypatch, serial, small_model, small_result):
    calls = []
    build = checks.field_at_origin_time_zero

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(checks, "field_at_origin_time_zero", counted)
    # three sites in three pairs, two couplings: one field build per coupling
    basis = FockBasis(small_model.system, 3, 3)
    equal_time_scan(CouplingMatrices(small_result, basis), times=[0.0, 1.0],
                    lambdas=[0.0, 0.1], site_pairs=[((0,), (1,)), ((0,), (2,)),
                                                    ((1,), (2,))])
    assert len(calls) == 2
    assert all(args[-1] == [(0,), (1,), (2,)] for args in calls)
    calls.clear()
    # the baseline coupling 0 is added to the two given
    spacelike_scan(CouplingMatrices(small_result, basis), lambdas=[0.05, 0.1],
                   grid=[((0,), (1,), 1.0), ((1,), (2,), -1.0)])
    assert len(calls) == 3


FIELDS_ONCE_SCRIPT = """
build = checks.field_at_origin_time_zero

def counted(*args, **kwargs):
    log(args[-1])
    return build(*args, **kwargs)

checks.field_at_origin_time_zero = counted
small = FockBasis(model.system, 3, 3)
equal_time_scan(CouplingMatrices(result, small), times=[0.0, 1.0], lambdas=[0.0, 0.1],
                site_pairs=[((0,), (1,)), ((0,), (2,)), ((1,), (2,))])
log("spacelike")
spacelike_scan(CouplingMatrices(result, small), lambdas=[0.05, 0.1],
               grid=[((0,), (1,), 1.0), ((1,), (2,), -1.0)])
print(json.dumps(len(multiprocessing.active_children())))
"""


def test_each_coupling_builds_its_fields_once_in_one_process(tmp_path):
    # the test above with worker processes: one field build per coupling;
    # each scan builds its first coupling in its own process and each other
    # one in a worker; every worker is joined
    children, lines = _forked(tmp_path, FIELDS_ONCE_SCRIPT)
    cut = next(i for i, line in enumerate(lines) if line[2:] == ["spacelike"])
    equal_time, spacelike = lines[:cut], lines[cut + 1:]
    assert sorted(here for here, *_ in equal_time) == [False, True]
    assert sorted(here for here, *_ in spacelike) == [False, False, True]
    assert len({pid for here, pid, _ in spacelike if not here}) == 2
    assert all(sites == [[0], [1], [2]] for *_, sites in equal_time)
    assert children == 0


def test_equal_time_scan_evolves_each_site_once_per_time_and_coupling(monkeypatch, serial):
    # 5 sites in 10 pairs, two nonzero times, two couplings: 20 evolved
    # fields u A(x,0) u^H, where evolving per pair formed 80; the rows keep
    # every bit of the per-pair evaluation
    model = build_model("phi3", lattice=LatticeSpec(dim=1, sites_per_dim=5,
                                                    physical_length=5.0))
    result = dress(model)
    basis = FockBasis(model.system, 3, 3)
    sites = model.system.lattice.sites()
    pairs = [(a, b) for i, a in enumerate(sites) for b in sites[i + 1:]]
    times, lambdas = [0.0, 1.0, 2.0], [0.0, 0.1]

    evolved = []
    field = checks._LambdaContext.field

    def counted(self, site, t):
        if t != 0.0:
            evolved.append((site, t))
        return field(self, site, t)

    monkeypatch.setattr(checks._LambdaContext, "field", counted)
    rep = equal_time_scan(CouplingMatrices(result, basis), times=times, lambdas=lambdas,
                          site_pairs=pairs, block=2)
    assert len(evolved) == 20
    assert len(set(evolved)) == 10

    expected = []
    matrices = CouplingMatrices(result, basis)
    contexts = {lam: checks._LambdaContext(matrices, lam, sites) for lam in lambdas}
    for t in times:
        for lam, ctx in contexts.items():
            for x, y in pairs:
                ax, ay = field(ctx, x, t), field(ctx, y, t)
                c = ax @ ay - ay @ ax
                expected.append((checks.restricted_norm(c, basis, 2), ctx.vev(c)))
    assert [(p.magnitude, p.vev_modulus) for p in rep.points] == expected


@pytest.mark.parametrize("scan", ["equal_time", "spacelike"])
def test_a_context_holds_one_times_fields(monkeypatch, serial, small_basis, small_result,
                                          scan):
    # a field evolved to one time is dead when the first field of another
    # nonzero time is formed, and each (site, time) is evolved once per
    # coupling while the points stay at that time
    field = checks._LambdaContext.field
    evolved, dead = [], []

    def tracked(self, site, t):
        dead.append(all(ref() is None for u, _, ref in evolved if u != t))
        out = field(self, site, t)
        evolved.append((t, site, weakref.ref(out)))
        return out

    monkeypatch.setattr(checks._LambdaContext, "field", tracked)
    matrices = CouplingMatrices(small_result, small_basis)
    if scan == "equal_time":
        equal_time_scan(matrices, times=[0.0, 1.0, 0.5], lambdas=[0.0, 0.1],
                        site_pairs=[((0,), (1,)), ((0,), (2,)), ((1,), (2,))])
        assert [(t, site) for t, site, _ in evolved] == 2 * [
            (t, (s,)) for t in (1.0, 0.5) for s in (0, 1, 2)]
    else:
        # (0,) is evolved to 1.0 once for two points, and the repeated
        # point is formed once
        spacelike_scan(matrices, lambdas=[0.1], grid=[
            ((0,), (1,), 1.0), ((0,), (2,), 1.0), ((1,), (2,), 0.5), ((0,), (2,), -1.0),
            ((0,), (1,), 1.0)])
        assert [(t, site) for t, site, _ in evolved] == 2 * [
            (1.0, (0,)), (0.5, (1,)), (-1.0, (0,))]
    assert dead and all(dead)


def _strongest_point_slope(rep):
    """The slope fit read back from the points: each point's fit takes every
    point at its (x, y, tau) with a positive coupling, and the first fit
    with the largest subtracted magnitude wins."""
    best_slope, best_signal = None, -1.0
    for p in rep.points:
        sel = [(q.lam, q.subtracted) for q in rep.points
               if (q.x, q.y, q.tau) == (p.x, p.y, p.tau) and q.lam > 0]
        signal = max((s for _, s in sel), default=0.0)
        slope = checks._loglog_slope([l for l, _ in sel], [s for _, s in sel])
        if slope is not None and signal > best_signal:
            best_slope, best_signal = slope, signal
    return best_slope


def test_spacelike_repeated_grid_point_merges_into_one_fit(small_basis, small_result):
    # the repeated point's couplings join the first copy's in one fit
    lambdas = [0.05, 0.1, 0.2]
    once = spacelike_scan(CouplingMatrices(small_result, small_basis), lambdas=lambdas,
                          grid=[((0,), (1,), 1.0), ((0,), (2,), 0.5)])
    twice = spacelike_scan(CouplingMatrices(small_result, small_basis), lambdas=lambdas,
                           grid=[((0,), (1,), 1.0), ((0,), (2,), 0.5),
                                 ((0,), (1,), 1.0)])
    assert len(twice.points) == 3 * len(lambdas)
    assert twice.slope == _strongest_point_slope(twice)
    assert once.slope == _strongest_point_slope(once)
    assert twice.slope == pytest.approx(once.slope, abs=1e-9)


def _all_contexts_first_scan(matrices, lambdas, grid, block):
    """The spacelike scan with every coupling's context built before any
    point: (points, slope, noise floor)."""
    basis, lat = matrices.basis, matrices.result.model.system.lattice
    entries = [(x, y, tau, lat.min_image_distance(x, y)) for x, y, tau in grid]
    sites = [s for x, y, _, _ in entries for s in (x, y)]
    contexts = {lam: checks._LambdaContext(matrices, lam, sites)
                for lam in set(lambdas) | {0.0}}
    points, series = [], {}
    for x, y, tau, sep in entries:
        m0 = checks._commutator(contexts[0.0].field(x, tau), contexts[0.0].field(y, 0.0))
        baseline = checks.restricted_norm(m0, basis, block)
        fit = series.setdefault((x, y, tau), [])
        for lam in lambdas:
            c = checks._commutator(contexts[lam].field(x, tau), contexts[lam].field(y, 0.0))
            points.append(checks.ScanPoint(
                x=x, y=y, separation=sep, tau=tau, lam=lam,
                magnitude=checks.restricted_norm(c, basis, block),
                vev_modulus=contexts[lam].vev(c),
                baseline=baseline,
                subtracted=checks.restricted_norm(c - m0, basis, block),
            ))
            fit.append(points[-1])
    best_slope, best_signal = None, -1.0
    for fit in series.values():
        signal = max((p.subtracted for p in fit if p.lam > 0), default=0.0)
        slope = checks._loglog_slope([p.lam for p in fit], [p.subtracted for p in fit])
        if slope is not None and signal > best_signal:
            best_signal, best_slope = signal, slope
    floor = 1e-11 * max((p.baseline for p in points), default=1.0)
    return points, best_slope, max(floor, 1e-13)


def test_spacelike_scan_equals_all_contexts_first(small_basis, small_result):
    # a repeated grid point, the baseline coupling among the given and a
    # duplicate coupling: every bit as when all contexts lived at once
    lambdas = [0.1, 0.0, 0.05, 0.1]
    grid = [((0,), (1,), 1.0), ((0,), (2,), 0.5), ((0,), (1,), 1.0)]
    matrices = CouplingMatrices(small_result, small_basis)
    rep = spacelike_scan(matrices, lambdas=lambdas, grid=grid, block=2)
    points, slope, floor = _all_contexts_first_scan(matrices, lambdas, grid, 2)
    assert len(rep.points) == len(grid) * len(lambdas)
    assert rep.points == points
    assert rep.slope == slope and slope is not None
    assert rep.noise_floor == floor


@pytest.mark.parametrize("scan", ["equal_time", "spacelike"])
def test_scans_keep_one_context_alive(monkeypatch, serial, small_basis, small_result, scan):
    alive = weakref.WeakSet()
    init = checks._LambdaContext.__init__
    built = []

    def tracked(self, matrices, lam, sites, claim=None):
        assert not list(alive), f"a context is alive when coupling {lam}'s is built"
        init(self, matrices, lam, sites, claim)
        alive.add(self)
        built.append(lam)

    monkeypatch.setattr(checks._LambdaContext, "__init__", tracked)
    matrices = CouplingMatrices(small_result, small_basis)
    if scan == "equal_time":
        equal_time_scan(matrices, times=[0.0, 1.0], lambdas=[0.0, 0.1, 0.05],
                        site_pairs=[((0,), (1,)), ((0,), (2,))])
        assert built == [0.0, 0.1, 0.05]
    else:
        spacelike_scan(matrices, lambdas=[0.05, 0.1, 0.2],
                       grid=[((0,), (1,), 1.0), ((0,), (2,), 0.5)])
        assert built[0] == 0.0 and sorted(built[1:]) == [0.05, 0.1, 0.2]


def test_spacelike_scan_keeps_only_the_baseline_blocks(monkeypatch, serial, small_basis,
                                                       small_result):
    # each coupling's low-quanta blocks are subtracted from C(0)'s and
    # dropped before the next coupling's context is built: 2 distinct
    # points keep 2 blocks alive, whatever the number of couplings
    blocks = []
    norm = checks.block_norm

    def tracked(block):
        blocks.append(weakref.ref(block))
        return norm(block)

    alive = []
    init = checks._LambdaContext.__init__

    def counted(self, matrices, lam, sites, claim=None):
        alive.append(sum(ref() is not None for ref in blocks))
        init(self, matrices, lam, sites, claim)

    monkeypatch.setattr(checks, "block_norm", tracked)
    monkeypatch.setattr(checks._LambdaContext, "__init__", counted)
    spacelike_scan(CouplingMatrices(small_result, small_basis), lambdas=[0.05, 0.1, 0.2],
                   grid=[((0,), (1,), 1.0), ((0,), (2,), 0.5)])
    assert alive == [0, 2, 2, 2]


ONE_CONTEXT_SCRIPT = """
import weakref

alive = weakref.WeakSet()
init = checks._LambdaContext.__init__

def tracked(self, matrices, lam, sites, claim=None):
    assert not list(alive), f"a context is alive when coupling {lam}'s is built"
    init(self, matrices, lam, sites, claim)
    alive.add(self)
    log(lam)

checks._LambdaContext.__init__ = tracked
spacelike_scan(CouplingMatrices(result, basis), lambdas=[0.05, 0.1, 0.2],
               grid=[((0,), (1,), 1.0), ((0,), (2,), 0.5)])
print(json.dumps(None))
"""


def test_each_process_keeps_one_context_alive(tmp_path):
    # the spacelike case above with worker processes: each process checks
    # its own contexts, and a failed check would fail the scan; coupling i
    # of 0, 0.05, 0.1, 0.2 is built in process i % 3, once: the scan's own
    # process builds the first and the fourth in turn
    _, lines = _forked(tmp_path, ONE_CONTEXT_SCRIPT)
    order = sorted({0.05, 0.1, 0.2} | {0.0}, key=lambda lam: lam != 0.0)
    assert [lam for here, _, lam in lines if here] == order[::3]
    workers = {}
    for here, pid, lam in lines:
        if not here:
            workers.setdefault(pid, []).append(lam)
    assert sorted(workers.values()) == [[lam] for lam in sorted(order[1:3])]


def _keep_weakly(monkeypatch, module, name) -> list[bool]:
    """Wrap module.name so that it keeps only weak references to the arrays
    it returns.  Each call first appends to the list returned here whether
    every array returned by an earlier call is dead."""
    function = getattr(module, name)
    earlier = []
    dead = []

    def wrapped(*args, **kwargs):
        dead.append(all(ref() is None for ref in earlier))
        out = function(*args, **kwargs)
        earlier.extend(weakref.ref(a) for a in (out if isinstance(out, tuple) else (out,))
                       if a is not None)
        return out

    monkeypatch.setattr(module, name, wrapped)
    return dead


def test_residuals_hold_one_couplings_dense_matrices(monkeypatch, serial, small_basis,
                                                     small_result):
    # each coupling's H and exp(-R) are freed before the next coupling's
    # are formed, and no dense R is handed out
    matrices = CouplingMatrices(small_result, small_basis)
    dead = _keep_weakly(monkeypatch, checks, "dressing_matrices")
    eigenstate_residuals(matrices, [0.02, 0.04, 0.08])
    assert dead == [True, True, True]
    assert dressing_matrices(matrices.pair(0.1), 0.1)[1] is None


def test_verify_holds_one_couplings_dense_matrices(monkeypatch, serial, tmp_path):
    # the oracle's conjugated H and the residuals' H and exp(-R) of one
    # coupling are dead when the next coupling's are formed
    conjugated = _keep_weakly(monkeypatch, checks, "conjugate_numeric")
    dressed = _keep_weakly(monkeypatch, checks, "dressing_matrices")
    cfg = phi3_config({"model.lattice.sites_per_dim": 3,
                       "numerics.per_mode_cutoff": 3, "numerics.total_cutoff": 3,
                       "numerics.lambdas": [0.02, 0.04, 0.08]})
    cli.run(cfg, "verify", tmp_path)
    assert conjugated == [True, True, True]
    assert dressed == [True, True, True]


HELD_SCRIPT = """
import weakref
from latticedress.checks import verify_pass

def keep_weakly(name):
    function = getattr(checks, name)
    earlier = []

    def wrapped(*args, **kwargs):
        log(name, all(ref() is None for ref in earlier))
        out = function(*args, **kwargs)
        earlier.extend(weakref.ref(a) for a in (out if isinstance(out, tuple) else (out,))
                       if a is not None)
        return out

    setattr(checks, name, wrapped)

keep_weakly("conjugate_numeric")
keep_weakly("dressing_matrices")
checked = verify_pass(CouplingMatrices(result, basis), [0.02, 0.04, 0.08, 0.16, 0.32], 2)
print(json.dumps([len(checked.differences()), len(checked.residuals().vacuum)]))
"""


def test_each_verify_process_holds_one_couplings_dense_matrices(tmp_path):
    # the case above on three cores: couplings 0.02 and 0.16 run in the
    # calling process, 0.04 and 0.32 in one worker, 0.08 in the other; in
    # each process a coupling's dense matrices are dead when the next's are
    # formed
    sizes, lines = _forked(tmp_path, HELD_SCRIPT)
    assert sizes == [5, 5]
    assert all(dead for *_, dead in lines)
    for name in ("conjugate_numeric", "dressing_matrices"):
        calls: dict = {}
        for here, pid, called, _ in lines:
            if called == name:
                calls[pid] = calls.get(pid, 0) + 1
        assert sorted(calls.values()) == [1, 2, 2]
        assert sum(here for here, _, called, _ in lines if called == name) == 2


ASSEMBLY_SCRIPT = """
from latticedress import cli, numerics
from latticedress.config import load_config

assemble, lay_out = numerics.SeriesAssembler.__call__, numerics.SeriesAssembler.__init__

def counted(self, lam):
    log("assembled", lam)
    return assemble(self, lam)

def laid_out(self, series, basis):
    log("laid out", None)
    lay_out(self, series, basis)

numerics.SeriesAssembler.__call__ = counted
numerics.SeriesAssembler.__init__ = laid_out
print(json.dumps(cli.run(load_config(sys.argv[2]), "verify", sys.argv[3])))
"""


def test_verify_assembles_each_coupling_once_in_one_process(tmp_path):
    # the verify-phi3 benchmark job (phi3 S=5, order 3, cutoffs 4, four
    # couplings) on three cores: the calling process lays out H, R and K
    # before the fork, and each coupling's H, R and K are assembled once,
    # all in the process that runs it: 0.02 and 0.16 here, 0.04 and 0.08
    # in a worker each
    path = tmp_path / "run.yaml"
    path.write_text((REPO_ROOT / "configs" / "phi3.yaml").read_text()
                    .replace("order: 2", "order: 3"))
    code, lines = _forked(tmp_path, ASSEMBLY_SCRIPT, path, tmp_path / "out")
    assert code == 0
    assert [here for here, _, event, _ in lines if event == "laid out"] == [True] * 3
    by_coupling: dict = {}
    for here, pid, event, lam in lines:
        if event == "assembled":
            by_coupling.setdefault(lam, []).append((here, pid))
    assert sorted(by_coupling) == [0.02, 0.04, 0.08, 0.16]
    assert all(len(runs) == 3 and len(set(runs)) == 1 for runs in by_coupling.values())
    assert [lam for lam, runs in sorted(by_coupling.items()) if runs[0][0]] == [0.02, 0.16]
    assert by_coupling[0.04][0][1] != by_coupling[0.08][0][1]


VERIFY_FAILURES_SCRIPT = """
from latticedress import cli
from latticedress.config import parse_config
from latticedress.numerics import OracleError

pair, conjugate, dressing = (CouplingMatrices.pair, checks.conjugate_numeric,
                             checks.dressing_matrices)
at = []
refused = {"oracle": {"oracle": (0.04, 0.16), "residuals": (0.02,)},
           "residuals": {"oracle": (), "residuals": (0.04, 0.16)}}[sys.argv[2]]

def noted(self, lam):
    at.append(lam)
    return pair(self, lam)

def conjugate_refused(*args, **kwargs):
    if at[-1] in refused["oracle"]:
        raise OracleError(f"the oracle refused {at[-1]}")
    return conjugate(*args, **kwargs)

def dressing_refused(pair, lam, plus=False):
    if lam in refused["residuals"]:
        raise OracleError(f"the residuals refused {lam}")
    return dressing(pair, lam, plus)

CouplingMatrices.pair = noted
checks.conjugate_numeric = conjugate_refused
checks.dressing_matrices = dressing_refused
cfg = parse_config("model:\\n  lattice: {sites_per_dim: 3, physical_length: 3.0}\\n"
                   "numerics: {per_mode_cutoff: 3, total_cutoff: 3}\\n")
reports = []
for cores in (1, 2, 3):
    processes._usable_cores = lambda: cores
    out = os.path.join(sys.argv[3], str(cores))
    code = cli.run(cfg, "verify", out)
    with open(os.path.join(out, "report.json"), "rb") as fh:
        reports.append(fh.read())
report = json.loads(reports[0])
print(json.dumps([code, reports[1] == reports[0], reports[2] == reports[0],
                  [v["check"] for v in report["verdicts"]], report["failures"],
                  len(multiprocessing.active_children())]))
"""


@pytest.mark.parametrize("kind, verdicts, reason", [
    ("oracle", ["no_bad_terms", "momentum_commutation"], "the oracle refused 0.04"),
    ("residuals", ["no_bad_terms", "momentum_commutation", "oracle_equivalence_slope"],
     "the residuals refused 0.04"),
])
def test_verify_fails_as_its_serial_run_does(tmp_path, kind, verdicts, reason):
    # couplings 0.02, 0.04, 0.08, 0.16: 0.04 runs in a worker on two and
    # three cores, 0.16 in the calling process on three.  The oracle case
    # also fails the residuals at 0.02, in the calling process, but the
    # serial run checks the oracle at every coupling first; the residual
    # case fails the residuals at 0.04 and 0.16 only, after the oracle
    # verdict.  The reports on one, two and three cores are the same bytes
    (code, two, three, checks_run, failures, children), _ = _forked(
        tmp_path, VERIFY_FAILURES_SCRIPT, kind, tmp_path / "out")
    assert code == 1 and two and three
    assert checks_run == verdicts
    assert failures == [{"check": "setup", "reason": reason}]
    assert children == 0


VERIFY_DEATH_SCRIPT = """
import signal
from latticedress import cli
from latticedress.config import parse_config

dressing = checks.dressing_matrices

def dying(pair, lam, plus=False):
    if os.getpid() != parent and lam == 0.04:
        os.kill(os.getpid(), signal.SIGKILL)
    return dressing(pair, lam, plus)

checks.dressing_matrices = dying
cfg = parse_config("model:\\n  lattice: {sites_per_dim: 3, physical_length: 3.0}\\n"
                   "numerics: {per_mode_cutoff: 3, total_cutoff: 3}\\n")
code = cli.run(cfg, "verify", sys.argv[2])
with open(os.path.join(sys.argv[2], "report.json")) as fh:
    report = json.load(fh)
print(json.dumps([code, report["verdicts"], report["failures"],
                  len(multiprocessing.active_children())]))
"""


def test_a_verify_worker_that_dies_is_a_setup_failure(tmp_path):
    # the run exits 1 with its report, which keeps the verdicts before the
    # oracle's and names the check, the coupling and how its worker ended; no process
    # is left running
    (code, verdicts, failures, children), _ = _forked(
        tmp_path, VERIFY_DEATH_SCRIPT, tmp_path / "out")
    assert code == 1
    assert [v["check"] for v in verdicts] == ["no_bad_terms", "momentum_commutation"]
    assert failures == [{"check": "setup", "reason": "verify's worker process "
                         "for coupling 0.04 died (signal SIGKILL)"}]
    assert children == 0


def _whole_oracle(matrices, lambdas, block) -> list[float]:
    """The slow reference of `verify_pass`'s oracle: the whole exp(R) H
    exp(-R) - K, restricted to the block."""
    from latticedress.numerics import conjugate_numeric, restricted_norm

    out = []
    for lam in lambdas:
        mh, mr = matrices.pair(lam)
        whole = conjugate_numeric(mr, mh) - matrices.transformed(lam).toarray()
        out.append(restricted_norm(whole, matrices.basis, block))
    return out


@pytest.mark.parametrize("changes", [
    {"model.order": 3},                                         # the golden verify
    {"model.order": 3, "numerics.lambdas": [0.0, 0.02, 0.04, 0.08, 0.16]},
    {"model.interaction.name": "free", "model.lattice.sites_per_dim": 3,
     "model.lattice.physical_length": 2.0 * math.pi,
     "numerics.per_mode_cutoff": 3, "numerics.total_cutoff": 3},
    {"model.lattice.sites_per_dim": 3, "model.lattice.physical_length": 3.0},
    {"numerics.per_mode_cutoff": 5, "numerics.total_cutoff": 5},
    {"model.lattice.dim": 2, "model.lattice.sites_per_dim": 3,
     "model.lattice.physical_length": 3.0,
     "numerics.per_mode_cutoff": 3, "numerics.total_cutoff": 3},
    {"model.interaction.name": "scalar-yukawa", "model.lattice.sites_per_dim": 3,
     "model.lattice.physical_length": 3.0,
     "model.species": [{"name": "N", "mass": 1.0}, {"name": "phi", "mass": 0.5}],
     "numerics.per_mode_cutoff": 3, "numerics.total_cutoff": 3},
], ids=["golden", "golden-zero", "golden-free", "1d-S3", "1d-S5", "2d-S3", "yukawa"])
def test_oracle_block_rows_are_the_whole_conjugation_bit_for_bit(changes):
    # the oracle forms (P w) H (P w)^H - K[P, P] on the block's rows alone;
    # its norms are those of the whole w H w^H - K restricted to the block,
    # bit for bit, and so are the block's entries
    from latticedress.numerics import conjugate_numeric

    cfg = phi3_config(changes)
    model = cli.model_from_config(cfg)
    matrices = CouplingMatrices(dress(model), cli._basis_from_config(model, cfg))
    lambdas = [lam for lam in cfg.lambdas if lam > 0] + [0.3]
    block = cfg.checks["oracle"].params["block"]
    got = checks.verify_pass(matrices, lambdas, block, residuals=False).differences()
    assert got == _whole_oracle(matrices, lambdas, block)
    rows = matrices.basis.block_indices(block)
    mh, mr = matrices.pair(0.16)
    whole = conjugate_numeric(mr, mh)[np.ix_(rows, rows)]
    assert conjugate_numeric(mr, mh, rows).tobytes() == whole.tobytes()


def test_a_failed_part_holds_none_of_its_couplings_matrices(monkeypatch, serial,
                                                            small_basis, small_result):
    # the oracle fails at the first coupling; the residuals run on, and
    # the failure kept for the reader holds none of that coupling's matrices
    from latticedress.numerics import OracleError

    formed = []
    dressing = checks.dressing_matrices
    alive_then = []

    def failing(r, h, rows=None):
        dense = np.ones((small_basis.dimension,) * 2)
        formed.append(weakref.ref(dense))
        raise OracleError("refused")

    def residual(pair, lam, plus=False):
        alive_then.append([ref() is not None for ref in formed])
        return dressing(pair, lam, plus)

    monkeypatch.setattr(checks, "conjugate_numeric", failing)
    monkeypatch.setattr(checks, "dressing_matrices", residual)
    checked = checks.verify_pass(CouplingMatrices(small_result, small_basis),
                                 [0.02, 0.04], block=2)
    assert alive_then == [[False], [False]]
    assert len(checked.residuals().vacuum) == 2
    with pytest.raises(OracleError, match="refused"):
        checked.differences()


@pytest.mark.parametrize("residuals", [True, False])
def test_verify_keeps_no_pair_past_its_checks(residuals):
    # whether or not the residuals run, no pair stays for the scans
    import scipy.sparse as sp

    cfg = phi3_config({"model.lattice.sites_per_dim": 3,
                       "numerics.per_mode_cutoff": 3, "numerics.total_cutoff": 3,
                       "checks.residuals.enabled": residuals})
    report = {"verdicts": []}
    result = cli.run_dress(cli.model_from_config(cfg), report)
    matrices = cli.run_verify(cfg, report, result)
    assert "oracle" in report["verify"]
    assert ("residuals" in report["verify"]) == residuals
    assert not any(sp.issparse(v) or isinstance(v, (dict, list, tuple))
                   for v in vars(matrices).values())


def test_spacelike_scan_forms_each_distinct_point_once_per_coupling(
        monkeypatch, serial, small_basis, small_result):
    commutators = []
    commutator = checks._commutator

    def counted(ax, ay):
        commutators.append(1)
        return commutator(ax, ay)

    monkeypatch.setattr(checks, "_commutator", counted)
    grid = [((0,), (1,), 1.0), ((0,), (2,), 0.5), ((0,), (1,), 1.0)]
    rep = spacelike_scan(CouplingMatrices(small_result, small_basis),
                         lambdas=[0.05, 0.1, 0.1], grid=grid)
    # 2 distinct points, couplings 0, 0.05 and 0.1
    assert len(commutators) == 2 * 3
    assert len(rep.points) == 3 * 3
    assert rep.points[:3] == rep.points[6:]


COMMUTATORS_SCRIPT = """
commutator = checks._commutator

def counted(ax, ay):
    log()
    return commutator(ax, ay)

checks._commutator = counted
grid = [((0,), (1,), 1.0), ((0,), (2,), 0.5), ((0,), (1,), 1.0)]
rep = spacelike_scan(CouplingMatrices(result, basis), lambdas=[0.05, 0.1, 0.1], grid=grid)
print(json.dumps([len(rep.points), rep.points[:3] == rep.points[6:]]))
"""


def test_spacelike_scan_forms_each_distinct_point_once_per_coupling_in_all_processes(
        tmp_path):
    # the test above with worker processes: 2 distinct points, couplings 0
    # (in the scan's own process), 0.05 and 0.1 (in the workers)
    (n_points, repeats), lines = _forked(tmp_path, COMMUTATORS_SCRIPT)
    assert len(lines) == 2 * 3
    assert sorted(here for here, _ in lines) == [False] * 4 + [True] * 2
    assert n_points == 3 * 3 and repeats


SAME_SCANS_SCRIPT = """
def scans():
    matrices = CouplingMatrices(result, basis)
    grid = [((0,), (1,), 1.0), ((0,), (2,), 0.5), ((0,), (1,), 1.0)]
    return (spacelike_scan(matrices, lambdas=[0.1, 0.0, 0.05, 0.1], grid=grid),
            equal_time_scan(matrices, times=[0.0, 1.0], lambdas=[0.1, 0.0, 0.05, 0.1],
                            site_pairs=[((0,), (1,)), ((0,), (2,))]))

build = checks._LambdaContext.__init__

def logged(self, matrices, lam, sites, claim=None):
    log(lam)
    build(self, matrices, lam, sites, claim)

checks._LambdaContext.__init__ = logged
three = scans()
processes._usable_cores = lambda: 2
two = scans()
processes._usable_cores = lambda: 1
serial = scans()
print(json.dumps([three == serial, two == serial, len(serial[0].points),
                  len(serial[1].points)]))
"""


def test_scans_are_the_same_on_one_two_and_three_cores(tmp_path):
    # a repeated grid point and a repeated coupling; the workers' blocks
    # come back bit for bit, and the rows, subtractions and fit are formed
    # in the scan's own process either way
    (*same, n_spacelike, n_equal_time), lines = _forked(tmp_path, SAME_SCANS_SCRIPT)
    assert same == [True, True]
    assert n_spacelike == 3 * 4 and n_equal_time == 2 * 3 * 2
    # in each scan the couplings after the first go to two workers on three
    # cores, the second of them to one worker on two
    assert sum(not here for here, *_ in lines) == 2 * (2 + 1)


FAILURES_SCRIPT = """
import time
from latticedress.numerics import OracleError

lambdas = [0.05, 0.1, 0.2]
order = sorted(set(lambdas) | {0.0}, key=lambda lam: lam != 0.0)
first, later = [lam for lam in order if lam in (0.1, 0.2)]
build = checks.dressing_matrices

def failing(matrices, lam, plus=False):
    if lam == first:
        time.sleep(0.5)     # fails after the later coupling has failed
        raise MemoryError if sys.argv[2] == "memory" else OracleError(f"{lam} refused")
    if lam == later:
        raise OracleError(f"{lam} refused")
    return build(matrices, lam, plus)

checks.dressing_matrices = failing

def outcome(scan, cores):
    processes._usable_cores = lambda: cores
    matrices = CouplingMatrices(result, basis)
    try:
        if scan == "spacelike":
            spacelike_scan(matrices, lambdas=lambdas, grid=[((0,), (1,), 1.0)])
        else:   # the spacelike scan's couplings, in its order
            equal_time_scan(matrices, times=[0.0, 1.0], lambdas=order,
                            site_pairs=[((0,), (1,))])
    except Exception as exc:
        return [type(exc).__name__, str(exc)]

print(json.dumps([[outcome(scan, 2), outcome(scan, 3), outcome(scan, 1)]
                  for scan in ("spacelike", "equal_time")]
                 + [first, len(multiprocessing.active_children())]))
"""


@pytest.mark.parametrize("kind", ["oracle", "memory"])
def test_the_first_failing_coupling_is_the_serial_runs(tmp_path, kind):
    # two couplings fail, in each scan; on two cores the one the serial run
    # reaches first runs in the scan's own process and fails last in time,
    # on three in a worker; either way the same coupling's exception is
    # raised, with the same type and message, and every worker is joined
    (*scans, first, children), _ = _forked(tmp_path, FAILURES_SCRIPT, kind)
    for two, three, serial in scans:
        assert two == serial and three == serial
        assert serial == (["MemoryError", ""] if kind == "memory"
                          else ["OracleError", f"{first} refused"])
    assert children == 0


DEATH_SCRIPT = """
import signal
from latticedress import cli
from latticedress.config import parse_config

build = checks.dressing_matrices

def dying(matrices, lam, plus=False):
    if os.getpid() != parent and lam == 0.1:
        if sys.argv[2] == "exit":
            os._exit(3)
        os.kill(os.getpid(), signal.SIGKILL)
    return build(matrices, lam, plus)

checks.dressing_matrices = dying
runs = []
# each scan at its default couplings: 0.1 goes to a worker
for scan in ("spacelike", "equal_time"):
    cfg = parse_config("model:\\n  lattice: {sites_per_dim: 3, physical_length: 3.0}\\n"
                       f"checks:\\n  {scan}: {{enabled: true}}\\n")
    out = os.path.join(sys.argv[3], scan)
    code = cli.run(cfg, "scan", out)
    with open(os.path.join(out, "report.json")) as fh:
        report = json.load(fh)
    runs.append([code, report["verdicts"], report["failures"]])
print(json.dumps([runs, len(multiprocessing.active_children())]))
"""


@pytest.mark.parametrize("how, ending", [("exit", "exit code 3"),
                                         ("kill", "signal SIGKILL")])
def test_a_worker_that_dies_is_a_setup_failure(tmp_path, how, ending):
    # in each scan the run exits 1 with its report, which keeps the
    # verdicts before the scan and names the coupling and how its worker
    # ended; no process is left running
    (runs, children), _ = _forked(tmp_path, DEATH_SCRIPT, how, tmp_path / "out")
    assert len(runs) == 2
    for code, verdicts, failures in runs:
        assert code == 1
        assert [v["check"] for v in verdicts] == ["no_bad_terms"]
        assert failures == [{"check": "setup", "reason": "the scan's worker process "
                             f"for coupling 0.1 died ({ending})"}]
    assert children == 0


FORK_FAILURE_SCRIPT = """
import errno, multiprocessing.connection, multiprocessing.process
from latticedress import cli
from latticedress.config import load_config

def shared():
    # shared writable mappings: the hand-over slots and the slot lock
    with open("/proc/self/maps") as fh:
        return sum(" rw-s " in line for line in fh)

kind, which = sys.argv[2], int(sys.argv[3])
real = {"start": multiprocessing.process.BaseProcess.start,
        "pipe": multiprocessing.connection.Pipe}
calls, started = [], []

def refusing(name):
    def refused(*args, **kwargs):
        if name == kind:
            calls.append(name)
            if len(calls) == which:     # as a pids or open-files limit refuses
                raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        out = real[name](*args, **kwargs)
        if name == "start":
            started.append(1)
        return out
    return refused

cfg = load_config(sys.argv[4])
processes._usable_cores = lambda: 1
one_core = cli.run(cfg, "scan", os.path.join(sys.argv[5], "1"))
multiprocessing.process.BaseProcess.start = refusing("start")
multiprocessing.connection.Pipe = refusing("pipe")
processes._usable_cores = lambda: 3
before = shared()
code = cli.run(cfg, "scan", os.path.join(sys.argv[5], "3"))
after = shared()
reports = [open(os.path.join(sys.argv[5], cores, "report.json"), "rb").read()
           for cores in ("1", "3")]
print(json.dumps([one_core, code, reports[0] == reports[1], before, after, len(calls),
                  len(started), len(multiprocessing.active_children())]))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"),
                    reason="the system lists no process mappings")
@pytest.mark.parametrize("kind, which", [("start", 1), ("start", 2), ("pipe", 2)],
                         ids=["first start", "second start", "second pipe"])
def test_a_worker_that_cannot_start_leaves_the_one_core_report(tmp_path, kind, which):
    # the spacelike scan of configs/phi3-scan.yaml on three cores, whose
    # second or first worker cannot be started: the workers that started
    # are ended, the hand-over is unmapped, and every coupling runs in the
    # calling process, which writes the one-core report with its exit code
    (one_core, code, same, before, after, refused, started, children), _ = _forked(
        tmp_path, FORK_FAILURE_SCRIPT, kind, which,
        REPO_ROOT / "configs" / "phi3-scan.yaml", tmp_path / "out")
    assert code == one_core == 0 and same
    assert refused == which and started == (1 if kind == "pipe" else which - 1)
    assert after == before and children == 0


NO_WAIT_SCRIPT = """
import time

build = checks.dressing_matrices

def slowed(matrices, lam, plus=False):
    if os.getpid() == parent:
        log("built", lam)
    elif lam == 0.05:
        time.sleep(0.5)
        log("woke", lam)
    return build(matrices, lam, plus)

processes._usable_cores = lambda: 2
checks.dressing_matrices = slowed
spacelike_scan(CouplingMatrices(result, basis), lambdas=[0.05, 0.1, 0.2],
               grid=[((0,), (1,), 1.0)])
print(json.dumps(None))
"""


def test_this_process_runs_its_share_before_taking_a_worker_result(tmp_path):
    # on two cores the scan's own process runs 0 and 0.1, its worker 0.05
    # and 0.2; the worker's 0.05 is slowed down, and the scan's own process
    # builds 0.1 before that coupling's result could have come back
    _, lines = _forked(tmp_path, NO_WAIT_SCRIPT)
    events = [(here, *values) for here, _, *values in lines]
    assert events.index((True, "built", 0.1)) < events.index((False, "woke", 0.05))
    assert [e for e in events if e[0]] == [(True, "built", 0.0), (True, "built", 0.1)]


# on two cores: the worker runs 0.05 and 0.2, and sleeps at the start of
# 0.2, so that the scan's own process publishes 0.2's evolutions first
HANDOVER_PRELUDE = """
import time
import scipy.linalg

build = checks.dressing_matrices

def slowed(matrices, lam, plus=False):
    if os.getpid() != parent and lam == 0.2:
        time.sleep(0.5)
    return build(matrices, lam, plus)

checks.dressing_matrices = slowed

def outcome(cores):
    processes._usable_cores = lambda: cores
    try:
        rep = spacelike_scan(CouplingMatrices(result, basis), lambdas=[0.05, 0.1, 0.2],
                             grid=[((0,), (1,), 1.0), ((0,), (2,), 0.5)])
    except Exception as exc:
        return [type(exc).__name__, str(exc)]
    return [rep.points, rep.slope]
"""

PUBLISHED_SCRIPT = HANDOVER_PRELUDE + """
claim = processes._Handover.claim

def compared(self, lam, t):
    u = claim(self, lam, t)
    if u is None:
        log(lam, t, None)
    else:
        own = scipy.linalg.expm(1j * t * CouplingMatrices(result, basis).pair(lam)[0].toarray())
        log(lam, t, [u.tobytes() == own.tobytes(), u.dtype == own.dtype,
                     u.strides == own.strides])
    return u

processes._Handover.claim = compared
print(json.dumps(outcome(2) == outcome(1)))
"""


def test_a_published_evolution_is_the_owners_own_bit_for_bit(tmp_path):
    same, lines = _forked(tmp_path, PUBLISHED_SCRIPT)
    assert same
    claims = {(lam, t): published for here, _, lam, t, published in lines}
    assert not any(here for here, *_ in lines)      # only the worker claims
    assert sorted(claims) == [(0.05, 0.5), (0.05, 1.0), (0.2, 0.5), (0.2, 1.0)]
    assert claims[0.2, 1.0] == claims[0.2, 0.5] == [True, True, True]
    assert all(p in (None, [True, True, True]) for p in claims.values())


HELPER_FAILS_SCRIPT = HANDOVER_PRELUDE + """
from latticedress.numerics import OracleError

expm = scipy.linalg.expm
publish = processes._Handover.publish
helping = []

def failing_expm(a, *args, **kwargs):
    if helping:
        log("raised")
        raise MemoryError
    return expm(a, *args, **kwargs)

def flagged(self):
    helping.append(True)
    try:
        publish(self)
    finally:
        helping.clear()

def refused(matrices, lam, plus=False):
    if sys.argv[2] == "failing" and lam == 0.05:
        raise OracleError(f"{lam} refused")
    return slowed(matrices, lam, plus)

scipy.linalg.expm = failing_expm
processes._Handover.publish = flagged
checks.dressing_matrices = refused
two, serial = outcome(2), outcome(1)
print(json.dumps([two == serial, serial if sys.argv[2] == "failing" else None]))
"""


@pytest.mark.parametrize("scan", ["passing", "failing"])
def test_a_helper_whose_expm_raises_changes_nothing(tmp_path, scan):
    # every exp(i t H) the scan's own process forms for its worker raises;
    # the worker forms its own, and the scan, or its failure, is the one-core
    # one; in the failing scan the worker's 0.05 is refused before it
    # claims a slot, so both of its evolutions are tried too
    (same, failure), lines = _forked(tmp_path, HELPER_FAILS_SCRIPT, scan)
    assert same
    assert failure == (["OracleError", "0.05 refused"] if scan == "failing" else None)
    raised = [here for here, _, event in lines if event == "raised"]
    assert raised and all(raised)
    assert len(raised) >= (4 if scan == "failing" else 2)


NO_SEMAPHORE_SCRIPT = HANDOVER_PRELUDE + """
claim = processes._Handover.claim

def logged(self, lam, t):
    log(lam, t)
    return claim(self, lam, t)

def refused(self):
    raise ImportError("This platform lacks a functioning sem_open implementation")

processes._Handover.claim = logged
multiprocessing.context.BaseContext.Lock = refused
print(json.dumps([outcome(3) == outcome(1), outcome(2) == outcome(1),
                  len(multiprocessing.active_children())]))
"""


def test_scans_without_semaphores_hand_nothing_over(tmp_path):
    # where the system has no semaphores (no /dev/shm, say), the slot lock
    # cannot be made: the workers still run, each forming its own evolutions
    (three, two, children), lines = _forked(tmp_path, NO_SEMAPHORE_SCRIPT)
    assert three and two and children == 0
    assert lines == []


def test_a_held_slot_lock_holds_up_no_process(monkeypatch, small_basis, small_result):
    # a process killed while it holds the slot lock never releases it: the
    # worker then forms its own evolution, and this process publishes
    # nothing more, each after `_LOCK_SECONDS`
    import multiprocessing
    import scipy.linalg

    monkeypatch.setattr(processes, "_LOCK_SECONDS", 0.01)
    matrices = CouplingMatrices(small_result, small_basis)
    n = small_basis.dimension
    handover = processes._Handover(
        multiprocessing.get_context("fork"), [0.1, 0.2], [1.0, 0.5], (n, n),
        lambda lam: checks._evolutions(matrices.pair(lam)[0].toarray()))
    try:
        handover._lock.acquire()
        handover.publish()
        assert handover.claim(0.1, 1.0) is None
        handover._lock.release()
        assert handover.claim(0.2, 1.0) is None             # nothing published
        handover.publish()                                  # the rest, unclaimed
        u = handover.claim(0.2, 0.5)
        h = CouplingMatrices(small_result, small_basis).pair(0.2)[0].toarray()
        assert u.tobytes() == scipy.linalg.expm(0.5j * h).tobytes()
        assert handover.claim(0.1, 1.0) is not None     # the timed-out claim changed nothing
    finally:
        handover.close()


LINGER_SCRIPT = """
import signal

def shared():
    # shared writable mappings: the hand-over slots and the slot lock
    with open("/proc/self/maps") as fh:
        return sum(" rw-s " in line for line in fh)

build = checks.dressing_matrices
publish = processes._Handover.publish
during = []

def dying(matrices, lam, plus=False):
    if sys.argv[2] == "kill" and os.getpid() != parent and lam == 0.1:
        os.kill(os.getpid(), signal.SIGKILL)
    return build(matrices, lam, plus)

def counted(self):
    during.append(shared())
    publish(self)

checks.dressing_matrices = dying
processes._Handover.publish = counted
before = shared()
try:
    spacelike_scan(CouplingMatrices(result, basis), lambdas=[0.05, 0.1, 0.2],
                   grid=[((0,), (1,), 1.0)])
    failure = None
except ArithmeticError as exc:      # counted while the traceback holds the frames
    failure = str(exc)
    after = shared()
else:
    after = shared()
print(json.dumps([failure, before, during, after, len(multiprocessing.active_children())]))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"),
                    reason="the system lists no process mappings")
@pytest.mark.parametrize("how, failure", [
    ("pass", None),
    ("kill", "the scan's worker process for coupling 0.1 died (signal SIGKILL)")])
def test_no_slot_or_child_outlives_a_scan(tmp_path, how, failure):
    # three cores: couplings 0.05 and 0.1 go to the workers, one slot each;
    # the second worker is killed in the kill case, and the slots are gone
    # while its failure is still being handled
    (got, before, during, after, children), _ = _forked(tmp_path, LINGER_SCRIPT, how)
    assert got == failure
    assert during and during[0] > before
    assert after == before and children == 0


@pytest.mark.parametrize("scan, cores, lambdas, one_thread, spare", [
    ("spacelike", 1, [0.1], True, None), ("spacelike", 2, [0.0], True, None),
    ("spacelike", 2, [0.1], False, None), ("spacelike", 2, [0.1], True, 10**9),
    ("equal_time", 4, [0.1], True, None),
], ids=["one core", "one coupling", "other threads", "memory for one context",
        "equal-time scan"])
def test_scans_fork_nothing_where_they_stay_serial(monkeypatch, small_basis,
                                                   small_result, scan, cores,
                                                   lambdas, one_thread, spare):
    # `spare` forces a context estimate larger than the free memory; the
    # other cases have room for any number of contexts
    import multiprocessing

    def refuse(*args, **kwargs):
        raise AssertionError("a worker process was asked for")

    monkeypatch.setattr(multiprocessing, "get_context", refuse)
    monkeypatch.setattr(processes, "_usable_cores", lambda: cores)
    monkeypatch.setattr(processes, "_one_thread", lambda: one_thread)
    if spare:
        monkeypatch.setattr(checks, "_SPARE_MATRICES", spare)
    else:
        monkeypatch.setattr(processes, "_free_bytes", lambda: 2**60)
    matrices = CouplingMatrices(small_result, small_basis)
    if scan == "equal_time":
        rep = equal_time_scan(matrices, times=[0.0], lambdas=lambdas,
                              site_pairs=[((0,), (1,))])
    else:
        rep = spacelike_scan(matrices, lambdas=lambdas, grid=[((0,), (1,), 1.0)])
    assert [p.lam for p in rep.points] == lambdas


def test_workers_fit_beside_this_process(monkeypatch):
    # one process per usable core, this one included; no more workers than
    # couplings after the first; no more contexts than free memory holds,
    # this process's included
    monkeypatch.setattr(processes, "_one_thread", lambda: True)
    monkeypatch.setattr(processes, "_usable_cores", lambda: 8)
    free = 10**12
    monkeypatch.setattr(processes, "_free_bytes", lambda: free)
    assert processes._workers(4, 100) == 3
    assert processes._workers(20, 100) == 7
    for free, workers in [(399, 2), (300, 2), (299, 1), (199, 0), (0, 0)]:
        assert processes._workers(20, 100) == workers
    # the hand-over slots of every coupling after the first come off first
    for free, workers in [(10**12, 7), (300 + 19 * 50, 2), (299 + 19 * 50, 1)]:
        assert processes._workers(20, 100, 50) == workers
    monkeypatch.setattr(processes, "_one_thread", lambda: False)
    free = 10**12
    assert processes._workers(20, 100) == 0


def test_free_memory_is_zero_where_the_system_does_not_count_it(monkeypatch, tmp_path):
    assert processes._free_bytes() > 0

    def uncounted(name):
        raise ValueError(f"unrecognized configuration name {name}")

    monkeypatch.setattr(processes, "_MEMINFO", str(tmp_path / "no-meminfo"))
    monkeypatch.setattr(os, "sysconf", uncounted)
    assert processes._free_bytes() == 0


def test_free_memory_is_what_the_kernel_calls_available(monkeypatch, tmp_path):
    # MemAvailable counts the page cache that the kernel can reclaim, which
    # MemFree (the system's free page count) leaves out
    meminfo = tmp_path / "meminfo"
    meminfo.write_text("MemTotal:       16000000 kB\nMemFree:         6000000 kB\n"
                       "MemAvailable:    7500000 kB\nBuffers:          100000 kB\n")
    monkeypatch.setattr(processes, "_MEMINFO", str(meminfo))
    assert processes._free_bytes() == 7500000 * 1024


@pytest.mark.parametrize("meminfo", [None, "MemTotal: 16000000 kB\nMemFree: 6000 kB\n",
                                     "MemAvailable: many kB\n"],
                         ids=["no file", "no MemAvailable", "unreadable"])
def test_free_memory_falls_back_to_the_free_page_count(monkeypatch, tmp_path, meminfo):
    path = tmp_path / "meminfo"
    if meminfo is not None:
        path.write_text(meminfo)
    monkeypatch.setattr(processes, "_MEMINFO", str(path))
    pages = {"SC_AVPHYS_PAGES": 1000, "SC_PAGE_SIZE": 4096}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    assert processes._free_bytes() == 1000 * 4096


def test_usable_cores_are_the_affinity(monkeypatch):
    # `taskset -c 0` leaves one usable core, so the scans stay serial
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert processes._usable_cores() == 1
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert processes._usable_cores() == 5


def test_a_running_thread_keeps_the_scans_serial():
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert not processes._one_thread()
    finally:
        stop.set()
        thread.join()


def test_spacelike_scan_rejects_timelike_points(small_basis, small_result):
    # coincident sites: separation 0 <= |tau|
    with pytest.raises(ScanError, match="spacelike"):
        spacelike_scan(CouplingMatrices(small_result, small_basis),
                       lambdas=[0.1], grid=[((0,), (0,), 1.0)])


def test_spacelike_scan_records_baseline_and_subtraction(small_basis, small_result):
    rep = spacelike_scan(CouplingMatrices(small_result, small_basis),
                         lambdas=[0.05, 0.1], grid=[((0,), (1,), 1.0)], block=2)
    assert len(rep.points) == 2
    for p in rep.points:
        assert p.separation == pytest.approx(2.0)
        assert p.baseline >= 0.0
        assert p.subtracted >= 0.0
    assert rep.noise_floor > 0.0
    rows = rep.rows()
    assert {"x", "y", "separation", "tau", "lambda", "magnitude", "vev",
            "baseline", "subtracted", "spacelike"} <= set(rows[0])
    assert all(row["spacelike"] is True for row in rows)


# ---------------------------------------------------------------------------
# squeezing (through conjugate_numeric, on the half-cutoff block)


def test_bogoliubov_small_chi():
    dev, ccr = squeeze_deviation(0.1, cutoff=40, block=21)
    dev_doubled, _ = squeeze_deviation(0.1, cutoff=80, block=21)
    assert dev < 1e-6
    assert ccr < 1e-6
    assert dev_doubled <= dev


def test_bogoliubov_zero_chi_is_exact():
    dev, _ = squeeze_deviation(0.0, cutoff=20, block=11)
    dev_doubled, _ = squeeze_deviation(0.0, cutoff=40, block=11)
    assert dev == pytest.approx(0.0, abs=1e-14)
    assert dev_doubled <= dev or dev < 1e-12
