import json
import math
import os
import threading
import weakref

import numpy as np
import pytest

from latticedress import checks, cli
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

from conftest import phi3_config, run_python, squeeze_deviation


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


@pytest.fixture
def serial(monkeypatch):
    """One usable core: the scans run every coupling in this process, where
    a test can count what they call."""
    monkeypatch.setattr(checks, "_usable_cores", lambda: 1)


# the small model, result and basis of the fixtures above, built in a fresh
# interpreter with one BLAS thread and three usable cores, so that the
# spacelike scan takes two worker processes on any machine; `log(*values)` appends a line
# of this process's id and the values to the file named by argv[1]
FORKED_PRELUDE = """
import json, multiprocessing, os, sys
from latticedress import checks
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
checks._usable_cores = lambda: 3

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
    # the equal-time scan builds both in its own process, the spacelike
    # scan its first coupling there and each other one in a worker; every
    # worker is joined
    children, lines = _forked(tmp_path, FIELDS_ONCE_SCRIPT)
    cut = next(i for i, line in enumerate(lines) if line[2:] == ["spacelike"])
    equal_time, spacelike = lines[:cut], lines[cut + 1:]
    assert [here for here, *_ in equal_time] == [True, True]
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

    def tracked(self, matrices, lam, sites):
        assert not list(alive), f"a context is alive when coupling {lam}'s is built"
        init(self, matrices, lam, sites)
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

    def counted(self, matrices, lam, sites):
        alive.append(sum(ref() is not None for ref in blocks))
        init(self, matrices, lam, sites)

    monkeypatch.setattr(checks, "block_norm", tracked)
    monkeypatch.setattr(checks._LambdaContext, "__init__", counted)
    spacelike_scan(CouplingMatrices(small_result, small_basis), lambdas=[0.05, 0.1, 0.2],
                   grid=[((0,), (1,), 1.0), ((0,), (2,), 0.5)])
    assert alive == [0, 2, 2, 2]


ONE_CONTEXT_SCRIPT = """
import weakref

alive = weakref.WeakSet()
init = checks._LambdaContext.__init__

def tracked(self, matrices, lam, sites):
    assert not list(alive), f"a context is alive when coupling {lam}'s is built"
    init(self, matrices, lam, sites)
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


def test_residuals_hold_one_couplings_dense_matrices(monkeypatch, small_basis,
                                                     small_result):
    # each coupling's H and exp(-R) are freed before the next coupling's
    # are formed, and no dense R is handed out
    matrices = CouplingMatrices(small_result, small_basis)
    dead = _keep_weakly(monkeypatch, checks, "dressing_matrices")
    eigenstate_residuals(matrices, [0.02, 0.04, 0.08])
    assert dead == [True, True, True]
    assert dressing_matrices(matrices, 0.1)[1] is None


def test_verify_holds_one_couplings_dense_matrices(monkeypatch, tmp_path):
    # the oracle's conjugated H and the residuals' H and exp(-R) of one
    # coupling are dead when the next coupling's are formed
    conjugated = _keep_weakly(monkeypatch, cli, "conjugate_numeric")
    dressed = _keep_weakly(monkeypatch, checks, "dressing_matrices")
    cfg = phi3_config({"model.lattice.sites_per_dim": 3,
                       "numerics.per_mode_cutoff": 3, "numerics.total_cutoff": 3,
                       "numerics.lambdas": [0.02, 0.04, 0.08]})
    cli.run(cfg, "verify", tmp_path)
    assert conjugated == [True, True, True]
    assert dressed == [True, True, True]


@pytest.mark.parametrize("residuals", [True, False])
def test_verify_keeps_no_pair_past_its_checks(residuals):
    # the oracle keeps each pair for the residuals only when they will run;
    # otherwise it pops it, and either way no pair stays for the scans
    cfg = phi3_config({"model.lattice.sites_per_dim": 3,
                       "numerics.per_mode_cutoff": 3, "numerics.total_cutoff": 3,
                       "checks.residuals.enabled": residuals})
    report = {"verdicts": []}
    result = cli.run_dress(cli.model_from_config(cfg), report)
    matrices = cli.run_verify(cfg, report, result)
    assert "oracle" in report["verify"]
    assert ("residuals" in report["verify"]) == residuals
    assert matrices._kept == {}


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

def logged(self, matrices, lam, sites):
    log(lam)
    build(self, matrices, lam, sites)

checks._LambdaContext.__init__ = logged
three = scans()
checks._usable_cores = lambda: 2
two = scans()
checks._usable_cores = lambda: 1
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
    # the spacelike couplings after 0 go to two workers on three cores, the
    # second of them to one worker on two; the equal-time scans run in the
    # test's own process
    assert sum(not here for here, *_ in lines) == 2 + 1


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

def outcome(cores):
    checks._usable_cores = lambda: cores
    try:
        spacelike_scan(CouplingMatrices(result, basis), lambdas=lambdas,
                       grid=[((0,), (1,), 1.0)])
    except Exception as exc:
        return [type(exc).__name__, str(exc)]

print(json.dumps([outcome(2), outcome(3), outcome(1), first,
                  len(multiprocessing.active_children())]))
"""


@pytest.mark.parametrize("kind", ["oracle", "memory"])
def test_the_first_failing_coupling_is_the_serial_runs(tmp_path, kind):
    # two couplings fail; on two cores the one the serial run reaches first
    # runs in the scan's own process and fails last in time, on three in a
    # worker; either way the same coupling's exception is raised, with the
    # same type and message, and every worker is joined
    (two, three, serial, first, children), _ = _forked(tmp_path, FAILURES_SCRIPT, kind)
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
cfg = parse_config("model:\\n  lattice: {sites_per_dim: 3, physical_length: 3.0}\\n"
                   "checks:\\n  spacelike: {enabled: true}\\n")
code = cli.run(cfg, "scan", sys.argv[3])
with open(os.path.join(sys.argv[3], "report.json")) as fh:
    report = json.load(fh)
print(json.dumps([code, report["verdicts"], report["failures"],
                  len(multiprocessing.active_children())]))
"""


@pytest.mark.parametrize("how, ending", [("exit", "exit code 3"),
                                         ("kill", "signal SIGKILL")])
def test_a_worker_that_dies_is_a_setup_failure(tmp_path, how, ending):
    # the run exits 1 with its report, which keeps the verdicts before the
    # scan and names the coupling and how its worker ended; no process is
    # left running
    (code, verdicts, failures, children), _ = _forked(
        tmp_path, DEATH_SCRIPT, how, tmp_path / "out")
    assert code == 1
    assert [v["check"] for v in verdicts] == ["no_bad_terms"]
    assert failures == [{"check": "setup", "reason": "the scan's worker process "
                         f"for coupling 0.1 died ({ending})"}]
    assert children == 0


@pytest.mark.parametrize("scan, cores, lambdas, one_thread, spare", [
    ("spacelike", 1, [0.1], True, None), ("spacelike", 2, [0.0], True, None),
    ("spacelike", 2, [0.1], False, None), ("spacelike", 2, [0.1], True, 10**9),
    ("equal_time", 4, [0.0, 0.1, 0.2], True, None),
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
    monkeypatch.setattr(checks, "_usable_cores", lambda: cores)
    monkeypatch.setattr(checks, "_one_thread", lambda: one_thread)
    if spare:
        monkeypatch.setattr(checks, "_SPARE_MATRICES", spare)
    else:
        monkeypatch.setattr(checks, "_free_bytes", lambda: 2**60)
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
    monkeypatch.setattr(checks, "_one_thread", lambda: True)
    monkeypatch.setattr(checks, "_usable_cores", lambda: 8)
    free = 10**12
    monkeypatch.setattr(checks, "_free_bytes", lambda: free)
    assert checks._workers(4, 100) == 3
    assert checks._workers(20, 100) == 7
    for free, workers in [(399, 2), (300, 2), (299, 1), (199, 0), (0, 0)]:
        assert checks._workers(20, 100) == workers
    monkeypatch.setattr(checks, "_one_thread", lambda: False)
    free = 10**12
    assert checks._workers(20, 100) == 0


def test_free_memory_is_zero_where_the_system_does_not_count_it(monkeypatch):
    assert checks._free_bytes() > 0

    def uncounted(name):
        raise ValueError(f"unrecognized configuration name {name}")

    monkeypatch.setattr(os, "sysconf", uncounted)
    assert checks._free_bytes() == 0


def test_usable_cores_are_the_affinity(monkeypatch):
    # `taskset -c 0` leaves one usable core, so the scans stay serial
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert checks._usable_cores() == 1
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert checks._usable_cores() == 5


def test_a_running_thread_keeps_the_scans_serial():
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert not checks._one_thread()
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
