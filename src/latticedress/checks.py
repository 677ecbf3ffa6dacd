"""Executable checks for the claims the engine is built to verify.

* K commutes with the total momentum,
* the dressed vacuum and one-particle states are eigenstates of H up to
  the truncation order (residual ~ coupling^(N+1)),
* the dressed field commutes at equal times,
* the interaction induces a spacelike nonlocality scaling as coupling^2.

The residual and scan checks read the dressing result and the basis they
judge from one `numerics.CouplingMatrices`, and share its H(lam), R(lam).
Where R(lam) is zero, at lam = 0 (the spacelike baseline, the equal-time
scan's default coupling, a residual grid that holds 0) or for a free model,
`numerics.dressing_matrices` hands over exp(-R) = 1 as None: the dressed
states are the basis states and the dressed fields the bare ones, exactly.
The spacelike rows at lam = 0 have C(0)'s norm as magnitude and baseline,
and C(0) - C(0) as the exact 0.0.

Each scan's couplings are independent, and `_scan_each` runs them all.
The spacelike scan spreads them over this process and forked worker
processes, one process per usable core at most, as many as free memory
holds contexts (`_workers`).  The workers send back small results, and
this process forms every row, subtraction and fit from them, so a report's
bytes do not depend on the number of cores.

As in `numerics`, numpy and scipy are imported inside the functions that
use them, and so is `multiprocessing`, so that importing the command line,
and running its symbolic path, loads no numerical stack and no process
pool.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .algebra import OperatorSeries, coeff_abs, largest
from .models import ModelSpec, momentum_defect
from .modes import ModeIndex
from .numerics import (
    CouplingMatrices,
    block_norm,
    dressed_state,
    dressing_matrices,
    field_at_origin_time_zero,
    restricted_norm,
)

if TYPE_CHECKING:     # the annotations' names
    import numpy as np

DEFAULT_TIME_HORIZON_UNITS = 6.0
DEFAULT_BLOCK = 2       # the scans' and the oracle's low-quanta block
ZERO_FLOOR = 1e-12      # a value at or below this is zero
# dense matrices a spacelike coupling's context holds at its peak besides
# its fields and evolutions, H included: 9 with 2 sites, 10 with 5, by
# tracemalloc at 252 states
_SPARE_MATRICES = 10
SLOPE_FLOOR = 1e-13     # a value at or below this is left out of a slope fit


class ScanError(ValueError):
    """Invalid scan request (e.g. a non-spacelike grid point)."""


# ---------------------------------------------------------------------------
# momentum


def momentum_commutation_defect(k_series: OperatorSeries, model: ModelSpec) -> float:
    """max termwise |coefficient of [K, P_j]| over all components and orders.

    Computed with the crystal-momentum convention: the momentum balance of
    each term is wrapped to the first zone, so umklapp-conserving terms
    commute with the lattice momentum.  A component that a term conserves
    adds nothing, whatever the coefficient; a NaN coefficient on one that
    it breaks makes the defect NaN.
    """
    lat = model.system.lattice
    unit = 2.0 * math.pi / lat.physical_length
    return largest(coeff_abs(c) * abs(comp) * unit for o in k_series.orders
                   for sig, c in o.items() for comp in momentum_defect(sig, lat) if comp)


# ---------------------------------------------------------------------------
# eigenstate residuals


@dataclass
class ResidualReport:
    lambdas: list[float]
    vacuum: list[float]
    one_particle: dict[ModeIndex, list[float]]
    # computed by nothing; kept because every verify report writes it
    cutoff_sensitive: bool = False

    def rows(self) -> list[dict]:
        out = []
        for i, lam in enumerate(self.lambdas):
            out.append({"state": "vacuum", "lambda": lam, "residual": self.vacuum[i]})
            for mode, res in sorted(self.one_particle.items()):
                out.append({"state": repr(mode), "lambda": lam, "residual": res[i]})
        return out


def _loglog_slope(lambdas, values) -> float | None:
    """Least-squares slope of log(value) vs log(lambda); None if fewer than
    two distinct couplings have values above `SLOPE_FLOOR` (nothing to
    fit)."""
    import numpy as np

    xs, ys = [], []
    for lam, v in zip(lambdas, values):
        if lam > 0 and v > SLOPE_FLOOR:
            xs.append(math.log(lam))
            ys.append(math.log(v))
    if len(set(xs)) < 2:
        return None
    slope, _ = np.polyfit(xs, ys, 1)
    return float(slope)


def fall_off(lambdas, series, target, tol) -> tuple[list, float | None, bool]:
    """The verdict on value series that the dressing makes O(lambda^target):
    (each series' slope, the smallest fitted slope as `got`, pass).

    It passes when some series was fitted and every fitted slope is at least
    target - tol (a faster fall passes too; a series with no fit does not
    count), or when a positive coupling was judged and every value is at or
    below `ZERO_FLOOR`.
    """
    slopes = [_loglog_slope(lambdas, values) for values in series]
    fitted = [s for s in slopes if s is not None]
    ok = (bool(fitted) and all(s >= target - tol for s in fitted)) or (
        any(lam > 0 for lam in lambdas)
        and all(v <= ZERO_FLOOR for values in series for v in values))
    return slopes, min(fitted, default=None), ok


def _state_residual(mh: np.ndarray, psi: np.ndarray) -> float:
    import numpy as np

    psi = psi / np.linalg.norm(psi)
    h_psi = mh @ psi
    return float(np.linalg.norm(h_psi - np.vdot(psi, h_psi) * psi))


def eigenstate_residuals(matrices: CouplingMatrices, lambdas) -> ResidualReport:
    """Residuals of the dressed vacuum exp(-R)|0> and one-particle states
    exp(-R) a+_k |0> as approximate eigenstates of H, per coupling value,
    for the dressing result and basis of `matrices`; each dressed state is
    a column of exp(-R), a basis state where R(lam) is zero.  The couplings
    are taken in turn, and each one's dense H and exp(-R) are freed before
    the next coupling's are formed."""
    lambdas = list(lambdas)
    basis, system = matrices.basis, matrices.result.model.system
    vac_res: list[float] = []
    one_res: dict[ModeIndex, list[float]] = {m: [] for m in system.modes}
    vac_idx = basis.vacuum_index()
    one_idx = {m: basis.index_of([int(n == m) for n in basis.modes])
               for m in system.modes}
    n = basis.dimension
    for lam in lambdas:
        mh, _, w_inv = dressing_matrices(matrices, lam)
        vac_res.append(_state_residual(mh, dressed_state(w_inv, vac_idx, n)))
        for m, i in one_idx.items():
            one_res[m].append(_state_residual(mh, dressed_state(w_inv, i, n)))
        del mh, w_inv

    return ResidualReport(lambdas=lambdas, vacuum=vac_res, one_particle=one_res)


# ---------------------------------------------------------------------------
# field-commutator scans


@dataclass
class ScanPoint:
    x: tuple
    y: tuple
    separation: float
    tau: float
    lam: float
    magnitude: float          # restricted operator norm of the commutator
    vev_modulus: float        # |<vacuum| commutator |vacuum>|
    baseline: float = 0.0     # same magnitude at lambda = 0
    subtracted: float = 0.0   # restricted norm of C(lambda) - C(0)


@dataclass
class ScanReport:
    points: list[ScanPoint]
    slope: float | None = None
    noise_floor: float = 0.0

    def rows(self) -> list[dict]:
        return [{
            "x": list(p.x), "y": list(p.y),
            "separation": p.separation, "tau": p.tau, "lambda": p.lam,
            "magnitude": p.magnitude, "vev": p.vev_modulus,
            "baseline": p.baseline, "subtracted": p.subtracted,
            "spacelike": True,  # a timelike grid point is a ScanError
        } for p in self.points]


def _site_tuple(x) -> tuple:
    return tuple(x) if isinstance(x, (tuple, list)) else (int(x),)


class _LambdaContext:
    """One coupling's dense matrices: H, the dressed vacuum, the A(x,0)
    fields of `sites`, built from exp(+-R) in one pass over the modes when
    the context is created, and each time's evolution once asked for.
    exp(-R) and exp(+R) come from `dressing_matrices` as one pair that
    shares its Pade structure, exp(+R) formed after exp(-R) has passed its
    checks; they are not kept, and not formed where R is zero.  Each
    process that runs a scan's couplings keeps one context alive at a time
    (see `_scan_each`)."""

    def __init__(self, matrices: CouplingMatrices, lam, sites):
        import numpy as np

        model, basis = matrices.result.model, matrices.basis
        if len(model.system.species) != 1:
            raise ScanError("the field scans support single-species models")
        self.mh, w, w_inv = dressing_matrices(matrices, lam, plus=True)
        psi = dressed_state(w_inv, basis.vacuum_index(), basis.dimension)
        self.vacuum = psi / np.linalg.norm(psi)
        sites = list(dict.fromkeys(sites))
        self._fields = dict(zip(sites, field_at_origin_time_zero(
            model, basis, w_inv, w, sites)))
        self._evolution: dict = {}

    def field(self, site, t: float):
        import scipy.linalg

        if t == 0.0:
            return self._fields[site]
        if t not in self._evolution:
            self._evolution[t] = scipy.linalg.expm(1j * t * self.mh)
        u = self._evolution[t]
        return u @ self._fields[site] @ u.conj().T

    def vev(self, m) -> float:
        import numpy as np

        return abs(np.vdot(self.vacuum, m @ self.vacuum))


def _commutator(ax, ay):
    """[A(x,tx), A(y,ty)] of the two fields."""
    return ax @ ay - ay @ ax


def _usable_cores() -> int:
    """The cores this process may run on: its CPU affinity where the system
    has one, else every core."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _free_bytes() -> int:
    """The memory that no process holds, by the system's count of free
    pages; 0 where the system keeps no such count."""
    try:
        return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return 0


def _one_thread() -> bool:
    """Whether this process runs a single thread: its tasks where the system
    lists them (a BLAS thread pool counts), else Python's threads."""
    import threading

    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return threading.active_count() == 1


def _workers(couplings: int, context_bytes: int) -> int:
    """How many worker processes a scan of `couplings` couplings forks
    beside this process, which runs a share of them too: one per usable
    core after this process's, no more than the couplings after the first,
    and no more than free memory holds a context of `context_bytes` in each
    process, this one included.  0, so that nothing forks, where this
    process has other threads."""
    workers = min(_usable_cores() - 1, couplings - 1,
                  _free_bytes() // max(context_bytes, 1) - 1)
    return workers if workers > 0 and _one_thread() else 0


def _scan_each(matrices: CouplingMatrices, couplings, sites, work, take,
               workers: int = 0) -> None:
    """take(lam, work(lam, context)) for each coupling in order, each
    coupling's context built by the process that runs it and freed before
    that process builds its next.

    With `workers` (see `_workers`) and a fork start method, the couplings
    are dealt round-robin over this process and `workers` forked ones:
    coupling i runs in process i % (workers + 1), where 0 is this one,
    which so runs the first coupling.  The workers inherit `matrices` and
    `work` and send back each result.  `take` runs here on every result, in
    the couplings' order, as soon as the earlier ones are taken, so nothing
    it forms depends on the number of cores.  Else every coupling runs
    here, in turn.

    The first coupling that failed raises as it does in turn: the same
    type, the same message.  A worker that dies raises ArithmeticError
    naming its coupling and the signal or exit code.  Every worker is
    joined before this returns or raises.
    """
    def one(lam):
        return work(lam, _LambdaContext(matrices, lam, sites))

    if workers:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            _fork_each(multiprocessing.get_context("fork"), one, take, couplings,
                       workers + 1)
            return
    for lam in couplings:
        take(lam, one(lam))


def _fork_each(ctx, one, take, couplings, processes: int) -> None:
    """take(lam, one(lam)) for each coupling in order, coupling i run by
    process i % `processes`: 0 is this one, the others are forked from
    `ctx` (see `_scan_each`)."""
    pipes, procs = {}, {}       # worker k's end of its pipe, its process
    done = False
    try:
        for k in range(1, processes):
            pipes[k], send = ctx.Pipe(duplex=False)
            procs[k] = ctx.Process(target=_serve,
                                   args=(one, couplings[k::processes], send))
            procs[k].start()
            send.close()
        for i, lam in enumerate(couplings):
            k = i % processes
            if k == 0:
                take(lam, one(lam))
                continue
            try:
                ok, value = pipes[k].recv()
            except EOFError:
                procs[k].join()
                raise ArithmeticError(
                    f"the scan's worker process for coupling {lam!r} died "
                    f"({_ending(procs[k].exitcode)})") from None
            if not ok:
                raise value
            take(lam, value)
        done = True
    finally:
        for proc in procs.values():
            if not done:
                proc.terminate()
            proc.join()
        for recv in pipes.values():
            recv.close()


def _serve(one, couplings, conn) -> None:
    """A worker's loop: send (True, one(lam)) for each coupling in turn, or
    at the first failure (False, the exception), and stop."""
    for lam in couplings:
        try:
            conn.send((True, one(lam)))
        except Exception as exc:        # raised in the parent, in order
            conn.send((False, exc))
            return


def _ending(exitcode: int) -> str:
    """How a process ended, from its multiprocessing exit code."""
    import signal

    if exitcode < 0:
        try:
            return f"signal {signal.Signals(-exitcode).name}"
        except ValueError:
            return f"signal {-exitcode}"
    return f"exit code {exitcode}"


def equal_time_scan(matrices: CouplingMatrices, times, lambdas, site_pairs,
                    block: int = DEFAULT_BLOCK,
                    horizon_units: float = DEFAULT_TIME_HORIZON_UNITS) -> ScanReport:
    """|| [A(x,t), A(y,t)] || restricted to the low-quanta block, for every
    requested site pair, time and coupling, of the dressing result and basis
    of `matrices`.

    The couplings are scanned one at a time, in the order given, each
    through its own context by `_scan_each`, in this process: no benchmark
    workload has measured worker processes here, and the default couplings
    (0 and 0.1) would fork one for one coupling.  The points are listed by
    time, then coupling, then pair.
    """
    basis, lat = matrices.basis, matrices.result.model.system.lattice
    horizon = horizon_units * lat.spacing
    for t in times:
        if abs(t) > horizon:
            raise ScanError(f"time {t} beyond the horizon {horizon}")
    pairs = [(_site_tuple(a), _site_tuple(b)) for a, b in site_pairs]
    if not (times and lambdas and pairs):
        raise ScanError("the equal-time scan has no point: it needs a time, "
                        "a coupling and a site pair")
    sites = list(dict.fromkeys(s for pair in pairs for s in pair))
    couplings = list(dict.fromkeys(lambdas))

    def scan(lam, ctx):
        """The coupling's points, a list per time, pair by pair."""
        rows = []
        for t in times:
            # each site's A(x,t) once for all its pairs, dropped before the
            # next time forms its own
            fields = {s: ctx.field(s, t) for s in sites}
            points = []
            rows.append(points)
            for x, y in pairs:
                c = _commutator(fields[x], fields[y])
                points.append(ScanPoint(
                    x=x, y=y,
                    separation=lat.min_image_distance(x, y),
                    tau=t,  # the common time; x0 - y0 = 0 for these points
                    lam=lam,
                    magnitude=restricted_norm(c, basis, block),
                    vev_modulus=ctx.vev(c),
                ))
            del fields
        return rows

    by_coupling: list = []
    _scan_each(matrices, couplings, sites, scan,
               lambda lam, rows: by_coupling.append(rows))
    return ScanReport(points=[
        p for i in range(len(times)) for rows in by_coupling for p in rows[i]])


def spacelike_scan(matrices: CouplingMatrices, lambdas, grid,
                   block: int = DEFAULT_BLOCK,
                   horizon_units: float = DEFAULT_TIME_HORIZON_UNITS) -> ScanReport:
    """Baseline-subtracted commutator C(lam) = [A(x,tau), A(y,0)] over a grid
    of (x, y, tau) points, for the dressing result and basis of `matrices`.

    The free-lattice baseline C(0) is subtracted so the reported magnitude
    isolates the interaction-induced piece; its coupling scaling is fitted.
    Each coupling is scanned through its own context by `_scan_each`: first
    0, then the rest in the order of `set(lambdas)`, which decides which
    coupling a failure names, spread over this process and as many worker
    processes as `_workers` allows.  Each distinct grid point is formed
    once per coupling; the points are listed by grid point, then coupling,
    a repeated one and a repeated coupling each as often as given.

    Each commutator's low-quanta block is gathered once, with the indices
    `restricted_norm` gathers; a coupling's scan returns, per distinct grid
    point, that block, its norm (the magnitude) and the vev.  This process
    keeps C(0)'s blocks, and subtracts them from each other coupling's as
    it comes, keeping three numbers per point; it then fits, so no number
    depends on the number of cores.
    """
    import numpy as np

    basis, lat = matrices.basis, matrices.result.model.system.lattice
    horizon = horizon_units * lat.spacing
    grid = [(_site_tuple(x), _site_tuple(y), tau) for x, y, tau in grid]
    for x, y, tau in grid:
        sep = lat.min_image_distance(x, y)
        if not sep > abs(tau):
            raise ScanError(
                f"grid point x={x} y={y} tau={tau} is not spacelike "
                f"(separation {sep:.3f} <= |tau|)"
            )
        if abs(tau) > horizon:
            raise ScanError(f"tau={tau} beyond the horizon {horizon}")

    lambdas = list(lambdas)
    distinct = list(dict.fromkeys(grid))
    low = np.ix_(*[basis.block_indices(block)] * 2)

    def scan(lam, ctx):
        """(block, its norm, vev) of each distinct grid point's commutator."""
        out = []
        for x, y, tau in distinct:
            c = _commutator(ctx.field(x, tau), ctx.field(y, 0.0))
            cb = c[low]
            out.append((cb, block_norm(cb), ctx.vev(c)))
        return out

    c0: dict = {}       # grid point -> C(0)'s low-quanta block
    table: dict = {}    # (grid point, coupling) -> (magnitude, vev, subtracted)

    def take(lam, scanned):
        for point, (cb, magnitude, vev) in zip(distinct, scanned):
            if lam == 0.0:
                c0[point] = cb
                subtracted = 0.0
            else:
                subtracted = block_norm(cb - c0[point])
            table[point, lam] = (magnitude, vev, subtracted)

    # sorted is stable: 0 moves first, the rest keep the set's order
    couplings = sorted(set(lambdas) | {0.0}, key=lambda lam: lam != 0.0)
    sites = list(dict.fromkeys(s for x, y, _ in distinct for s in (x, y)))
    times = {tau for _, _, tau in distinct if tau != 0.0}
    # a context's peak: H, its fields and evolutions, and the spare matrices
    # of its build and of one commutator
    context_bytes = 16 * basis.dimension ** 2 * (
        len(sites) + len(times) + _SPARE_MATRICES)
    _scan_each(matrices, couplings, sites, scan, take,
               _workers(len(couplings), context_bytes))
    points = []
    for point in grid:
        x, y, tau = point
        sep, baseline = lat.min_image_distance(x, y), table[point, 0.0][0]
        for lam in lambdas:
            magnitude, vev, subtracted = table[point, lam]
            points.append(ScanPoint(x=x, y=y, separation=sep, tau=tau, lam=lam,
                                    magnitude=magnitude, vev_modulus=vev,
                                    baseline=baseline, subtracted=subtracted))

    # coupling-scaling fit at the grid point with the strongest signal; a
    # repeated grid point fits its couplings once per appearance
    best_slope = None
    best_signal = -1.0
    for point in distinct:
        subtracted = [table[point, lam][2] for lam in lambdas]
        signal = max((s for lam, s in zip(lambdas, subtracted) if lam > 0),
                     default=0.0)
        repeats = grid.count(point)
        slope = _loglog_slope(lambdas * repeats, subtracted * repeats)
        if slope is not None and signal > best_signal:
            best_signal = signal
            best_slope = slope
    floor = 1e-11 * max((p.baseline for p in points), default=1.0)
    return ScanReport(points=points, slope=best_slope, noise_floor=max(floor, 1e-13))
