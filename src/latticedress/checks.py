"""Executable checks for the claims the engine is built to verify.

* K commutes with the total momentum,
* the dressed vacuum and one-particle states are eigenstates of H up to
  the truncation order (residual ~ coupling^(N+1)),
* the dressed field commutes at equal times,
* the interaction induces a spacelike nonlocality scaling as coupling^2.

The verify, residual and scan checks read the dressing result and the basis
they judge from one `numerics.CouplingMatrices`, and assemble its H(lam),
R(lam) once per coupling.  `verify_pass` runs the oracle and the residuals
in one pass per coupling, the oracle difference formed on the low-quanta
block's rows alone.  Where R(lam) is zero, at lam = 0 (the spacelike
baseline, the equal-time scan's default coupling, a residual grid that
holds 0) or for a free model, `numerics.dressing_matrices` hands over
exp(-R) = 1 as None: the dressed states are the basis states and the
dressed fields the bare ones, exactly.  The spacelike rows at lam = 0 have
C(0)'s norm as magnitude and baseline, and C(0) - C(0) as the exact 0.0.

Both scans compute the low-quanta block of [A(x,tx), A(y,ty)] at a list
of points, per coupling, through one core, `_commutator_scan`; each keeps
only its validation, its point list and what it forms from the blocks.

Each check's couplings are independent: `verify_pass` and both scans
hand them to `processes.each_coupling`, which runs them over this process
and forked workers, with the memory that one coupling holds at its peak.
A scan also hands over the evolutions exp(i tau H) that its workers have
not reached yet, each formed by `_evolutions`, the expression its
contexts use, so a handed-over one is bit for bit what the worker would
form.  The workers send back small results, and this process forms every
row, subtraction and fit from them, so a report's bytes do not depend on
the number of cores.

As in `numerics`, numpy and scipy are imported inside the functions that
use them, so that importing the command line, and running its symbolic
path, loads no numerical stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import processes
from .algebra import OperatorSeries, coeff_abs, largest
from .models import ModelSpec, momentum_defect
from .modes import ModeIndex
# restricted_norm is not called here: perfbench's layer hooks look it up
# where this module imports it
from .numerics import (
    CouplingMatrices,
    block_norm,
    conjugate_numeric,
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
# dense matrices a scan coupling's context holds at its peak besides its
# fields, one time's held fields and its evolutions, H included: 7.0 for a
# spacelike point (2 sites, one time), 7.3 for the equal-time scan of 5
# sites at two nonzero times, by tracemalloc at 252 states
_SPARE_MATRICES = 8
# dense matrices a verify coupling holds at its peak, either part: 7.6 to
# 7.9 by tracemalloc at 126 to 252 states
_VERIFY_MATRICES = 8
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


class VerifyPass:
    """The oracle differences and the eigenstate residuals that `verify_pass`
    formed, each read in its own couplings' order.  Reading a part raises
    the exception of its first failing coupling in that order, the one the
    part would raise running its couplings one after another."""

    def __init__(self, lambdas: list, modes, outcomes: dict):
        self.lambdas = lambdas
        self._modes = modes
        self._outcomes = outcomes   # coupling -> each part's (ok, value), or None

    def _values(self, part: int, lambdas) -> list:
        values = []
        for lam in lambdas:
            ok, value = self._outcomes[lam][part]
            if not ok:
                raise value
            values.append(value)
        return values

    def differences(self) -> list[float]:
        """The oracle differences at the positive couplings, in order."""
        return self._values(0, [lam for lam in self.lambdas if lam > 0])

    def residuals(self) -> ResidualReport:
        """The residuals at every coupling, in order."""
        rows = self._values(1, self.lambdas)
        return ResidualReport(lambdas=self.lambdas, vacuum=[r[0] for r in rows],
                              one_particle={m: [r[i] for r in rows]
                                            for i, m in enumerate(self._modes, 1)})


def verify_pass(matrices: CouplingMatrices, lambdas, block: int | None = None,
                residuals: bool = True) -> VerifyPass:
    """The oracle and residual checks of the dressing result and basis of
    `matrices`, one pass per distinct coupling.

    * Oracle, with `block`, at each positive coupling: the spectral norm of
      (P w) H (P w)^H - K[P, P], with w = exp(+R) (`conjugate_numeric`) and
      P the states of at most `block` quanta; these are bit for bit the
      entries of w H w^H - K that the block reads.
    * Residuals, with `residuals`, at each coupling: those of the dressed
      vacuum exp(-R)|0> and one-particle states exp(-R) a+_k |0> as
      approximate eigenstates of H, each dressed state a column of exp(-R)
      (`dressing_matrices`), a basis state where R(lam) is zero.

    A coupling's (H, R) pair is assembled once for both parts, and each
    part's dense matrices are freed before the next part's are formed.  A
    part that has failed in a process runs at none of that process's later
    couplings.  The couplings are dealt over this process and forked
    workers by `processes.each_coupling`, with K's layout built before the
    fork; a result is a few numbers, so nothing depends on the number of
    cores.
    """
    lambdas = list(lambdas)
    basis, modes = matrices.basis, matrices.result.model.system.modes
    n = basis.dimension
    states = [basis.vacuum_index()] + [
        basis.index_of([int(m == k) for m in basis.modes]) for k in modes]
    rows = None if block is None else basis.block_indices(block)

    def runs(lam) -> tuple[bool, bool]:
        """Whether the oracle, and the residuals, run at lam."""
        return block is not None and lam > 0, residuals

    couplings = [lam for lam in dict.fromkeys(lambdas) if any(runs(lam))]
    if any(runs(lam)[0] for lam in couplings):
        matrices.transformed    # K's layout, laid out once for every process
    failed = [False, False]     # each part, in this process

    def oracle(pair, lam):
        mh, mr = pair
        mk = matrices.transformed(lam)
        return block_norm(conjugate_numeric(mr, mh, rows) - mk[rows][:, rows].toarray())

    def residual(pair, lam):
        mh, _, w_inv = dressing_matrices(pair, lam)
        return [_state_residual(mh, dressed_state(w_inv, i, n)) for i in states]

    def one(lam):
        """Each part's (True, value) or (False, its exception) at lam, or None
        where the part does not run."""
        pair, out = None, []
        for part, (form, run) in enumerate(zip((oracle, residual), runs(lam))):
            if failed[part] or not run:
                out.append(None)
                continue
            try:
                pair = pair or matrices.pair(lam)
                out.append((True, form(pair, lam)))
            except Exception as exc:        # raised by the reader, in order
                import traceback

                # the frames' locals would hold the coupling's dense
                # matrices while the other part runs on
                traceback.clear_frames(exc.__traceback__)
                failed[part] = True
                out.append((False, exc))
        return out

    outcomes: dict = {}
    processes.each_coupling(couplings, one, outcomes.__setitem__,
                            16 * n ** 2 * _VERIFY_MATRICES, who="verify's")
    return VerifyPass(lambdas, modes, outcomes)


def eigenstate_residuals(matrices: CouplingMatrices, lambdas) -> ResidualReport:
    """Residuals of the dressed vacuum and one-particle states as
    approximate eigenstates of H, per coupling value: the residual half of
    `verify_pass`, whose first failing coupling raises here."""
    return verify_pass(matrices, lambdas).residuals()


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


def _evolutions(mh):
    """The function of the time t that forms exp(i t H) of the dense H: the
    one expression of an evolution, in a context and in the scan's
    hand-over alike, so a handed-over one is the worker's own bit for bit."""
    import scipy.linalg

    return lambda t: scipy.linalg.expm(1j * t * mh)


class _LambdaContext:
    """One coupling's dense matrices: H, the dressed vacuum, the A(x,0)
    fields of `sites`, built from exp(+-R) in one pass over the modes when
    the context is created, each time's evolution once asked for, and the
    fields of the last nonzero time asked for (`at`).  exp(-R) and exp(+R)
    come from `dressing_matrices` as one pair that shares its Pade
    structure, exp(+R) formed after exp(-R) has passed its checks; they are
    not kept, and not formed where R is zero.  Each process that runs a
    scan's couplings keeps one context alive at a time (see
    `processes.each_coupling`).  On a worker's coupling, `claim` is the
    function of the time that claims the time's evolution in the scan's
    hand-over and gives it, or None."""

    def __init__(self, matrices: CouplingMatrices, lam, sites, claim=None):
        import numpy as np

        model, basis = matrices.result.model, matrices.basis
        if len(model.system.species) != 1:
            raise ScanError("the field scans support single-species models")
        mh, w, w_inv = dressing_matrices(matrices.pair(lam), lam, plus=True)
        self._evolve = _evolutions(mh)
        psi = dressed_state(w_inv, basis.vacuum_index(), basis.dimension)
        self.vacuum = psi / np.linalg.norm(psi)
        sites = list(dict.fromkeys(sites))
        self._fields = dict(zip(sites, field_at_origin_time_zero(
            model, basis, w_inv, w, sites)))
        self._claim = claim
        self._evolution: dict = {}
        self._time, self._held = None, {}

    def field(self, site, t: float):
        """A(site, t) = U A(site, 0) U^+, with U = exp(i t H) formed on the
        first call at t and kept.  On a worker's coupling that first call
        claims the time's evolution: U is the one the calling process
        published, bit for bit the same, or else formed here."""
        if t == 0.0:
            return self._fields[site]
        if t not in self._evolution:
            u = self._claim(t) if self._claim else None
            self._evolution[t] = self._evolve(t) if u is None else u
        u = self._evolution[t]
        return u @ self._fields[site] @ u.conj().T

    def at(self, site, t: float):
        """A(site, t) by `field`, formed once while the calls stay at time t:
        the fields held for another nonzero time are dropped when a field
        at t != 0 is first asked for."""
        if t == 0.0:
            return self._fields[site]
        if t != self._time:
            self._time, self._held = t, {}
        if site not in self._held:
            self._held[site] = self.field(site, t)
        return self._held[site]

    def vev(self, m) -> float:
        import numpy as np

        return abs(np.vdot(self.vacuum, m @ self.vacuum))


def _commutator(ax, ay):
    """[A(x,tx), A(y,ty)] of the two fields."""
    return ax @ ay - ay @ ax


def _commutator_scan(matrices: CouplingMatrices, couplings, points, block: int,
                     take) -> None:
    """take(lam, rows) for each coupling in order, `rows` holding, for each
    point ((x, tx), (y, ty)), the low-quanta block of C = [A(x,tx), A(y,ty)]
    (gathered with the indices `restricted_norm` gathers), that block's norm
    and |<vacuum| C |vacuum>|, for the dressing result and basis of
    `matrices`.

    Each coupling is scanned through its own context by
    `processes.each_coupling`, with the workers' pending evolutions handed
    over where a point has a nonzero time: the calling process forms H once
    per coupling, and each evolution by `_evolutions`.  A context forms each
    (site, time)'s field once while the points stay at that time
    (`_LambdaContext.at`).
    """
    import numpy as np

    low = np.ix_(*[matrices.basis.block_indices(block)] * 2)
    sites = list(dict.fromkeys(s for point in points for s, _ in point))
    times = list(dict.fromkeys(t for point in points for _, t in point if t != 0.0))

    def one(lam, claim=None):
        context = _LambdaContext(matrices, lam, sites, claim)
        rows = []
        for (x, tx), (y, ty) in points:
            c = _commutator(context.at(x, tx), context.at(y, ty))
            cb = c[low]
            rows.append((cb, block_norm(cb), context.vev(c)))
        return rows

    # a context's peak: H, its fields, one time's held fields, its
    # evolutions and the spare matrices of its build and of one commutator
    n = matrices.basis.dimension
    processes.each_coupling(
        couplings, one, take, 16 * n ** 2 * (2 * len(sites) + len(times) + _SPARE_MATRICES),
        who="the scan's",
        shared=(times, (n, n), lambda lam: _evolutions(matrices.pair(lam)[0].toarray()))
        if times else None)


def equal_time_scan(matrices: CouplingMatrices, times, lambdas, site_pairs,
                    block: int = DEFAULT_BLOCK,
                    horizon_units: float = DEFAULT_TIME_HORIZON_UNITS) -> ScanReport:
    """|| [A(x,t), A(y,t)] || restricted to the low-quanta block, for every
    requested site pair, time and coupling, of the dressing result and basis
    of `matrices`.

    The distinct couplings are scanned by `_commutator_scan` in the order
    given, each distinct point by time, then pair, so that a context holds
    one time's fields at a time.  The points are listed by time, then
    coupling, then pair, a repeated time or pair as often as given.
    """
    lat = matrices.result.model.system.lattice
    horizon = horizon_units * lat.spacing
    for t in times:
        if abs(t) > horizon:
            raise ScanError(f"time {t} beyond the horizon {horizon}")
    pairs = [(_site_tuple(a), _site_tuple(b)) for a, b in site_pairs]
    if not (times and lambdas and pairs):
        raise ScanError("the equal-time scan has no point: it needs a time, "
                        "a coupling and a site pair")
    couplings = list(dict.fromkeys(lambdas))
    points = list(dict.fromkeys(((x, t), (y, t)) for t in times for x, y in pairs))
    table: dict = {}    # (point, coupling) -> (magnitude, vev)

    def take(lam, rows):
        for point, (_, magnitude, vev) in zip(points, rows):
            table[point, lam] = (magnitude, vev)

    _commutator_scan(matrices, couplings, points, block, take)
    return ScanReport(points=[
        ScanPoint(x, y, lat.min_image_distance(x, y), t, lam,
                  *table[((x, t), (y, t)), lam])
        for t in times for lam in couplings for x, y in pairs])


def spacelike_scan(matrices: CouplingMatrices, lambdas, grid,
                   block: int = DEFAULT_BLOCK,
                   horizon_units: float = DEFAULT_TIME_HORIZON_UNITS) -> ScanReport:
    """Baseline-subtracted commutator C(lam) = [A(x,tau), A(y,0)] over a grid
    of (x, y, tau) points, for the dressing result and basis of `matrices`.

    The free-lattice baseline C(0) is subtracted so the reported magnitude
    isolates the interaction-induced piece; its coupling scaling is fitted.
    The couplings are scanned by `_commutator_scan`: first 0, then the rest
    in the order of `set(lambdas)`, which decides which coupling a failure
    names.  Each distinct grid point is formed once per coupling; the points
    are listed by grid point, then coupling, a repeated one and a repeated
    coupling each as often as given.

    This process keeps C(0)'s low-quanta blocks, and subtracts them from
    each other coupling's as it comes, keeping three numbers per point; it
    then fits, so no number depends on the number of cores.
    """
    lat = matrices.result.model.system.lattice
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
    c0: dict = {}       # grid point -> C(0)'s low-quanta block
    table: dict = {}    # (grid point, coupling) -> (magnitude, vev, subtracted)

    def take(lam, rows):
        for point, (cb, magnitude, vev) in zip(distinct, rows):
            if lam == 0.0:
                c0[point] = cb
                subtracted = 0.0
            else:
                subtracted = block_norm(cb - c0[point])
            table[point, lam] = (magnitude, vev, subtracted)

    # sorted is stable: 0 moves first, the rest keep the set's order
    couplings = sorted(set(lambdas) | {0.0}, key=lambda lam: lam != 0.0)
    _commutator_scan(matrices, couplings, [((x, tau), (y, 0.0)) for x, y, tau in distinct],
                     block, take)
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
