"""Truncated Fock-space oracle: sparse matrices and matrix-exponential conjugation.

The basis enumerates occupation vectors under per-mode and total-quanta
cutoffs, graded by total quanta then lexicographic.  Operator application
that would push a state above a cutoff yields zero amplitude (projection);
comparisons against symbolic results must therefore be restricted to
low-quanta sub-blocks with a safety margin.

Each basis caches, per monomial signature, the monomial's action on every
basis state, (rows, cols, amps), computed on first use with numpy over the
whole occupation array; target states are found by integer state keys.
Matrix assembly then only scales and concatenates the cached arrays, in the
order of the term map.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .algebra import OperatorSeries, TermMap
from .modes import ModeIndex, ModeSystem
from .models import ModelSpec

DEFAULT_DIMENSION_LIMIT = 200_000
ANTIHERM_TOL = 1e-10
UNITARITY_TOL = 1e-8


class BasisError(ValueError):
    """Basis construction or lookup failure."""


class OracleError(ArithmeticError):
    """A matrix of the oracle is non-finite, or exp(R) is not unitary:
    the model or the coupling is out of double precision's reach."""


class FockBasis:
    """Occupation-number basis over the modes of a ModeSystem."""

    def __init__(self, system: ModeSystem, per_mode_cutoff: int, total_cutoff: int,
                 dimension_limit: int = DEFAULT_DIMENSION_LIMIT):
        if per_mode_cutoff < 1 or total_cutoff < 0:
            raise BasisError(
                f"need per_mode_cutoff >= 1 and total_cutoff >= 0, got "
                f"({per_mode_cutoff}, {total_cutoff})"
            )
        self.system = system
        self.modes = system.modes
        self.per_mode_cutoff = per_mode_cutoff
        self.total_cutoff = total_cutoff
        states = self._enumerate(len(self.modes), per_mode_cutoff, total_cutoff)
        if len(states) > dimension_limit:
            raise BasisError(
                f"basis dimension {len(states)} exceeds the limit {dimension_limit}"
            )
        # graded by total quanta, then lexicographic
        states.sort(key=lambda v: (sum(v), v))
        self.states: list[tuple[int, ...]] = states
        self.index: dict[tuple[int, ...], int] = {v: i for i, v in enumerate(states)}
        self.totals = np.array([sum(v) for v in states])
        self._positions = {m: i for i, m in enumerate(self.modes)}
        # a state's key is its occupation vector read as a mixed-radix number;
        # with many modes the keys outgrow int64 and are Python ints
        n_modes = len(self.modes)
        radix = min(per_mode_cutoff, total_cutoff) + 1
        dtype = np.int64 if radix ** n_modes <= np.iinfo(np.int64).max else object
        self._weights = [radix ** (n_modes - 1 - i) for i in range(n_modes)]
        self._occupations = np.array(states, dtype=np.int64).reshape(len(states), n_modes)
        self._keys = self._occupations.astype(dtype) @ np.array(self._weights, dtype=dtype)
        self._key_order = np.argsort(self._keys)
        self._sorted_keys = self._keys[self._key_order]
        self._actions: dict = {}    # signature -> (rows, cols, amps)

    @staticmethod
    def _enumerate(n_modes, per_mode, total):
        out = [()]
        for _ in range(n_modes):
            out = [v + (q,) for v in out for q in range(per_mode + 1)
                   if sum(v) + q <= total]
        return out

    @property
    def dimension(self) -> int:
        return len(self.states)

    def mode_position(self, mode: ModeIndex) -> int:
        try:
            return self._positions[mode]
        except KeyError:
            raise BasisError(f"mode {mode} is not part of this basis") from None

    def action(self, creators, annihilators):
        """A normal-ordered monomial applied to every basis state.

        Returns (rows, cols, amps): column cols[i] maps to row rows[i] with
        amplitude amps[i], cols ascending.  A state that is annihilated or
        pushed above a cutoff is dropped (projection).  The arrays are
        cached per signature and read-only.
        """
        sig = (creators, annihilators)
        if sig in self._actions:
            return self._actions[sig]
        for m in creators + annihilators:
            if not self.system.contains(m):
                raise BasisError(f"mode {m} unknown to the basis system")
        positions = [self.mode_position(m) for m in annihilators + creators]
        slot = {p: j for j, p in enumerate(dict.fromkeys(positions))}
        sub = self._occupations[:, list(slot)]     # the modes involved
        cols = np.arange(self.dimension)
        amps = np.ones(self.dimension)
        # same factors in the same order as applying the monomial state by
        # state: annihilators first, then creators
        for p in positions[:len(annihilators)]:
            j = slot[p]
            live = sub[:, j] > 0
            cols, amps, sub = cols[live], amps[live], sub[live]
            amps *= np.sqrt(sub[:, j])
            sub[:, j] -= 1
        total = self.totals[cols] - len(annihilators)
        for p in positions[len(annihilators):]:
            j = slot[p]
            live = (sub[:, j] < self.per_mode_cutoff) & (total < self.total_cutoff)
            cols, amps, sub, total = cols[live], amps[live], sub[live], total[live]
            sub[:, j] += 1
            amps *= np.sqrt(sub[:, j])
            total += 1
        shift = sum(self._weights[p] for p in positions[len(annihilators):]) \
            - sum(self._weights[p] for p in positions[:len(annihilators)])
        rows = self._key_order[np.searchsorted(self._sorted_keys, self._keys[cols] + shift)]
        for a in (rows, cols, amps):
            a.flags.writeable = False
        self._actions[sig] = rows, cols, amps
        return self._actions[sig]

    def vacuum_index(self) -> int:
        return self.index[(0,) * len(self.modes)]

    def block_indices(self, max_quanta: int) -> np.ndarray:
        """Indices of all states with total quanta <= max_quanta."""
        return np.nonzero(self.totals <= max_quanta)[0]


def matrix_of_terms(terms: TermMap, basis: FockBasis) -> sp.csr_matrix:
    """Sparse matrix of a flat term map in the given basis; a non-finite
    matrix element raises OracleError."""
    rows, cols, vals = [], [], []
    for (creators, annihilators), coeff in terms.items():
        r, c, amps = basis.action(creators, annihilators)
        rows.append(r)
        cols.append(c)
        vals.append(coeff * amps)
    n = basis.dimension
    if not vals:
        return sp.csr_matrix((n, n), dtype=complex)
    data = np.concatenate(vals)
    if not np.isfinite(data).all():
        raise OracleError("the Fock-space matrix of a term map has a non-finite element")
    return sp.csr_matrix(
        (data, (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
        dtype=complex,
    )


def matrix_of(series: OperatorSeries, basis: FockBasis, lam: float) -> sp.csr_matrix:
    """Matrix of an operator series evaluated at a numeric coupling."""
    return matrix_of_terms(series.evaluate(lam), basis)


def ladder_matrix(basis: FockBasis, mode: ModeIndex, create: bool = False) -> sp.csr_matrix:
    sig = ((mode,), ()) if create else ((), (mode,))
    return matrix_of_terms({sig: 1.0 + 0j}, basis)


def conjugate_numeric(r: sp.spmatrix | np.ndarray, h: sp.spmatrix | np.ndarray,
                      antiherm_tol: float = ANTIHERM_TOL) -> np.ndarray:
    """exp(r) h exp(-r) by dense scaling-and-squaring matrix exponential.

    r must be anti-Hermitian; the unitarity of exp(r) is verified, and
    OracleError is raised when it fails.
    """
    rd = r.toarray() if sp.issparse(r) else np.asarray(r, dtype=complex)
    hd = h.toarray() if sp.issparse(h) else np.asarray(h, dtype=complex)
    defect = np.abs(rd + rd.conj().T).max()
    if defect > antiherm_tol * max(1.0, np.abs(rd).max()):
        raise ValueError(f"generator is not anti-Hermitian (defect {defect:.3e})")
    w = scipy.linalg.expm(rd)
    unit_defect = np.abs(w @ w.conj().T - np.eye(w.shape[0])).max()
    if not unit_defect <= UNITARITY_TOL:     # a NaN defect fails too
        raise OracleError(f"exp(R) failed unitarity check (defect {unit_defect:.3e})")
    return w @ hd @ w.conj().T


def dressing_matrices(result, basis: FockBasis, lam: float):
    """(H(lam), exp(-R(lam))) dense matrices for a dressing result.

    Dressed states are exp(-R)|bare>: with K = exp(R) H exp(-R), the
    approximate eigenvectors of H are exp(-R) times Fock states.  A
    non-finite exp(-R) raises OracleError.
    """
    model = result.model
    mh = matrix_of(model.hamiltonian(), basis, lam).toarray()
    mr = matrix_of(result.generator, basis, lam).toarray()
    w_inv = scipy.linalg.expm(-mr)
    if not np.isfinite(w_inv).all():
        raise OracleError(f"exp(-R) at coupling {lam!r} is not finite")
    return mh, w_inv


def rspt2_shift(model: ModelSpec, basis: FockBasis, species: str, k) -> float:
    """Second-order perturbation theory for the one-particle level, measured
    relative to the vacuum shift.

    Uses the bare basis states as the unperturbed spectrum; per unit
    coupling^2 (multiply by lambda^2 for a physical shift).
    """
    mode = model.system.mode(species, k)
    mv = matrix_of_terms(model.interaction.orders[1], basis).toarray()
    e0 = np.array([
        sum(occ * model.system.energy(m) for occ, m in zip(state, basis.modes))
        for state in basis.states
    ])

    def shift(index: int) -> float:
        e_ref = e0[index]
        col = mv[:, index]
        total = 0.0
        for s, amp in enumerate(col):
            if s == index or abs(amp) < 1e-16:
                continue
            den = e_ref - e0[s]
            if abs(den) < 1e-10:
                raise ZeroDivisionError(
                    f"degenerate intermediate state {basis.states[s]} "
                    f"(E={e0[s]:.6f}) in second-order shift"
                )
            total += abs(amp) ** 2 / den
        return total

    vac = basis.vacuum_index()
    one = basis.index[tuple(1 if m == mode else 0 for m in basis.modes)]
    return shift(one) - shift(vac)


def field_at_origin_time_zero(model: ModelSpec, basis: FockBasis,
                              w_inv: np.ndarray, w: np.ndarray, x_site) -> np.ndarray:
    """The dressed field at time zero,

    A(x,0) = volume^{-1/2} sum_k (2 E_k)^{-1/2}
             (e^{i p x} alpha_k + e^{-i p x} alpha_k^dagger)

    with the dressed ladder matrices alpha = exp(-R) a exp(R).
    """
    lat = model.system.lattice
    if len(model.system.species) != 1:
        raise ValueError("the Heisenberg field scan supports single-species models")
    sp_name = model.system.species[0].name
    x = np.array(x_site, dtype=float) * lat.spacing
    out = np.zeros((basis.dimension, basis.dimension), dtype=complex)
    for kvec in lat.k_vectors():
        mode = model.system.mode(sp_name, kvec)
        p = np.array(lat.momentum(kvec))
        phase = np.exp(1j * float(np.dot(p, x)))
        # a ladder matrix has at most one nonzero per column, so w_inv @ a
        # is a scaled gather of w_inv's columns
        a = ladder_matrix(basis, mode).tocoo()
        left = np.zeros((basis.dimension, basis.dimension), dtype=complex)
        left[:, a.col] = w_inv[:, a.row] * a.data
        alpha = left @ w
        coeff = 1.0 / math.sqrt(2.0 * model.system.energy(mode) * lat.volume)
        out += coeff * (phase * alpha + np.conj(phase) * alpha.conj().T)
    return out


def restricted_norm(m: np.ndarray, basis: FockBasis, max_quanta: int) -> float:
    """Spectral norm of a matrix restricted to the <= max_quanta sub-block;
    a non-finite sub-block raises OracleError."""
    idx = basis.block_indices(max_quanta)
    sub = np.asarray(m)[np.ix_(idx, idx)]
    if not np.isfinite(sub).all():
        raise OracleError("a matrix restricted to the low-quanta block is not finite")
    return float(np.linalg.norm(sub, ord=2))
