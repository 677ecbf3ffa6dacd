"""Truncated Fock-space oracle: sparse matrices and matrix-exponential conjugation.

The basis is one int64 array, `FockBasis.occupations`: the occupation vectors
under per-mode and total-quanta cutoffs, graded by total quanta then
lexicographic, so row 0 is the vacuum.  Its size is counted before any state
is listed.  Operator application that would push a state above a cutoff
yields zero amplitude (projection); comparisons against symbolic results
must therefore be restricted to low-quanta sub-blocks with a safety margin.

A basis is a fixed table: it keeps no action.  `FockBasis.layout` computes
the actions of the signatures it is given on every basis state, one numpy
pass over (signatures x states) per operator shape under a fixed element
budget, and returns them concatenated in the order given.  Rows are found
by integer state keys, the one row lookup.  Matrix assembly forms all its
entries in one product of the repeated coefficients with the layout's
amplitudes, and builds the CSR matrix in one place (`_csr`).

An operator series is laid out in a basis once (`SeriesAssembler`): the
layout of its signatures in signature order, the one holder of their
actions, and one coefficient column per order.  Each coupling then forms
its coefficients and the entries with numpy, and drops the pruned
signatures' entries by a mask: the matrix of the evaluated term map, bit
for bit, without the map.  `CouplingMatrices` holds the layouts of H, R
and K of one dressing result, so a run lays each out once, and assembles
H(lam) and R(lam) once per coupling for every check that needs them.

A coupling whose R(lam) has no stored element, lam = 0 on every run and any
lam for a free model, has exp(-+R) = 1 exactly: `dressing_matrices` then
forms no dense R, calls no expm and checks no unitarity, and the field build
puts the bare ladder amplitudes in place instead of conjugating them.  The
numbers are those of the general path fed expm's exact identity.

The field scans need both exp(-R) and exp(+R).  `expm_pair` forms them from
one choice of scipy's Pade order and scaling, which -R shares with +R, and
runs scipy's own Pade and squaring kernels once per sign, so that each is
byte for byte what `scipy.linalg.expm` gives; exp(+R) is formed only after
exp(-R) has passed its checks.  The residuals, which need exp(-R) alone, and
exp(i tau H) call `scipy.linalg.expm`.

numpy and scipy are imported inside the functions that use them, not at
module level: the command line imports this module for its names, and the
symbolic path (`--command dress`, config errors, `--help`) then starts
without loading the numerical stack, which takes most of a cold start's
time and memory.  The oracle commands load it on first use.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING

from .algebra import PRUNE_THRESHOLD, OperatorSeries, TermMap
from .modes import ModeSystem
from .models import ModelSpec

if TYPE_CHECKING:     # the annotations' names
    import numpy as np
    import scipy.sparse as sp

DEFAULT_DIMENSION_LIMIT = 200_000
DENSE_DIMENSION_LIMIT = 4096    # 256 MiB per dense complex matrix
ANTIHERM_TOL = 1e-10
UNITARITY_TOL = 1e-8
_BATCH_ELEMENTS = 1 << 16    # (signature, state) elements per batched action pass


class BasisError(ValueError):
    """Basis construction or lookup failure."""


class OracleError(ArithmeticError):
    """A matrix of the oracle is non-finite, or exp(+-R) is not unitary:
    the model or the coupling is out of double precision's reach."""


class FockBasis:
    """Occupation-number basis over the modes of a ModeSystem: row i of
    `occupations` is basis state i, one column per mode in `modes` order.
    Nothing is added to it after construction: `layout` hands its result
    to the caller and keeps none of it."""

    def __init__(self, system: ModeSystem, per_mode_cutoff: int, total_cutoff: int,
                 dimension_limit: int = DEFAULT_DIMENSION_LIMIT):
        import numpy as np

        if per_mode_cutoff < 1 or total_cutoff < 0:
            raise BasisError(
                f"need per_mode_cutoff >= 1 and total_cutoff >= 0, got "
                f"({per_mode_cutoff}, {total_cutoff})"
            )
        self.modes = system.modes
        self.per_mode_cutoff = per_mode_cutoff
        self.total_cutoff = total_cutoff
        n_modes = len(self.modes)
        self.dimension = self._count(n_modes, per_mode_cutoff, total_cutoff)
        if self.dimension > dimension_limit:
            raise BasisError(
                f"basis dimension {self.dimension} exceeds the limit {dimension_limit}"
            )
        occupations = self._enumerate(n_modes, per_mode_cutoff, total_cutoff)
        # a state's key reads its total quanta, then its occupation vector, as
        # mixed-radix digits, so the graded rows have ascending keys; with
        # many modes the keys outgrow int64 and are Python ints
        radix = min(per_mode_cutoff, total_cutoff) + 1
        top = radix ** n_modes      # the weight of the total quanta
        dtype = np.int64 if (total_cutoff + 1) * top <= np.iinfo(np.int64).max else object
        self._weights = np.array([top + radix ** (n_modes - 1 - i) for i in range(n_modes)],
                                 dtype=dtype)
        keys = occupations.astype(dtype) @ self._weights
        order = np.argsort(keys)
        self.occupations = occupations[order]
        self.occupations.flags.writeable = False
        self.totals = self.occupations.sum(axis=1)
        self._keys = keys[order]
        self._positions = {m: i for i, m in enumerate(self.modes)}

    @staticmethod
    def _count(n_modes, per_mode, total):
        """Number of occupation vectors with entries <= per_mode and sum <=
        total: inclusion-exclusion over the j modes forced above per_mode."""
        return sum((-1) ** j * math.comb(n_modes, j)
                   * math.comb(total - j * (per_mode + 1) + n_modes, n_modes)
                   for j in range(min(n_modes, total // (per_mode + 1)) + 1))

    @staticmethod
    def _enumerate(n_modes, per_mode, total) -> np.ndarray:
        """The occupation vectors in lexicographic order, one mode at a time:
        each row repeats once per occupation q that keeps it within the cutoffs."""
        import numpy as np

        out = np.zeros((1, 0), dtype=np.int64)
        for _ in range(n_modes):
            reps = np.minimum(per_mode, total - out.sum(axis=1)) + 1
            q = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
            out = np.column_stack([np.repeat(out, reps, axis=0), q])
        return out

    def index_of(self, occupation) -> int:
        """Row of an occupation vector, found by its key as in `layout`;
        BasisError if it is no basis state."""
        import numpy as np

        occ = [int(n) for n in occupation]
        key = sum(n * w for n, w in zip(occ, self._weights.tolist()))
        row = min(int(np.searchsorted(self._keys, key)), self.dimension - 1)
        if self.occupations[row].tolist() != occ:
            raise BasisError(f"occupation {tuple(occ)} is not a state of this basis")
        return row

    def layout(self, signatures):
        """The actions of (creators, annihilators) signatures on every basis
        state, concatenated in the order given; the signatures may be a
        term map's keys.

        Returns read-only (rows, cols, amps, counts): the action of the i-th
        signature is its counts[i] entries, column cols[j] mapping to row
        rows[j] with amplitude amps[j], cols ascending.  A state that is
        annihilated or pushed above a cutoff is dropped (projection).  The
        actions are computed one pass per shape (annihilators, creators) of
        at most _BATCH_ELEMENTS (signature, state) elements; a mode unknown
        to the basis raises BasisError.
        """
        import numpy as np

        shapes: dict = {}       # shape -> [(index, mode positions), ...]
        for i, (creators, annihilators) in enumerate(signatures):
            try:
                positions = [self._positions[m] for m in annihilators + creators]
            except KeyError as exc:
                raise BasisError(f"mode {exc.args[0]} unknown to the basis system") from None
            shapes.setdefault((len(annihilators), len(creators)), []).append((i, positions))
        pieces = [None] * sum(map(len, shapes.values()))
        step = max(1, _BATCH_ELEMENTS // self.dimension)
        for (n_ann, _), group in shapes.items():
            for i in range(0, len(group), step):
                self._act(group[i:i + step], n_ann, pieces)
        empty = np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0)
        rows, cols, amps = map(np.concatenate, zip(empty, *pieces))
        counts = np.fromiter((len(a) for _, _, a in pieces), dtype=np.intp, count=len(pieces))
        for a in (rows, cols, amps, counts):
            a.flags.writeable = False
        return rows, cols, amps, counts

    def _act(self, batch, n_ann: int, out: list) -> None:
        """The actions of (index, mode positions) pairs of one shape with
        n_ann annihilators, over every basis state at once: out[index] gets
        its signature's (rows, cols, amps), slices of the batch's arrays.

        Step k of a signature acts on mode pos[:, k], whose occupation there
        is the state's own plus off[:, k], the net count of the signature's
        earlier steps on that mode.  A live element gets the same sqrt
        factors in the same order as applying the monomial state by state:
        annihilators first, then creators.
        """
        import numpy as np

        pos = np.array([p for _, p in batch], dtype=np.intp)     # (signatures, steps)
        n_steps = pos.shape[1]
        off = np.zeros_like(pos)
        for k in range(n_steps):
            for j in range(k):
                off[:, k] += (pos[:, j] == pos[:, k]) * (-1 if j < n_ann else 1)
        by_mode = self.occupations.T
        live = np.ones((len(batch), self.dimension), dtype=bool)
        amps = np.ones((len(batch), self.dimension))
        for k in range(n_steps):
            creator = k >= n_ann
            # the occupation under the sqrt: before an annihilator, after a creator
            n = by_mode[pos[:, k]] + (off[:, k] + creator)[:, None]
            live &= (n <= self.per_mode_cutoff) if creator else (n > 0)
            amps *= np.sqrt(np.maximum(n, 0))
        if n_steps > n_ann:
            live &= self.totals - n_ann + (n_steps - n_ann) <= self.total_cutoff
        # the key change; int64 sums may wrap, which leaves every shift that
        # a live state uses exact
        weights = self._weights[pos]
        shift = weights[:, n_ann:].sum(axis=1) - weights[:, :n_ann].sum(axis=1)
        sig_of, cols = np.nonzero(live)     # cols ascending within each signature
        rows = np.searchsorted(self._keys, self._keys[cols] + shift[sig_of])
        amps = amps[sig_of, cols]
        counts = live.sum(axis=1)
        ends = np.cumsum(counts)
        for (i, _), start, end in zip(batch, ends - counts, ends):
            out[i] = rows[start:end], cols[start:end], amps[start:end]

    def vacuum_index(self) -> int:
        return 0    # the grading puts the only zero-quanta state first

    def block_indices(self, max_quanta: int) -> np.ndarray:
        """Indices of all states with total quanta <= max_quanta."""
        import numpy as np

        return np.nonzero(self.totals <= max_quanta)[0]


def matrix_of_terms(terms: TermMap, basis: FockBasis) -> sp.csr_matrix:
    """Sparse matrix of a flat term map in the given basis; a non-finite
    matrix element raises OracleError.  Each term's entries are its
    coefficient times its amplitudes in the basis' layout of the map's
    keys, in the order of the map."""
    import numpy as np

    rows, cols, amps, counts = basis.layout(terms)
    coeffs = np.fromiter(terms.values(), dtype=complex, count=len(terms))
    # an infinite coefficient forms inf * 0 in the complex product; the
    # NaN it leaves is reported by `_csr`
    with np.errstate(over="ignore", invalid="ignore"):
        data = np.repeat(coeffs, counts) * amps
    return _csr(data, rows, cols, basis.dimension)


def _csr(data, rows, cols, n: int) -> sp.csr_matrix:
    """The n x n CSR matrix of (data, (rows, cols)), duplicates summed; a
    non-finite element raises OracleError."""
    import numpy as np
    import scipy.sparse as sp

    if not len(data):
        return sp.csr_matrix((n, n), dtype=complex)
    if not np.isfinite(data).all():
        raise OracleError("the Fock-space matrix of a term map has a non-finite element")
    return sp.csr_matrix((data, (rows, cols)), shape=(n, n), dtype=complex)


class SeriesAssembler:
    """The matrix of an operator series at any coupling, from a layout of
    the series in a basis that is built once.

    It holds one coefficient column and one presence mask per order over
    the sorted union of the series' signatures, and the basis' `layout` of
    that union, which no other object holds.  A call at lam
    forms the coefficients as a term map's evaluation does: from 0j, it
    adds lam**k * c for each order k in turn where that order holds the
    signature, and lam**k is taken for every order, an empty one too, so
    an overflowing power raises OverflowError at the same order.  A
    coefficient with abs <= PRUNE_THRESHOLD is dropped with its entries (a
    NaN is kept), abs taken by `hypot` as Python's `abs` takes it (numpy's
    own complex abs differs from it in the last bit).  The
    result is, bit for bit, the matrix that `matrix_of_terms` gives of the
    evaluated, pruned term map in signature order; a non-finite element
    raises OracleError.
    """

    def __init__(self, series: OperatorSeries, basis: FockBasis):
        import numpy as np

        # each order is a sorted run, which the sort merges
        sigs = sorted(dict.fromkeys(itertools.chain.from_iterable(series.orders)))
        at = {sig: i for i, sig in enumerate(sigs)}
        self._orders = []       # per order: (column, mask), or None if empty
        for terms in series.orders:
            if not terms:
                self._orders.append(None)
                continue
            where = np.fromiter(map(at.__getitem__, terms), dtype=np.intp,
                                count=len(terms))
            column = np.zeros(len(sigs), dtype=complex)
            column[where] = np.fromiter(terms.values(), dtype=complex, count=len(terms))
            mask = np.zeros(len(sigs), dtype=bool)
            mask[where] = True
            self._orders.append((column, mask))
        self._layout = basis.layout(sigs)
        self._dimension = basis.dimension

    def __call__(self, lam: float) -> sp.csr_matrix:
        import numpy as np

        rows, cols, amps, counts = self._layout
        acc = np.zeros(len(counts), dtype=complex)
        # numpy warns of an overflow that Python's arithmetic takes
        # silently, and of the inf * 0 that an infinite coefficient forms in
        # the complex product; `_csr` reports the non-finite entries
        with np.errstate(over="ignore", invalid="ignore"):
            for k, order in enumerate(self._orders):
                try:
                    w = lam**k
                except OverflowError:
                    raise OverflowError(
                        f"coupling {lam!r} to the power {k} overflows a float") from None
                if order is not None:
                    column, mask = order
                    np.add(acc, w * column, out=acc, where=mask)
            magnitude = np.hypot(acc.real, acc.imag)
            over = np.isinf(magnitude)
            if over.any() and np.isfinite(acc[over]).any():
                raise OverflowError("absolute value too large")     # as abs() raises
            data = np.repeat(acc, counts) * amps
        keep = ~(magnitude <= PRUNE_THRESHOLD)
        if not keep.all():
            entries = np.repeat(keep, counts)
            data, rows, cols = data[entries], rows[entries], cols[entries]
        return _csr(data, rows, cols, self._dimension)


def _unitarity_defect(w: np.ndarray) -> float:
    """max |w w^H - 1|, with the 1 taken off the product's diagonal in
    place: off the diagonal x - 0 = x, so no identity or difference matrix
    is formed, and the defect is the same bit for bit."""
    import numpy as np

    ww = w @ w.conj().T
    ww[np.diag_indices_from(ww)] -= 1.0
    return np.abs(ww).max()


def _check_unitary(w: np.ndarray, name: str) -> None:
    """Raise OracleError unless w w^H = 1 to within UNITARITY_TOL."""
    defect = _unitarity_defect(w)
    if not defect <= UNITARITY_TOL:     # a NaN defect fails too
        raise OracleError(f"{name} failed unitarity check (defect {defect:.3e})")


def conjugate_numeric(r: sp.spmatrix | np.ndarray, h: sp.spmatrix | np.ndarray) -> np.ndarray:
    """exp(r) h exp(-r) by dense scaling-and-squaring matrix exponential.

    r must be anti-Hermitian; the unitarity of exp(r) is verified, and
    OracleError is raised when it fails.  The dense r is freed once exp(r)
    is formed, and h is made dense only after exp(r) has passed.
    """
    import numpy as np
    import scipy.linalg
    import scipy.sparse as sp

    rd = r.toarray() if sp.issparse(r) else np.asarray(r, dtype=complex)
    defect = np.abs(rd + rd.conj().T).max()
    if defect > ANTIHERM_TOL * max(1.0, np.abs(rd).max()):
        raise ValueError(f"generator is not anti-Hermitian (defect {defect:.3e})")
    w = scipy.linalg.expm(rd)
    del rd
    _check_unitary(w, "exp(R)")
    hd = h.toarray() if sp.issparse(h) else np.asarray(h, dtype=complex)
    return w @ hd @ w.conj().T


class CouplingMatrices:
    """The sparse H(lam), R(lam) and K(lam) of a dressing result in a basis,
    each from its series' `SeriesAssembler`: the H and R layouts are built
    with the object, K's on first use, so a run lays each series out once.
    A pair (H(lam), R(lam)) is assembled once per coupling and kept until
    `pop` hands it to its last user, so that the checks at one coupling
    share it and no pair outlives them.  A basis over
    DENSE_DIMENSION_LIMIT is refused with BasisError, before any layout:
    the checks form dense matrices of its dimension."""

    def __init__(self, result, basis: FockBasis):
        n = basis.dimension
        if n > DENSE_DIMENSION_LIMIT:
            raise BasisError(
                f"basis dimension {n} exceeds the dense oracle's limit "
                f"{DENSE_DIMENSION_LIMIT} (a dense matrix would take "
                f"{16 * n * n / 2**30:.1f} GiB)")
        self.result = result
        self.basis = basis
        self._hamiltonian = SeriesAssembler(result.model.hamiltonian(), basis)
        self._generator = SeriesAssembler(result.generator, basis)
        self._transformed = None
        self._kept: dict = {}

    def __call__(self, lam: float) -> tuple[sp.csr_matrix, sp.csr_matrix]:
        if lam not in self._kept:
            self._kept[lam] = self._assemble(lam)
        return self._kept[lam]

    def pop(self, lam: float) -> tuple[sp.csr_matrix, sp.csr_matrix]:
        """The pair at lam, no longer kept: the kept one, or a new one."""
        return self._kept.pop(lam) if lam in self._kept else self._assemble(lam)

    def transformed(self, lam: float) -> sp.csr_matrix:
        """K(lam), the transformed Hamiltonian's matrix; not kept."""
        if self._transformed is None:
            self._transformed = SeriesAssembler(self.result.K, self.basis)
        return self._transformed(lam)

    def _assemble(self, lam):
        return self._hamiltonian(lam), self._generator(lam)


# the workspace slots that scipy's pade_UV_calc reads at each Pade order
_PADE_SLOTS = {3: 2, 5: 3, 7: 4, 9: 5, 13: 4}


def expm_pair(a: np.ndarray):
    """Yield exp(-a), then exp(+a), each byte for byte what
    `scipy.linalg.expm` gives, from one choice of the Pade structure.

    scipy's scaling-and-squaring method (Al-Mohy & Higham, SIAM J. Matrix
    Anal. Appl. 31(3), 2009) picks the Pade order and the scaling of -a from
    norms of |a| and of even powers, which are those of +a bit for bit, and
    the scaled -a is the exact negative of the scaled +a.  So one
    `pick_pade_structure` serves both: the slots of its workspace that the
    order reads are copied, the first sign's Pade step and squarings run,
    and the copy, with slot 0 negated, seeds the second sign's.  exp(+a) is
    formed only when asked for, so a caller can check exp(-a) first; a is
    not held past the first step.  An a that scipy casts or refuses first,
    or takes by other paths (triangular or diagonal), goes to
    `scipy.linalg.expm` twice, and so does every a where the kernels cannot
    be imported.

    The two kernels are scipy's own, imported here as `scipy.linalg.expm`
    imports them; their calling convention was checked on scipy 1.17.
    """
    import numpy as np
    import scipy.linalg
    try:
        from scipy.linalg._matfuncs_expm import pade_UV_calc, pick_pade_structure
    except ImportError:     # a scipy that has moved its private kernels
        pade_UV_calc = None

    if (pade_UV_calc is None or a.ndim != 2 or a.shape[0] != a.shape[1]
            or a.dtype.char not in "fdFD" or not all(scipy.linalg.bandwidth(a))):
        yield scipy.linalg.expm(-a)
        yield scipy.linalg.expm(a)
        return
    work = np.empty((5, *a.shape), dtype=a.dtype)
    np.negative(a, out=work[0])
    del a
    m, s = pick_pade_structure(work)
    if m < 0:
        raise MemoryError(f"pick_pade_structure failed (error code {m})")

    def exponential(work):
        info = pade_UV_calc(work, m)
        if info != 0:
            raise RuntimeError(f"pade_UV_calc failed (error code {info})")
        e = work[0]
        for _ in range(s):
            e = e @ e
        return e.copy() if s == 0 else e

    shape = work.shape
    saved = work[:_PADE_SLOTS[m]].copy()
    e = exponential(work)
    del work      # exp(-a) is checked without the workspace held
    yield e
    work = np.empty(shape, dtype=saved.dtype)
    work[1:len(saved)] = saved[1:]
    np.negative(saved[0], out=work[0])
    del saved
    e = exponential(work)
    del work
    yield e


def dressing_matrices(matrices: CouplingMatrices, lam: float, plus: bool = False):
    """(H(lam), exp(+R(lam)), exp(-R(lam))) dense matrices of the dressing
    result of `matrices`; exp(+R(lam)) is None unless `plus`.

    With K = exp(R) H exp(-R), the approximate eigenvectors of H are the
    dressed states exp(-R)|i>: the dressed state of basis state i is column
    i of exp(-R), see `dressed_state`.  The caller is the last user of
    H(lam) and R(lam), which leave `matrices`.  The dense R is formed only
    as the exponential's argument, and is freed once exp(-R) is formed.  An
    exp(-R) that is not finite or not unitary raises OracleError.  exp(+R)
    is formed after exp(-R) has passed, from the same Pade structure
    (`expm_pair`).

    An R(lam) with no stored element gives None for exp(+R(lam)) and for
    exp(-R(lam)): exp(-+R) = 1 exactly, so no dense R, no expm and no
    unitarity product is formed.  This holds at lam = 0, since R has no
    order 0 and the assembly prunes 0 * c, and for a free model at any lam.
    """
    import numpy as np
    import scipy.linalg

    mh, mr = matrices.pop(lam)
    if not mr.nnz:
        return mh.toarray(), None, None
    pair = expm_pair(mr.toarray()) if plus else None
    w_inv = next(pair) if plus else scipy.linalg.expm(-mr.toarray())
    name = f"exp(-R) at coupling {lam!r}"
    if not np.isfinite(w_inv).all():
        raise OracleError(f"{name} is not finite")
    _check_unitary(w_inv, name)
    w = next(pair) if plus else None
    # H is made dense last, so that the exponentials run without it
    return mh.toarray(), w, w_inv


def dressed_state(w_inv: np.ndarray | None, i: int, dimension: int) -> np.ndarray:
    """The dressed state of basis state i: column i of exp(-R), or basis
    state i itself where `dressing_matrices` gave exp(-R) = 1 as None."""
    import numpy as np

    if w_inv is not None:
        return w_inv[:, i]
    psi = np.zeros(dimension, dtype=complex)
    psi[i] = 1.0
    return psi


def field_at_origin_time_zero(model: ModelSpec, basis: FockBasis,
                              w_inv: np.ndarray | None, w: np.ndarray | None,
                              sites) -> list[np.ndarray]:
    """The dressed field at time zero of a single-species model (the scans
    reject any other) at each of `sites`, in their order:

    A(x,0) = volume^{-1/2} sum_k (2 E_k)^{-1/2}
             (e^{i p x} alpha_k + e^{-i p x} alpha_k^dagger)

    with the dressed ladder matrices alpha = exp(-R) a exp(R), each formed
    once and added into every site's field.  `w_inv` and `w` are exp(-R)
    and exp(R), or both None for R = 0 (see `dressing_matrices`): alpha is
    then the bare ladder matrix, which is exactly what 1 a 1 gives, and no
    dense alpha is formed.  Each mode's coeff * (phase * amps) is added at
    the ladder's (row, column) entries and its conjugate at the transposed
    ones.  No entry of a field gets more than one such term, and the dense
    sum adds only zeros beside it, so the field is that sum bit for bit,
    each zero of it +0.0.
    """
    import numpy as np

    lat = model.system.lattice
    sp_name = model.system.species[0].name
    n = basis.dimension
    xs = [np.array(site, dtype=float) * lat.spacing for site in sites]
    out = [np.zeros((n, n), dtype=complex) for _ in sites]
    for kvec in lat.k_vectors():
        mode = model.system.mode(sp_name, kvec)
        p = np.array(lat.momentum(kvec))
        rows, cols, amps, _ = basis.layout([((), (mode,))])
        coeff = 1.0 / math.sqrt(2.0 * model.system.energy(mode) * lat.volume)
        if w_inv is None:
            for field, x in zip(out, xs):
                phase = np.exp(1j * float(np.dot(p, x)))
                term = coeff * (phase * amps)
                field[rows, cols] += term
                field[cols, rows] += np.conj(term)
            continue
        # a ladder matrix has at most one nonzero per column, so w_inv @ a
        # is a scaled gather of w_inv's columns
        left = np.zeros((n, n), dtype=complex)
        left[:, cols] = w_inv[:, rows] * amps
        alpha = left @ w
        for field, x in zip(out, xs):
            phase = np.exp(1j * float(np.dot(p, x)))
            field += coeff * (phase * alpha + np.conj(phase) * alpha.conj().T)
    return out


def restricted_norm(m: np.ndarray, basis: FockBasis, max_quanta: int) -> float:
    """Spectral norm of a matrix restricted to the <= max_quanta sub-block;
    a non-finite sub-block raises OracleError."""
    import numpy as np

    idx = basis.block_indices(max_quanta)
    return block_norm(np.asarray(m)[np.ix_(idx, idx)])


def block_norm(sub: np.ndarray) -> float:
    """Spectral norm of a matrix already restricted to a low-quanta block;
    a non-finite block raises OracleError."""
    import numpy as np

    if not np.isfinite(sub).all():
        raise OracleError("a matrix restricted to the low-quanta block is not finite")
    return float(np.linalg.norm(sub, ord=2))
