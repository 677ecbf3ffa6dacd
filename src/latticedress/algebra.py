"""Exact rewriting of polynomials in bosonic creation/annihilation operators.

A monomial is stored in normal order (all creators left of all annihilators),
keyed by its signature: the sorted creator and annihilator mode tuples.
An `OperatorSeries` is a formal power series in the coupling; each order is a
canonical map signature -> complex coefficient.  Products are normal-ordered
with bosonic Wick contractions; commutators skip the fully disconnected part,
which cancels identically.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from operator import itemgetter
from typing import Callable, Collection, Iterable, Sequence

from .modes import ModeIndex, ModeSystem

# Coefficients below this magnitude are dropped after every canonicalization;
# a NaN is kept, so that an overflow shows.
PRUNE_THRESHOLD = 1e-14

Signature = tuple[tuple[ModeIndex, ...], tuple[ModeIndex, ...]]
TermMap = dict[Signature, complex]


class AlgebraError(ValueError):
    """Invalid input to an operator-algebra operation."""


def canonicalize(
    raw_terms: Iterable[tuple[Sequence[ModeIndex], Sequence[ModeIndex], complex]],
    system: ModeSystem | None = None,
) -> TermMap:
    """Collect raw (creators, annihilators, coeff) triples into a canonical map.

    Signatures are sorted, coefficients of identical signatures summed,
    near-zero entries pruned.  Iteration order of the result is signature
    sort order (deterministic).
    """
    acc: dict[Signature, complex] = {}
    for creators, annihilators, coeff in raw_terms:
        if system is not None:
            for m in list(creators) + list(annihilators):
                if not system.contains(m):
                    raise AlgebraError(f"mode {m} is not a valid mode of {system}")
        sig = (tuple(sorted(creators)), tuple(sorted(annihilators)))
        acc[sig] = acc.get(sig, 0j) + complex(coeff)
    return _sorted_map(acc)


def _sorted_map(terms: TermMap) -> TermMap:
    """The terms in signature order, pruned.  The keys of a map are unique,
    so sorting by signature alone gives the order of sorting the items, and
    no coefficient is ever compared."""
    return _pruned(sorted(terms.items(), key=itemgetter(0)))


def _pruned(pairs: Collection[tuple[Signature, complex]]) -> TermMap:
    """The (signature, coefficient) pairs in their order, less each whose
    coefficient has abs <= PRUNE_THRESHOLD; a NaN is kept.  The first pass
    asks abs itself, which is the dress loop's hot path; where it raises
    OverflowError, as a NaN's abs does after a range error (see
    `coeff_abs`, the one place that rule lives), the pairs are read again
    through `coeff_abs`, so a NaN is kept and a finite coefficient whose
    abs overflows still raises."""
    try:
        return {s: c for s, c in pairs if not abs(c) <= PRUNE_THRESHOLD}
    except OverflowError:
        return {s: c for s, c in pairs if not coeff_abs(c) <= PRUNE_THRESHOLD}


def coeff_abs(c: complex) -> float:
    """abs(c), and a NaN for a NaN c whatever errno an earlier C call left.

    CPython's complex abs returns a NaN without clearing errno, so it
    raises OverflowError wherever an earlier C call left ERANGE behind.
    This is the one place that rule is handled: `_pruned`'s second pass,
    `OperatorSeries.is_zero`, `max_abs` and `hermiticity_defect`, and
    `checks.momentum_commutation_defect` read their magnitudes through it.
    c is asked whether it is a NaN only once abs has raised, so a finite c
    whose abs overflows still raises."""
    try:
        return abs(c)
    except OverflowError:
        if c != c:
            return math.nan
        raise


def largest(sizes: Iterable[float]) -> float:
    """The largest of the sizes, 0.0 for none; a NaN among them is the
    result, where `max` keeps whichever of a NaN and a number came first."""
    worst = 0.0
    for x in sizes:
        if x != x:
            return x
        if x > worst:
            worst = x
    return worst


def dagger_signature(sig: Signature) -> Signature:
    return (sig[1], sig[0])


def term_type(sig: Signature) -> tuple[int, int]:
    return (len(sig[0]), len(sig[1]))


def is_bad_type(m: int, n: int) -> bool:
    """Bad terms obstruct the vacuum / one-particle eigenstate requirements:
    (m,0) and (m,1) with m >= 2, their conjugates, and the linear (1,0)/(0,1)."""
    if n <= 1 and m >= 2:
        return True
    if m <= 1 and n >= 2:
        return True
    return (m, n) in ((1, 0), (0, 1))


def _contractions(
    a1: tuple[ModeIndex, ...],
    c2: tuple[ModeIndex, ...],
    ca1: dict[ModeIndex, int],
    cc2: dict[ModeIndex, int],
    min_contractions: int = 0,
):
    """The contraction patterns of a left factor's annihilators `a1` against
    a right factor's creators `c2`, both sorted.

    `ca1` and `cc2` count the modes of `a1` and `c2`; their keys follow the
    sorted signature, so the common modes come out in mode order.  Returns
    (remaining c2, remaining a1, weight) for every choice of a contraction
    count k per common mode whose counts sum to at least
    `min_contractions`.  The choices come in lexicographic order of their
    counts: the first common mode varies slowest and the last fastest, each
    from 0 up.  Within a mode carrying m annihilators against n creators,
    k contractions come with the factor C(m,k)*C(n,k)*k! (bosonic Wick
    combinatorics); the weight is 1.0 times the factors of the modes with
    k > 0, taken in mode order, so a factor 1 for k = 0 is never taken.
    The k copies of a mode are one run of a sorted tuple, so cutting them
    out leaves it sorted.  One shared mode held once on each side, at
    `min_contractions == 1`, is the common case of a commutator: its one
    pattern is two cuts and the weight 1.0.
    """
    common = [m for m in ca1 if m in cc2]
    if min_contractions == 1 and len(common) == 1:
        mode = common[0]
        if ca1[mode] == cc2[mode] == 1:
            i, j = c2.index(mode), a1.index(mode)
            return [(c2[:i] + c2[i + 1:], a1[:j] + a1[j + 1:], 1.0)]
    # grow the choices one common mode at a time: (rc2, ra1, weight, count)
    cuts = [(c2, a1, 1.0, 0)]
    for mode in common:
        m, n = ca1[mode], cc2[mode]
        grown = []
        for rc2, ra1, w, s in cuts:
            grown.append((rc2, ra1, w, s))
            i, j = rc2.index(mode), ra1.index(mode)
            for k in range(1, min(m, n) + 1):
                grown.append((rc2[:i] + rc2[i + k:], ra1[:j] + ra1[j + k:],
                              w * (math.comb(m, k) * math.comb(n, k) * math.factorial(k)),
                              s + k))
        cuts = grown
    return [(rc2, ra1, w) for rc2, ra1, w, s in cuts if s >= min_contractions]


# Three tables, kept while any `_pattern_scope` is open and emptied when the
# outermost one ends.  The contraction patterns: per (a1, min_contractions),
# a table that maps each c2 to the (remaining c2, remaining a1, weight) of
# each contraction count, each side sorted.  They depend on nothing else, so
# they hold for any modes; a left term looks its table up once for all its
# pairs.  The merged sides: per (left, right), the sorted left + right, for
# either side of a product's signature.  The plans: per key structure
# (tuple(p), tuple(q), min_contractions), what `_plan` builds from the
# signatures alone, four flat tuples (left term, right term, output
# signature, weight) with one entry per contribution, and the output
# signatures; a product on the same keys with other coefficients replays
# it.
_patterns: dict = {}
_merged: dict = {}
_plans: dict = {}
_scope_depth = 0


@contextmanager
def _pattern_scope():
    """Keep the tables while any scope is open: `dress` holds one for all
    its orders, and each commutator, product or `product_terms` call one for
    its own."""
    global _scope_depth
    _scope_depth += 1
    try:
        yield
    finally:
        _scope_depth -= 1
        if not _scope_depth:
            _patterns.clear()
            _merged.clear()
            _plans.clear()


def _merge(left: tuple, right: tuple) -> tuple:
    """The sorted left + right, kept in the merged-side table."""
    merged = _merged[left, right] = tuple(sorted(left + right))
    return merged


def _plan(p: Iterable[Signature], q: Iterable[Signature], min_contractions: int):
    """The contributions of the product of two term maps, from their
    signatures alone: ((ii, js, ks, ws), sigs).

    The four flat tuples hold one entry per contribution, in the visit
    order: the left term i, the right term j it meets, the index k into
    `sigs` of the signature it adds to, and the Wick weight w.  `sigs` lists
    the output signatures in the order of their first contribution.  With
    `min_contractions >= 1` only the pairs where an annihilator of the left
    term meets a creator of the right term are visited, still in the order
    of `q`.  A pair's contractions are read from its left term's pattern
    table, filled by `_contractions` on a miss; a side with nothing left of
    the pattern is the term's own, already sorted, and any other is read
    from the merged-side table.
    """
    # mode multiplicities, keyed in signature (mode) order
    qs = [(c2, a2, {m: c2.count(m) for m in c2}) for c2, a2 in q]
    every = range(len(qs))
    by_mode: dict[ModeIndex, list[int]] = {}
    if min_contractions >= 1:
        for j, (_, _, cc2) in enumerate(qs):
            for m in cc2:
                by_mode.setdefault(m, []).append(j)
    merged = _merged.get
    index: dict[Signature, int] = {}
    ii, js, ks, ws = [], [], [], []
    for i, (c1, a1) in enumerate(p):
        ca1 = {m: a1.count(m) for m in a1}
        if min_contractions < 1:
            visit = every
        else:
            hits = [by_mode[m] for m in ca1 if m in by_mode]
            visit = hits[0] if len(hits) == 1 else sorted(set().union(*hits))
        patterns = _patterns.setdefault((a1, min_contractions), {})
        for j in visit:
            c2, a2, cc2 = qs[j]
            pattern = patterns.get(c2)
            if pattern is None:
                pattern = patterns[c2] = _contractions(a1, c2, ca1, cc2,
                                                       min_contractions)
            for rc2, ra1, w in pattern:
                sig = (merged((c1, rc2)) or _merge(c1, rc2) if rc2 else c1,
                       merged((ra1, a2)) or _merge(ra1, a2) if ra1 else a2)
                ii.append(i)
                js.append(j)
                ks.append(index.setdefault(sig, len(index)))
                ws.append(w)
    return (tuple(ii), tuple(js), tuple(ks), tuple(ws)), list(index)


def product_terms(p: TermMap, q: TermMap, min_contractions: int = 0,
                  out: TermMap | None = None, scale: complex = 1.0) -> TermMap:
    """Accumulate the normal-ordered product of two term maps into `out`.

    The contributions come from the plan of the key structure (tuple(p),
    tuple(q), min_contractions), built once per `_pattern_scope` by `_plan`;
    a call opens a scope of its own, so outside `dress` or a commutator or
    product it leaves no table behind.  The replay is one loop over the
    plan's flat tuples: contribution (i, j, k, w) adds `scale * x_i * y_j *
    w` to output signature k, in the visit order, so every coefficient sums
    its contributions, and every new signature enters `out`, in the same
    order as the all-pairs loop.  An empty `p` or `q` has no pair, so `out`
    comes back as it was given.
    """
    acc: TermMap = {} if out is None else out
    if not (p and q):
        return acc
    with _pattern_scope():
        key = (tuple(p), tuple(q), min_contractions)
        plan = _plans.get(key)
        if plan is None:
            plan = _plans[key] = _plan(key[0], key[1], min_contractions)
    (ii, js, ks, ws), sigs = plan
    get = acc.get
    vals = [get(sig, 0j) for sig in sigs]
    xs = [scale * x for x in p.values()]    # each term is scale * x * y * w, bit for bit
    ys = list(q.values())
    for i, j, k, w in zip(ii, js, ks, ws):
        vals[k] = vals[k] + xs[i] * ys[j] * w
    acc.update(zip(sigs, vals))
    return acc


class OperatorSeries:
    """A formal power series in the coupling over a fixed mode system.

    Each order is kept in signature order.  A new series sorts and prunes
    its orders, except where it keeps the order of a stored one (`scaled`,
    `truncated`): those only prune.
    """

    __slots__ = ("system", "orders", "max_order")

    def __init__(self, system: ModeSystem, orders: list[TermMap], max_order: int):
        if max_order < 0:
            raise AlgebraError(f"max_order must be >= 0, got {max_order}")
        orders = list(orders)
        while len(orders) <= max_order:
            orders.append({})
        self.system = system
        self.orders = [_sorted_map(o) for o in orders[: max_order + 1]]
        self.max_order = max_order

    # ---- constructors ----
    @classmethod
    def zero(cls, system: ModeSystem, max_order: int) -> "OperatorSeries":
        return cls(system, [{} for _ in range(max_order + 1)], max_order)

    @classmethod
    def from_terms(cls, system, raw_terms, order: int = 0,
                   max_order: int | None = None) -> "OperatorSeries":
        if max_order is None:
            max_order = order
        if order > max_order:
            raise AlgebraError(f"order {order} exceeds max_order {max_order}")
        s = cls.zero(system, max_order)
        s.orders[order] = canonicalize(raw_terms, system)
        return s

    @classmethod
    def _ordered(cls, system: ModeSystem, orders: list[TermMap]) -> "OperatorSeries":
        """A series over `orders`, taken as they are: each must be in
        signature order already, as every stored order is."""
        s = object.__new__(cls)
        s.system, s.orders, s.max_order = system, orders, len(orders) - 1
        return s

    def truncated(self, max_order: int) -> "OperatorSeries":
        """The orders up to max_order, padded with empty orders beyond this
        series' own; pruned, in the order they are stored."""
        if max_order < 0:
            raise AlgebraError(f"max_order must be >= 0, got {max_order}")
        kept = [_pruned(o.items()) for o in self.orders[: max_order + 1]]
        return self._ordered(self.system,
                             kept + [{} for _ in range(max_order + 1 - len(kept))])

    # ---- inspection ----
    def term_count(self) -> int:
        return sum(len(o) for o in self.orders)

    def is_zero(self) -> bool:
        """Whether every stored |c| is at most PRUNE_THRESHOLD, each read by
        `coeff_abs`: a NaN makes it False, as it makes `max_abs` NaN."""
        return all(coeff_abs(c) <= PRUNE_THRESHOLD for o in self.orders for c in o.values())

    def max_abs(self) -> float:
        """max |c| over all stored terms; NaN if any c is NaN."""
        return largest(coeff_abs(c) for o in self.orders for c in o.values())

    def hermiticity_defect(self) -> float:
        """max |c(sig) - conj(c(sig^dagger))| over all stored terms; NaN if
        any difference is NaN."""
        return largest(coeff_abs(c - o.get(dagger_signature(sig), 0j).conjugate())
                       for o in self.orders for sig, c in o.items())

    def __repr__(self) -> str:
        return f"OperatorSeries(max_order={self.max_order}, terms={self.term_count()})"

    # ---- linear structure ----
    def _check_system(self, other: "OperatorSeries"):
        if not self.system.same_as(other.system):
            raise AlgebraError(
                f"operands live on different mode systems: {self.system} vs {other.system}"
            )

    def __add__(self, other: "OperatorSeries") -> "OperatorSeries":
        self._check_system(other)
        n = min(self.max_order, other.max_order)
        out = []
        for i in range(n + 1):
            o = dict(self.orders[i])
            for sig, c in other.orders[i].items():
                o[sig] = o.get(sig, 0j) + c
            out.append(o)
        return OperatorSeries(self.system, out, n)

    def __sub__(self, other: "OperatorSeries") -> "OperatorSeries":
        return self + other.scaled(-1.0)

    def scaled(self, factor: complex) -> "OperatorSeries":
        """factor * self, pruned, in the order the terms are stored."""
        return self._ordered(self.system, [
            _pruned([(s, factor * c) for s, c in o.items()]) for o in self.orders])


# ---- ring and Lie operations ----

def _graded(p: OperatorSeries, q: OperatorSeries, products) -> OperatorSeries:
    """The coupling-graded series whose order n sums products(p_i, q_j, out_n)
    over i + j = n, truncated at the lower max_order of the two."""
    p._check_system(q)
    n = min(p.max_order, q.max_order)
    out: list[TermMap] = [{} for _ in range(n + 1)]
    with _pattern_scope():
        for i, oi in enumerate(p.orders[: n + 1]):
            for j, oj in enumerate(q.orders[: n + 1 - i]):
                products(oi, oj, out[i + j])
    return OperatorSeries(p.system, out, n)


def normal_order_product(p: OperatorSeries, q: OperatorSeries) -> OperatorSeries:
    """Fully normal-ordered product p*q, coupling-graded and truncated."""
    return _graded(p, q, lambda a, b, out: product_terms(a, b, out=out))


def _commuted(a: TermMap, b: TermMap, out: TermMap) -> None:
    product_terms(a, b, min_contractions=1, out=out)
    product_terms(b, a, min_contractions=1, out=out, scale=-1.0)


def commutator(p: OperatorSeries, q: OperatorSeries) -> OperatorSeries:
    """[p, q] = pq - qp.  Zero-contraction terms cancel and are skipped."""
    return _graded(p, q, _commuted)


def dagger(p: OperatorSeries) -> OperatorSeries:
    """Hermitian conjugate: swap creator/annihilator lists, conjugate coefficients."""
    out = [
        {dagger_signature(sig): c.conjugate() for sig, c in o.items()}
        for o in p.orders
    ]
    return OperatorSeries(p.system, out, p.max_order)


def bad_terms(terms: TermMap) -> TermMap:
    """The terms of a map whose type `is_bad_type`, in the map's order."""
    return {sig: c for sig, c in terms.items() if is_bad_type(*term_type(sig))}


def bad_part(p: OperatorSeries) -> OperatorSeries:
    return OperatorSeries(p.system, [bad_terms(o) for o in p.orders], p.max_order)


def energy_denominator(sig: Signature, energy: Callable[[ModeIndex], float]) -> float:
    """Delta E = sum_creators E - sum_annihilators E for a signature."""
    creators, annihilators = sig
    return sum(energy(m) for m in creators) - sum(energy(m) for m in annihilators)


def signature_json(sig: Signature) -> dict:
    """JSON-compatible creator and annihilator lists of a signature."""
    creators, annihilators = sig
    return {
        "creators": [{"species": m.species, "k": list(m.k)} for m in creators],
        "annihilators": [{"species": m.species, "k": list(m.k)} for m in annihilators],
    }
