import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from latticedress import processes
from latticedress.cli import _THREAD_VARIABLES, report_chunks
from latticedress.config import _put, parse_config
from latticedress.modes import FieldSpecies, LatticeSpec, ModeSystem

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def system3():
    """Single scalar, 3 momentum modes k = -1, 0, 1, unit mass, L = 2*pi."""
    return ModeSystem(LatticeSpec(dim=1, sites_per_dim=3), [FieldSpecies("phi", 1.0)])


@pytest.fixture(scope="session")
def system5():
    """Single scalar, 5 momentum modes k = -2..2, unit mass, L = 2*pi (p = k)."""
    return ModeSystem(LatticeSpec(dim=1, sites_per_dim=5), [FieldSpecies("phi", 1.0)])


@pytest.fixture(scope="session")
def system1():
    """A single mode (1-site lattice)."""
    return ModeSystem(LatticeSpec(dim=1, sites_per_dim=1), [FieldSpecies("phi", 1.0)])


@pytest.fixture
def serial(monkeypatch):
    """One usable core: the scans and `verify` run every coupling in this
    process, where a test can count what they call."""
    monkeypatch.setattr(processes, "_usable_cores", lambda: 1)


def run_python(args, pinned=True, **env):
    """`python` with `args` in a fresh interpreter with `src` on its path,
    one BLAS thread and the variables `env`; with `pinned` False, every
    BLAS and OpenMP thread variable is removed instead, as in a shell that
    sets none."""
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [
                   str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])),
               **env)
    if pinned:
        env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    else:
        for name in _THREAD_VARIABLES:
            env.pop(name, None)
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=300)


def mode(system, k, species=None):
    name = species or system.species[0].name
    return system.mode(name, (k,) if isinstance(k, int) else tuple(k))


def phi3_config(changes: dict):
    """configs/phi3.yaml with values replaced at dotted key paths."""
    doc = yaml.safe_load((REPO_ROOT / "configs" / "phi3.yaml").read_text())
    for path, value in changes.items():
        _put(doc, path, value)
    return parse_config(yaml.safe_dump(doc))


def report_text(obj) -> tuple[str, bool]:
    """(text, finite) of the report writer: the chunks of `report_chunks`,
    joined."""
    chunks, finite = report_chunks(obj)
    return "".join(chunks), finite


def evaluate(series, lam: float) -> dict:
    """The slow reference of `numerics.SeriesAssembler`'s coefficients: the
    series collapsed at a numeric coupling into one pruned term map in
    signature order, summed term by term in Python.  The prune is
    `algebra._sorted_map`'s, which keeps a NaN whatever errno a C call left."""
    from latticedress.algebra import _sorted_map

    acc: dict = {}
    for n, o in enumerate(series.orders):
        try:
            w = lam**n
        except OverflowError:
            raise OverflowError(
                f"coupling {lam!r} to the power {n} overflows a float") from None
        for sig, c in o.items():
            acc[sig] = acc.get(sig, 0j) + w * c
    return _sorted_map(acc)


def matrix_of(series, basis, lam: float):
    """The slow reference of `numerics.SeriesAssembler`: the matrix of the
    series evaluated at a numeric coupling."""
    from latticedress.numerics import matrix_of_terms

    return matrix_of_terms(evaluate(series, lam), basis)


def random_series(system, rng, max_terms=3, max_degree=2):
    """A random low-degree operator series with complex Gaussian coefficients."""
    from latticedress.algebra import OperatorSeries

    modes = system.modes
    raw = []
    for _ in range(rng.integers(1, max_terms + 1)):
        nc = int(rng.integers(0, max_degree + 1))
        na = int(rng.integers(0, max_degree + 1))
        creators = [modes[i] for i in rng.integers(0, len(modes), nc)]
        annihilators = [modes[i] for i in rng.integers(0, len(modes), na)]
        coeff = complex(rng.normal(), rng.normal())
        raw.append((creators, annihilators, coeff))
    return OperatorSeries.from_terms(system, raw, order=0)


def run_property_suite(system, basis, n_instances=200, seed=20260824):
    """Randomized invariants of the operator algebra.

    Per instance: associativity of the normal-ordered product, the Jacobi
    identity, the dagger anti-homomorphism, and agreement of the symbolic
    product with the matrix product on a low-quanta sub-block.  Returns the
    number of instances checked; raises AssertionError on the first violation.
    """
    from latticedress.algebra import commutator, dagger, normal_order_product
    from latticedress.numerics import matrix_of_terms

    rng = np.random.default_rng(seed)
    idx = basis.block_indices(2)
    tol = 1e-9
    for i in range(n_instances):
        p = random_series(system, rng)
        q = random_series(system, rng)
        r = random_series(system, rng)

        assoc = normal_order_product(normal_order_product(p, q), r) - \
            normal_order_product(p, normal_order_product(q, r))
        assert assoc.max_abs() < tol, f"associativity violated at instance {i}"

        jac = commutator(commutator(p, q), r) + commutator(commutator(q, r), p) \
            + commutator(commutator(r, p), q)
        assert jac.max_abs() < tol, f"Jacobi identity violated at instance {i}"

        anti = dagger(normal_order_product(p, q)) - \
            normal_order_product(dagger(q), dagger(p))
        assert anti.max_abs() < tol, f"dagger anti-homomorphism violated at instance {i}"

        mp = matrix_of_terms(p.orders[0], basis).toarray()
        mq = matrix_of_terms(q.orders[0], basis).toarray()
        mpq = matrix_of_terms(normal_order_product(p, q).orders[0], basis).toarray()
        diff = (mp @ mq - mpq)[np.ix_(idx, idx)]
        assert np.abs(diff).max() < tol, f"matrix homomorphism violated at instance {i}"
    return n_instances


def generator_consistency_defect(result) -> float:
    """max termwise |[R_n, H0] + removed_n| over the orders (should be ~0):
    each generator cancels the terms its order removed."""
    from latticedress.algebra import commutator
    from latticedress.models import free_hamiltonian

    h0 = free_hamiltonian(result.model.system, result.max_order)
    worst = 0.0
    for n, (rn, target) in enumerate(zip(result.generators, result.removed), start=1):
        lhs = commutator(rn, h0).orders[n]
        for sig in lhs.keys() | target.keys():
            worst = max(worst, abs(lhs.get(sig, 0j) + target.get(sig, 0j)))
    return worst


def squeeze_deviation(chi: float, cutoff: int, block: int) -> tuple[float, float]:
    """exp(R) a exp(-R) with R = (chi/2)(aa - a+a+), by `conjugate_numeric`
    on one mode truncated at `cutoff`, against the closed form
    cosh(chi) a + sinh(chi) a+.  Returns the largest deviation and the
    largest deviation of the canonical commutator from 1, both on the
    lowest `block` states."""
    from latticedress.numerics import FockBasis, conjugate_numeric, matrix_of_terms

    system = ModeSystem(LatticeSpec(sites_per_dim=1), [FieldSpecies("phi", 1.0)])
    basis = FockBasis(system, cutoff, cutoff)
    (m,) = system.modes
    a = matrix_of_terms({((), (m,)): 1.0}, basis).toarray()
    r = matrix_of_terms({((), (m, m)): 0.5 * chi, ((m, m), ()): -0.5 * chi}, basis)
    lhs = conjugate_numeric(r, a)
    rhs = math.cosh(chi) * a + math.sinh(chi) * a.conj().T
    dev = float(np.abs((lhs - rhs)[:block, :block]).max())
    lhsd = lhs.conj().T
    ccr = lhs @ lhsd - lhsd @ lhs - np.eye(cutoff + 1)
    return dev, float(np.abs(ccr[:block, :block]).max())


def rspt2_shift(model, basis, species: str, k) -> float:
    """Second-order perturbation theory for the one-particle level, measured
    relative to the vacuum shift.

    Uses the bare basis states as the unperturbed spectrum; per unit
    coupling^2 (multiply by lambda^2 for a physical shift).  The reference
    that the dressed energy corrections are compared against.
    """
    from latticedress.numerics import matrix_of_terms

    mode = model.system.mode(species, k)
    mv = matrix_of_terms(model.interaction.orders[1], basis).toarray()
    e0 = np.array([
        sum(occ * model.system.energy(m) for occ, m in zip(state, basis.modes))
        for state in basis.occupations.tolist()
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
                    f"degenerate intermediate state {basis.occupations[s].tolist()} "
                    f"(E={e0[s]:.6f}) in second-order shift"
                )
            total += abs(amp) ** 2 / den
        return total

    vac = basis.vacuum_index()
    one = basis.index_of([1 if m == mode else 0 for m in basis.modes])
    return shift(one) - shift(vac)
