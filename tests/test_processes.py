"""The process map's contract, with toy couplings and no physics: order,
failures, worker deaths and the hand-over, on one, two and three cores."""

import json

import numpy as np
import pytest

from conftest import run_python

# a fresh interpreter with argv[1] usable cores and one BLAS thread; the
# couplings are dealt round-robin, coupling i to process i % cores
PRELUDE = """
import json, os, sys, time
import numpy as np
from latticedress import processes

processes._usable_cores = lambda: int(sys.argv[1])
parent = os.getpid()
couplings = [0.5, 0.25, 2.0, 1.0, 4.0]

def run(one, shared=None):
    \"\"\"[what `take` got, in order, and the failure's type and message]\"\"\"
    taken = []
    try:
        processes.each_coupling(couplings, one, lambda lam, v: taken.append([lam, v]),
                                1, "the toy's", shared)
    except Exception as exc:
        return [taken, type(exc).__name__, str(exc)]
    return [taken, None, None]
"""


def _fresh(script: str, cores: int, *args):
    """The JSON of the last output line of PRELUDE + script on `cores`."""
    proc = run_python(["-c", PRELUDE + script, str(cores), *map(str, args)])
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


ORDER_SCRIPT = """
import multiprocessing

def one(lam):
    return [2 * lam, os.getpid() != parent]

print(json.dumps([run(one), len(multiprocessing.active_children())]))
"""


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_results_come_back_in_coupling_order(cores):
    # coupling i runs in process i % cores, 0 being the calling process
    (taken, kind, _), children = _fresh(ORDER_SCRIPT, cores)
    assert kind is None and children == 0
    lambdas = [0.5, 0.25, 2.0, 1.0, 4.0]
    assert taken == [[lam, [2 * lam, i % cores != 0]] for i, lam in enumerate(lambdas)]


FAILURE_SCRIPT = """
def one(lam):
    if lam == 0.25:             # the first in order, and the last in time
        time.sleep(0.3)
        raise LookupError(f"{lam} refused")
    if lam == 1.0:
        raise ValueError(f"{lam} refused")
    return 2 * lam

print(json.dumps(run(one)))
"""


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_the_first_failure_in_order_raises(cores):
    # couplings 0.25 and 1.0 fail: on three cores 1.0 fails first, in the
    # calling process, but 0.25's failure raises, as it does on one core
    assert _fresh(FAILURE_SCRIPT, cores) == [[[0.5, 1.0]], "LookupError", "0.25 refused"]


DEATH_SCRIPT = """
import multiprocessing

def one(lam):
    if lam == 0.25 and os.getpid() != parent:
        os._exit(3)
    return 2 * lam

print(json.dumps([run(one), len(multiprocessing.active_children())]))
"""


@pytest.mark.parametrize("cores", [2, 3])
def test_a_worker_that_exits_names_its_map_and_coupling(cores):
    (taken, kind, message), children = _fresh(DEATH_SCRIPT, cores)
    assert taken == [[0.5, 1.0]] and children == 0
    assert [kind, message] == ["ArithmeticError", "the toy's worker process for "
                               "coupling 0.25 died (exit code 3)"]


HANDOVER_SCRIPT = """
formed = []     # the couplings this process publishes for

def array(lam, key):
    return np.full((2, 3), complex(lam, key))

def form(lam):
    formed.append(lam)
    return lambda key: array(lam, key)

def one(lam, claim=None):
    if lam == 1.0 and claim is not None:
        time.sleep(0.5)         # so that the calling process publishes first
    out = []
    for key in (1.0, 2.0):
        u = claim(key) if claim else None
        published = u is not None
        if u is None:
            u = array(lam, key)
        out.append([u.real.tolist(), u.imag.tolist(), u.dtype.str, u.flags.writeable,
                    published])
    return out

print(json.dumps([run(one, ((1.0, 2.0), (2, 3), form)), formed]))
"""


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_a_published_array_is_the_one_the_worker_forms(cores):
    # each array is the same whether the calling process published it or
    # the worker formed it, and the calling process calls form(lam) at
    # most once per worker coupling; on two cores the worker's 1.0 sleeps
    # first, so that both of its arrays are published
    (taken, kind, _), formed = _fresh(HANDOVER_SCRIPT, cores)
    assert kind is None
    lambdas = [0.5, 0.25, 2.0, 1.0, 4.0]
    assert [lam for lam, _ in taken] == lambdas
    for lam, arrays in taken:
        assert [a[:4] for a in arrays] == [
            [[[lam] * 3] * 2, [[key] * 3] * 2, np.dtype(complex).str, True]
            for key in (1.0, 2.0)]
    published = {lam for lam, arrays in taken if any(a[4] for a in arrays)}
    assert len(formed) == len(set(formed))
    assert published <= set(formed) <= set(lambdas) - set(lambdas[::cores])
    if cores == 2:
        assert [a[4] for a in dict(taken)[1.0]] == [True, True]
