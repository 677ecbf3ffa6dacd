"""One map over a check's independent couplings, run by this process and
by forked worker processes.

`each_coupling` is the only entry point.  It knows nothing of the physics:
a coupling is a key that `one` turns into a result and `take` takes in,
and a hand-over is a set of complex arrays of one shape that either this
process or a coupling's worker forms, whichever gets to it first.  It
chooses the number of workers itself: one process per usable core at
most, as many as available memory holds (`_workers`), and none where this
process runs other threads or where no worker can be started.  This
process runs its own share without waiting for the workers, and `take`
runs here on every result, in the couplings' order, so nothing it forms
depends on the number of cores.  It is also where a worker's results
come back to this process, through `_serve`'s pipe.

As in `numerics`, `multiprocessing`, `mmap`, `signal`, `threading` and
numpy are imported inside the functions that use them, so that importing
the command line loads no process pool and no numerical stack.
"""

from __future__ import annotations

import math
import os

_MEMINFO = "/proc/meminfo"
# a hand-over slot's states
_EMPTY, _CLAIMED, _PUBLISHED = 0, 1, 2
# the slot lock is held for one byte: a holder that keeps it this long has died
_LOCK_SECONDS = 1.0


def _usable_cores() -> int:
    """The cores this process may run on: its CPU affinity where the system
    has one, else every core."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _free_bytes() -> int:
    """The memory that processes can take without swapping: the kernel's
    MemAvailable, which counts reclaimable page cache, where the system
    has /proc/meminfo; else its count of free pages, or 0 where it keeps
    neither."""
    try:
        with open(_MEMINFO, "rb") as fh:
            for line in fh:
                if line.startswith(b"MemAvailable:"):
                    return int(line.split()[1]) * 1024     # in kB
    except (OSError, ValueError, IndexError):
        pass
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


def _workers(couplings: int, context_bytes: int, slot_bytes: int = 0) -> int:
    """How many worker processes a map over `couplings` couplings forks
    beside this process, which runs a share of them too: one per usable
    core after this process's, no more than the couplings after the first,
    and no more than available memory holds, beside `slot_bytes` of shared
    arrays for each coupling after the first (`_Handover`), a context of
    `context_bytes` in each process, this one included.  0, so that nothing
    forks, where this process has other threads."""
    spare = _free_bytes() - (couplings - 1) * slot_bytes
    workers = min(_usable_cores() - 1, couplings - 1,
                  spare // max(context_bytes, 1) - 1)
    return workers if workers > 0 and _one_thread() else 0


def each_coupling(couplings, one, take, context_bytes: int, who: str,
                  shared=None) -> None:
    """take(lam, one(lam)) for each coupling in order, each coupling run by
    one process, which frees what it formed before its next coupling.
    `context_bytes` is what one coupling holds at its peak, and `who` names
    the map in a worker's death.

    Where `_workers` allows workers and the system can fork, the couplings
    are dealt round-robin over this process and the workers: coupling i
    runs in process i % (workers + 1), where 0 is this one, which so runs
    the first coupling.  The workers inherit what `one` uses and send back
    each result.  This process runs its own share first, keeping each
    result or its first failure, then takes every result in order.  With
    `shared` = (keys, shape, form), a worker runs one(lam, claim), where
    claim(key) claims the coupling's complex array of `shape` for the key
    and gives it as this process published it, or None, so that the worker
    forms its own; this process, its own share done, publishes form(lam)(key)
    for each slot that no worker has claimed yet, calling form(lam) once
    per coupling (`_Handover`).  Where the system has no semaphores or
    shared maps, nothing is handed over.  Else, and where a worker's pipe
    or process cannot be made, every coupling runs here, in turn.

    The first coupling that failed raises as it does in turn: the same
    type, the same message.  A worker that dies raises ArithmeticError
    naming whose worker it was, its coupling and the signal or exit code.
    Every worker is joined, and every hand-over slot unmapped, before this
    returns or raises.
    """
    keys, shape, _ = shared or ((), (), None)
    processes = 1 + _workers(len(couplings), context_bytes,
                             16 * math.prod(shape) * len(keys))
    if processes > 1:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods() and _fork_each(
                multiprocessing.get_context("fork"), couplings, one, take, processes, who,
                shared):
            return
    for lam in couplings:
        take(lam, one(lam))


def _fork_each(ctx, couplings, one, take, processes: int, who: str, shared) -> bool:
    """`each_coupling` over this process and `processes` - 1 workers forked
    from `ctx`; False, with every worker that started ended and nothing
    taken, where a worker's pipe or process cannot be made."""
    handover = None
    if shared is not None:
        try:
            handover = _Handover(ctx, [lam for i, lam in enumerate(couplings)
                                       if i % processes], *shared)
        except (ImportError, OSError):  # no semaphores or shared maps here
            pass                        # (no /dev/shm, say): no hand-over

    worker_one = one if handover is None else (
        lambda lam: one(lam, lambda key: handover.claim(lam, key)))

    pipes, procs = {}, {}       # worker k's end of its pipe, its process
    done = False
    try:
        try:
            for k in range(1, processes):
                pipes[k], send = ctx.Pipe(duplex=False)
                with send:      # closed here once the worker has it, or has failed
                    proc = ctx.Process(target=_serve, args=(
                        worker_one, couplings[k::processes], send.send))
                    proc.start()
                procs[k] = proc
        except OSError:         # no pipe or no process to be had (a pids limit, say)
            return False
        own: list = []
        _serve(one, couplings[::processes], own.append)
        if handover is not None:
            handover.publish()
        for i, lam in enumerate(couplings):
            k = i % processes
            try:
                ok, value = pipes[k].recv() if k else own.pop(0)
            except EOFError:
                procs[k].join()
                raise ArithmeticError(
                    f"{who} worker process for coupling {lam!r} died "
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
        if handover is not None:
            handover.close()
    return True


def _serve(one, couplings, send) -> None:
    """A share's loop: send((True, one(lam))) for each coupling in turn, or
    at the first failure send((False, the exception)), and stop.  A worker
    sends through its pipe; this process keeps its own share's."""
    for lam in couplings:
        try:
            send((True, one(lam)))
        except Exception as exc:        # raised in the parent, in order
            send((False, exc))
            return


class _Handover:
    """A complex array of `shape` for each worker coupling lam and key,
    formed by whichever of the calling process and the coupling's worker
    gets to it first, so that neither ever waits for the other's.

    A slot is a state byte and an anonymous shared mmap of the array's
    bytes, both mapped before the fork so that every process sees the same
    pages; the state bytes change under one lock.  The worker claims its
    slot when it first needs the key's array (`claim`), and takes the array
    if it was published.  The calling process, its own share done, forms
    every slot that is still unclaimed, in coupling order, by form(lam)(key),
    and publishes it only if it is still unclaimed then (`publish`)."""

    def __init__(self, ctx, couplings, keys, shape, form):
        import mmap

        self._shape, self._form = shape, form
        self._lock = ctx.Lock()
        slots = len(couplings) * len(keys)
        index = iter(range(slots))
        # lam -> key -> slot index, in coupling order
        self._slots = {lam: {key: next(index) for key in keys} for lam in couplings}
        self._states = mmap.mmap(-1, slots)
        self._buffers = [mmap.mmap(-1, 16 * math.prod(self._shape)) for _ in range(slots)]

    def _exchange(self, i: int, state: int, only_from: int | None = None):
        """Slot i's state before, set to `state` (only where it was
        `only_from`, if given); None, with nothing changed, where the lock
        is not had within `_LOCK_SECONDS`."""
        if not self._lock.acquire(timeout=_LOCK_SECONDS):
            return None
        try:
            before = self._states[i]
            if only_from is None or before == only_from:
                self._states[i] = state
            return before
        finally:
            self._lock.release()

    def _array(self, i: int):
        import numpy as np

        return np.frombuffer(self._buffers[i], dtype=complex).reshape(self._shape)

    def claim(self, lam, key):
        """The worker's side: lam's array for `key` as published, or None, so
        that the caller forms its own; the slot is claimed either way."""
        i = self._slots[lam][key]
        if self._exchange(i, _CLAIMED) != _PUBLISHED:
            return None
        return self._array(i).copy()

    def publish(self) -> None:
        """The calling process's side: form and publish each slot that its
        worker has not claimed, in coupling order, calling form(lam) once
        per coupling.  A slot whose forming raises is left to its worker,
        which forms its own, and raises, if it does, as it would alone."""
        for lam, slots in self._slots.items():
            formed = None
            for key, i in slots.items():
                if self._states[i] != _EMPTY:   # read unlocked: a stale read costs work only
                    continue
                try:
                    formed = formed or self._form(lam)
                    self._array(i)[...] = formed(key)
                except Exception:
                    continue
                if self._exchange(i, _PUBLISHED, only_from=_EMPTY) is None:
                    return

    def close(self) -> None:
        """Unmap every slot and drop the lock's semaphore, even while a
        traceback still holds this object."""
        for buffer in self._buffers:
            buffer.close()
        self._states.close()
        self._lock = None


def _ending(exitcode: int) -> str:
    """How a process ended, from its multiprocessing exit code."""
    import signal

    if exitcode < 0:
        try:
            return f"signal {signal.Signals(-exitcode).name}"
        except ValueError:
            return f"signal {-exitcode}"
    return f"exit code {exitcode}"
