"""Parts of one computation run side by side in forked processes.

:func:`map_parts` returns ``fn(*part)`` for each part, in part order. This
process computes the first part; a forked child computes each later part
and sends its result down a pipe by ``marshal``, so a result must be made
of marshallable values. A part whose child could not be started, or that
ended without sending a whole result (``fn`` raised in it, say), is
computed again here, so any error is raised here, as it would be in one
process. Every child is reaped before :func:`map_parts` returns or raises.
"""

from __future__ import annotations

import io
import marshal
import os
import warnings
from collections.abc import Callable, Sequence

_SIGKILL = 9  # signal.SIGKILL on every POSIX system; the signal module is not otherwise loaded
# From Python 3.12, os.fork in a process with more than one thread (numpy's
# BLAS pool, say) warns that the child may deadlock on a lock another thread
# held. A child here runs only str, array and numpy code that calls no BLAS
# (the columnar CSV pass, the simulator's draws and sums of squares), takes
# no lock that another thread may hold, and leaves by os._exit, so the
# warning does not apply to it.
_FORK_WARNING = r"This process \(pid=\d+\) is multi-threaded, use of fork\(\) may lead to deadlocks"


def cpus() -> int:
    """CPUs this process may run on; 1 where the platform cannot tell."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else 1


def _fork(fn: Callable, part: Sequence) -> tuple[int, io.BufferedReader] | None:
    """Start a child that sends ``fn(*part)`` down a pipe and exits with 0.

    Returns the child's pid and the pipe's read end, or None when no
    child could be started. The child leaves by ``os._exit`` on every
    path, so it never returns into the caller and flushes no stream.
    """
    read, write = os.pipe()
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", _FORK_WARNING, DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        return None
    if pid == 0:
        status = 1
        try:
            os.close(read)
            result = fn(*part)
            with open(write, "wb") as pipe:
                marshal.dump(result, pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    return pid, open(read, "rb")


def map_parts(fn: Callable, parts: Sequence[Sequence]) -> list:
    """``fn(*part)`` for each of ``parts``, in order.

    Forks a child for every part but the first before computing the
    first here. A child's result counts only when the child exited with
    status 0; otherwise its part is computed here when its turn comes.
    An exception kills and reaps the children left.
    """
    children: list[tuple[int, io.BufferedReader] | None] = []
    try:
        for part in parts[1:]:
            children.append(_fork(fn, part))
        results = [fn(*parts[0])]
        for i, part in enumerate(parts[1:]):
            if children[i] is not None:
                pid, pipe = children[i]
                with pipe:
                    data = pipe.read()
                status = os.waitpid(pid, 0)[1]
                children[i] = None
                if status == 0:
                    results.append(marshal.loads(data))
                    continue
            results.append(fn(*part))
        return results
    finally:
        # a child still listed has not been reaped: its result is not needed
        for child in filter(None, children):
            pid, pipe = child
            pipe.close()
            os.kill(pid, _SIGKILL)
            os.waitpid(pid, 0)
