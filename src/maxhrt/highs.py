"""HiGHS on the model in a forked child process, raced against the search.

The solver's own process never imports numpy or scipy: importing
`scipy.optimize.milp` raises a process's resident memory from about 15 to
about 77 MB. `start` forks a child that points its standard output and
error at the null device, only then imports them, and maximizes the
matched residents over the model's rows, exactly as built, with a zero
relative gap. It writes one line to a pipe, `Optimal` and the columns at
1, or `Failed` for any other result, and always leaves by `os._exit`. A
child that raises writes nothing, and an empty answer reads as `Failed`.

`poll` reads the answer without blocking; `close` kills the child and
reaps it, unless the host process has reaped it already. Without
`os.fork`, or when the pipe or the fork fails, `start` returns a child
that has already answered `Failed`.
"""

from __future__ import annotations

import os
import select
import signal
import time
from dataclasses import dataclass

from .ip_model import IpModel

OPTIMAL = "Optimal"
FAILED = "Failed"

Answer = tuple[str, tuple[int, ...]]  # status, and with Optimal the columns at 1


@dataclass
class Child:
    pid: int  # -1: no process to reap
    fd: int  # read end of the answer pipe, -1 once closed
    answer: Answer | None = None


def start(model: IpModel, seconds: float) -> Child:
    """Fork a child that solves the model within `seconds`."""
    deadline = time.monotonic() + seconds
    if not hasattr(os, "fork"):
        return Child(-1, -1, (FAILED, ()))
    fds: tuple[int, ...] = ()
    try:
        fds = read_fd, write_fd = os.pipe()
        pid = os.fork()
    except OSError:  # out of descriptors or processes: no race
        for fd in fds:
            os.close(fd)
        return Child(-1, -1, (FAILED, ()))
    if pid == 0:
        try:
            os.close(read_fd)
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, 1)
            os.dup2(devnull, 2)
            with os.fdopen(write_fd, "w") as pipe:
                pipe.write(_solve(model, deadline))
        finally:
            os._exit(0)
    os.close(write_fd)
    return Child(pid, read_fd)


def poll(child: Child) -> Answer | None:
    """The child's answer, once it has written one; None while it is still working."""
    if child.answer is None and select.select([child.fd], [], [], 0)[0]:
        chunks = []
        while chunk := os.read(child.fd, 1 << 16):
            chunks.append(chunk)
        status, *columns = b"".join(chunks).decode().split() or [FAILED]
        child.answer = (status, tuple(map(int, columns)))
    return child.answer


def close(child: Child) -> None:
    """Kill the child, whether or not it has answered, and reap it."""
    if child.pid > 0:
        try:
            # a child that exited stays a zombie, and keeps its pid, until
            # reaped here; one reaped elsewhere is never signalled
            if os.waitpid(child.pid, os.WNOHANG) == (0, 0):
                os.kill(child.pid, signal.SIGKILL)
                os.waitpid(child.pid, 0)
        except (ChildProcessError, ProcessLookupError):
            pass  # the host reaps children itself: SIGCHLD ignored, or waitpid(-1)
        child.pid = -1
    if child.fd >= 0:
        os.close(child.fd)
        child.fd = -1


def _solve(model: IpModel, deadline: float) -> str:
    """Run in the child: the answer line for the model."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import csr_matrix

    n = model.num_variables
    data: list[int] = []
    indices: list[int] = []
    indptr = [0]
    upper: list[int] = []
    for row in model.constraints:
        for col, coeff in row.coefficients:
            indices.append(col)
            data.append(coeff)
        indptr.append(len(indices))
        upper.append(row.rhs)
    matrix = csr_matrix((data, indices, indptr), shape=(len(upper), n))
    seconds = deadline - time.monotonic()
    if seconds <= 0:
        return FAILED
    result = milp(
        c=-np.ones(n),
        constraints=LinearConstraint(matrix, -np.inf, upper),
        integrality=np.ones(n),
        bounds=Bounds(0, 1),
        options={"time_limit": seconds, "mip_rel_gap": 0},
    )
    if result.status == 0:
        return " ".join([OPTIMAL, *map(str, np.flatnonzero(result.x > 0.5))])
    return FAILED
