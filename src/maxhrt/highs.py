"""HiGHS on the model in a forked child process, raced against the search.

The solver's own process never imports numpy or scipy: importing
`scipy.optimize.milp` raises a process's resident memory from about 15 to
about 77 MB. `start` forks a child that points its standard output and
error at the null device, only then imports them, and maximizes the
matched residents with a zero relative gap. It does not read the model's
rows: `tie_count_rows` builds the tie-count form of the same model from
the pair index (Delorme et al., EJOR 2019), in which each hospital's
prefix through a tie is one continuous column. The paper's stability row
sums that prefix term by term, so its rows average about 40 nonzeros. On
the pool instances that race, the tie-count form has 2.4-5.9 times fewer
nonzeros (`sfas_like(200, .5, 4)`: 3 947 -> 1 631; two-sided-ties n1 = 150
seed 0: 32 500 -> 5 473), and three more of them are proved within 3.5 s.
HiGHS alone got slower on some (2-core x86-64): 0.17-0.22 -> 0.43-0.46 s
on the bound-limited `sfas_like(100, .85, 7)`, 3.1 -> 5.7-6.2 s on
two-sided-ties n1 = 150 seed 0, and 4.9-5.0 -> 10.2-10.7 s on
`sfas_like(1000, .5, 1)`. When HiGHS proves an optimum, the child writes
`Optimal` and the pair columns at 1 to a pipe; otherwise it writes
nothing. It always leaves by `os._exit`.

`poll` reads the optimum without blocking, whatever the pipe's fd number;
`close` kills the child and reaps it, unless the host process has reaped it
already. Without `os.fork`, or when the pipe or the fork fails, `start`
returns a child that has finished without an optimum.
"""

from __future__ import annotations

import itertools
import math
import os
import select
import signal
import time
from dataclasses import dataclass

from .ip_model import IpModel, through_tie

OPTIMAL = "Optimal"


@dataclass
class Child:
    pid: int  # -1: no process to reap
    fd: int  # read end of the answer pipe, -1 once read to its end or closed
    optimum: tuple[int, ...] | None = None  # the columns at 1 of HiGHS's optimum


def start(model: IpModel, deadline: float) -> Child:
    """Fork a child that solves the model by `deadline`, a `time.monotonic()` time."""
    if not hasattr(os, "fork"):
        return Child(-1, -1)
    fds: tuple[int, ...] = ()
    try:
        fds = read_fd, write_fd = os.pipe()
        pid = os.fork()
    except OSError:  # out of descriptors or processes: no race
        for fd in fds:
            os.close(fd)
        return Child(-1, -1)
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


def poll(child: Child) -> tuple[int, ...] | None:
    """The columns of the child's optimum; None while it works, or if it has none."""
    if child.fd >= 0:
        # a poll object takes any fd; select.select rejects one of 1 024 or more
        ready = select.poll()
        ready.register(child.fd, select.POLLIN)
        if ready.poll(0):
            chunks = []
            while chunk := os.read(child.fd, 1 << 16):
                chunks.append(chunk)
            os.close(child.fd)
            child.fd = -1
            status, *columns = b"".join(chunks).decode().split() or [""]
            if status == OPTIMAL:
                child.optimum = tuple(map(int, columns))
    return child.optimum


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


Row = tuple[tuple[tuple[int, int], ...], float, float]  # (column, coefficient) terms, lower, upper


def tie_count_rows(model: IpModel) -> tuple[int, list[Row]]:
    """The model in tie-count form, built from its pair index: columns and rows.

    Columns 0 to n - 1 are the pairs: column c is `model.pairs[c]`, and
    `res_columns` and `hosp_columns` give each agent's columns best first.
    After the pairs each hospital j has one column y_{j,t} >= 0 per tie t
    of its list, and a row
    y_{j,t} - y_{j,t-1} - sum of the tie's pairs = 0 makes it count j's
    assignees in ties 1 to t; a row y_{j,last} <= c_j bounds them. Each
    pair (i, j) has the stability row
    -c_j * (sum of i's pairs through j's tie) - y_{j,tie of i} <= -c_j.
    So each hospital prefix of the paper's stability rows is one column.
    """
    rows: list[Row] = [
        (tuple((col, 1) for col in cols), -math.inf, 1) for cols in model.res_columns
    ]
    count_of = [0] * model.num_variables  # a pair's y: its hospital's count through its tie
    columns = model.num_variables
    for j, cols in enumerate(model.hosp_columns, start=1):
        previous: tuple[tuple[int, int], ...] = ()  # the term -y_{j,t-1}, once t > 1
        for _, tie in itertools.groupby(cols, key=model.hosp_rank.__getitem__):
            terms = [(columns, 1), *previous]
            for col in tie:
                terms.append((col, -1))
                count_of[col] = columns
            rows.append((tuple(terms), 0, 0))
            previous = ((columns, -1),)
            columns += 1
        if previous:
            rows.append((((columns - 1, 1),), -math.inf, model.instance.capacity(j)))
    for column, (i, j) in enumerate(model.pairs):
        cap = model.instance.capacity(j)
        prefix = through_tie(model.res_columns[i - 1], model.res_rank, column)
        terms = [(col, -cap) for col in prefix]
        rows.append((tuple(terms) + ((count_of[column], -1),), -math.inf, -cap))
    return columns, rows


def _solve(model: IpModel, deadline: float) -> str:
    """Run in the child: the answer line for the model, solved in tie-count form.

    The line is empty unless HiGHS proves an optimum.
    """
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import csr_matrix

    n = model.num_variables
    columns, rows = tie_count_rows(model)
    terms = [term for row_terms, _, _ in rows for term in row_terms]
    indptr = np.cumsum([0] + [len(row_terms) for row_terms, _, _ in rows])
    matrix = csr_matrix(
        ([c for _, c in terms], [col for col, _ in terms], indptr), shape=(len(rows), columns)
    )
    is_pair = (np.arange(columns) < n).astype(float)
    seconds = deadline - time.monotonic()
    if seconds <= 0:
        return ""
    result = milp(
        c=-is_pair,
        constraints=LinearConstraint(matrix, [lo for _, lo, _ in rows], [hi for _, _, hi in rows]),
        integrality=is_pair,
        bounds=Bounds(0, np.where(is_pair, 1, np.inf)),
        options={"time_limit": seconds, "mip_rel_gap": 0},
    )
    if result.status == 0:
        return " ".join([OPTIMAL, *map(str, np.flatnonzero(result.x[:n] > 0.5))])
    return ""
