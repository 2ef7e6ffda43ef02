"""Shared fixtures: the six-resident example instance and its known matchings.

FIG1_TEXT deliberately contains a one-sided entry (h2 lists r2 while r2 does
not list h2) to exercise mutuality pruning. After pruning the instance has
10 acceptable pairs.
"""

import os

# The race tests fork this process. numpy, which the tests import, would
# otherwise start OpenBLAS's threads, and a fork from a process with
# threads can leave the child waiting on a lock no thread will release.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import pytest

from maxhrt.core import Matching, build_rank_table
from maxhrt.instance_io import parse_instance

FIG1_TEXT = """\
6 3
r1: h1 h2
r2: h1
r3: h1 h3
r4: h2
r5: h2 h3
r6: h1 h2
h1: 2: r1 r2 r3 r6
h2: 2: r2 r1 r6 ( r4 r5 )
h3: 2: r5 r3
"""

SINGLE_PAIR_TEXT = """\
1 1
r1: h1
h1: 1: r1
"""

# The two stable matchings of the example instance, of sizes 5 and 6.
M0_PAIRS = [(1, 1), (2, 1), (3, 3), (5, 2), (6, 2)]
M1_PAIRS = [(1, 1), (2, 1), (3, 3), (4, 2), (5, 3), (6, 2)]


@pytest.fixture(scope="session")
def fig1():
    instance, warnings = parse_instance(FIG1_TEXT)
    assert len(warnings) == 1  # the pruned (r2, h2) entry
    return instance


@pytest.fixture(scope="session")
def fig1_ranks(fig1):
    return build_rank_table(fig1)


@pytest.fixture(scope="session")
def single_pair():
    instance, warnings = parse_instance(SINGLE_PAIR_TEXT)
    assert not warnings
    return instance


@pytest.fixture
def m0():
    return Matching.from_pairs(M0_PAIRS)


@pytest.fixture
def m1():
    return Matching.from_pairs(M1_PAIRS)
