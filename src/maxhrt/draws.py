"""Random draws taken exactly as `random.Random`'s own methods take them.

Each kernel takes a `random.Random`'s bound `getrandbits` and consumes its
stream draw for draw as the named method does, so a seed gives the same
result through the kernel as through the method, without the method's
per-call overhead:

* `below(n, getrandbits)` draws as `randrange(n)`: `getrandbits` of
  `n.bit_length()` bits until the value is below n;
* `sample(n, k, getrandbits)` draws as `sample(range(1, n + 1), k)` does
  on its pool branch, which it takes for every n <= 21 whatever k is;
* `shuffle(x, lo, hi, getrandbits)` shuffles `x[lo:hi]` as `shuffle`
  shuffles a list of that length.

`shuffle` writes `below`'s loop inline, since it runs inside every
promotion try. The draw-for-draw match is a property of each CPython's
`random` module; `test_below_draws_as_randrange`,
`test_sample_draws_as_random_sample` and
`test_shuffle_draws_as_random_shuffle` pin each kernel to its method.
Users: the generator (`below`, `sample`, `shuffle`), the warm start and
promotion tries (`shuffle`), and the solver's branching order (`shuffle`).
"""

from __future__ import annotations

from typing import Callable


def below(n: int, getrandbits: Callable[[int], int]) -> int:
    """A draw from range(n), n >= 1, taken as random.Random.randrange(n) takes it."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def sample(n: int, k: int, getrandbits: Callable[[int], int]) -> list[int]:
    """k distinct ids of 1..n, drawn as random.Random.sample(range(1, n + 1), k) draws them.

    This copies sample's pool branch, which it takes for every n <= 21.
    """
    pool = list(range(1, n + 1))
    result = []
    for m in range(n, n - k, -1):
        j = below(m, getrandbits)
        result.append(pool[j])
        pool[j] = pool[m - 1]
    return result


def shuffle(x: list[int], lo: int, hi: int, getrandbits: Callable[[int], int]) -> None:
    """Shuffle x[lo:hi] in place, drawing each index as random.Random.shuffle does."""
    for n in range(hi - lo, 1, -1):
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        x[lo + n - 1], x[lo + r] = x[lo + r], x[lo + n - 1]
