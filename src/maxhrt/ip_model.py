"""Binary integer model for maximum-cardinality weakly stable matching.

One binary variable (a column) per acceptable pair whose hospital has a
post; the objective counts matched residents. A pair to a hospital with no
post can never be 1, and it can never block, so it gets no column and no
row. `build_model` builds one pair index, which the solver reads.
`pairs[c]` is column c's (resident, hospital), in the order of
`Instance.acceptable_pairs()`. `res_columns[i-1]` and `hosp_columns[j-1]`
hold each agent's columns best first (a tie's members in column order),
and `res_rank` and `hosp_rank` each column's rank on either side.

The rows, all with integer coefficients and sense <=, are derived from the
index when `IpModel.constraints` is first read, and kept, in this order:

* resident rows `res_i`: each resident takes at most one hospital;
* capacity rows `cap_j`: each hospital stays within its post count;
* stability rows `stab_i_j`, one per column (i, j): writing S for the
  prefix of i's columns through j's tie and T for the prefix of j's
  columns through i's tie,

      c_j * (1 - sum_{q in S} x_{i,q}) - sum_{p in T} x_{p,j} <= 0,

  i.e. either the resident gets a hospital at least as good as j, or j is
  full with residents it ranks at least as high as i. Rows are stored in
  folded form, the constant on the right-hand side and the coefficients
  sorted by column.

A 0/1 point is feasible exactly when it is the indicator vector of a
weakly stable matching.

No program module reads the rows. The benchmark takes the model's row
and nonzero counts from them and hands them to HiGHS for its reference
optima, and the tests check them. The solver's search reads the
pair index, and so does its HiGHS child, which builds the sparser
tie-count form of the same model from it (`highs.tie_count_rows`): a
stability row here sums the hospital's whole prefix through the
resident's tie, and the child replaces each such prefix with one
cumulative column per tie.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from .core import Instance, RankTable


@dataclass(frozen=True)
class LinearConstraint:
    """Sparse row `sum(coefficient * x[column]) <= rhs`."""

    name: str
    coefficients: tuple[tuple[int, int], ...]  # (column, coefficient)
    rhs: int


@dataclass(frozen=True, eq=False)
class IpModel:
    instance: Instance
    pairs: tuple[tuple[int, int], ...]  # column c's (resident, hospital)
    res_columns: tuple[tuple[int, ...], ...]
    hosp_columns: tuple[tuple[int, ...], ...]
    res_rank: tuple[int, ...]
    hosp_rank: tuple[int, ...]

    @property
    def num_variables(self) -> int:
        return len(self.pairs)

    @functools.cached_property
    def constraints(self) -> tuple[LinearConstraint, ...]:
        """Every row, derived from the pair index on the first read."""
        instance = self.instance
        rows = [
            LinearConstraint(f"res_{i}", _unit_terms(cols), 1)
            for i, cols in enumerate(self.res_columns, start=1)
        ]
        rows += [
            LinearConstraint(f"cap_{j}", _unit_terms(cols), instance.capacity(j))
            for j, cols in enumerate(self.hosp_columns, start=1)
        ]
        for column, (i, j) in enumerate(self.pairs):
            cap = instance.capacity(j)
            prefix = through_tie(self.res_columns[i - 1], self.res_rank, column)
            coeff = {col: -cap for col in prefix}
            for col in through_tie(self.hosp_columns[j - 1], self.hosp_rank, column):
                coeff[col] = coeff.get(col, 0) - 1
            terms = tuple(sorted(coeff.items()))
            rows.append(LinearConstraint(f"stab_{i}_{j}", terms, -cap))
        return tuple(rows)


def _unit_terms(columns: Sequence[int]) -> tuple[tuple[int, int], ...]:
    return tuple((col, 1) for col in sorted(columns))


def through_tie(columns: Sequence[int], rank: Sequence[int], column: int) -> Iterator[int]:
    """The prefix of a best-first column list that ends with `column`'s tie."""
    limit = rank[column]
    return itertools.takewhile(lambda col: rank[col] <= limit, columns)


def build_model(instance: Instance, ranks: RankTable) -> IpModel:
    posted = [hospital.capacity > 0 for hospital in instance.hospitals]
    pairs = tuple(pair for pair in instance.acceptable_pairs() if posted[pair[1] - 1])
    res_rank = tuple(ranks.resident_ranks[i - 1][j] for i, j in pairs)
    hosp_rank = tuple(ranks.hospital_ranks[j - 1][i] for i, j in pairs)
    res_columns: list[list[int]] = [[] for _ in range(instance.n1)]
    hosp_columns: list[list[int]] = [[] for _ in range(instance.n2)]
    for col, (i, j) in enumerate(pairs):
        res_columns[i - 1].append(col)
        hosp_columns[j - 1].append(col)
    # best first: acceptable_pairs() walks each resident's list best group
    # first, so only the hospitals' columns need sorting; sort() is stable,
    # so a tie's members stay in column order
    for cols in hosp_columns:
        cols.sort(key=hosp_rank.__getitem__)
    return IpModel(
        instance=instance,
        pairs=pairs,
        res_columns=tuple(map(tuple, res_columns)),
        hosp_columns=tuple(map(tuple, hosp_columns)),
        res_rank=res_rank,
        hosp_rank=hosp_rank,
    )
