"""Binary integer model for maximum-cardinality weakly stable matching.

One binary variable (a column) per acceptable pair, numbered in resident
list order; the objective counts matched residents. `build_model` builds
one pair index, which the solver reads: `res_columns[i-1]` and
`hosp_columns[j-1]` hold each agent's columns best first (a tie's members
in column order), and `res_rank` and `hosp_rank` each column's rank on
either side.

The rows, all with integer coefficients and sense <=, are derived from the
index each time `IpModel.constraints` is read, in this order:

* resident rows `res_i`: each resident takes at most one hospital;
* capacity rows `cap_j`: each hospital stays within its post count;
* stability rows `stab_i_j`, one per acceptable pair (i, j): writing S for the
  prefix of i's columns through j's tie and T for the prefix of j's
  columns through i's tie,

      c_j * (1 - sum_{q in S} x_{i,q}) - sum_{p in T} x_{p,j} <= 0,

  i.e. either the resident gets a hospital at least as good as j, or j is
  full with residents it ranks at least as high as i. Rows are stored in
  folded form, the constant on the right-hand side and the coefficients
  sorted by column.

A 0/1 point is feasible exactly when it is the indicator vector of a
weakly stable matching.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from .core import Instance, Matching, RankTable


@dataclass(frozen=True)
class IpVariable:
    resident: int
    hospital: int
    column: int


@dataclass(frozen=True)
class LinearConstraint:
    """Sparse row `sum(coefficient * x[column]) <= rhs`."""

    name: str
    coefficients: tuple[tuple[int, int], ...]  # (column, coefficient)
    rhs: int


@dataclass(frozen=True, eq=False)
class IpModel:
    instance: Instance
    variables: tuple[IpVariable, ...]
    column_of: dict[tuple[int, int], int]
    res_columns: tuple[tuple[int, ...], ...]
    hosp_columns: tuple[tuple[int, ...], ...]
    res_rank: tuple[int, ...]
    hosp_rank: tuple[int, ...]

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    @property
    def constraints(self) -> tuple[LinearConstraint, ...]:
        """Every row, derived from the pair index on each read."""
        instance = self.instance
        rows = [
            LinearConstraint(f"res_{i}", _unit_terms(cols), 1)
            for i, cols in enumerate(self.res_columns, start=1)
        ]
        rows += [
            LinearConstraint(f"cap_{j}", _unit_terms(cols), instance.capacity(j))
            for j, cols in enumerate(self.hosp_columns, start=1)
        ]
        for v in self.variables:
            i, j = v.resident, v.hospital
            cap = instance.capacity(j)
            coeff: dict[int, int] = {}
            if cap > 0:
                for col in _through_tie(self.res_columns[i - 1], self.res_rank, v.column):
                    coeff[col] = -cap
            for col in _through_tie(self.hosp_columns[j - 1], self.hosp_rank, v.column):
                coeff[col] = coeff.get(col, 0) - 1
            terms = tuple(sorted(coeff.items()))
            rows.append(LinearConstraint(f"stab_{i}_{j}", terms, -cap))
        return tuple(rows)

    def encode(self, matching: Matching) -> list[int]:
        """Indicator vector of a matching over this model's pairs."""
        vector = [0] * len(self.variables)
        for r, h in matching.pairs():
            column = self.column_of.get((r, h))
            if column is None:
                raise ValueError(f"pair (r{r}, h{h}) has no variable in the model")
            vector[column] = 1
        return vector


def _unit_terms(columns: Sequence[int]) -> tuple[tuple[int, int], ...]:
    return tuple((col, 1) for col in sorted(columns))


def _through_tie(columns: Sequence[int], rank: Sequence[int], column: int) -> Iterator[int]:
    """The prefix of a best-first column list that ends with `column`'s tie."""
    limit = rank[column]
    return itertools.takewhile(lambda col: rank[col] <= limit, columns)


def build_model(instance: Instance, ranks: RankTable) -> IpModel:
    pairs = instance.acceptable_pairs()
    res_rank = tuple(int(ranks.resident_rank(i, j)) for i, j in pairs)
    hosp_rank = tuple(int(ranks.hospital_rank(j, i)) for i, j in pairs)
    res_columns: list[list[int]] = [[] for _ in range(instance.n1)]
    hosp_columns: list[list[int]] = [[] for _ in range(instance.n2)]
    for col, (i, j) in enumerate(pairs):
        res_columns[i - 1].append(col)
        hosp_columns[j - 1].append(col)
    # best first; sort() is stable, so a tie's members stay in column order
    for lists, rank in ((res_columns, res_rank), (hosp_columns, hosp_rank)):
        for cols in lists:
            cols.sort(key=rank.__getitem__)
    return IpModel(
        instance=instance,
        variables=tuple(IpVariable(i, j, col) for col, (i, j) in enumerate(pairs)),
        column_of={pair: col for col, pair in enumerate(pairs)},
        res_columns=tuple(map(tuple, res_columns)),
        hosp_columns=tuple(map(tuple, hosp_columns)),
        res_rank=res_rank,
        hosp_rank=hosp_rank,
    )


def _wrap_terms(prefix: str, terms: list[str], limit: int = 76) -> list[str]:
    lines = [prefix]
    for term in terms:
        if len(lines[-1]) + len(term) + 1 > limit:
            lines.append(" " + term)
        else:
            lines[-1] += " " + term
    return lines


def _format_row(model: IpModel, constraint: LinearConstraint) -> list[str]:
    terms = []
    for position, (col, c) in enumerate(constraint.coefficients):
        var = model.variables[col]
        name = f"x_{var.resident}_{var.hospital}"
        if c >= 0:
            sign = "+ " if position > 0 else ""
        else:
            sign = "- "
        magnitude = "" if abs(c) == 1 else f"{abs(c)} "
        terms.append(f"{sign}{magnitude}{name}")
    if not terms:
        # empty preference list: keep the named row syntactically valid
        first = model.variables[0]
        terms = [f"0 x_{first.resident}_{first.hospital}"]
    terms.append(f"<= {constraint.rhs}")
    return _wrap_terms(f" {constraint.name}:", terms)


def export_lp(model: IpModel) -> str:
    """Standard LP-file text for the model (ASCII, LF newlines)."""
    if not model.variables:
        # an empty row is written as "0 x" over some variable, and there is none
        raise ValueError("cannot export a model with no variables: no pair is acceptable")
    lines = ["Maximize"]
    objective = [
        ("+ " if pos > 0 else "") + f"x_{v.resident}_{v.hospital}"
        for pos, v in enumerate(model.variables)
    ]
    lines.extend(_wrap_terms(" obj:", objective))
    lines.append("Subject To")
    for constraint in model.constraints:
        lines.extend(_format_row(model, constraint))
    lines.append("Binary")
    for v in model.variables:
        lines.append(f" x_{v.resident}_{v.hospital}")
    lines.append("End")
    return "\n".join(lines) + "\n"
