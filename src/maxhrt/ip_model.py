"""Binary integer model for maximum-cardinality weakly stable matching.

One binary variable per acceptable pair; the objective counts matched
residents. Three constraint families, all with integer coefficients and
sense <=:

* resident rows: each resident takes at most one hospital;
* capacity rows: each hospital stays within its post count;
* stability rows, one per acceptable pair (i, j): writing S for the
  hospitals resident i ranks no worse than j and T for the residents
  hospital j ranks no worse than i,

      c_j * (1 - sum_{q in S} x_{i,q}) - sum_{p in T} x_{p,j} <= 0,

  i.e. either the resident gets a hospital at least as good as j, or j is
  full with residents it ranks at least as high as i. Rows are stored in
  folded form with the constant moved to the right-hand side.

A 0/1 point is feasible exactly when it is the indicator vector of a
weakly stable matching.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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
    kind: str  # "resident" | "capacity" | "stability"
    pair: tuple[int, int] | None = None

    def violated_by(self, vector: Sequence[int]) -> bool:
        return sum(c * vector[col] for col, c in self.coefficients) > self.rhs


@dataclass(frozen=True, eq=False)
class IpModel:
    instance: Instance
    variables: tuple[IpVariable, ...]
    constraints: tuple[LinearConstraint, ...]
    column_of: dict[tuple[int, int], int]

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    def is_feasible(self, vector: Sequence[int]) -> bool:
        if len(vector) != len(self.variables):
            raise ValueError("vector length does not match variable count")
        if any(x not in (0, 1) for x in vector):
            return False
        return not any(c.violated_by(vector) for c in self.constraints)

    def encode(self, matching: Matching) -> list[int]:
        """Indicator vector of a matching over this model's pairs."""
        vector = [0] * len(self.variables)
        for r, h in matching.pairs():
            column = self.column_of.get((r, h))
            if column is None:
                raise ValueError(f"pair (r{r}, h{h}) has no variable in the model")
            vector[column] = 1
        return vector


def build_model(instance: Instance, ranks: RankTable) -> IpModel:
    variables = tuple(
        IpVariable(resident=i, hospital=j, column=col)
        for col, (i, j) in enumerate(instance.acceptable_pairs())
    )
    column_of = {(v.resident, v.hospital): v.column for v in variables}
    res_columns: list[list[int]] = [[] for _ in range(instance.n1)]
    hosp_columns: list[list[int]] = [[] for _ in range(instance.n2)]
    for v in variables:
        res_columns[v.resident - 1].append(v.column)
        hosp_columns[v.hospital - 1].append(v.column)

    constraints: list[LinearConstraint] = []
    for i in range(1, instance.n1 + 1):
        constraints.append(
            LinearConstraint(
                name=f"res_{i}",
                coefficients=tuple((col, 1) for col in res_columns[i - 1]),
                rhs=1,
                kind="resident",
            )
        )
    for j in range(1, instance.n2 + 1):
        constraints.append(
            LinearConstraint(
                name=f"cap_{j}",
                coefficients=tuple((col, 1) for col in hosp_columns[j - 1]),
                rhs=instance.capacity(j),
                kind="capacity",
            )
        )
    for v in variables:
        i, j = v.resident, v.hospital
        cap = instance.capacity(j)
        my_res_rank = ranks.resident_rank(i, j)
        my_hosp_rank = ranks.hospital_rank(j, i)
        coeff: dict[int, int] = {}
        if cap > 0:
            for col in res_columns[i - 1]:
                q = variables[col].hospital
                if ranks.resident_rank(i, q) <= my_res_rank:
                    coeff[col] = coeff.get(col, 0) - cap
        for col in hosp_columns[j - 1]:
            p = variables[col].resident
            if ranks.hospital_rank(j, p) <= my_hosp_rank:
                coeff[col] = coeff.get(col, 0) - 1
        constraints.append(
            LinearConstraint(
                name=f"stab_{i}_{j}",
                coefficients=tuple(sorted(coeff.items())),
                rhs=-cap,
                kind="stability",
                pair=(i, j),
            )
        )
    return IpModel(
        instance=instance,
        variables=variables,
        constraints=tuple(constraints),
        column_of=column_of,
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
