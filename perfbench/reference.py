"""Reference optima: HiGHS on each pool instance's unreduced model.

Run from the repository root, outside every timed run:

    python3 perfbench/reference.py

For every instance of every workload it records the HiGHS status,
incumbent, dual bound and time in perfbench/reference.json, keyed by
workload and instance label, with the SHA-256 of the instance text so that
run.py catches a changed generator. The file is rewritten whole. HiGHS
times are a yardstick only, not a metric of this program.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402
from scipy.optimize import Bounds, LinearConstraint, linprog, milp  # noqa: E402
from scipy.sparse import csr_matrix  # noqa: E402

from maxhrt.core import build_rank_table  # noqa: E402
from maxhrt.generator import generate  # noqa: E402
from maxhrt.heuristics import warm_start  # noqa: E402
from maxhrt.instance_io import serialize_instance  # noqa: E402
from maxhrt.ip_model import build_model  # noqa: E402

from checker import certify  # noqa: E402
from workloads import REFERENCE_PATH, WORKLOADS, label, text_digest  # noqa: E402

# HiGHS time cap per instance, in seconds. An instance that hits it is
# stored as "capped", with its incumbent and dual bound.
CAP_S = 60.0


def highs_reference(instance) -> dict:
    """Maximum weakly stable matching size by HiGHS, with its dual bound."""
    model = build_model(instance, build_rank_table(instance))
    rows, cols, vals, ubs = [], [], [], []
    for r, constraint in enumerate(model.constraints):
        for col, coeff in constraint.coefficients:
            rows.append(r)
            cols.append(col)
            vals.append(coeff)
        ubs.append(constraint.rhs)
    n = model.num_variables
    matrix = csr_matrix((vals, (rows, cols)), shape=(len(ubs), n))
    start = time.perf_counter()
    result = milp(
        c=-np.ones(n),
        constraints=LinearConstraint(matrix, -np.inf, np.array(ubs, dtype=float)),
        integrality=np.ones(n),
        bounds=Bounds(0, 1),
        options={"time_limit": CAP_S},
    )
    seconds = time.perf_counter() - start
    if result.status == 0:
        incumbent = upper = round(-result.fun)
    else:
        # Capped: keep the dual bound, or the LP relaxation's when HiGHS
        # reports none. Without a HiGHS incumbent, a certified warm start
        # gives the lower bound.
        dual = result.mip_dual_bound
        if dual is None:
            dual = linprog(-np.ones(n), A_ub=matrix, b_ub=ubs, bounds=(0, 1)).fun
        upper = math.floor(-dual + 1e-6)
        if result.x is not None:
            incumbent = round(-result.fun)
        else:
            fallback = warm_start(instance)
            if certify(instance, build_rank_table(instance), fallback) is not None:
                raise RuntimeError("warm start failed certification")
            incumbent = len(fallback)
    return {
        "status": "optimal" if result.status == 0 else "capped",
        "incumbent": incumbent,
        "upper_bound": max(upper, incumbent),
        "highs_s": round(seconds, 3),
    }


def main() -> None:
    reference = {}
    for name, configs in sorted(WORKLOADS.items()):
        entries = reference[name] = {}
        for config in configs:
            key = label(config)
            instance = generate(config)
            digest = text_digest(serialize_instance(instance))
            entries[key] = highs_reference(instance) | {"sha256": digest}
            print(name, key, entries[key], flush=True)
    with open(REFERENCE_PATH, "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
