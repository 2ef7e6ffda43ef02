"""The benchmark's instance pools still serialize to the bytes it has references for.

`perfbench/run.py` stops when an instance's text no longer matches the
SHA-256 stored in `perfbench/reference.json`. This test regenerates every
pool instance and compares the same digests, so a change to the generator,
the serializer or `core` that alters a pool's bytes fails here first. It
only reads the benchmark's files.
"""

import importlib.util
from pathlib import Path

import pytest

from maxhrt.generator import generate
from maxhrt.instance_io import serialize_instance

WORKLOADS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _load_workloads():
    # Loaded from its file, so that the benchmark's directory, whose module
    # names are generic, stays off sys.path.
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_pool_instances_match_their_reference_digests(workload):
    stored = workloads.load_reference()[workload]
    for config in workloads.WORKLOADS[workload]:
        key = workloads.label(config)
        assert key in stored, f"{workload}: no reference for {key}"
        digest = workloads.text_digest(serialize_instance(generate(config)))
        assert digest == stored[key]["sha256"], f"{workload}: the text of {key} changed"
