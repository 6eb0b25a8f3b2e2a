"""The benchmark's report bytes, pinned.

One in-process pass of each `perfbench` workload at seed 1, with the
harness's own op list and op runner (`perfbench/workloads.py` and
`perfbench/ops.py`, only read), must give the report digest that
`perfbench/run.py` prints for it: the sha256 of the per-op sha256 hex
digests joined in op order, where an op that fails reads
`failed:<class>`, cut to 16 hex digits.  A change that moves a byte of any
report fails here; a change to the benchmark's inputs re-pins the values.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

import subsetcurrents.cli  # noqa: F401  (the op runner reads it from sys.modules)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

SEED_1_DIGESTS = {
    "scan": "e431f1e9a35316f8",
    "product": "80a9da3d24cfac45",
    "big-core": "b745c466b46a3565",
}


def _load(name: str):
    """A perfbench module, imported from its file under a private name."""
    full = f"perfbench_{name}"
    if full not in sys.modules:
        spec = importlib.util.spec_from_file_location(full, PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module  # dataclasses look their module up here
        write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
        try:
            spec.loader.exec_module(module)
        finally:
            sys.dont_write_bytecode = write
    return sys.modules[full]


@pytest.mark.parametrize("workload", sorted(SEED_1_DIGESTS))
def test_benchmark_report_digest_at_seed_1(workload, tmp_path):
    ops, workloads = _load("ops"), _load("workloads")
    digests = []
    for op in workloads.build(workload, 1, tmp_path):
        try:
            digests.append(hashlib.sha256(ops.run(op)).hexdigest())
        except ops.OpFailed as exc:
            digests.append(f"failed:{exc.cls}")
    digest = hashlib.sha256("".join(digests).encode()).hexdigest()
    assert digest[:16] == SEED_1_DIGESTS[workload]
