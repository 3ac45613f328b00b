"""Smoke run of the benchmark's workloads: every operation passes its own check."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOAD_NAMES = [w["name"] for w in json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as mp:
        # Loaded from its file without writing bytecode next to it.
        mp.setattr(sys, "dont_write_bytecode", True)
        spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_tiny_batch_passes_its_checks(workloads, name, tmp_path):
    ops = workloads.WORKLOADS[name](1, tmp_path, True)
    assert ops
    for op in ops:
        op.check(op.run())
