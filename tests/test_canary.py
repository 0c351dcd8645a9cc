"""The benchmark's canary as a test: each workload's models, built at
``perfbench/canary.json``'s seed through model-init, quantize, save and
load, and their greedy tokens must match the committed digests. A change
to init, cast, save, load or the target's arithmetic fails here, not only
inside the benchmark. Nothing under ``perfbench/`` is written."""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def run():
    """``perfbench/run.py`` imported in-process. Importing it pins the BLAS
    thread variables in ``os.environ``, so the environment is put back
    afterwards, as are ``sys.path`` and the bytecode flag, which is off
    meanwhile so that no cache file lands under ``perfbench/``."""
    env, path, no_bytecode = dict(os.environ), list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run",
                                                      PERFBENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        yield module
    finally:
        os.environ.clear()
        os.environ.update(env)
        sys.path[:] = path
        sys.dont_write_bytecode = no_bytecode


@pytest.mark.parametrize("name", ["decode-short", "long-context", "multilevel-deep"])
def test_canary(run, name, tmp_path):
    import workloads

    assert run.canary_problems(workloads.WORKLOADS[name], tmp_path) == []
