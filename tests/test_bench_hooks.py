"""The library names the benchmark looks up must exist.

`perfbench/run.py` traces a run by replacing module attributes of the
program by name (`instrument`), and records `_kernels.USING_NUMBA` in its
environment block.  A change that deletes or renames one of those names
fails here, in the unit tests, rather than only when the benchmark runs.
"""
import importlib.util
import sys
from pathlib import Path

from cshazard import (_kernels, actuarial, cli, convergence, estimator, ingest, montecarlo,
                      recovery)

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def load_run_module():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


class NameCheckingTracer:
    """Records each wrapped name instead of replacing it; a missing name fails."""

    def __init__(self):
        self.wrapped = []

    def wrap(self, owner, attr, name, note=None, count_warnings=False):
        assert hasattr(owner, attr), f"the benchmark wraps {name}, which does not exist"
        self.wrapped.append(name)


def test_every_name_the_benchmark_wraps_exists():
    tracer = NameCheckingTracer()
    modules = (_kernels, actuarial, cli, convergence, estimator, ingest, montecarlo, recovery)
    load_run_module().instrument(tracer, modules)
    assert "ingest.build_observations" in tracer.wrapped
    assert hasattr(_kernels, "USING_NUMBA")
