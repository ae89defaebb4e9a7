"""Shared test fixtures."""

import importlib

import pytest

# ``repro.fsa`` re-exports a *function* named ``determinize``, which
# shadows the submodule as a package attribute.
_DETERMINIZE = importlib.import_module("repro.fsa.determinize")
_KERNEL = importlib.import_module("repro.fsa.kernel")
_STRATEGIES = importlib.import_module("repro.engine.strategies")
_EXECUTOR = importlib.import_module("repro.parallel.executor")
_SESSION = importlib.import_module("repro.engine.session")


@pytest.fixture
def forced_v1(monkeypatch):
    """Make the determinizer decline in this process.

    Every :func:`~repro.fsa.kernel.kernel_for` lookup then answers with
    the v1 worklist kernel and fused selections take the sequencing
    product — also for machines that already carry a determinized
    kernel from an earlier test.  Worker pools are forked once per
    worker count and do not see the patch, so tests using this fixture
    must evaluate in-process (``workers=1``) and with a fresh session
    (a session caches the kernels it has served).
    """

    def decline(fsa):
        return None

    monkeypatch.setattr(_DETERMINIZE, "determinized_for", decline)
    monkeypatch.setattr(_KERNEL, "determinized_for", decline)


@pytest.fixture
def forced_scan(monkeypatch):
    """Keep every determinized kernel on its table scan in this process.

    Hides :attr:`~repro.fsa.determinize.DeterministicKernel.factor`, so
    no batch takes the substring path — also on kernels built before
    the test.  Like ``forced_v1`` it patches this process only, so
    tests using it must evaluate in-process (``workers=1``).
    """
    monkeypatch.setattr(_DETERMINIZE.DeterministicKernel, "factor", None)


@pytest.fixture
def pooled(monkeypatch):
    """Send all ``auto`` work at ``workers > 1`` to the pool.

    Lowers ``AUTO_PARALLEL_THRESHOLD`` to 0 and the session's pooling
    floor ``MIN_POOLED_MISSES`` to 1, so tiny test workloads cross
    real process boundaries: each plan branch ships its generator runs
    and each naive candidate space is sharded.  Returns a dict whose
    ``shards`` entry, when set, replaces the shard count of every plan
    the executor makes (the program always derives it from the worker
    count).  At one worker ``auto`` builds no executor at all.
    """
    settings = {}
    plan = _EXECUTOR.plan_shards

    def fixed_plan(total, count):
        return plan(total, settings.get("shards") or count)

    monkeypatch.setattr(_STRATEGIES, "AUTO_PARALLEL_THRESHOLD", 0)
    monkeypatch.setattr(_SESSION, "MIN_POOLED_MISSES", 1)
    monkeypatch.setattr(_EXECUTOR, "plan_shards", fixed_plan)
    return settings
