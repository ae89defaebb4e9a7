"""Shared test fixtures."""

import importlib

import pytest

# ``repro.fsa`` re-exports a *function* named ``determinize``, which
# shadows the submodule as a package attribute.
_DETERMINIZE = importlib.import_module("repro.fsa.determinize")
_KERNEL = importlib.import_module("repro.fsa.kernel")
_STRATEGIES = importlib.import_module("repro.engine.strategies")
_EXECUTOR = importlib.import_module("repro.parallel.executor")
_SHARDING = importlib.import_module("repro.parallel.sharding")


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
def pooled(monkeypatch):
    """Send all ``auto`` work at ``workers > 1`` to the pool.

    Lowers ``AUTO_PARALLEL_THRESHOLD`` to 0 and every executor's
    ``min_parallel_items`` to 1, so tiny test workloads cross real
    process boundaries: each plan branch shards its generator runs and
    each naive candidate space is sharded.  Returns a dict whose
    entries (``chaos``, ``timeout``, ``max_retries``) are passed to
    every executor built while the fixture is active; a ``shards``
    entry fixes the shard count (``planner=ShardPlanner(shards)``),
    which the program itself always derives from the worker count.
    At one worker ``auto`` builds no executor at all.
    """
    settings = {}
    build = _EXECUTOR.ParallelExecutor

    def executor(workers=None, **kwargs):
        kwargs["min_parallel_items"] = 1
        options = dict(settings)
        shards = options.pop("shards", None)
        if shards is not None:
            kwargs["planner"] = _SHARDING.ShardPlanner(shards)
        kwargs.update(options)
        return build(workers, **kwargs)

    monkeypatch.setattr(_STRATEGIES, "AUTO_PARALLEL_THRESHOLD", 0)
    monkeypatch.setattr(_EXECUTOR, "ParallelExecutor", executor)
    return settings
