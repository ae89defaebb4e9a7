"""Shared test fixtures."""

import importlib

import pytest

# ``repro.fsa`` re-exports a *function* named ``determinize``, which
# shadows the submodule as a package attribute.
_DETERMINIZE = importlib.import_module("repro.fsa.determinize")
_KERNEL = importlib.import_module("repro.fsa.kernel")


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
