"""Fixtures shared by the test modules."""

import os

import pytest

from ranktree import genfun

# the memos derived from genfun's memo: c_k with S_k, the tail integrals
# behind f_k, and the tail moments
_DERIVED = (genfun._constant_and_sum, genfun._tail_integral, genfun._tail_moment)


@pytest.fixture
def fresh_memo(monkeypatch):
    """Empty genfun's memo of generating functions (and of the right-hand
    sides whose entry is not built yet) and the three memos derived from it,
    for this test only.

    The fixture's value empties all four again, for a test that fills them
    and then needs a cold start, as a new process would have.  The derived
    memos are emptied once more after the test, so that nothing it computed
    from a memo it corrupted outlives it.
    """

    def empty():
        monkeypatch.setattr(genfun, "_CACHE", {})
        for memo in _DERIVED:
            memo.cache_clear()

    empty()
    yield empty
    for memo in _DERIVED:
        memo.cache_clear()


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process behind, running or unreaped."""
    yield
    if not hasattr(os, "WNOHANG"):
        return
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    state = "a running child process" if pid == 0 else f"the unreaped child process {pid}"
    pytest.fail(f"the test left {state} behind")
