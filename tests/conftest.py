"""Fixtures shared by the test modules."""

import pytest

from ranktree import genfun


@pytest.fixture
def fresh_memo(monkeypatch):
    """Empty genfun's memo of generating functions (and of the right-hand
    sides whose entry is not built yet) and the three memos derived from it
    (c_k with S_k, the tail integrals behind f_k, and the tail moments), for
    this test only.

    The fixture's value empties all four again, for a test that fills them
    and then needs a cold start, as a new process would have.
    """

    def empty():
        for name in ("_CACHE", "_PARTIAL_SUMS", "_TAIL_INTEGRALS", "_TAIL_MOMENTS"):
            monkeypatch.setattr(genfun, name, {})

    empty()
    return empty
