import sys

import pytest

# Deep towers (S^(k) normal forms, large canonical trees) overflow the
# default limit long before they exhaust memory.
sys.setrecursionlimit(200_000)


@pytest.fixture
def default_recursion_limit():
    """Run one test at the interpreter's default recursion limit, so a
    recursion on term depth fails there instead of hiding behind the raised
    limit above."""
    raised = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(raised)
