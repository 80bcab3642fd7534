"""Reach the scalar walk in a test.

``build_kernel`` alone chooses between the numpy cost kernel and the
scalar walk, and the schedulers with a kernel path (``KERNEL_USERS``)
each call it by the name they imported. A test that needs the scalar
reference patches that name to decline every problem for the length of
a ``with`` block; the scalar walk is what a scheduler runs for any
batch the kernel declines.
"""

import contextlib
from unittest import mock

from repro.scheduling import lerfa_srfe, srfae

#: The modules that look ``build_kernel`` up, one per scheduler with a
#: kernel path (``tests/scheduling/test_vector_cost.py`` keeps the
#: list complete).
KERNEL_USERS = (srfae, lerfa_srfe)


def _decline(problem):
    return None


@contextlib.contextmanager
def scalar_walk():
    """Every schedule run inside the block takes the scalar walk."""
    with contextlib.ExitStack() as stack:
        for module in KERNEL_USERS:
            stack.enter_context(
                mock.patch.object(module, "build_kernel", _decline))
        yield
