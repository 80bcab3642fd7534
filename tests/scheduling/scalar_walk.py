"""Reach the scalar walk on a host with numpy.

``build_kernel`` alone chooses between the numpy cost kernel and the
scalar walk, and ``vector_cost.HAVE_NUMPY`` is its one gate. Closing
the gate is what a host without numpy does; a test that needs the
scalar reference does the same for the length of a ``with`` block.
"""

from unittest import mock

from repro.scheduling import vector_cost


def scalar_walk():
    """Close the one kernel gate: every schedule run inside the block
    takes the scalar walk."""
    return mock.patch.object(vector_cost, "HAVE_NUMPY", False)
