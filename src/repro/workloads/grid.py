"""Even thinning of a training grid to a query budget.

The training workloads enumerate a grid of parameter tuples, thin it
here, and build plans only for the tuples they keep.
"""

from __future__ import annotations

from typing import Optional, Sequence, TypeVar

from repro.exceptions import ConfigurationError

T = TypeVar("T")


def thin(grid: Sequence[T], budget: Optional[int]) -> Sequence[T]:
    """``budget`` evenly spaced items of ``grid``, in grid order.

    The whole grid when ``budget`` is None or covers it; otherwise item
    ``int(i * len(grid) / budget)`` for each ``i < budget``.

    Raises:
        ConfigurationError: when a budget below 1 would cut the grid.
    """
    if budget is None or len(grid) <= budget:
        return grid
    if budget < 1:
        raise ConfigurationError("max_queries must be >= 1")
    step = len(grid) / budget
    return [grid[int(i * step)] for i in range(budget)]
