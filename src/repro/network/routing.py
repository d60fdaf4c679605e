"""Ring arithmetic for the Accelerator Fabric's torus dimensions.

Every torus dimension is a ring; :func:`ring_distance` gives the shortest
hop count and direction between two positions on one (the all-to-all
collective prices its per-dimension hop traffic with it).
"""

from __future__ import annotations

from typing import Tuple

from repro.errors import RoutingError


def ring_distance(size: int, src: int, dst: int) -> Tuple[int, int]:
    """Shortest hop count and direction between two positions on a ring.

    Returns ``(hops, direction)`` with ``direction`` in ``{+1, -1}`` (ties go
    to +1).  ``hops`` is zero when ``src == dst``.
    """
    if size <= 0:
        raise RoutingError(f"ring size must be positive, got {size}")
    if not (0 <= src < size and 0 <= dst < size):
        raise RoutingError(f"positions ({src}, {dst}) outside ring of size {size}")
    forward = (dst - src) % size
    backward = (src - dst) % size
    if forward == 0:
        return 0, +1
    if forward <= backward:
        return forward, +1
    return backward, -1
