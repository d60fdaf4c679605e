"""Payload splitting for Table III's data-granularity hierarchy.

The paper's collectives move a *payload* (one collective call) as a pipeline
of *chunks* (64 KB by default, the pipelining parameter sized to ACE's SRAM);
:func:`split_payload` performs that decomposition for the collective
executor and :class:`~repro.core.granularity.GranularityPolicy`.
"""

from __future__ import annotations

from typing import List

from repro.errors import CollectiveError


def split_payload(payload_bytes: int, chunk_bytes: int) -> List[int]:
    """Split a payload into chunk sizes (last chunk may be smaller)."""
    if payload_bytes <= 0:
        raise CollectiveError(f"payload must be positive, got {payload_bytes}")
    if chunk_bytes <= 0:
        raise CollectiveError(f"chunk size must be positive, got {chunk_bytes}")
    full, rest = divmod(payload_bytes, chunk_bytes)
    sizes = [chunk_bytes] * int(full)
    if rest:
        sizes.append(int(rest))
    return sizes
