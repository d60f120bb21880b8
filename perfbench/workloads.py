"""Workload definitions of the wall-clock benchmark.

Each workload is one generated sparse tensor plus the ``cstf`` settings
the benchmark passes. Everything not listed here stays at the library
default (cuADMM, BLCO, seed kernels, fit on), so a later change to a
default shows up in the numbers. ``rank``, ``max_iters``, ``seed`` and
``telemetry`` are always set by the benchmark.

Why these three (the cost split follows Huang, Sidiropoulos & Liavas,
arXiv:1506.04209: MTTKRP is O(nnz*R*N) per AO iteration, the ADMM update
O(I*R^2) per inner iteration, so the dominant layer depends on nnz
against mode length):

- ``short-modes`` -- uber analogue, short modes: MTTKRP dominates.
- ``long-modes`` -- flickr analogue with a 100k-long mode: UPDATE
  dominates, as in the paper's Fig. 3.
- ``processes-3mode`` -- nell2 analogue on the process engine: the only
  workload that goes through shard dispatch, transport, tree reduce and
  worker memory; 3-mode where the others are 4-mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field

RANK = 32


@dataclass(frozen=True)
class Workload:
    name: str
    dims: tuple
    nnz: int
    max_iters: int
    """AO iterations per factorization: iteration 1 carries the set-up, the
    rest are steady samples of ``iter_s``."""
    overrides: dict = field(default_factory=dict)
    """``cstf`` keyword arguments beyond rank/max_iters/seed/telemetry."""


WORKLOADS = {
    w.name: w
    for w in (
        Workload("short-modes", (183, 24, 1140, 1717), 300_000, 3),
        Workload("long-modes", (4951, 100_000, 14_636, 84), 200_000, 3),
        Workload("processes-3mode", (8655, 6638, 20_000), 400_000, 3,
                 {"engine": "processes", "mttkrp_format": "coo"}),
    )
}
