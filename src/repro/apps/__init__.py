"""Applications deployed on the platform: the generic neighbour-average
workloads (fine/coarse grain, dynamic imbalance) and the battlefield
management simulation."""

from .average import COARSE_GRAIN, FINE_GRAIN, make_average_fn, neighbor_average
from .diffusion import (
    hot_edge_plate,
    jacobi_step_reference,
    make_jacobi_fn,
    residual,
)
from .imbalance import ImbalanceSchedule, PAPER_SCHEDULE, make_imbalanced_average_fn

__all__ = [
    "COARSE_GRAIN",
    "FINE_GRAIN",
    "ImbalanceSchedule",
    "PAPER_SCHEDULE",
    "hot_edge_plate",
    "jacobi_step_reference",
    "make_average_fn",
    "make_imbalanced_average_fn",
    "make_jacobi_fn",
    "neighbor_average",
    "residual",
]
