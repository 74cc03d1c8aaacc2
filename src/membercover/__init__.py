"""Minimum-membership and minimum-ply geometric set cover, exactly.

Solvers for covering points with unit squares or halfplanes while keeping
the number of chosen ranges stacked on any monitored point (membership)
or on any point of the plane (ply) small.  All geometry runs on exact
rational arithmetic; brute-force oracles and an exact rational LP solver
back every approximation guarantee at desk scale.
"""

from .covers import CoverSolution, Uncoverable
from .geometry import (
    Arrangement,
    ConvexRegion,
    GridCell,
    Halfplane,
    Point,
    SquareGrid,
    UnitSquare,
    complement_region,
    face_sample_points,
    grid_partition,
)
from .halfplanes import (
    SegmentPhi,
    WindGraph,
    additive_error_cover,
    build_segments,
    decide_membership,
    exact_mmgsc_halfplanes_report,
    find_winding_cycle,
    min_size_halfplane_cover,
    one_stable_local_search,
    ptas,
)
from .instances import InstanceDoc, generate, parse_instance, serialize_instance
from .lp import (
    CoverProgram,
    LPSolution,
    build_membership_lp,
    build_size_lp,
    solve_lp,
)
from .oracle import (
    BudgetExceeded,
    OracleBudget,
    exact_minsize_bruteforce,
    exact_mmgsc_bruteforce,
    exact_mpgsc_bruteforce,
    incidence,
    memb_eval,
    verify_cover,
)
from .ply import PlyReport, min_size_cell_cover_approx, ply, solve_mpgsc
from .squares import (
    CornerPartition,
    SquareWithoutCorner,
    corner_partition,
    quadrant_greedy_cover,
    solve_mmgsc_squares_report,
    solve_one_corner,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
