"""Distributed CUBE/ROLLUP: lattice planning, rollup, materialization.

The cuboid lattice (Gray et al. [12]) meets the source paper's
Theorem 1: only maximal requested groupings run distributed rounds;
coarser cuboids are derived coordinator-side by merging the captured
sub-aggregate states, and source states kept in the engine's
sub-aggregate cache answer slice queries without touching a site.
"""

from repro.cube.lattice import (
    CubeLatticePlan, compile_lattice, cube_sets, grand_total_expression,
    groupby_expression, requested_sets, rollup_sets)
from repro.cube.executor import (
    ALL_MARKER, CubeExecution, execute_lattice, run_centralized,
    stitch_cuboids)
from repro.cube.rollup import (
    derive_cuboid, finalize_states_relation, rollup_states)
from repro.cube.serving import serve_statement, servable_grouping

__all__ = [
    "CubeLatticePlan", "compile_lattice", "cube_sets",
    "grand_total_expression", "groupby_expression", "requested_sets",
    "rollup_sets", "ALL_MARKER", "CubeExecution", "execute_lattice",
    "run_centralized", "stitch_cuboids", "derive_cuboid", "finalize_states_relation",
    "rollup_states", "serve_statement", "servable_grouping",
]
