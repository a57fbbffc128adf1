"""Dual graphs of totally degenerate fibers with cyclic Galois actions.

Build the graph families realizing every admissible (genus, index) pair,
compute the index and the complete splitting-field classification from the
graph, and verify the classification exhaustively against an independent
blowup oracle.
"""

from .action import ActionError, CyclicAction, ValidationReport, cycles, validate
from .blowup import oracle_splits
from .constructions import (
    Component,
    CurveModel,
    GeneratingSet,
    RealizabilityReport,
    as_model,
    cayley_graph,
    check_realizability,
    coathanger_chain,
    construct,
    cycle_model,
    mobius_ladder,
)
from .invariants import (
    Case,
    ExtensionSpec,
    SplittingReport,
    case_classification,
    divisors,
    index,
    main_theorem_prediction,
    snc_index,
    splits,
    splitting_report,
)
from .multigraph import (
    Edge,
    GraphError,
    MultiGraph,
    arithmetic_genus,
    degree,
    euler_characteristic,
    is_connected,
    subdivide,
)
from .serialize import ModelFormatError, dumps_model, load_model, model_from_obj, model_to_obj, save_model
from .verify import VerificationReport, check_model, expected_case, run_verification

__version__ = "0.1.0"
