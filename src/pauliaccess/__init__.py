"""Accessible-set generation and reduced state-space models for qubit networks."""

from .pauli import (
    PauliString,
    PhasedString,
    WeightedPauliSum,
    DimensionMismatchError,
    GrammarError,
    multiply,
    phase_free_product,
    bracket,
    bracket_normalized,
    apply_sequence,
    decompose,
    check_bilinear_decomposition,
    parse_term,
    parse_sum,
    format_sum,
)
from .hamiltonian import (
    HamiltonianSpec,
    MeasurementSpec,
    parse_hamiltonian,
    build_exchange_chain,
    decomposed_digamma,
    exchange_digamma,
)
from .closure import (
    AccessibleSet,
    ClosureError,
    generate,
    generate_reference,
    chain_closed_form,
)
from .graph import (
    AccessGraph,
    KFinitePartition,
    build_graph,
    adjacency_matrix,
    is_connected,
    connected_components,
    partition_k_finite,
    order_members,
    verify_block_regeneration,
    export_dot,
)
from .statespace import (
    StateSpaceModel,
    SimulationResult,
    build_model,
    initial_state_vector,
    simulate_reduced,
)
from .oracle import evolve_expectation

__version__ = "0.1.0"
