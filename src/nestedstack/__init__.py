"""Nested stack automata: memory trees, machines, configuration graphs,
pushdown tree quotients, and Cayley-graph geometry probes."""

from .memory_tree import (
    EPSILON,
    STAY,
    UNDEFINED,
    MemoryTree,
    StackOp,
    apply,
    apply_word,
    down,
    empty_tree,
    pop,
    push,
    up,
    validate,
)
from .machine import (
    ACCEPTED,
    CAP_EXCEEDED,
    REJECTED,
    AcceptResult,
    Computation,
    Edge,
    Machine,
    MachineError,
    MachineParseError,
    ResourceCaps,
    accepts,
    check_deterministic,
    check_limited_erasing,
    deterministic_run,
    enumerate_accepted,
    format_machine,
    parse_machine,
    parse_word,
    run_trace,
    step,
    successors,
)
from .hom import (
    Homomorphism,
    parse_homomorphism,
    preimage,
    publish_reserved_names,
)
from .config_graph import (
    BuildHorizon,
    ConfigGraph,
    Configuration,
    UNBOUNDED_WITHIN_HORIZON,
    build,
    check_degrees,
    export_dot,
    lift_path,
    max_eps_run,
    project,
    vertex_name,
)
from .pda_quotient import (
    QuotientGraph,
    check_tree,
    is_pushdown,
    nonerasing_classes,
    quotient,
    quotient_distortion,
)
from .group_geometry import (
    CayleyWindow,
    GroupOracle,
    ball,
    ends_probe,
    make_oracle,
    min_separator,
    narrowness_probe,
    qi_check,
)

__version__ = "0.1.0"
