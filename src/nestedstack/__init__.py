"""Nested stack automata: memory trees, machines, configuration graphs,
pushdown tree quotients, and Cayley-graph geometry probes.

The public names below resolve on first use: `import nestedstack` loads
no submodule, and `nestedstack.accepts` (or `from nestedstack import
accepts`) imports `nestedstack.machine` and its own imports only then.
`from nestedstack import *` binds every name in `__all__`.
"""

import importlib

_EXPORTS = {
    "memory_tree": (
        "EPSILON", "STAY", "UNDEFINED", "MemoryTree", "StackOp", "apply", "down",
        "empty_tree", "pop", "push", "up",
    ),
    "machine": (
        "ACCEPTED", "CAP_EXCEEDED", "REJECTED", "AcceptResult", "Computation", "Edge",
        "Machine", "MachineError", "MachineParseError", "ResourceCaps", "accepts",
        "check_deterministic", "check_limited_erasing", "enumerate_accepted",
        "format_machine", "parse_machine", "run_trace",
    ),
    "hom": ("Homomorphism", "parse_homomorphism", "preimage", "publish_reserved_names"),
    "config_graph": (
        "BuildHorizon", "ConfigGraph", "Configuration", "build", "check_degrees", "export_dot",
        "lift_path", "max_eps_run", "project", "vertex_name",
    ),
    "pda_quotient": (
        "QuotientGraph", "check_tree", "is_pushdown", "nonerasing_classes", "quotient",
        "quotient_distortion",
    ),
    "groups": ("GroupOracle", "make_oracle"),
    "group_geometry": ("CayleyWindow", "ball", "ends_probe", "min_separator", "narrowness_probe", "qi_check"),
    "cli_common": ("parse_word",),
}

# public name -> the submodule that defines it
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SUBMODULE)

__version__ = "0.1.0"


def __getattr__(name):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
