"""Exact combinatorics of Latin hypercubes over a finite carrier and
the operad they form: representation, verification, composition, group
actions, transversals, enumeration, and cross-checking oracles.

A public name's module is imported on first use of the name (PEP 562)."""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "cellgraph": ("GraphStats", "HypercubeGraph", "graph_stats", "hypercube_graph"),
    "core": ("CeilingError", "CellSet", "LatinOp", "RawOp", "SlotPermutation",
             "ValidationError", "conjugate", "function_of", "graph_of", "is_latin",
             "is_latin_cellset"),
    "enumeration": ("Paratopism", "apply_paratopism", "canonical_form", "count_all",
                    "enumerate_all", "orbit_census", "paratopism_group_order",
                    "random_latin"),
    "formats": ("FormatError", "emit_lhc", "emit_lhcs", "emit_tsv", "parse_lhc",
                "parse_lhcs", "parse_tsv"),
    "morphisms": ("automorphisms", "is_homomorphism"),
    "operad": ("OperadReport", "act", "block_permutation", "compose_at", "compose_perm_at",
               "embed_permutation", "unit", "verify_operad_axioms"),
    "pullback": ("projection_tau", "pullback_compose", "restrict"),
    "transversal": ("DeltaReport", "Transversal", "alternating_sum", "count_transversals",
                    "delta_check", "find_transversals"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    """A submodule of the table, or a public name, imported on first use
    and then held in the package globals."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_MODULE_OF[name]}")
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
