"""Exact computations with disjointness preserving multilinear operators.

Finite coordinatewise Riesz spaces over the rationals, sparse multilinear
operators between them, their bidual (Arens-style) extensions along every
slot permutation, and an eventually-constant-sequence model for the one
infinite-dimensional story worth telling at desk scale. Everything is
exact: no floats anywhere.

Public names load their module on first access (PEP 562), so a CLI
subcommand imports only the modules it runs.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "arens": (
        "ArensResult",
        "Permutation",
        "all_permutations",
        "arens_evaluate",
        "arens_extension",
    ),
    "operators": (
        "MAX_ARITY",
        "MAX_DIM",
        "DPVerdict",
        "DPWitness",
        "MultimorphismFactorization",
        "MultiTensor",
        "NotDisjointnessPreserving",
        "ShapeError",
        "factorize_multimorphism",
    ),
    "rational": ("as_fraction", "format_rational", "parse_rational"),
    "seqmodel": (
        "DiagBilinear",
        "EvConstSeq",
        "WeightedCompOp",
        "comp_adjoint",
        "comp_apply",
        "comp_biadjoint",
        "comp_rows",
        "diag_apply",
        "diag_arens",
        "diag_arens_pair",
        "diag_lattice_rank",
        "pair",
        "reads_one_coordinate",
    ),
    "vectors": ("FinVector",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF) + ["__version__"]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_MODULE_OF))
