"""Trim partitions of Stone spaces indexed by countable posets.

``import stonetrim`` loads no submodule.  Each exported name, submodules
included, is imported from the submodule ``_EXPORTS`` files it under on
first access (PEP 562), so a caller pays only for the layers it uses.
"""
from importlib import import_module

__version__ = "0.1.0"

# submodule -> the names it exports here
_EXPORTS = {
    "poset": ("DEFAULT_CHAIN_BOUND", "FOUND", "HOLDS", "HOLDS_ON_PREFIX",
              "INCONCLUSIVE", "REFUTED", "Analytics", "Extremal",
              "FoundationResult", "Poset", "PosetError", "SubsetSpec",
              "Verdict"),
    "families": ("family", "family_tags"),
    "typeset": ("TypeSet",),
    "completion": ("CompletedPoset", "CompletionElement", "CompletionError",
                   "chain_closure", "complete_finite", "complete_over",
                   "token_name"),
    "skeleton": ("BuildConfig", "BuildError", "ConfigError", "SkeletonNode",
                 "SkeletonTree", "StructureReport", "build_levels",
                 "verify_structure"),
    "ring": ("RingElement", "RingError", "is_trim_for",
             "split_by_scarce_atoms", "supertrim_split", "trim_split",
             "verify_type_axioms"),
    "points": ("PathPrefix", "PointError", "PointLabel", "ancestry",
               "label_prefix", "realize_chain"),
    "backforth": ("IsoError", "IsoRun", "MismatchWitness", "PartialIso",
                  "extend_iso", "init_iso", "lift_poset_automorphism",
                  "run_backforth"),
    "closure": ("Classification", "ClosureElement", "ClosureError", "RNTrace",
                "SymbolicSpace", "check_closure_axioms", "check_identities",
                "classify_algebra", "e_of_p", "render_trace_dot",
                "render_trace_text", "rieger_nishimura_run"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items()
           for name in (module, *names)}
__all__ = list(_SOURCE)


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
