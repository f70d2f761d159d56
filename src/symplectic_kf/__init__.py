"""Kostka-Foulkes polynomials for the symplectic root system.

Three independent routes to K_{lambda,mu}(q) — the definitional Weyl sum over
the q-Kostant partition function, a rank-lowering recurrence, and a charge
statistic over symplectic tableaux — plus the crystal-word, insertion and
cyclage-graph machinery the charge route is built on.
"""

from . import cyclage, kostant, recurrences, tableaux
from .algebra import act, is_dominant, rho
from .crystal import (
    crystal_lower,
    crystal_raise,
    is_highest,
    string_lengths,
    weyl_reflect,
    word_weight,
)
from .cyclage import (
    ChargeChain,
    CyclageGraph,
    charge,
    charge_chain,
    charge_column,
    cocyclage_shift,
    cocycle,
    component,
    is_authorized,
    predecessors,
    reduce,
    translate,
)
from .kostant import kostka_def, q_kostant
from .qpoly import QPolynomial, format_poly, parse_poly
from .recurrences import (
    VerificationReport,
    charge_kostka,
    kostka_column_rec,
    kostka_morris,
    kostka_row,
    pieri,
    verify_conjecture,
    verify_fundamental_conjecture,
)
from .tableaux import (
    admissible_split,
    contract_column,
    enumerate_tableaux,
    format_tableau,
    insert_into_column,
    insert_into_tableau,
    insertion_tableau,
    is_symplectic,
    parse_tableau,
    reading,
    reverse_insert,
)


# Everything the package keeps between calls, by name: the functools caches,
# and the memo dicts, whose size is a policy of their module.  The dicts are
# only ever emptied in place, never rebound, so these references stay theirs.
_CACHES = {
    "tableaux._column_table": tableaux._column_table,
    "tableaux._successors": tableaux._successors,
    "tableaux._weight_boxes": tableaux._weight_boxes,
    "tableaux.free_split": tableaux.free_split,
    "tableaux._column_text": tableaux._column_text,
    "recurrences._pieri_terms": recurrences._pieri_terms,
    "recurrences._kostka_terms": recurrences._kostka_terms,
    "kostant._pair_steps": kostant._pair_steps,
    "kostant._memo": kostant._memo,
    "cyclage._chain_tails": cyclage._chain_tails,
    "cyclage._chain_shared": cyclage._chain_shared,
}


def clear_caches() -> None:
    """Empty every cache and memo the package keeps; each refills on demand."""
    for cache in _CACHES.values():
        if isinstance(cache, dict):
            cache.clear()
        else:
            cache.cache_clear()


def cache_sizes() -> dict[str, int]:
    """The entries each cache and memo of the package holds now, by name."""
    return {
        name: len(cache) if isinstance(cache, dict) else cache.cache_info().currsize
        for name, cache in _CACHES.items()
    }


__all__ = [
    "QPolynomial",
    "act",
    "admissible_split",
    "cache_sizes",
    "charge",
    "charge_chain",
    "ChargeChain",
    "charge_column",
    "charge_kostka",
    "clear_caches",
    "cocyclage_shift",
    "cocycle",
    "component",
    "contract_column",
    "crystal_lower",
    "crystal_raise",
    "CyclageGraph",
    "enumerate_tableaux",
    "format_poly",
    "format_tableau",
    "insert_into_column",
    "insert_into_tableau",
    "insertion_tableau",
    "is_authorized",
    "is_dominant",
    "is_highest",
    "is_symplectic",
    "kostka_column_rec",
    "kostka_def",
    "kostka_morris",
    "kostka_row",
    "parse_poly",
    "parse_tableau",
    "pieri",
    "predecessors",
    "q_kostant",
    "reading",
    "reduce",
    "reverse_insert",
    "rho",
    "string_lengths",
    "translate",
    "VerificationReport",
    "verify_conjecture",
    "verify_fundamental_conjecture",
    "weyl_reflect",
    "word_weight",
]
