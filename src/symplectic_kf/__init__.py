"""Kostka-Foulkes polynomials for the symplectic root system.

Three independent routes to K_{lambda,mu}(q) — the definitional Weyl sum over
the q-Kostant partition function, a rank-lowering recurrence, and a charge
statistic over symplectic tableaux — plus the crystal-word, insertion and
cyclage-graph machinery the charge route is built on.
"""

from . import algebra, cyclage, kostant, recurrences, tableaux
from .algebra import (
    act,
    dot_act,
    is_dominant,
    rho,
    straighten,
    weyl_group,
)
from .crystal import (
    crystal_lower,
    crystal_raise,
    crystal_step,
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
from .kostant import cache_sizes, kostka_def, positive_roots, q_kostant
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
    plactic_equivalent,
    reading,
    reverse_insert,
)


def clear_caches() -> None:
    """Empty every table and memo the package keeps.

    That is each rank's q-Kostant memo, each rank's column tables with their
    successor lists and weight boxes, the rank-free column splits, each
    rank's Weyl group, the Pieri memo, the Morris memo and the charge-chain
    memo.  All of them refill on demand.
    """
    algebra.clear_caches()
    cyclage.clear_caches()
    kostant.clear_caches()
    tableaux.clear_caches()
    recurrences.clear_caches()


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
    "crystal_step",
    "CyclageGraph",
    "dot_act",
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
    "plactic_equivalent",
    "positive_roots",
    "predecessors",
    "q_kostant",
    "reading",
    "reduce",
    "reverse_insert",
    "rho",
    "straighten",
    "string_lengths",
    "translate",
    "VerificationReport",
    "verify_conjecture",
    "verify_fundamental_conjecture",
    "weyl_group",
    "weyl_reflect",
    "word_weight",
]
