"""Deformation rings of string modules over two-vertex gentle presentations.

The package computes with finite-dimensional modules over the quiver
presentations in its built-in catalog: string enumeration, Hom and Ext^1
by exact linear algebra over F_q, lift counting over F_q[t]/(t^n), and a
decision procedure that names the universal deformation ring when the
evidence determines it.
"""

from .claims import paper_agreement, published_ring
from .homext import (
    BudgetExceededError,
    brute_force_ext,
    classify_trivial_end,
    end_is_trivial,
    ext1_dim,
    hom_dim,
    modules_isomorphic,
)
from .lifts import (
    CoeffRing,
    LiftCensus,
    count_deformations,
    count_ring_morphisms,
    fingerprint,
)
from .presentation import (
    LAMBDA0,
    DSLError,
    GentleReport,
    Presentation,
    Quiver,
    catalog_presentation,
    parse_presentation,
    radical_series,
    table1_catalog,
    validate_gentle,
)
from .strings import (
    FinModule,
    Letter,
    StringError,
    StringWord,
    enumerate_strings,
    make_string,
    simple_module,
    string_module,
)
from .sweep import SweepReport, SweepRow, sweep_catalog
from .udr import (
    ConnectingLetter,
    SequenceReport,
    UDRDescriptor,
    build_sequence,
    connecting_letters,
    universal_deformation_ring,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError", "CoeffRing", "ConnectingLetter", "DSLError",
    "FinModule", "GentleReport", "LAMBDA0", "Letter", "LiftCensus",
    "Presentation", "Quiver", "SequenceReport", "StringError", "StringWord",
    "SweepReport", "SweepRow", "UDRDescriptor", "brute_force_ext",
    "build_sequence", "catalog_presentation", "classify_trivial_end",
    "connecting_letters", "count_deformations", "count_ring_morphisms",
    "end_is_trivial", "enumerate_strings", "ext1_dim", "fingerprint",
    "hom_dim", "make_string", "modules_isomorphic", "paper_agreement",
    "parse_presentation", "published_ring", "radical_series",
    "simple_module", "string_module", "sweep_catalog", "table1_catalog",
    "universal_deformation_ring", "validate_gentle",
]
