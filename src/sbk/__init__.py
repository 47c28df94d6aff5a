"""sbk: exhaustive computation with finite skew braces.

A skew brace is a set carrying two group structures (B, +) and (B, *)
with a shared identity, linked by a*(b+c) = a*b - a + a*c. This package
validates braces given by Cayley tables, computes their substructure
(subbraces, ideals, quotients, the star square), searches for subbraces of
prime order, enumerates all braces of a small order up to isomorphism,
and exports the associated set-theoretic Yang-Baxter solutions.
"""

from .bitset import ElementSet, full_mask, mask_of, members
from .braces import (
    BraceFlags,
    SkewBrace,
    classify,
    from_group,
    make_skew_brace,
    opposite,
    star,
)
from .cauchy import (
    CauchyReport,
    SurveyRow,
    cauchy_report,
    find_subbrace_of_order,
)
from .enumeration import (
    BraceCatalog,
    all_skew_braces,
    are_isomorphic_braces,
    groups_of_order,
)
from .groups import (
    FiniteGroup,
    automorphism_group,
    element_order,
    make_group,
    subgroups,
    sylow_p,
)
from .substructure import (
    BraceCenters,
    BraceStructure,
    QuotientBrace,
    brace_centers,
    brace_square,
    ideals,
    is_soluble_brace,
    ker_lambda,
    minimal_ideals,
    quotient,
    structure,
)
from .ybe import SolutionReport, YBEMap, check_solution, to_solution

__version__ = "0.1.0"

__all__ = [
    "BraceCatalog",
    "BraceCenters",
    "BraceFlags",
    "BraceStructure",
    "CauchyReport",
    "ElementSet",
    "FiniteGroup",
    "QuotientBrace",
    "SkewBrace",
    "SolutionReport",
    "SurveyRow",
    "YBEMap",
    "all_skew_braces",
    "are_isomorphic_braces",
    "automorphism_group",
    "brace_centers",
    "brace_square",
    "cauchy_report",
    "check_solution",
    "classify",
    "element_order",
    "find_subbrace_of_order",
    "from_group",
    "full_mask",
    "groups_of_order",
    "ideals",
    "is_soluble_brace",
    "ker_lambda",
    "make_group",
    "make_skew_brace",
    "mask_of",
    "members",
    "minimal_ideals",
    "opposite",
    "quotient",
    "star",
    "structure",
    "subgroups",
    "sylow_p",
    "to_solution",
]
