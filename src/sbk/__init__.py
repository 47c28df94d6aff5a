"""sbk: exhaustive computation with finite skew braces.

A skew brace is a set carrying two group structures (B, +) and (B, *)
with a shared identity, linked by a*(b+c) = a*b - a + a*c. This package
validates braces given by Cayley tables, computes their substructure
(subbraces, ideals, quotients, star spans), searches for subbraces of
prime order, enumerates all braces of a small order up to isomorphism,
and exports the associated set-theoretic Yang-Baxter solutions.
"""

from .bitset import ElementSet, full_mask, mask_of, members
from .braces import (
    BraceFlags,
    SkewBrace,
    classify,
    from_group,
    lambda_of,
    make_skew_brace,
    opposite,
    star,
    swap,
)
from .cauchy import (
    CauchyReport,
    SurveyRow,
    cauchy_report,
    find_subbrace_of_order,
    survey,
    sylow_fixed_point_diagnostic,
)
from .enumeration import (
    BraceCatalog,
    all_skew_braces,
    are_isomorphic_braces,
    groups_of_order,
)
from .groups import (
    FiniteGroup,
    GroupProperties,
    automorphism_group,
    centralizer,
    characteristic_subgroups,
    element_order,
    group_properties,
    is_isomorphic,
    make_group,
    subgroups,
    sylow_p,
)
from .substructure import (
    BraceCenters,
    QuotientBrace,
    Subbrace,
    brace_centers,
    brace_square,
    ideals,
    is_ideal,
    is_simple,
    is_soluble_brace,
    ker_lambda,
    minimal_ideals,
    quotient,
    star_span,
    subbraces,
)
from .ybe import SolutionReport, YBEMap, check_solution, to_solution

__version__ = "0.1.0"

__all__ = [
    "BraceCatalog",
    "BraceCenters",
    "BraceFlags",
    "CauchyReport",
    "ElementSet",
    "FiniteGroup",
    "GroupProperties",
    "QuotientBrace",
    "SkewBrace",
    "SolutionReport",
    "Subbrace",
    "SurveyRow",
    "YBEMap",
    "all_skew_braces",
    "are_isomorphic_braces",
    "automorphism_group",
    "brace_centers",
    "brace_square",
    "cauchy_report",
    "centralizer",
    "characteristic_subgroups",
    "check_solution",
    "classify",
    "element_order",
    "find_subbrace_of_order",
    "from_group",
    "full_mask",
    "group_properties",
    "groups_of_order",
    "ideals",
    "is_ideal",
    "is_isomorphic",
    "is_simple",
    "is_soluble_brace",
    "ker_lambda",
    "lambda_of",
    "make_group",
    "make_skew_brace",
    "mask_of",
    "members",
    "minimal_ideals",
    "opposite",
    "quotient",
    "star",
    "star_span",
    "subbraces",
    "subgroups",
    "survey",
    "swap",
    "sylow_fixed_point_diagnostic",
    "sylow_p",
    "to_solution",
]
