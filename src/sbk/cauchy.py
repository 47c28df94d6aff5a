"""Subbraces of prime order and the exhaustive small-order survey.

The search for an order-p subbrace is complete: such a subbrace carries
two groups of prime order on the same p points, so both are cyclic and
the carrier equals the additive cyclic subgroup generated by any nonzero
member. It therefore suffices to scan elements of additive order p and
test whether their additive cyclic subgroup is closed under the
multiplication; a finite set containing 0 and closed under the product is
automatically a subgroup. Closure is tested on the one generator x: the
cyclic group <x> is closed under * exactly when lambda_y(x) lies in it
for every y in it (substructure._mul_closed).
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .bitset import ElementSet, members
from .braces import BraceFlags, SkewBrace, classify
from .enumeration import all_skew_braces
from .errors import NotPrime, PrimeDoesNotDivideOrder
from .groups import _is_prime, element_order, generated_subgroup, prime_divisors, sylow_p
from .substructure import _mul_closed, is_lambda_invariant

STRATEGY_FIXED_POINT = "lambda_fixed_point"
STRATEGY_BRUTE_FORCE = "brute_force"


class PrimeWitness(NamedTuple):
    prime: int
    witness: Optional[ElementSet]
    strategy: str


class CauchyReport(NamedTuple):
    order: int
    entries: tuple[PrimeWitness, ...]
    all_primes_witnessed: bool


class SurveyRow(NamedTuple):
    order: int
    index: int
    flags: BraceFlags
    all_primes_witnessed: bool


def find_subbrace_of_order(B: SkewBrace, p: int) -> Optional[ElementSet]:
    """Smallest-generator subbrace of order p, or None if none exists.

    Elements x with additive order p are scanned in index order. If
    lam[x](x) = x the additive cyclic subgroup of x is a trivial subbrace
    and is accepted immediately; otherwise it is accepted exactly when it
    is closed under the multiplication.
    """
    witness, _ = find_subbrace_with_strategy(B, p)
    return witness


def find_subbrace_with_strategy(
    B: SkewBrace, p: int
) -> tuple[Optional[ElementSet], str]:
    if not _is_prime(p):
        raise NotPrime(p)
    if B.n % p != 0:
        raise PrimeDoesNotDivideOrder(p, B.n)
    for x in range(1, B.n):
        if element_order(B.add, x) != p:
            continue
        cyc = generated_subgroup(B.add, [x])
        if B.lam[x][x] == x:
            return cyc, STRATEGY_FIXED_POINT
        if _mul_closed(B, cyc, [x], members(cyc)):
            return cyc, STRATEGY_BRUTE_FORCE
    return None, STRATEGY_BRUTE_FORCE


def cauchy_report(B: SkewBrace) -> CauchyReport:
    entries = []
    for p in prime_divisors(B.n):
        witness, strategy = find_subbrace_with_strategy(B, p)
        entries.append(PrimeWitness(prime=p, witness=witness, strategy=strategy))
    return CauchyReport(
        order=B.n,
        entries=tuple(entries),
        all_primes_witnessed=all(e.witness is not None for e in entries),
    )


def sylow_fixed_point_diagnostic(B: SkewBrace, p: int) -> Optional[ElementSet]:
    """A Sylow p-subgroup of the additive group stabilized by every lambda
    map, or None. Mirrors the fixed-point counting used to locate prime
    witnesses in structured cases; not needed for completeness of
    find_subbrace_of_order."""
    if not _is_prime(p):
        raise NotPrime(p)
    if B.n % p != 0:
        raise PrimeDoesNotDivideOrder(p, B.n)
    for P in sylow_p(B.add, p):
        if is_lambda_invariant(B, P):
            return P
    return None


def survey_order(n: int) -> list[SurveyRow]:
    """Cauchy status of every catalog brace of one order."""
    rows = []
    catalog = all_skew_braces(n)
    for idx, B in enumerate(catalog.entries):
        report = cauchy_report(B)
        rows.append(
            SurveyRow(
                order=n,
                index=idx,
                flags=classify(B),
                all_primes_witnessed=report.all_primes_witnessed,
            )
        )
    return rows


def survey(n_max: int) -> list[SurveyRow]:
    """Cauchy status of every catalog brace of order up to n_max."""
    rows = []
    for n in range(1, n_max + 1):
        rows.extend(survey_order(n))
    return rows
