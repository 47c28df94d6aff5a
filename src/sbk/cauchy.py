"""Subbraces of prime order and the exhaustive small-order survey.

The search for an order-p subbrace is complete, and one test decides it.
An order-p subbrace S carries two groups of prime order on the same p
points, so both are cyclic and S is the additive cyclic subgroup <x> of
any nonzero member x. A brace of prime order is trivial: its lambda map
is a homomorphism from a group of order p into the automorphisms of a
cyclic group of order p, a group of order p - 1, so it is trivial. So
lambda_x fixes x. Conversely, if lambda_x(x) = x then lambda_x fixes <x>
pointwise, as it is additive; x*kx = x + kx, so the k-fold product of x
is kx and lambda_(kx) = lambda_x^k fixes <x> as well, and <x> is closed
under * with x*y = x + y on it. So an order-p subbrace exists exactly
when some x of additive order p has lambda_x(x) = x, and the least such
x gives the witness.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .bitset import ElementSet
from .braces import BraceFlags, SkewBrace, classify
from .enumeration import all_skew_braces
from .errors import NotPrime, PrimeDoesNotDivideOrder
from .groups import _is_prime, element_order, generated_subgroup, prime_divisors

# A found witness is always a fixed point's; a search that finds none has
# scanned every candidate, and reports so.
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

    Elements x with additive order p are scanned in index order, and the
    additive cyclic subgroup of the first with lam[x](x) = x is returned:
    by the module docstring it is a subbrace, and no other x gives one.
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
        if B.lam[x][x] == x:
            return generated_subgroup(B.add, [x]), STRATEGY_FIXED_POINT
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
