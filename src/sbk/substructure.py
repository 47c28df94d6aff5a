"""Subbraces, ideals, quotients, star spans and derived structure flags.

An ideal is a subbrace that is invariant under every lambda map and normal
in both groups; the quotient of a brace by an ideal is again a brace on
the cosets, with a + I = a * I.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .bitset import ElementSet, contains, full_mask, mask_of, members, size
from .braces import SkewBrace, _brace, star
from .errors import NotAnIdeal
from .groups import _group, center, generated_subgroup, is_normal, is_subgroup, subgroups


class Subbrace(NamedTuple):
    carrier: ElementSet
    is_ideal: bool
    is_trivial_sub: bool
    is_abelian_sub: bool


class BraceCenters(NamedTuple):
    z_add: ElementSet
    z_mul: ElementSet
    z_mul_is_ideal: bool


class QuotientBrace(NamedTuple):
    brace: SkewBrace
    reps: tuple[int, ...]
    projection: tuple[int, ...]


def subbrace_carriers(B: SkewBrace) -> list[ElementSet]:
    """Subsets that are subgroups of both operations at once, in the
    order of `subgroups`."""
    return [m for m in subgroups(B.add) if is_subgroup(B.mul, m)]


def is_trivial_carrier(B: SkewBrace, mask: ElementSet) -> bool:
    ms = members(mask)
    at = B.add.table
    mt = B.mul.table
    return all(mt[x][y] == at[x][y] for x in ms for y in ms)


def is_abelian_carrier(B: SkewBrace, mask: ElementSet) -> bool:
    ms = members(mask)
    at = B.add.table
    return is_trivial_carrier(B, mask) and all(
        at[x][y] == at[y][x] for x in ms for y in ms
    )


def subbraces(B: SkewBrace) -> list[Subbrace]:
    carriers = subbrace_carriers(B)
    ideal_set = set(_ideals_among(B, carriers))
    out = []
    for mask in carriers:
        out.append(
            Subbrace(
                carrier=mask,
                is_ideal=mask in ideal_set,
                is_trivial_sub=is_trivial_carrier(B, mask),
                is_abelian_sub=is_abelian_carrier(B, mask),
            )
        )
    return out


def is_lambda_invariant(B: SkewBrace, mask: ElementSet) -> bool:
    # each lambda map is a bijection, so mapping the set into itself is
    # mapping it onto itself
    ms = members(mask)
    return all(mask >> lam[x] & 1 for lam in B.lam for x in ms)


def is_ideal(B: SkewBrace, mask: ElementSet) -> bool:
    """Definitional test: subgroup of both operations, lambda invariant,
    normal in both groups."""
    if not contains(mask, 0):
        return False
    if not (is_subgroup(B.add, mask) and is_subgroup(B.mul, mask)):
        return False
    if not is_lambda_invariant(B, mask):
        return False
    return is_normal(B.add, mask) and is_normal(B.mul, mask)


def _ideals_among(B: SkewBrace, carriers: list[ElementSet]) -> list[ElementSet]:
    """The ideals among subbrace carriers: is_ideal without the subgroup
    tests, which the carriers already pass."""
    return [
        m
        for m in carriers
        if is_lambda_invariant(B, m) and is_normal(B.add, m) and is_normal(B.mul, m)
    ]


def ideals(B: SkewBrace) -> list[ElementSet]:
    return _ideals_among(B, subbrace_carriers(B))


def minimal_ideals(B: SkewBrace) -> list[ElementSet]:
    return _minimal(ideals(B))


def _minimal(ideal_list: list[ElementSet]) -> list[ElementSet]:
    """The minimal nonzero ideals among ideal_list, which is ideals(B)."""
    nonzero = [m for m in ideal_list if size(m) > 1]
    return [
        m
        for m in nonzero
        if not any(other != m and other & ~m == 0 for other in nonzero)
    ]


def quotient(B: SkewBrace, ideal_mask: ElementSet) -> QuotientBrace:
    """Brace on the cosets of an ideal; representatives are the smallest
    index of each coset, ordered by representative. The quotient by an
    ideal is a skew brace (Guarnieri and Vendramin, Math. Comp. 86 (2017),
    section 2), so only the caller's mask is checked."""
    if not is_ideal(B, ideal_mask):
        raise NotAnIdeal(ideal_mask)
    n = B.n
    at = B.add.table
    proj = [-1] * n
    reps: list[int] = []
    for a in range(n):
        if proj[a] >= 0:
            continue
        k = len(reps)
        reps.append(a)
        for i in members(ideal_mask):
            proj[at[a][i]] = k
    m = len(reps)
    q_add = [[proj[at[reps[i]][reps[j]]] for j in range(m)] for i in range(m)]
    q_mul = [
        [proj[B.mul.table[reps[i]][reps[j]]] for j in range(m)] for i in range(m)
    ]
    qb = _brace(_group(q_add), _group(q_mul))
    return QuotientBrace(brace=qb, reps=tuple(reps), projection=tuple(proj))


def star_span(B: SkewBrace, x_mask: ElementSet, y_mask: ElementSet) -> ElementSet:
    """Additive subgroup generated by all star products x*y with x in X,
    y in Y."""
    gens = {star(B, x, y) for x in members(x_mask) for y in members(y_mask)}
    return generated_subgroup(B.add, gens)


def brace_square(B: SkewBrace) -> ElementSet:
    """Star span of the whole brace with itself; zero exactly for trivial
    braces, and the smallest ideal with trivial quotient."""
    full = full_mask(B.n)
    return star_span(B, full, full)


def ker_lambda(B: SkewBrace) -> ElementSet:
    identity = tuple(range(B.n))
    return mask_of(a for a in range(B.n) if B.lam[a] == identity)


def brace_centers(B: SkewBrace) -> BraceCenters:
    z_mul = center(B.mul)
    return BraceCenters(
        z_add=center(B.add),
        z_mul=z_mul,
        z_mul_is_ideal=is_ideal(B, z_mul),
    )


def is_simple(B: SkewBrace) -> bool:
    return len(ideals(B)) == 2


def is_soluble_brace(B: SkewBrace) -> Optional[list[ElementSet]]:
    """A witness chain of ideals 0 = I_0 <= ... <= I_k = B whose successive
    quotients are abelian braces, or None.

    The search takes any nonzero ideal that is an abelian brace (minimal
    ideals first) and recurses on the quotient; solubility passes to
    quotients, so the first such ideal decides. The first step of any
    witness chain is such an ideal, so finding none decides as well.
    """
    return _soluble_chain(B, None)


def _soluble_chain(
    B: SkewBrace, ideal_list: Optional[list[ElementSet]]
) -> Optional[list[ElementSet]]:
    """is_soluble_brace, given ideals(B) or None; an abelian brace needs
    no ideals, so None leaves them to be computed only when needed."""
    if B.n == 1:
        return [1]
    full = full_mask(B.n)
    if is_abelian_carrier(B, full):
        return [1, full]
    if ideal_list is None:
        ideal_list = ideals(B)
    minimal = _minimal(ideal_list)
    ordered = minimal + [m for m in ideal_list if size(m) > 1 and m not in minimal]
    cand = next((m for m in ordered if is_abelian_carrier(B, m)), None)
    if cand is None:
        return None
    q = quotient(B, cand)
    rest = is_soluble_brace(q.brace)
    if rest is None:
        return None
    chain = [1, cand]
    for coset_mask in rest:
        lifted = mask_of(x for x in range(B.n) if contains(coset_mask, q.projection[x]))
        if lifted != cand:
            chain.append(lifted)
    return chain
