"""Subbraces, ideals, quotients, star spans and derived structure flags.

An ideal is a subbrace that is invariant under every lambda map and normal
in both groups; the quotient of a brace by an ideal is again a brace on
the cosets, with a + I = a * I.

The tests are decided on generators, by two facts. First, a -> lambda_a
is a homomorphism from (B,*) (Guarnieri and Vendramin, Math. Comp. 86
(2017), Prop. 1.9), so the a with lambda_a(M) inside M are closed under *
and hold 0: they are all of B once they hold B.mul.gens. Second, each
lambda_a is an automorphism of (B,+), so it maps a subgroup <X> into M
exactly when it maps X into M, and its fixed points form a subgroup.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .bitset import ElementSet, contains, full_mask, mask_of, members, size, sort_key
from .braces import SkewBrace, _brace, is_almost_trivial, is_trivial, star
from .errors import NotAnIdeal
from .groups import (
    _group,
    _spanning,
    _subgroup_lattice,
    center,
    generated_subgroup,
    is_normal,
    is_subgroup,
    normal_closure,
)


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
    order of `subgroups`: the additive subgroups closed under *, each
    tested on the generators the lattice search found it with."""
    lattice = _subgroup_lattice(B.add)
    carriers = [m for m, gens in lattice.items() if _mul_closed(B, m, gens)]
    return sorted(carriers, key=sort_key)


def _mul_closed(B: SkewBrace, mask: ElementSet, gens: list[int]) -> bool:
    """Whether the additive subgroup mask, generated by gens, is a subgroup
    of (B,*). Since x*y = x + lambda_x(y), x*M lies in M for x in M exactly
    when lambda_x(M) does, which holds once every lambda_x(g), g in gens,
    lies in M. A finite set holding 0 and closed under * is a subgroup."""
    lam = B.lam
    return all(mask >> lam[x][g] & 1 for x in members(mask) for g in gens)


def is_trivial_carrier(B: SkewBrace, mask: ElementSet) -> bool:
    """Whether x*y = x + y for x and y in the set. As x*y = x + lambda_x(y),
    it does when lambda_x fixes y; the fixed points of lambda_x form an
    additive subgroup, so y runs over a set that generates one holding the
    mask, chosen from the mask."""
    ms = members(mask)
    return _trivial_on(B, ms, _spanning(B.add.table, among=ms))


def _trivial_on(B: SkewBrace, ms: list[int], gens: tuple[int, ...]) -> bool:
    lam = B.lam
    return all(lam[x][g] == g for x in ms for g in gens)


def is_abelian_carrier(B: SkewBrace, mask: ElementSet) -> bool:
    """is_trivial_carrier, with + commutative on the set: a centralizer is
    a subgroup, so y again runs over generators."""
    ms = members(mask)
    gens = _spanning(B.add.table, among=ms)
    at = B.add.table
    return _trivial_on(B, ms, gens) and all(at[x][g] == at[g][x] for x in ms for g in gens)


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
    """Whether every lambda map sends the set into itself, decided on a in
    B.mul.gens. Each lambda map is a bijection, so mapping the set into
    itself is mapping it onto itself."""
    ms = members(mask)
    lam = B.lam
    return all(mask >> lam[a][x] & 1 for a in B.mul.gens for x in ms)


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
    braces, and the smallest ideal with trivial quotient.

    It is the normal closure N in (B,+) of the star(a, g) = lambda_a(g) - g
    with a in S = B.mul.gens and g in T = B.add.gens. The star span is
    normal in (B,+),

        t + star(a, b) - t = -star(a, t) + star(a, t + b),

    so it holds N. Conversely,

        star(a, b + g) = star(a, b) + b + star(a, g) - b,

    so by induction on words in T every star(a, b) lies in N once every
    star(a, g) does; and the a for which star(a, b) lies in N for all b
    are closed under *, as

        star(a*a', b) = lambda_a(lambda_a'(b)) - b
                      = star(a, lambda_a'(b)) + star(a', b),

    and hold 0, so they are all of B once they hold S.
    """
    return normal_closure(B.add, (star(B, a, g) for a in B.mul.gens for g in B.add.gens))


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
    if is_trivial(B) and is_almost_trivial(B):  # an abelian brace
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
