"""Subbraces, ideals, quotients, the star square and solubility.

An ideal is a subbrace that is invariant under every lambda map and normal
in both groups; the quotient of a brace by an ideal is again a brace on
the cosets, with a + I = a * I.

structure(B) computes the subbraces, ideals, minimal ideals, centres and
solubility chain of B once, from one lattice of additive subgroups: the
subbraces are filtered from it, and the ideals from the subbraces, by the
one ideal test here. subbrace_carriers, ideals, minimal_ideals,
brace_centers and is_soluble_brace read it. quotient checks its mask
without it: the mask's members must reach exactly the mask by the
closure walk groups._spanning makes, whose steps generate it, and the
mask must pass the carrier filter and the one ideal filter with those
steps as its generators.

The tests are decided on generators, by two facts. First, a -> lambda_a
is a homomorphism from (B,*) (Guarnieri and Vendramin, Math. Comp. 86
(2017), Prop. 1.9), so the a with lambda_a(M) inside M are closed under *
and hold 0: they are all of B once they hold B.mul.gens. Second, each
lambda_a is an automorphism of (B,+), so it maps a subgroup <X> into M
exactly when it maps X into M.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from .bitset import ElementSet, full_mask, mask_of, members
from .braces import SkewBrace, _brace, star
from .errors import NotAnIdeal
from .groups import (
    Lattice,
    _conjugates_inside,
    _group,
    _spanning,
    _subgroup_lattice,
    center,
    normal_closure,
)


class BraceCenters(NamedTuple):
    z_add: ElementSet
    z_mul: ElementSet
    z_mul_is_ideal: bool


class BraceStructure(NamedTuple):
    subbraces: Lattice
    ideals: Lattice
    minimal_ideals: list[ElementSet]
    centers: BraceCenters
    solubility_chain: Optional[list[ElementSet]]


class QuotientBrace(NamedTuple):
    brace: SkewBrace
    reps: tuple[int, ...]
    projection: tuple[int, ...]


def subbrace_carriers(B: SkewBrace) -> list[ElementSet]:
    """Subsets that are subgroups of both operations at once, in the
    order of `subgroups`."""
    return list(structure(B).subbraces)


def _carrier_lattice(B: SkewBrace) -> Lattice:
    """The additive subgroups closed under *, in the order of `subgroups`,
    each with the generators and members the lattice search found."""
    lattice = _subgroup_lattice(B.add)
    return {m: gm for m, gm in lattice.items() if _mul_closed(B, m, *gm)}


def _mul_closed(B: SkewBrace, mask: ElementSet, gens: list[int], ms: list[int]) -> bool:
    """Whether the additive subgroup mask, generated by gens and with
    members ms, is a subgroup of (B,*). Since x*y = x + lambda_x(y), x*M
    lies in M for x in M exactly when lambda_x(M) does, which holds once
    every lambda_x(g), g in gens, lies in M. A finite set holding 0 and
    closed under * is a subgroup."""
    lam = B.lam
    return all(mask >> lam[x][g] & 1 for x in ms for g in gens)


def _abelian_modulo(B: SkewBrace, ideal: ElementSet, gens: Iterable[int], ms: list[int]) -> bool:
    """Whether x*y = x + y and x + y = y + x modulo the ideal I for all x
    in ms and y in the additive subgroup J generated by gens: for J an
    ideal holding I, with members ms, whether J/I is an abelian brace.

    For each x the y that pass each test form an additive subgroup holding
    I, so y runs over gens. As x*y = x + lambda_x(y), the first test is
    -y + lambda_x(y) in I, and if y and z pass it then so does y + z:

        -(y + z) + lambda_x(y + z) = -z + i + lambda_x(z)
                                   = (-z + i + z) + (-z + lambda_x(z)),

    with i = -y + lambda_x(y) in I, which is normal in (B,+). The y with
    -x - y + x + y in I are those whose coset commutes with x + I: the
    preimage of a centralizer of (B,+)/I. The first set holds I as I is
    lambda invariant, the second as a preimage.
    """
    lam = B.lam
    at = B.add.table
    inv = B.add.inv
    return all(
        ideal >> at[inv[g]][lam[x][g]] & 1 and ideal >> at[inv[at[g][x]]][at[x][g]] & 1
        for x in ms
        for g in gens
    )


def _ideals_among(B: SkewBrace, carriers: Lattice) -> Lattice:
    """The ideals among the subbrace carriers of _carrier_lattice, in
    order: the carriers that every lambda map sends into themselves and
    that are normal in both groups. Lambda invariance is decided on
    lambda_a with a in B.mul.gens, applied to the carrier's additive
    generators; normality in (B,+) on those generators too, and normality
    in (B,*) on the carrier's members."""
    lam = B.lam
    return {
        m: (gens, ms)
        for m, (gens, ms) in carriers.items()
        if all(m >> lam[a][x] & 1 for a in B.mul.gens for x in gens)
        and _conjugates_inside(B.add, m, gens)
        and _conjugates_inside(B.mul, m, ms)
    }


def structure(B: SkewBrace) -> BraceStructure:
    """The subbraces, ideals, minimal ideals, centres and solubility chain
    of B, each computed once from the one additive subgroup lattice. Every
    ideal is a subbrace, so the ideals are filtered from the carriers.

    The minimal ideals are the minimal nonzero ones. The ideals go by
    size, so a nonzero ideal holding another holds a minimal one listed
    before it."""
    carriers = _carrier_lattice(B)
    ideal_lattice = _ideals_among(B, carriers)
    minimal: list[ElementSet] = []
    for m in ideal_lattice:
        if m != 1 and not any(k & ~m == 0 for k in minimal):
            minimal.append(m)
    z_mul = center(B.mul)
    return BraceStructure(
        subbraces=carriers,
        ideals=ideal_lattice,
        minimal_ideals=minimal,
        centers=BraceCenters(
            z_add=center(B.add), z_mul=z_mul, z_mul_is_ideal=z_mul in ideal_lattice
        ),
        solubility_chain=_soluble_chain(B, ideal_lattice),
    )


def ideals(B: SkewBrace) -> list[ElementSet]:
    return list(structure(B).ideals)


def minimal_ideals(B: SkewBrace) -> list[ElementSet]:
    return structure(B).minimal_ideals


def quotient(B: SkewBrace, ideal_mask: ElementSet) -> QuotientBrace:
    """Brace on the cosets of an ideal; representatives are the smallest
    index of each coset, ordered by representative. The quotient by an
    ideal is a skew brace (Guarnieri and Vendramin, Math. Comp. 86 (2017),
    section 2), so only the caller's mask is checked: its members must
    generate exactly the mask as an additive subgroup, the greedy steps of
    that walk serving as its generators, which must then pass the carrier
    filter of the subbrace lattice and the ideal filter."""
    if ideal_mask >> B.n:  # an index past n, or a negative mask
        raise NotAnIdeal(ideal_mask)
    ms = members(ideal_mask)
    steps, reached = _spanning(B.add.table, among=ms)
    gens = list(steps)
    if (
        reached != ideal_mask
        or not _mul_closed(B, ideal_mask, gens, ms)
        or not _ideals_among(B, {ideal_mask: (gens, ms)})
    ):
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


def _opposite_square(B: SkewBrace) -> ElementSet:
    """brace_square(opposite(B)), with no opposite brace built.

    The opposite brace has a +' b = b + a and the same *, so -'a = -a,
    its lambda maps are lambda'_a(b) = -'a +' a*b = a*b - a, and its star
    products are

        star'(a, g) = lambda'_a(g) -' g = -g + a*g - a.

    Its square is the normal closure in (B,+') of the star'(a, g) for a in
    B.mul.gens and g in generators of (B,+'), by brace_square's proof.
    (B,+) and (B,+') have the same subgroups, a subgroup being closed
    under both sums at once, and the same normal subgroups, conjugation by
    g in (B,+') being conjugation by -g in (B,+). So B.add.gens generate
    (B,+'), and the normal closure may be taken in (B,+).
    """
    at = B.add.table
    inv = B.add.inv
    mt = B.mul.table
    return normal_closure(
        B.add, (at[at[inv[g]][mt[a][g]]][inv[a]] for a in B.mul.gens for g in B.add.gens)
    )


def ker_lambda(B: SkewBrace) -> ElementSet:
    identity = tuple(range(B.n))
    return mask_of(a for a in range(B.n) if B.lam[a] == identity)


def brace_centers(B: SkewBrace) -> BraceCenters:
    return structure(B).centers


def is_soluble_brace(B: SkewBrace) -> Optional[list[ElementSet]]:
    return structure(B).solubility_chain


def _soluble_chain(B: SkewBrace, ideal_list: Lattice) -> Optional[list[ElementSet]]:
    """A witness chain of ideals 0 = I_0 <= ... <= I_k = B whose successive
    quotients are abelian braces, or None; ideal_list is
    _ideals_among(B, _carrier_lattice(B)).

    From I = {0} on: if B/I is an abelian brace, B ends the chain;
    otherwise the next step is the first ideal J of ideal_list strictly
    holding I with J/I an abelian brace, and None if there is none.
    Solubility passes to quotients, so the first such J decides, and the
    first nonzero ideal of any witness chain of B/I is such a J/I. That J
    is minimal among the ideals above I: an ideal K with I < K < J is
    smaller, so listed first, and K/I is abelian since J/I is.

    It is the same search as on the quotient brace B/I built by
    `quotient`, read off the ideals of B alone:

    - The ideals of B/I are the J/I for the ideals J of B that hold I
      (Guarnieri and Vendramin, Math. Comp. 86 (2017), section 2), and
      J/I <= K/I exactly when J <= K; (B/I)/(J/I) is B/J.
    - `quotient` numbers the cosets by their least members, in order, and
      ideals are ordered by size, then member sequence. J and K of one
      size that both hold I are unions of cosets of I; the least element
      z of their symmetric difference is the least of its coset, so it is
      a coset representative. The member lists of J and K, and their
      representative lists, both part first at z, so B/I lists its ideals
      in the order of B's.
    - J/I is an abelian brace exactly when x*y = x + y and x + y = y + x
      modulo I for all x and y in J, which _abelian_modulo decides on y
      among the generators of J.
    """
    if B.n == 1:
        return [1]
    full = full_mask(B.n)
    chain = [1]
    while not _abelian_modulo(B, chain[-1], *ideal_list[full]):
        below = chain[-1]
        for m, (gens, ms) in ideal_list.items():
            if m != below and below & ~m == 0 and _abelian_modulo(B, below, gens, ms):
                break
        else:
            return None
        chain.append(m)
    return chain + [full]
