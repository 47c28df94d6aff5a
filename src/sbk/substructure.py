"""Subbraces, ideals, quotients, the star square and solubility.

An ideal is a subbrace that is invariant under every lambda map and normal
in both groups; the quotient of a brace by an ideal is again a brace on
the cosets, with a + I = a * I.

The tests are decided on generators, by two facts. First, a -> lambda_a
is a homomorphism from (B,*) (Guarnieri and Vendramin, Math. Comp. 86
(2017), Prop. 1.9), so the a with lambda_a(M) inside M are closed under *
and hold 0: they are all of B once they hold B.mul.gens. Second, each
lambda_a is an automorphism of (B,+), so it maps a subgroup <X> into M
exactly when it maps X into M.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from .bitset import ElementSet, contains, full_mask, mask_of, members
from .braces import SkewBrace, _brace, is_almost_trivial, is_trivial, star
from .errors import NotAnIdeal
from .groups import (
    Lattice,
    _conjugates_inside,
    _group,
    _subgroup_lattice,
    center,
    is_normal,
    is_subgroup,
    normal_closure,
)


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
    return list(_carrier_lattice(B))


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


def is_lambda_invariant(B: SkewBrace, mask: ElementSet) -> bool:
    """Whether every lambda map sends the set into itself, decided on a in
    B.mul.gens. Each lambda map is a bijection, so mapping the set into
    itself is mapping it onto itself."""
    return _lambda_maps_inside(B, mask, members(mask))


def _lambda_maps_inside(B: SkewBrace, mask: ElementSet, xs: Iterable[int]) -> bool:
    """Whether lambda_a(x) lies in the mask for a in B.mul.gens and x in
    xs: is_lambda_invariant when xs are the members, and also when xs
    generate the additive subgroup mask, as each lambda_a is additive."""
    lam = B.lam
    return all(mask >> lam[a][x] & 1 for a in B.mul.gens for x in xs)


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


def _ideals_among(B: SkewBrace, carriers: Lattice) -> Lattice:
    """The ideals among the subbrace carriers of _carrier_lattice, in
    order: is_ideal without the subgroup tests, which the carriers already
    pass. Lambda invariance and normality in (B,+) are decided on the
    carrier's additive generators, normality in (B,*) on its members."""
    return {
        m: (gens, ms)
        for m, (gens, ms) in carriers.items()
        if _lambda_maps_inside(B, m, gens)
        and _conjugates_inside(B.add, m, gens)
        and _conjugates_inside(B.mul, m, ms)
    }


def ideals(B: SkewBrace) -> list[ElementSet]:
    return list(_ideals_among(B, _carrier_lattice(B)))


def minimal_ideals(B: SkewBrace) -> list[ElementSet]:
    return _minimal(ideals(B))


def _minimal(ideal_list: list[ElementSet]) -> list[ElementSet]:
    """The minimal nonzero ideals among ideal_list, which is ideals(B).
    The list goes by size, so a nonzero ideal holding another holds a
    minimal one listed before it."""
    minimal: list[ElementSet] = []
    for m in ideal_list:
        if m != 1 and not any(k & ~m == 0 for k in minimal):
            minimal.append(m)
    return minimal


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
    z_mul = center(B.mul)
    return BraceCenters(
        z_add=center(B.add),
        z_mul=z_mul,
        z_mul_is_ideal=is_ideal(B, z_mul),
    )


def is_soluble_brace(B: SkewBrace) -> Optional[list[ElementSet]]:
    """A witness chain of ideals 0 = I_0 <= ... <= I_k = B whose successive
    quotients are abelian braces, or None.

    From I = {0} on: if B/I is an abelian brace, B ends the chain;
    otherwise the next step is the first ideal J of ideals(B) strictly
    holding I with J/I an abelian brace, and None if there is none.
    Solubility passes to quotients, so the first such J decides, and the
    first nonzero ideal of any witness chain of B/I is such a J/I. That J
    is minimal among the ideals above I: an ideal K with I < K < J is
    smaller, so listed first, and K/I is abelian since J/I is.
    """
    return _soluble_chain(B, None)


def _soluble_chain(B: SkewBrace, ideal_list: Optional[Lattice]) -> Optional[list[ElementSet]]:
    """is_soluble_brace, given _ideals_among(B, _carrier_lattice(B)) or
    None; an abelian brace needs no ideals, so None leaves them to be
    computed only when needed.

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
    if is_trivial(B) and is_almost_trivial(B):  # an abelian brace
        return [1, full]
    if ideal_list is None:
        ideal_list = _ideals_among(B, _carrier_lattice(B))
    chain = [1]  # B/{0} is B, not an abelian brace
    while True:
        below = chain[-1]
        for m, (gens, ms) in ideal_list.items():
            if m != below and below & ~m == 0 and _abelian_modulo(B, below, gens, ms):
                break
        else:
            return None
        chain.append(m)
        if _abelian_modulo(B, m, *ideal_list[full]):
            return chain + [full]
