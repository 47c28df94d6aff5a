"""Skew braces: two group structures on one index set, sharing identity 0
and linked by the left compatibility law

    a * (b + c) = (a * b) - a + (a * c).

The lambda maps lam[a](b) = -a + a*b are precomputed at construction; each
is an automorphism of the additive group and a in (B,*) -> lam[a] is a
group homomorphism. Both facts follow from the compatibility law once both
tables are groups (Guarnieri and Vendramin, Math. Comp. 86 (2017),
Prop. 1.9), so checking the law is all that validation needs.

The law is decided on generators of the additive group. Fix a and write
mu_a(x) = -a + a*x. The law at (a, b, c) reads mu_a(b + c) = mu_a(b) +
mu_a(c), so it holds for all b and c exactly when mu_a is additive, as in
Prop. 1.9 above. The c for which it holds for every b are closed under +:

    mu_a(b + c + d) = mu_a(b + c) + mu_a(d) = mu_a(b) + mu_a(c) + mu_a(d)
                    = mu_a(b) + mu_a(c + d),

so c need only run over the set S = add.gens, whose sums are the whole
group, whatever table * is: O(n^2 |S|) work in place of n^3.

One loop, _law_violation, decides the law for every caller: assemble
(and so make_skew_brace) raises on its first bad triple, swap asks it of
(mul, add), which is the bi-skew property (Childs, New York J. Math. 25
(2019)), and is_two_sided asks it of the transposed multiplication,
which is the mirrored law (Koch and Truman, J. Algebra 546 (2020)).
Only tables from outside and swap are checked: opposite braces,
quotients by ideals, from_group braces and catalog entries are skew
braces by theorem, each cited where it is built, so _brace builds them
unchecked.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Literal, NamedTuple, Optional, Sequence

from .errors import IdentityMismatch, LeftDistributivityFails
from .groups import (
    FiniteGroup,
    Perm,
    _Frozen,
    _group,
    _square_rows,
    find_identity,
    make_group,
)


class SkewBrace(_Frozen):
    """Immutable after construction. Equality and hash ignore lam, which the
    two groups determine."""

    n: int
    add: FiniteGroup
    mul: FiniteGroup
    lam: tuple[Perm, ...]

    def __init__(self, n: int, add: FiniteGroup, mul: FiniteGroup, lam: tuple[Perm, ...]) -> None:
        self.__dict__.update(n=n, add=add, mul=mul, lam=lam)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.add, self.mul) == (other.n, other.add, other.mul)

    def __hash__(self) -> int:
        return hash((self.n, self.add, self.mul))

    def __repr__(self) -> str:
        return f"SkewBrace(n={self.n}, add={self.add.name or '?'}, mul={self.mul.name or '?'})"


class BraceFlags(NamedTuple):
    trivial: bool
    almost_trivial: bool
    abelian: bool
    two_sided: bool
    bi_skew: bool

    def as_dict(self) -> dict[str, bool]:
        """The flags by field name, in field order."""
        return self._asdict()


def assemble(add: FiniteGroup, mul: FiniteGroup) -> SkewBrace:
    """Build a brace from two validated groups on the same index set.

    Checks the compatibility law, then builds the lambda cache. Raises
    LeftDistributivityFails at the first bad triple.
    """
    if mul.n != add.n:
        raise ValueError(f"group orders differ: {add.n} vs {mul.n}")
    bad = _law_violation(add, mul.table)
    if bad is not None:
        raise LeftDistributivityFails(*bad)
    return _brace(add, mul)


def _law_violation(
    add: FiniteGroup, mul_table: Sequence[Sequence[int]]
) -> Optional[tuple[int, int, int]]:
    """The first triple (a, b, c) with a * (b + c) != (a * b) - a + (a * c),
    or None when the law holds on every triple. mul_table may be any table.

    The law holds everywhere once it holds for c in add.gens; only when it
    fails there is every c scanned, to name the first bad triple.
    """
    if _law_failure(add, mul_table, add.gens) is None:
        return None
    return _law_failure(add, mul_table, range(add.n))


def _law_failure(
    add: FiniteGroup, mul_table: Sequence[Sequence[int]], cs: Sequence[int]
) -> Optional[tuple[int, int, int]]:
    """The first triple (a, b, c) with c in cs that breaks the law, in the
    order of a, then b, then c; None when there is none.

    Each side is one itemgetter call over a row. At order 1 an itemgetter
    returns a scalar, not a 1-tuple, so that order returns at once: every
    entry is 0 and the law holds.
    """
    n = add.n
    if n == 1:
        return None
    plus = list(zip(*add.table))  # plus[c][b] = b + c
    # at_plus(r) = (r[b + c] for every b), one getter per c
    steps = [(c, itemgetter(*plus[c])) for c in cs]
    for a in range(n):
        mrow = mul_table[a]
        at_ab_minus_a = itemgetter(*itemgetter(*mrow)(plus[add.inv[a]]))
        first = None
        for c, at_plus in steps:
            left = at_plus(mrow)  # a * (b + c) for every b
            right = at_ab_minus_a(plus[mrow[c]])  # (a*b - a) + a*c for every b
            if left != right:
                b = next(b for b in range(n) if left[b] != right[b])
                if first is None or (b, c) < first:
                    first = (b, c)
        if first is not None:
            return (a, *first)
    return None


def _brace(add: FiniteGroup, mul: FiniteGroup) -> SkewBrace:
    """The brace on two groups already known to satisfy the compatibility
    law. Nothing is checked; lam[a](b) = -a + a*b is computed here and
    nowhere else. Row a is row -a of the additive table read at the
    entries of row a of the multiplicative one, by one itemgetter call. At
    order 1 an itemgetter returns a scalar, not a 1-tuple, so that order is
    built apart."""
    if add.n == 1:
        return SkewBrace(n=1, add=add, mul=mul, lam=((0,),))
    at = add.table
    lam = tuple(
        itemgetter(*row)(at[a_inv]) for row, a_inv in zip(mul.table, add.inv)
    )
    return SkewBrace(n=add.n, add=add, mul=mul, lam=lam)


def _op(G: FiniteGroup) -> FiniteGroup:
    """The opposite group, a o b = b * a: the transposed table."""
    return _group(zip(*G.table), name=G.name + "^op" if G.name else "")


def make_skew_brace(
    add_table: Sequence[Sequence[int]],
    mul_table: Sequence[Sequence[int]],
    add_name: str = "",
    mul_name: str = "",
) -> SkewBrace:
    """Validate both tables, normalize the shared identity to 0, and check
    the compatibility law. Raises IdentityMismatch if the two tables have
    different identity elements. Every error names cells, elements and
    triples in the labels of the tables as given."""
    if len(add_table) != len(mul_table):
        raise ValueError("additive and multiplicative tables differ in size")
    add_rows = _square_rows(add_table, "add")
    mul_rows = _square_rows(mul_table, "mul")
    return _skew_brace_of_rows(add_rows, mul_rows, add_name, mul_name)


def _skew_brace_of_rows(
    add_rows: Sequence[Sequence[int]],
    mul_rows: Sequence[Sequence[int]],
    add_name: str = "",
    mul_name: str = "",
) -> SkewBrace:
    """make_skew_brace on two tables of one size that have already passed
    through _square_rows. Each table's identity is found once here."""
    e_add = find_identity(add_rows)
    e_mul = find_identity(mul_rows)
    if e_add is not None and e_mul is not None and e_add != e_mul:
        raise IdentityMismatch(e_add, e_mul)
    # make_group reports in the given labels, then moves the identity to 0
    # by the transposition (0 e_add); both tables share that relabeling.
    add = make_group(add_rows, name=add_name, identity=e_add)
    mul = make_group(mul_rows, name=mul_name, identity=e_mul)
    try:
        return assemble(add, mul)
    except LeftDistributivityFails as exc:
        if not e_add:
            raise
        back = {0: e_add, e_add: 0}
        raise LeftDistributivityFails(*(back.get(x, x) for x in exc.triple)) from None


def lambda_of(B: SkewBrace, a: int) -> Perm:
    """The additive automorphism b -> -a + a*b."""
    return B.lam[a]


def star(B: SkewBrace, a: int, b: int) -> int:
    """The star product -a + a*b - b, the gap between the two operations."""
    return B.add.table[B.lam[a][b]][B.add.inv[b]]


def opposite(B: SkewBrace) -> SkewBrace:
    """Same multiplication over the opposite additive group (a + b read
    as b + a). It is a skew brace whenever B is (Koch and Truman, J.
    Algebra 546 (2020)), so nothing is checked."""
    return _brace(_op(B.add), B.mul)


def swap(B: SkewBrace) -> Optional[SkewBrace]:
    """The structure with the two operations exchanged, when it is again a
    skew brace; None otherwise. Success is exactly the bi-skew property."""
    if _law_violation(B.mul, B.add.table) is not None:
        return None
    return _brace(B.mul, B.add)


def is_trivial(B: SkewBrace) -> bool:
    return B.mul.table == B.add.table


def is_almost_trivial(B: SkewBrace) -> bool:
    """Whether a*b = b + a for all a and b: the multiplication table is the
    transposed additive one."""
    return B.mul.table == tuple(zip(*B.add.table))


def is_two_sided(B: SkewBrace) -> bool:
    """Whether the mirrored law (b + c)*a = b*a - a + c*a also holds: the
    left law for the opposite multiplication, the transposed table."""
    return _law_violation(B.add, tuple(zip(*B.mul.table))) is None


def classify(B: SkewBrace) -> BraceFlags:
    trivial = is_trivial(B)
    almost = is_almost_trivial(B)
    # a trivial brace is almost trivial exactly when its group is abelian
    return BraceFlags(
        trivial=trivial,
        almost_trivial=almost,
        abelian=trivial and almost,
        two_sided=is_two_sided(B),
        bi_skew=swap(B) is not None,
    )


def from_group(G: FiniteGroup, mode: Literal["trivial", "almost_trivial"]) -> SkewBrace:
    """The trivial brace (a*b = a+b) or the almost trivial brace
    (a*b = b+a) on a group. Both satisfy the law for every group, so
    nothing is checked."""
    if mode == "trivial":
        return _brace(G, G)
    if mode == "almost_trivial":
        return _brace(G, _op(G))
    raise ValueError(f"unknown mode {mode!r}")
