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
group, whatever table * is.

When * is a group with identity 0, a need only run over T = mul.gens.
Let E be the set of a with mu_a additive. For a in E and any b,

    mu_(a*b)(x) = -(a*b) + a*(b*x) = -(a + mu_a(b)) + a + mu_a(b + mu_b(x))
                = -mu_a(b) - a + a + mu_a(b) + mu_a(mu_b(x)) = mu_a(mu_b(x)),

so for b in E as well mu_(a*b) is a composite of additive maps. E holds
0, whose mu is the identity, and is closed under *, so it is the whole
group once it holds T: the law is decided on the pairs (a, c) in T x S,
for every b, in O(n |T| |S|) work in place of n^3.

One loop, _law_failure, runs the law on (a, c) in T x S for every
caller. _law_holds answers yes or no from that alone: _is_bi_skew asks
it of (mul, add), which is the bi-skew property (Childs, New York J.
Math. 25 (2019)) that classify reads, and is_two_sided asks it of the
transposed multiplication, which is the mirrored law (Koch and Truman,
J. Algebra 546 (2020)). assemble (and so make_skew_brace) asks it too,
and only once the generators fail does it scan every a and c, to name
the first bad triple in its error. Each passes a group as the table
playing *: assemble a validated group, _is_bi_skew the additive group,
and is_two_sided the opposite multiplicative group, which the same
mul.gens generate.
Only tables from outside are checked: opposite braces, quotients by
ideals, from_group braces and catalog entries are skew braces by
theorem, each cited where it is built, so _brace builds them unchecked.

Up to order 256 each group has byte rows and columns, _rows and _cols,
and each side of the law at (a, c), for every b at once, is one or two
bytes.translate calls on them, and so is each lambda row, which the
brace keeps joined as bytes too for the Yang-Baxter map. Past order 256,
where one byte cannot hold an entry, each is an itemgetter over tuple
rows instead. Both paths name the same first bad triple.
"""

from __future__ import annotations

from functools import cached_property
from operator import itemgetter
from typing import Literal, NamedTuple, Optional, Sequence

from .errors import IdentityMismatch, LeftDistributivityFails
from .groups import (
    FiniteGroup,
    Flat,
    Perm,
    _Frozen,
    _flat_table,
    _group,
    _group_of_flat,
    find_identity,
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

    @cached_property
    def _lam_flat(self) -> bytes:
        """The lambda rows joined in one byte string, which the Yang-Baxter
        map reads up to order 256; _brace keeps the string it translated."""
        return b"".join(map(bytes, self.lam))

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

    Checks the compatibility law on the generators, then builds the lambda
    cache. Only when the generators fail is every a and c scanned, to
    raise LeftDistributivityFails at the first bad triple.
    """
    n = add.n
    if mul.n != n:
        raise ValueError(f"group orders differ: {n} vs {mul.n}")
    if not _law_holds(add, mul._rows, mul.gens):
        raise LeftDistributivityFails(*_law_failure(add, mul._rows, range(n), range(n)))
    return _brace(add, mul)


def _law_holds(
    add: FiniteGroup, mul_table: Sequence[Sequence[int]], mul_gens: Sequence[int]
) -> bool:
    """Whether the law holds on every triple, decided on a in mul_gens and
    c in add.gens alone; mul_table must be a group with identity 0,
    generated by mul_gens."""
    return _law_failure(add, mul_table, mul_gens, add.gens) is None


def _law_failure(
    add: FiniteGroup,
    mul_table: Sequence[Sequence[int]],
    as_: Sequence[int],
    cs: Sequence[int],
) -> Optional[tuple[int, int, int]]:
    """The first triple (a, b, c) with a in as_ and c in cs that breaks the
    law, in the order of a in as_, then b, then c; None when there is none.
    mul_table may be any table, its rows bytes or sequences of ints.

    Each side is one whole-row operation per (a, c). Up to order 256, with
    cols[c][b] = b + c the additive byte columns, each is a
    bytes.translate, whose table is a row or column padded to 256 bytes
    where it is read: a * (b + c) is cols[c] translated by row a, and
    (a*b - a) + a*c is row a translated by cols[-a], then by cols[a*c].
    Past it each is an itemgetter call over a row.
    """
    n = add.n
    inv = add.inv
    cols = add._cols  # cols[c][b] = b + c
    if n > 256:
        # at_plus(r) = (r[b + c] for every b), one getter per c
        steps = [(c, itemgetter(*cols[c])) for c in cs]
    else:
        pad = bytes(256 - n)
    for a in as_:
        mrow = mul_table[a]
        if n > 256:
            at_ab_minus_a = itemgetter(*itemgetter(*mrow)(cols[inv[a]]))
            # (c, a * (b + c), (a*b - a) + a*c), each for every b
            sides = ((c, at_plus(mrow), at_ab_minus_a(cols[mrow[c]])) for c, at_plus in steps)
        else:
            mrow = bytes(mrow)
            at_mrow = mrow + pad
            ab_minus_a = mrow.translate(cols[inv[a]] + pad)
            sides = (
                (c, cols[c].translate(at_mrow), ab_minus_a.translate(cols[mrow[c]] + pad))
                for c in cs
            )
        first = None
        for c, left, right in sides:
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
    nowhere else: row a is row -a of the additive table read at the
    entries of row a of the multiplicative one.

    Up to order 256 that is one bytes.translate of mul's byte row a by
    add's byte row -a, padded to 256 bytes; the brace keeps the rows
    joined as its _lam_flat, and reads its tuple rows off them n entries
    at a time. Past it, it is one itemgetter call."""
    n = add.n
    at = add._rows
    if n > 256:
        lam = tuple(itemgetter(*row)(at[a_inv]) for row, a_inv in zip(mul.table, add.inv))
        return SkewBrace(n=n, add=add, mul=mul, lam=lam)
    pad = bytes(256 - n)
    flat = b"".join([row.translate(at[a_inv] + pad) for row, a_inv in zip(mul._rows, add.inv)])
    B = SkewBrace(n=n, add=add, mul=mul, lam=tuple(zip(*[iter(flat)] * n)))
    B.__dict__["_lam_flat"] = flat  # where cached_property keeps it
    return B


def _op(G: FiniteGroup) -> FiniteGroup:
    """The opposite group, a o b = b * a: the transposed table."""
    return _group(G.columns, name=G.name + "^op" if G.name else "")


def make_skew_brace(
    add_table: Sequence[Sequence[int]],
    mul_table: Sequence[Sequence[int]],
) -> SkewBrace:
    """Validate both tables, normalize the shared identity to 0, and check
    the compatibility law. Raises IdentityMismatch if the two tables have
    different identity elements. Every error names cells, elements and
    triples in the labels of the tables as given."""
    if len(add_table) != len(mul_table):
        raise ValueError("additive and multiplicative tables differ in size")
    add_flat = _flat_table(add_table, "add")
    mul_flat = _flat_table(mul_table, "mul")
    return _skew_brace_of_flat(add_flat, mul_flat)


def _skew_brace_of_flat(add_flat: Flat, mul_flat: Flat) -> SkewBrace:
    """make_skew_brace on two tables of one size that _flat_table has
    already checked and flattened. Each table's identity is found once
    here."""
    e_add = find_identity(add_flat)
    e_mul = find_identity(mul_flat)
    if e_add is not None and e_mul is not None and e_add != e_mul:
        raise IdentityMismatch(e_add, e_mul)
    # _group_of_flat reports in the given labels, then moves the identity
    # to 0 by the transposition (0 e_add); both tables share that relabeling.
    add = _group_of_flat(add_flat, e_add)
    mul = _group_of_flat(mul_flat, e_mul)
    try:
        return assemble(add, mul)
    except LeftDistributivityFails as exc:
        if not e_add:
            raise
        back = {0: e_add, e_add: 0}
        raise LeftDistributivityFails(*(back.get(x, x) for x in exc.triple)) from None


def star(B: SkewBrace, a: int, b: int) -> int:
    """The star product -a + a*b - b, the gap between the two operations."""
    return B.add.table[B.lam[a][b]][B.add.inv[b]]


def opposite(B: SkewBrace) -> SkewBrace:
    """Same multiplication over the opposite additive group (a + b read
    as b + a). It is a skew brace whenever B is (Koch and Truman, J.
    Algebra 546 (2020)), so nothing is checked."""
    return _brace(_op(B.add), B.mul)


def _is_bi_skew(B: SkewBrace) -> bool:
    """Whether the law holds with the operations exchanged: (B,*) as the
    additive group, + as the multiplication. Both are groups with identity
    0, so this alone makes the swapped structure a skew brace."""
    return _law_holds(B.mul, B.add._rows, B.add.gens)


def is_trivial(B: SkewBrace) -> bool:
    return B.mul.table == B.add.table


def is_almost_trivial(B: SkewBrace) -> bool:
    """Whether a*b = b + a for all a and b: the multiplication table is the
    transposed additive one."""
    return B.mul._rows == B.add._cols


def is_two_sided(B: SkewBrace) -> bool:
    """Whether the mirrored law (b + c)*a = b*a - a + c*a also holds: the
    left law for the opposite multiplication, the transposed table."""
    return _law_holds(B.add, B.mul._cols, B.mul.gens)


def classify(B: SkewBrace) -> BraceFlags:
    trivial = is_trivial(B)
    almost = is_almost_trivial(B)
    # a trivial brace is almost trivial exactly when its group is abelian
    return BraceFlags(
        trivial=trivial,
        almost_trivial=almost,
        abelian=trivial and almost,
        two_sided=is_two_sided(B),
        bi_skew=_is_bi_skew(B),
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
