"""Exception types shared across the toolkit.

Validation errors carry the first offending element or triple so that a
failure report can point at concrete table entries.
"""

from __future__ import annotations

import copyreg


class SkewBraceKitError(Exception):
    """Base class for all errors raised by this package."""

    def __reduce__(self):
        # Subclass constructors take other arguments than the message kept
        # in args; unpickle (as in a worker process) without calling them.
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class BadInput(SkewBraceKitError):
    """Malformed input: JSON payload, table shape or option value."""


class GroupTooLarge(SkewBraceKitError):
    def __init__(self, n: int, cap: int):
        super().__init__(f"group order {n} exceeds the supported cap {cap}")
        self.n = n
        self.cap = cap


class NoIdentity(SkewBraceKitError):
    def __init__(self) -> None:
        super().__init__("table has no two-sided identity element")


class NotLatinSquare(SkewBraceKitError):
    def __init__(self, kind: str, index: int):
        super().__init__(f"{kind} {index} is not a permutation of 0..n-1")
        self.kind = kind
        self.index = index


class NotAssociative(SkewBraceKitError):
    def __init__(self, i: int, j: int, k: int):
        super().__init__(f"associativity fails at triple ({i}, {j}, {k})")
        self.triple = (i, j, k)


class NotPrime(SkewBraceKitError):
    def __init__(self, p: int):
        super().__init__(f"{p} is not prime")
        self.p = p


class IdentityMismatch(SkewBraceKitError):
    def __init__(self, add_identity: int, mul_identity: int):
        super().__init__(
            f"additive identity {add_identity} differs from "
            f"multiplicative identity {mul_identity}"
        )
        self.add_identity = add_identity
        self.mul_identity = mul_identity


class LeftDistributivityFails(SkewBraceKitError):
    def __init__(self, a: int, b: int, c: int):
        super().__init__(
            f"compatibility law a(b+c) = ab - a + ac fails at ({a}, {b}, {c})"
        )
        self.triple = (a, b, c)


class NotAnIdeal(SkewBraceKitError):
    def __init__(self, carrier: int):
        super().__init__(f"subset with mask {carrier:#x} is not an ideal")
        self.carrier = carrier


class PrimeDoesNotDivideOrder(SkewBraceKitError):
    def __init__(self, p: int, n: int):
        super().__init__(f"prime {p} does not divide the order {n}")
        self.p = p
        self.n = n


class UnsupportedOrder(SkewBraceKitError):
    def __init__(self, n: int, cap: int):
        super().__init__(f"order {n} is outside the supported range 1..{cap}")
        self.n = n
        self.cap = cap

