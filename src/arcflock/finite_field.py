"""Exact arithmetic in GF(2^h), 1 <= h <= 16.

Field elements are plain ints in [0, 2^h): bit i holds the coefficient of
x^i in the polynomial basis, so addition is XOR.  A field is described by
its extension degree h and an irreducible modulus of degree h encoded the
same way.  Unless a modulus is supplied explicitly, the lexicographically
least irreducible polynomial of degree h (coefficient vector read as an
integer) is chosen, which pins every numeric value this package produces.

Multiplication, inversion and square roots run on log/exp tables over the
least generator of the multiplicative group, the first g whose powers take
q - 1 steps to return to 1, found by the order test g^((q-1)/p) != 1 for
each prime p dividing q - 1 and walked by byte tables; the square root of a is
a^(2^(h-1)), one table lookup; a rotation of the exp table lists the
multiples of one element, indexed by log.  The absolute trace
a -> a + a^2 + ... + a^(2^(h-1)) is evaluated through a precomputed
GF(2)-linear mask.

The trace form (a, b) -> trace(a b) is nondegenerate, so the polynomial
basis 1, x, ..., x^(h-1) has a trace-dual basis d_0, ..., d_(h-1) with
trace(x^j d_i) = [i = j]; it is the inverse of the Gram matrix
trace(x^(i+j)) over GF(2), computed once per field.  An element mu then has
trace coordinates v_j = trace(x^j mu), and trace(c mu) = parity(c & v) for
every c: the bits of c are the coefficients of a linear form in v.
One GF(2) row reduction of equations packed one per int, gf2_add_rows then
gf2_back_substitute, inverts that Gram matrix and solves every trace system.

The module also holds the two bases of the package's value classes, _Value
and _FrozenValue: equality, hashing and repr are read off a class's
__slots__, so no class is generated from source when a module loads.
"""

from __future__ import annotations

import functools
from typing import Iterable, Optional, Sequence, TypeVar

MAX_H = 16

_T = TypeVar("_T")


def _polymod(a: int, m: int) -> int:
    """Remainder of a modulo m in GF(2)[x]."""
    dm = m.bit_length()
    while a.bit_length() >= dm:
        a ^= m << (a.bit_length() - dm)
    return a


def is_irreducible(poly: int, h: int) -> bool:
    """Whether poly encodes an irreducible polynomial of degree exactly h."""
    if poly < 0 or poly.bit_length() - 1 != h or not poly & 1:
        return False
    if h == 1:
        return True
    # trial division by every polynomial of degree 1 .. h // 2
    for d in range(2, 1 << (h // 2 + 1)):
        if _polymod(poly, d) == 0:
            return False
    return True


def least_irreducible(h: int) -> int:
    """The lexicographically least irreducible polynomial of degree h."""
    _check_field_args(h, None)
    for cand in range((1 << h) + 1, 1 << (h + 1), 2):
        if is_irreducible(cand, h):
            return cand
    raise AssertionError(f"no irreducible polynomial of degree {h}")


def _polypow(g: int, e: int, m: int) -> int:
    """g^e modulo m in GF(2)[x], by square and multiply."""
    r = 1
    for bit in bin(e)[2:]:
        r = _polymod(_polymul(r, r), m)
        if bit == "1":
            r = _polymod(_polymul(r, g), m)
    return r


def _polymul(a: int, b: int) -> int:
    """The product of a and b in GF(2)[x] (carry-less)."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def _build_log_exp(q: int, modulus: int) -> tuple[list[int], list[int]]:
    """exp and log over the least generator g; x -> g x is GF(2)-linear: two byte-table lookups.

    g generates the multiplicative group exactly when g^((q-1)/p) != 1 for
    every prime p dividing q - 1, so only g's own cycle is walked.
    """
    def times_bytes(c: int) -> list[int]:
        table = [0]
        for j in range(8):
            cj = _polymod(c << j, modulus)
            table += [v ^ cj for v in table]
        return table

    n = rest = q - 1
    primes, p = [], 2  # the primes dividing n, by trial division
    while p * p <= rest:
        if rest % p == 0:
            primes.append(p)
            while rest % p == 0:
                rest //= p
        p += 1
    primes += [rest] * (rest > 1)
    g = next((g for g in range(1, q) if all(_polypow(g, n // p, modulus) != 1 for p in primes)), 0)
    # an element is one or two bytes: below q = 2^8 the high byte is 0
    low, high = times_bytes(g), times_bytes(_polymod(g << 8, modulus)) if q > 256 else [0]
    exp, x = [1], g
    while x != 1 and len(exp) < q:
        exp.append(x)
        x = low[x & 255] ^ high[x >> 8]
    if len(exp) != n:
        raise ValueError("multiplicative group is not cyclic; modulus is not irreducible")
    log = [0] * q
    for i, v in enumerate(exp):
        log[v] = i
    return exp, log


def gf2_add_rows(echelon: list[int], eqs: Iterable[int], width: int) -> int:
    """Add equations parity(row & x) = b, each the int row << width | b, to an echelon.

    A b of several bits is one system per bit.  The echelon, k + width + 1
    entries for k unknowns, holds at index n 0 or the stored equation of bit
    length n, which never changes.  Returns the OR of what is left of b where a
    row reduces to zero, nonzero exactly when an equation contradicts those
    before; with b = 1 << i on row i, row i leaves the rows that sum to zero.
    """
    top, left = 1 << width, 0
    for e in eqs:
        while e >= top:
            p = echelon[n := e.bit_length()]
            if not p:
                echelon[n] = e
                break
            e ^= p
        else:
            left |= e
    return left


def gf2_back_substitute(echelon: list[int], width: int) -> list[tuple[int, int, int]]:
    """The reduced row echelon form of an echelon: (pivot, row, b), pivots ascending."""
    reduced: list[tuple[int, int]] = []
    for e in filter(None, echelon):  # pivots ascending: lower ones leave e's bit length
        for m, p in reduced:
            if e >> m & 1:
                e ^= p
        reduced.append((e.bit_length() - 1, e))
    low = (1 << width) - 1
    return [(m - width, e >> width, e & low) for m, e in reduced]


class GF:
    """GF(2^h); immutable, hashable, with elements represented as ints."""

    __slots__ = ("h", "q", "modulus", "_exp", "_log", "_trace_mask", "_dual_basis")

    def __init__(self, h: int, modulus: Optional[int] = None):
        _check_field_args(h, modulus)
        if modulus is None:
            modulus = least_irreducible(h)
        elif not is_irreducible(modulus, h):
            raise ValueError(
                f"modulus {modulus:#b} is not an irreducible polynomial of degree {h}"
            )
        self.h = h
        self.q = 1 << h
        self.modulus = modulus
        self._exp, self._log = _build_log_exp(self.q, modulus)
        self._trace_mask = self._build_trace_mask()
        self._dual_basis = self._build_dual_basis()

    # -- construction helpers -------------------------------------------------

    def _build_trace_mask(self) -> int:
        # trace is GF(2)-linear, so one bit per basis element suffices
        mask = 0
        for i in range(self.h):
            e = 1 << i
            acc = x = e
            for _ in range(self.h - 1):
                x = self.mul(x, x)
                acc ^= x
            if acc == 1:
                mask |= 1 << i
            elif acc:
                raise AssertionError("trace landed outside the prime field")
        return mask

    def _build_dual_basis(self) -> tuple[int, ...]:
        # row j of the Gram matrix trace(x^(i+j)) above b = 1 << j, reduced to the identity:
        # pivot i carries row i of the inverse, the coefficients of d_i; none may contradict
        h, echelon = self.h, [0] * (2 * self.h + 1)
        gram = [sum(self.trace(self.mul(1 << i, 1 << j)) << i for i in range(h)) << h | 1 << j
                for j in range(h)]
        if gf2_add_rows(echelon, gram, h):
            raise AssertionError("the trace form is degenerate")
        return tuple(b for _, _, b in gf2_back_substitute(echelon, h))

    # -- identity -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GF) and (self.h, self.modulus) == (other.h, other.modulus)

    def __hash__(self) -> int:
        return hash((self.h, self.modulus))

    def __repr__(self) -> str:
        return f"GF(2^{self.h}, modulus={self.modulus:#b})"

    # -- element ranges ---------------------------------------------------------

    def elements(self) -> range:
        return range(self.q)

    def nonzero_elements(self) -> range:
        return range(1, self.q)

    def is_element(self, v: object) -> bool:
        """Whether v is a field element: an int, not a bool, in [0, q)."""
        return type(v) is int and 0 <= v < self.q

    # -- arithmetic -------------------------------------------------------------

    @staticmethod
    def add(a: int, b: int) -> int:
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self._exp[-self._log[a] % (self.q - 1)]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def div_many(self, a: int, bs: Sequence[int], shift: int = 0, plus: int = 0) -> list[int]:
        """[plus ^ div(a, b ^ shift) for b in bs]: log a - log(b ^ shift) indexes exp, wrapping."""
        if shift in bs:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        exp, log, k, out = self._exp, self._log, self._log[a], []
        for b in bs:  # a loop, as a comprehension would read these through cells
            out.append(plus ^ exp[k - log[b ^ shift]])
        return out if a else [plus] * len(bs)

    def square(self, a: int) -> int:
        return self.mul(a, a)

    def sqrt(self, a: int) -> int:
        """The unique square root a^(2^(h-1)): squaring is a field automorphism here.

        Hot arithmetic, like mul: a is not checked, and a value outside the
        field raises IndexError or gives a meaningless result.  Callers check
        at their entry, as mathon_arcs.quadric_points does.
        """
        if a == 0:
            return 0
        return self._exp[(self._log[a] << (self.h - 1)) % (self.q - 1)]

    def log_index(self, a: int) -> int:
        """Where mul(b, a) sits in scaled_powers(b): log a, and q - 1 for a = 0."""
        return self._log[a] if a else self.q - 1

    def scaled_powers(self, b: int) -> list[int]:
        """b times each power of the generator, then 0: a row indexed by log_index.

        Row b is the exp table rotated by log b, so all q rows cost q
        list copies and no multiplications.
        """
        if b == 0:
            return [0] * self.q
        k = self._log[b]
        return self._exp[k:] + self._exp[:k] + [0]

    def trace(self, a: int) -> int:
        """Absolute trace onto GF(2)."""
        return (a & self._trace_mask).bit_count() & 1

    def from_trace_coordinates(self, v: int) -> int:
        """The mu with trace(x^j * mu) = bit j of v: the XOR of the d_i over v's bits."""
        mu = 0
        for d in self._dual_basis:
            if v & 1:
                mu ^= d
            v >>= 1
        return mu

    def additive_span(self, generators: Iterable[int]) -> set[int]:
        """The GF(2)-linear span of the given elements (always contains 0)."""
        span = {0}
        for g in generators:
            if not self.is_element(g):
                raise ValueError(f"element {g!r} is outside GF(2^{self.h})")
            if g not in span:
                span |= {g ^ s for s in span}
        return span

    # -- serialization ------------------------------------------------------------

    def to_json(self) -> dict:
        return {"h": self.h, "modulus": self.modulus}

    @staticmethod
    def from_json(obj: dict) -> "GF":
        if not isinstance(obj, dict) or set(obj) != {"h", "modulus"}:
            raise ValueError("field object must have exactly the keys 'h' and 'modulus'")
        h, modulus = obj["h"], obj["modulus"]
        if type(h) is not int or type(modulus) is not int:
            raise ValueError("field 'h' and 'modulus' must be integers")
        return make_field(h, modulus)


def _check_field_args(h: object, modulus: object) -> None:
    """Refuse a degree or modulus of the wrong type, or a degree outside 1..MAX_H."""
    if type(h) is not int or not 1 <= h <= MAX_H:
        raise ValueError(f"extension degree must be an int in 1..{MAX_H}, got {h!r}")
    if modulus is not None and type(modulus) is not int:
        raise ValueError(f"modulus must be an int, got {modulus!r}")


#: one GF per (h, modulus) argument pair; only ints and None reach it, so True is not 1
_field = functools.lru_cache(maxsize=None)(GF)


def make_field(h: int, modulus: Optional[int] = None) -> GF:
    """GF(2^h) with the default (least irreducible) or a caller-chosen modulus, built once."""
    _check_field_args(h, modulus)  # before the cache hashes them
    return _field(h, modulus)


make_field.cache_info = _field.cache_info  # the field cache's figures, as lru_cache gives them


def check_kind(value: object, kind: type[_T], role: str) -> _T:
    """The value, if it is an instance of kind; else the one refusal of a wrong-kind argument.

    Every entry that takes a field, conic, arc, flock or group spec checks it
    here, e.g. check_kind(gf, GF, "field") or check_kind(spec, GroupSpec,
    "spec").gf, so a wrong kind raises ValueError naming its role.
    """
    if not isinstance(value, kind):
        raise ValueError(f"the {role} must be a {kind.__name__}, got {value!r}")
    return value


# -- value classes ------------------------------------------------------------------


class _Value:
    """Base of a mutable value class: type-strict ==, repr and copying from its __slots__.

    A subclass lists its fields as __slots__, in constructor order, and its
    __init__ checks its arguments, then stores them.  Being mutable, it is
    unhashable; the repr is Name(field=value, ...).
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None  # mutable, so unhashable

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        # rebuilt by its constructor, so copy and pickle need no attribute store
        return self.__class__, self._fields()


class _FrozenValue(_Value):
    """A _Value that hashes its field tuple and refuses assignment.

    As __setattr__ refuses, __init__ stores each field through its slot's own
    setter, listed in _setters in slot order: one C-level call, with no name
    lookup as object.__setattr__ makes.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
