"""Exact multivariate polynomial arithmetic over Q or a prime field.

Coefficients are `fractions.Fraction` in characteristic 0 and plain ints
reduced mod p in characteristic p (p an odd prime; characteristic 2 is
rejected because the identities this package works with need 2 invertible).

Monomials are exponent tuples at the API boundary.  Internally each
monomial is a single integer: 16 bits per variable, x1 in the most
significant field, one guard bit per field.  Plain integer comparison then
realizes lex with x1 > x2 > ..., and divisibility tests run borrow-free.
Exponents must stay below 2**15; every computation in this package stays
orders of magnitude under that, and a product or power that would pass it
raises ValueError instead of carrying into the next variable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

_BITS = 16
_EMAX = (1 << 15) - 1
_FMASK = (1 << _BITS) - 1
# packed % (2**16 - 1) == sum of the 16-bit fields mod 2**16 - 1: the total
# degree while it stays below 65535 (the reverse-lex key relies on that range)
_DEGMOD = _FMASK
# The exact total degree: m + (m >> 16) sums each pair of adjacent fields
# into the low half of a 32-bit word (below 2**16, so nothing carries),
# _PAIRS keeps those halves, and as 2**32 = 1 modulo _WORDMOD, a divisor of
# 2**32 - 1 below 2**30, the remainder is the sum of the words.  Exact for
# every ring of at most _MAXVARS variables: the degree stays below
# _MAXVARS * 2**15 < _WORDMOD.
_MAXVARS = 4096
_PAIRS = int.from_bytes(b"\xff\xff\x00\x00" * (_MAXVARS // 2), "little")
_WORDMOD = ((1 << 32) - 1) // 5


def _degree(m):
    return ((m + (m >> _BITS)) & _PAIRS) % _WORDMOD


def _deglex_key(m):
    # _degree inlined: the key runs once per term in every deglex max
    return ((m + (m >> _BITS)) & _PAIRS) % _WORDMOD, m


def _lex_key(m):
    return m


class ParseError(ValueError):
    """Raised on malformed polynomial text; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (position {position})")
        self.position = position


class RingMismatchError(ValueError):
    """Raised when operands belong to different rings."""


def _is_prime(k):
    if k < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if k % q == 0:
            return k == q
    d, s = k - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, k)
        if x in (1, k - 1):
            continue
        for _ in range(s - 1):
            x = x * x % k
            if x == k - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class MonomialOrder:
    """A monomial order: 'lex' or 'deglex'.

    Lex on packed monomials is plain integer comparison, so it also
    serves as the elimination order for auxiliary variables prepended by
    `extend`: any monomial involving one of them ranks above every
    monomial in the original variables.
    """

    kind: str

    def __post_init__(self):
        if self.kind not in ("lex", "deglex"):
            raise ValueError(f"unknown monomial order {self.kind!r}")

    @property
    def is_lexlike(self):
        return self.kind == "lex"

    def key(self):
        """Sort key on packed monomials; larger key means larger monomial."""
        return _deglex_key if self.kind == "deglex" else _lex_key


LEX = MonomialOrder("lex")
DEGLEX = MonomialOrder("deglex")


@dataclass(frozen=True)
class _RevlexOrder:
    """Degree reverse-lex with xN > ... > x2 > x1: x1 is the smallest variable.

    Internal to colon and saturation by a variable (see `ideal_ops`).
    Multiplying a packed monomial by ONES (a 1 in every field) packs the
    prefix sums S_j = e_1 + ... + e_j into the fields above the N-th;
    among monomials of one degree a smaller S_1, then S_2, ..., is larger.
    The key is exact while degrees stay below 2**16 (no field of the
    product carries), so it raises once a degree reaches 2**15 instead of
    mis-ordering.  With generators below 2**15 (checked by the caller,
    since the key's degree wraps at 2**16 - 1), Buchberger's pairs of
    elements below 2**15 have lcms below 2**16, which the key sees and
    rejects before any polynomial of that degree is formed.
    """

    nvars: int
    kind = "degrevlex"
    is_lexlike = False

    def key(self):
        return self._key

    @cached_property
    def _key(self):
        # built once per order: Polynomial._lm_packed asks for it per polynomial
        ones = sum(1 << (i * _BITS) for i in range(self.nvars))
        shift = self.nvars * _BITS

        def key(m):
            d = m % _DEGMOD
            if d > _EMAX:
                raise ValueError(
                    "degree reached 2**15, past the range of the reverse-lex order"
                )
            return d, -((m * ones) >> shift)

        return key


class Ring:
    """Polynomial ring K[x1..xN] with K = Q (char 0) or GF(p) (odd prime p).

    Parameters
    ----------
    nvars : int
        Number of variables, from 1 to 4096.
    char : int, optional
        Field characteristic: 0 for Q, otherwise an odd prime.
    names : tuple of str, optional
        Variable names, largest first.  Defaults to x1..xN; only ring
        extensions use custom names (auxiliary variables prepended).
    """

    __slots__ = ("nvars", "char", "names", "guard")

    def __init__(self, nvars, char=0, names=None):
        if not isinstance(nvars, int) or nvars < 1:
            raise ValueError("a ring needs at least one variable")
        if nvars > _MAXVARS:
            raise ValueError(f"a ring has at most {_MAXVARS} variables")
        if char:
            if char == 2:
                raise ValueError(
                    "characteristic 2 is not supported: the permanental "
                    "identities need 2 to be invertible"
                )
            if not _is_prime(char):
                raise ValueError(f"characteristic must be 0 or a prime, got {char}")
        if names is None:
            names = tuple(f"x{i}" for i in range(1, nvars + 1))
        else:
            names = tuple(names)
            if len(names) != nvars or len(set(names)) != nvars:
                raise ValueError("need one distinct name per variable")
        self.nvars = nvars
        self.char = char
        self.names = names
        self.guard = sum(1 << (i * _BITS + 15) for i in range(nvars))

    def __eq__(self, other):
        if not isinstance(other, Ring):
            return NotImplemented
        return (
            self.nvars == other.nvars
            and self.char == other.char
            and self.names == other.names
        )

    def __hash__(self):
        return hash((self.nvars, self.char, self.names))

    def __repr__(self):
        k = "QQ" if self.char == 0 else f"GF({self.char})"
        return f"Ring({k}[{', '.join(self.names)}])"

    # -- coefficient field -------------------------------------------------

    def coeff(self, c):
        """Coerce an int or Fraction into the coefficient field."""
        if isinstance(c, float):
            raise TypeError("floating point coefficients are not exact")
        if self.char == 0:
            return Fraction(c)
        if isinstance(c, Fraction):
            return c.numerator * pow(c.denominator, -1, self.char) % self.char
        return int(c) % self.char

    def inv(self, c):
        """Multiplicative inverse in the coefficient field."""
        if self.char == 0:
            if not c:
                raise ZeroDivisionError("inverse of zero")
            return Fraction(1) / c
        c %= self.char
        if not c:
            raise ZeroDivisionError("inverse of zero")
        return pow(c, -1, self.char)

    # -- packed monomials --------------------------------------------------

    def pack(self, exps):
        """Pack an exponent tuple into a single integer."""
        if len(exps) != self.nvars:
            raise ValueError(f"expected {self.nvars} exponents, got {len(exps)}")
        m = 0
        for e in exps:
            if not 0 <= e <= _EMAX:
                raise ValueError(f"exponent {e} out of range 0..{_EMAX}")
            m = (m << _BITS) | e
        return m

    def unpack(self, m):
        """Exponent tuple of a packed monomial."""
        out = []
        for _ in range(self.nvars):
            out.append(m & _FMASK)
            m >>= _BITS
        return tuple(reversed(out))

    def deg(self, m):
        """Total degree of a packed monomial."""
        return _degree(m)

    def mono_div(self, a, b):
        """Packed quotient a/b, or None when b does not divide a."""
        g = self.guard
        t = (a | g) - b
        if t & g == g:
            return t ^ g
        return None

    def mono_lcm(self, a, b):
        g = self.guard
        keep = (((b | g) - a & g) >> 15) * _FMASK  # fields where b >= a
        return (b & keep) | (a & ~keep)

    def mono_gcd(self, a, b):
        g = self.guard
        keep = (((b | g) - a & g) >> 15) * _FMASK
        return (a & keep) | (b & ~keep)

    def support(self, m):
        """Indices (1-based) of the variables occurring in a packed monomial."""
        out = []
        for i in range(self.nvars, 0, -1):
            if m & _FMASK:
                out.append(i)
            m >>= _BITS
        return tuple(reversed(out))

    def compare(self, a, b, order=LEX):
        """Compare two exponent tuples under the given order: -1, 0 or 1."""
        key = order.key()
        ka, kb = key(self.pack(a)), key(self.pack(b))
        return (ka > kb) - (ka < kb)

    # -- polynomial builders -----------------------------------------------

    def zero(self):
        return Polynomial._raw(self, {})

    def one(self):
        return self.const(1)

    def const(self, c):
        c = self.coeff(c)
        return Polynomial._raw(self, {0: c} if c else {})

    def var(self, i):
        """The variable x_i (1-based)."""
        if not 1 <= i <= self.nvars:
            raise ValueError(f"variable index {i} out of range 1..{self.nvars}")
        return Polynomial._raw(
            self, {1 << ((self.nvars - i) * _BITS): self.coeff(1)}
        )

    def monomial(self, exps, c=1):
        c = self.coeff(c)
        return Polynomial._raw(self, {self.pack(exps): c} if c else {})

    def poly(self, terms):
        """Polynomial from (coefficient, exponent tuple) pairs; like terms combine."""
        d = {}
        for c, exps in terms:
            c = self.coeff(c)
            m = self.pack(exps)
            v = d.get(m)
            v = c if v is None else v + c
            if self.char:
                v %= self.char
            d[m] = v
        return Polynomial._raw(self, {m: c for m, c in d.items() if c})


class Polynomial:
    """Immutable exact polynomial attached to a Ring.

    Supports +, -, * (with ints and Fractions coerced to constants) and
    ** with nonnegative integer exponents.  Equality is exact term-by-term
    equality; no monomial order is attached to the value.
    """

    __slots__ = ("ring", "_d", "_hash")

    @classmethod
    def _raw(cls, ring, d):
        # trusted constructor: d maps packed monomials to nonzero normalized
        # coefficients and is owned by the new instance
        self = object.__new__(cls)
        self.ring = ring
        self._d = d
        self._hash = None
        return self

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self):
        return not self._d

    def __bool__(self):
        return bool(self._d)

    def __len__(self):
        return len(self._d)

    def total_degree(self):
        """Largest term degree, or -1 for the zero polynomial."""
        if not self._d:
            return -1
        return max(map(self.ring.deg, self._d))

    def terms(self, order=LEX):
        """Terms as (coefficient, exponent tuple) pairs, largest monomial first."""
        key = order.key()
        unpack = self.ring.unpack
        return [
            (c, unpack(m))
            for m, c in sorted(self._d.items(), key=lambda t: key(t[0]), reverse=True)
        ]

    def leading_term(self, order=LEX):
        """(coefficient, exponent tuple) of the largest monomial."""
        if not self._d:
            raise ValueError("the zero polynomial has no leading term")
        m = self._lm_packed(order)
        return self._d[m], self.ring.unpack(m)

    def leading_monomial(self, order=LEX):
        return self.ring.unpack(self._lm_packed(order))

    def leading_coefficient(self, order=LEX):
        return self._d[self._lm_packed(order)]

    def _lm_packed(self, order=LEX):
        if not self._d:
            raise ValueError("the zero polynomial has no leading term")
        if order.is_lexlike or len(self._d) == 1:
            return max(self._d)
        return max(self._d, key=order.key())

    def coefficient(self, exps):
        """Coefficient of the given exponent tuple (zero when absent)."""
        c = self._d.get(self.ring.pack(exps))
        if c is None:
            return self.ring.coeff(0)
        return c

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                raise RingMismatchError("operands belong to different rings")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.const(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        d = dict(self._d)
        p = self.ring.char
        for m, c in other._d.items():
            v = d.get(m)
            v = c if v is None else (v + c) % p if p else v + c
            if v:
                d[m] = v
            elif m in d:
                del d[m]
        return Polynomial._raw(self.ring, d)

    __radd__ = __add__

    def __neg__(self):
        p = self.ring.char
        if p:
            return Polynomial._raw(self.ring, {m: p - c for m, c in self._d.items()})
        return Polynomial._raw(self.ring, {m: -c for m, c in self._d.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._d, other._d
        if len(a) > len(b):
            a, b = b, a
        d = {}
        get = d.get
        p = self.ring.char
        seen = 0
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = m1 + m2
                seen |= m
                v = get(m)
                v = c1 * c2 if v is None else v + c1 * c2
                d[m] = v % p if p else v
        if seen & self.ring.guard:
            # two fields below 2**15 sum below 2**16: the guard bit is the carry
            raise ValueError(f"exponent overflow: a product exponent exceeds {_EMAX}")
        return Polynomial._raw(self.ring, {m: c for m, c in d.items() if c})

    __rmul__ = __mul__

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            raise ValueError("only nonnegative integer powers are defined")
        out = self.ring.one()
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base if e > 1 else base
            e >>= 1
        return out

    # -- comparison ----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self._d == other._d

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, frozenset(self._d.items())))
        return self._hash

    # -- display -------------------------------------------------------------

    def format(self, order=LEX):
        """Render as text, terms descending under the order; parseable back."""
        if not self._d:
            return "0"
        ring = self.ring
        key = order.key()
        parts = []
        for m, c in sorted(self._d.items(), key=lambda t: key(t[0]), reverse=True):
            neg = ring.char == 0 and c < 0
            body = _term_str(ring, m, -c if neg else c)
            if not parts:
                parts.append("-" + body if neg else body)
            else:
                parts.append((" - " if neg else " + ") + body)
        return "".join(parts)

    def __str__(self):
        return self.format()

    def __repr__(self):
        return f"<{self.format()}>"


def _term_str(ring, m, c):
    mono = []
    for name, e in zip(ring.names, ring.unpack(m)):
        if e == 1:
            mono.append(name)
        elif e:
            mono.append(f"{name}^{e}")
    if not mono:
        return str(c)
    s = "*".join(mono)
    return s if c == 1 else f"{c}*{s}"


# -- parsing ------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|x(\d+)|([+\-*/^]))")


def _tokenize(text):
    toks = []
    pos = 0
    while pos < len(text):
        mt = _TOKEN_RE.match(text, pos)
        if mt is None or mt.end() == pos:
            at = pos + len(text[pos:]) - len(text[pos:].lstrip())
            if at >= len(text):
                break
            raise ParseError(f"unexpected character {text[at]!r}", at)
        num, var, op = mt.groups()
        at = mt.end() - len(mt.group().lstrip())
        if num is not None:
            toks.append(("int", int(num), at))
        elif var is not None:
            toks.append(("var", int(var), at))
        else:
            toks.append((op, op, at))
        pos = mt.end()
    toks.append(("end", None, len(text)))
    return toks


def parse(text, ring):
    """Parse polynomial text into the given ring.

    Grammar: an optional leading '-', then terms joined by '+' or '-'.
    A term is an integer or rational coefficient (INT or INT/INT),
    optionally times a product of factors, or a bare product of factors.
    A factor is x<i> with an optional '^' INT.  Examples: "x1*x3 + x2^2",
    "-3/2*x2^2*x5", "0".

    Raises ParseError (with a position) on malformed input, unknown
    variables, or variable indices outside the ring.
    """
    toks = _tokenize(text)
    i = 0
    if toks[i][0] == "-":
        sign = -1
        i += 1
    else:
        sign = 1
    acc = {}
    while True:
        i = _parse_term(toks, i, ring, sign, acc)
        kind, _, at = toks[i]
        if kind == "end":
            break
        if kind == "+":
            sign = 1
        elif kind == "-":
            sign = -1
        else:
            raise ParseError("expected '+' or '-'", at)
        i += 1
    return Polynomial._raw(ring, {m: c for m, c in acc.items() if c})


def _parse_term(toks, i, ring, sign, acc):
    kind, val, at = toks[i]
    exps = [0] * ring.nvars
    if kind == "int":
        num = val
        i += 1
        den = 1
        if toks[i][0] == "/":
            i += 1
            k2, v2, a2 = toks[i]
            if k2 != "int":
                raise ParseError("expected an integer denominator", a2)
            if v2 == 0:
                raise ParseError("zero denominator", a2)
            den = v2
            i += 1
        if toks[i][0] == "*":
            i = _parse_factors(toks, i + 1, ring, exps)
        c = Fraction(sign * num, den)
    elif kind == "var":
        i = _parse_factors(toks, i, ring, exps)
        c = Fraction(sign)
    else:
        raise ParseError("expected a term", at)
    c = ring.coeff(c)
    if c:
        m = ring.pack(exps)
        v = acc.get(m)
        v = c if v is None else v + c
        if ring.char:
            v %= ring.char
        acc[m] = v
    return i


def _parse_factors(toks, i, ring, exps):
    while True:
        kind, idx, at = toks[i]
        if kind != "var":
            raise ParseError("expected a variable", at)
        if not 1 <= idx <= ring.nvars:
            raise ParseError(
                f"unknown variable x{idx}: ring has {ring.nvars} variables", at
            )
        i += 1
        e = 1
        if toks[i][0] == "^":
            k2, v2, a2 = toks[i + 1]
            if k2 != "int":
                raise ParseError("expected an integer exponent", a2)
            if v2 > _EMAX:
                raise ParseError(f"exponent {v2} too large", a2)
            e = v2
            i += 2
        exps[idx - 1] += e
        if toks[i][0] != "*":
            return i
        i += 1


# -- ring extensions -----------------------------------------------------------


def extend(ring, names=("t",)):
    """Extension of a ring with auxiliary variables prepended as the largest.

    The packed layout keeps every original variable in the same bit field,
    so lifting and restricting polynomials is a reinterpretation, not a
    recomputation.
    """
    names = tuple(names)
    if any(nm in ring.names for nm in names):
        raise ValueError("auxiliary names clash with ring variables")
    return Ring(ring.nvars + len(names), ring.char, names + ring.names)


def lift(f, ext):
    """Reinterpret f inside an extension of its ring."""
    base = f.ring
    assert ext.char == base.char and ext.names[ext.nvars - base.nvars :] == base.names
    return Polynomial._raw(ext, dict(f._d))


def restrict(f, base):
    """Map f down to a base ring; it must not touch the auxiliary variables."""
    assert base.char == f.ring.char
    bound = 1 << (base.nvars * _BITS)
    assert all(m < bound for m in f._d), "polynomial touches auxiliary variables"
    return Polynomial._raw(base, dict(f._d))
