"""Exact scalar calculus on a coordinate chart with torus angles.

A :class:`Scalar` is a finite sum of monomials

    c * pi^a * x1^e1 * ... * th^k * trig(m1*th1) * trig(m2*th2) * ...

with ``c`` rational, ``x*`` chart coordinates and ``trig`` either ``sin`` or
``cos`` applied to a positive integer multiple of one chart angle.  The
canonical form keeps at most one trigonometric factor per angle: products of
harmonics in the same angle are rewritten to linear harmonics with the
product-to-sum identities.  No floating point enters any operation here;
coefficients live in Q adjoined the symbol ``pi``, which only appears
through exact averages of bare angle powers.

Bare (polynomial) angle powers are not produced by the input grammar, but
they arise internally as antiderivatives of constant Fourier terms and are
fully supported by differentiation, substitution and exact averaging.

Coefficients follow the layout of FLINT's ``fmpq_poly``: a scalar keeps one
integer numerator per monomial and one positive denominator shared by all
of them, coprime to the gcd of the numerators and 1 for zero.  Equality of
expressions is then equality of (chart, numerators, denominator), and
``zero`` is the empty sum over 1.  Every operation runs on integers and ends
with one content pass that divides out the gcd: a sum merges numerators
over the lcm of the two denominators; a derivative keeps the denominator;
averages, antiderivatives and substitutions put their per-term rational
factors over one lcm.  Fractions appear only at the edge: in
:meth:`Scalar.const`, in the divisors the parser reads, and in the read-only
:attr:`Scalar.terms` view that rendering and numerical evaluation use.

Products follow the Poisson-series layout: two monomials multiply by
merging their power tuples (an empty side leaves the other as it is) and
multiplying their trig parts.  A trig part times an empty one is itself,
with factor 1; only two non-empty trig parts need the product-to-sum
rewrite, and :func:`_product_items` does it once per distinct pair, in a
table local to the call.  Each rewrite in a shared angle halves, so a
product is kept over d1 * d2 * 2^h, h being the number of angles in which
both factors have harmonics, and every pair contributes integer multiples.
The pairs of one product repeat many times, but a table that outlived the
call would carry state from one product to the next and grow without
bound, so each product starts with an empty one.

A functional that reads few harmonics of a product need not form it, the
"middle product" of Hanrot, Quercia and Zimmermann (AAECC 14, 2004).
:func:`mean_of_product` returns the Haar mean in one angle of a * b, or
the mean of its running integral from zero, the two functionals of torus
averaging.  It groups the terms of both sides by their harmonic in that
angle and pairs only the groups whose product has a term the functional
keeps, weighted through :func:`_trig_pair`; only the angle-free rests are
multiplied, over one shift, one table of trig pairs and one lcm.  Under the
unit rotation of a coordinate pair, :func:`rotation_mean` gives either
functional of the image of a monomial in closed form, by Wallis' formula
for the means of cos^a * sin^b, and multiplies no scalars at all.

Where the answer is one term, the ring forms it directly: two single terms
whose harmonics share no angle multiply as one key (merged power tuples,
concatenated harmonics), and a single term without harmonics is raised to
a power by scaling its exponents, numerator and denominator.  Every other
power follows the one binary-powering schedule of :func:`_binary_power`.
The parser reads number literals as integer pairs and does no arithmetic
of its own: it bounds each product and power by its terms and term pairs,
then forms it in the ring.  A number past ``_MAX_DIGITS`` digits is
refused wherever it arises: a literal before it is read, a power of one
term before it is computed.  A flow needs its images at angle zero and at
the negated angle: :meth:`Scalar.substitute_angle` rewrites these two
substitutions term by term with sign rules, and expands every other
combination with the angle addition formulas.
"""

from __future__ import annotations

import functools
import math
import re
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from fractions import Fraction
from typing import TypeVar, Union

from .errors import (
    ChartMismatch,
    NonPolynomialIntegrand,
    ParseError,
    UnknownSymbol,
)

SIN = "s"
COS = "c"
PI = "pi"

# Names the expression grammar gives a meaning of its own.
_RESERVED = {PI: "the circle constant", "sin": "the sine", "cos": "the cosine"}

# Largest term count the parser expands a power or a product to.
_MAX_PARSED_TERMS = 10_000

# Most term pairs one product of a parsed power may form.  A sparse product
# costs in proportion to its pairs; about 4 microseconds a pair on a 2-vCPU
# Xeon with Python 3.11, so a product at the bound takes about 0.4 s.
_MAX_POWER_PAIRS = 100_000

# Most decimal digits a numerator or the denominator of a parsed number or
# coefficient may have.  Python refuses to convert integers past 4300 digits
# to or from text; the lower bound leaves room for the products the checks
# form before a coefficient is rendered.
_MAX_DIGITS = 1000
_COEFFICIENT_LIMIT = 10**_MAX_DIGITS
_COEFFICIENT_BITS = _COEFFICIENT_LIMIT.bit_length()
_TOO_MANY_DIGITS = f"a number in the expression needs more than {_MAX_DIGITS} digits"

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*\Z")

Number = Union[int, Fraction]
_T = TypeVar("_T")

# A monomial key is a pair (powers, trig):
#   powers: tuple of (symbol, exponent), sorted by symbol, exponent >= 1;
#           symbols are coordinates, bare angles, or the reserved "pi".
#   trig:   tuple of (angle, kind, multiple), sorted by angle, at most one
#           entry per angle, multiple >= 1, kind in {SIN, COS}.
Powers = tuple[tuple[str, int], ...]
Trig = tuple[tuple[str, str, int], ...]
Key = tuple[Powers, Trig]
# A harmonic (kind, multiple) in one angle, None for no harmonic.
Harmonic = Union[tuple[str, int], None]

_EMPTY_KEY: Key = ((), ())


class Chart:
    """Distinguished coordinates of one foliated chart plus torus angles.

    Horizontal coordinates label the leaves of the foliation, vertical
    coordinates span the leaves, and angles parametrise the acting torus.
    Angles are parameters, not manifold coordinates: forms and fields have
    no components along them.  The coordinate tuple, the dimension and the
    position of each coordinate are computed once, at construction.
    """

    __slots__ = ("horizontal", "vertical", "angles", "coords", "dim", "_index")

    def __init__(
        self,
        horizontal: Sequence[str],
        vertical: Sequence[str],
        angles: Sequence[str] = (),
    ) -> None:
        horizontal = tuple(horizontal)
        vertical = tuple(vertical)
        angles = tuple(angles)
        names = horizontal + vertical + angles
        for name in names:
            if not _NAME_RE.match(name):
                raise UnknownSymbol(f"invalid symbol name: {name!r}")
            if name in _RESERVED:
                raise UnknownSymbol(f"{name!r} is reserved for {_RESERVED[name]}")
        if len(set(names)) != len(names):
            raise UnknownSymbol(f"chart symbols are not distinct: {names}")
        coords = horizontal + vertical
        object.__setattr__(self, "horizontal", horizontal)
        object.__setattr__(self, "vertical", vertical)
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "dim", len(coords))
        object.__setattr__(self, "_index", {name: i for i, name in enumerate(coords)})

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Chart is immutable")

    def is_coord(self, name: str) -> bool:
        return name in self._index

    def is_angle(self, name: str) -> bool:
        return name in self.angles

    def is_symbol(self, name: str) -> bool:
        return self.is_coord(name) or self.is_angle(name) or name == PI

    def require_coord(self, name: str) -> None:
        if not self.is_coord(name):
            raise UnknownSymbol(f"{name!r} is not a coordinate of {self}")

    def require_angle(self, name: str) -> None:
        if not self.is_angle(name):
            raise UnknownSymbol(f"{name!r} is not an angle of {self}")

    def coord_index(self, name: str) -> int:
        index = self._index.get(name)
        if index is None:
            raise UnknownSymbol(f"{name!r} is not a coordinate of {self}")
        return index

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Chart)
            and self.horizontal == other.horizontal
            and self.vertical == other.vertical
            and self.angles == other.angles
        )

    def __hash__(self) -> int:
        return hash((self.horizontal, self.vertical, self.angles))

    def __repr__(self) -> str:
        return (
            f"Chart(horizontal={list(self.horizontal)}, "
            f"vertical={list(self.vertical)}, angles={list(self.angles)})"
        )


def _norm_harmonic(kind: str, m: int) -> tuple[int, str | None, int]:
    """Reduce trig(m*th) to sign * trig(|m|*th) with m >= 0."""
    if m == 0:
        return (1, None, 0) if kind == COS else (0, None, 0)
    if m < 0:
        return (1, COS, -m) if kind == COS else (-1, SIN, -m)
    return 1, kind, m


def _trig_pair(kind1: str, m1: int, kind2: str, m2: int) -> list[tuple[int, str | None, int]]:
    """Product-to-sum rewrite of trig(m1*th)*trig(m2*th), same angle, times 2."""
    if kind1 == COS and kind2 == COS:
        raw = [(1, COS, m1 - m2), (1, COS, m1 + m2)]
    elif kind1 == SIN and kind2 == SIN:
        raw = [(1, COS, m1 - m2), (-1, COS, m1 + m2)]
    elif kind1 == SIN and kind2 == COS:
        raw = [(1, SIN, m1 + m2), (1, SIN, m1 - m2)]
    else:  # cos * sin
        raw = [(1, SIN, m1 + m2), (-1, SIN, m1 - m2)]
    out = []
    for coef, kind, m in raw:
        sign, nkind, nm = _norm_harmonic(kind, m)
        coef = coef * sign
        if coef:
            out.append((coef, nkind, nm))
    return out


def _merge_powers(p1: Powers, p2: Powers) -> Powers:
    """The power part of a product of two monomials."""
    if not p1:
        return p2
    if not p2:
        return p1
    merged = dict(p1)
    for name, e in p2:
        merged[name] = merged.get(name, 0) + e
    return tuple(sorted(merged.items()))


def _mul_trig(t1: Trig, t2: Trig, shift: int) -> list[tuple[Trig, int]]:
    """Product-to-sum rewrite of two trig parts, as (trig part, numerator)
    pairs over 2^shift.  Each shared angle halves, so ``shift`` is at least
    the number of angles the two parts share."""
    trig1 = dict((a, (kind, m)) for a, kind, m in t1)
    trig2 = dict((a, (kind, m)) for a, kind, m in t2)
    # (numerator, {angle: (kind, m)}) partial products
    partial: list[tuple[int, dict[str, tuple[str, int]]]] = [(1 << shift, {})]
    for angle in sorted(set(trig1) | set(trig2)):
        if angle in trig1 and angle in trig2:
            expansions = _trig_pair(*trig1[angle], *trig2[angle])
            nxt = []
            for coef, trig in partial:
                for c2, kind, m in expansions:
                    t = dict(trig)
                    if kind is not None:
                        t[angle] = (kind, m)
                    nxt.append((coef // 2 * c2, t))
            partial = nxt
        else:
            kind, m = trig1.get(angle) or trig2[angle]
            for _, trig in partial:
                trig[angle] = (kind, m)
    return [
        (tuple((a, kind, m) for a, (kind, m) in sorted(trig.items())), coef)
        for coef, trig in partial
    ]


def _harmonic_angles(items: Iterable[tuple[Key, int]]) -> set[str]:
    return {a for (_, trig), _ in items for a, _, _ in trig}


def _product_items(
    left: Iterable[tuple[Key, int]],
    right: Iterable[tuple[Key, int]],
    shift: int | None = None,
    table: dict[tuple[Trig, Trig], list[tuple[Trig, int]]] | None = None,
) -> tuple[list[tuple[Key, int]], int]:
    """Uncollected terms of the product of two sums of integer terms, and the
    shift h such that the product is their sum over 2^h.

    h is the number of angles in which both sides have harmonics, so every
    pair of trig parts rewrites to integers over 2^h.  ``left`` is read
    twice.  Each pair of trig parts is rewritten once per call: the table
    lives only as long as this product.  A caller that sums several
    products over one denominator passes its own ``shift``, at least the
    angles shared by any of its pairs of sides, and its own ``table``,
    which then lives as long as that sum.
    """
    right = list(right)
    if shift is None:
        angles = _harmonic_angles(left)
        shift = len(angles & _harmonic_angles(right)) if angles else 0
    if table is None:
        table = {}
    items: list[tuple[Key, int]] = []
    append = items.append
    for (p1, t1), c1 in left:
        for (p2, t2), c2 in right:
            powers = _merge_powers(p1, p2)
            if not t2:
                append(((powers, t1), c1 * c2 << shift))
            elif not t1:
                append(((powers, t2), c1 * c2 << shift))
            else:
                pairs = table.get((t1, t2))
                if pairs is None:
                    pairs = table[t1, t2] = _mul_trig(t1, t2, shift)
                c = c1 * c2
                for trig, factor in pairs:
                    append(((powers, trig), c * factor))
    return items, shift


def _over_lcm(
    parts: Iterable[tuple[Iterable[tuple[Key, int]], int]]
) -> tuple[list[tuple[Key, int]], int]:
    """Integer terms over one denominator, the lcm of those of the parts,
    from (integer terms, denominator) parts."""
    parts = list(parts)
    den = math.lcm(*(d for _, d in parts))
    items: list[tuple[Key, int]] = []
    for part, d in parts:
        scale = den // d
        if scale == 1:
            items.extend(part)
        else:
            items.extend((key, n * scale) for key, n in part)
    return items, den


class Scalar:
    """An exact scalar function on a chart, kept in canonical form.

    ``nums`` maps each monomial key to a nonzero integer numerator, and
    ``den`` is the one positive denominator they share, coprime to the gcd
    of the numerators and 1 for zero.  :attr:`terms` returns the coefficients
    as fractions, in a fresh dict.
    """

    __slots__ = ("chart", "nums", "den", "_hash")

    def __init__(
        self,
        chart: Chart,
        terms: Mapping[Key, Number] | Iterable[tuple[Key, Number]] = (),
    ) -> None:
        """A scalar from rational coefficients, given as a mapping or as
        (key, coefficient) pairs whose repeated keys add."""
        if isinstance(terms, Mapping):
            terms = terms.items()
        coefs = [(key, Fraction(c)) for key, c in terms]
        den = math.lcm(*(c.denominator for _, c in coefs))
        f = _collect(chart, [(key, c.numerator * (den // c.denominator)) for key, c in coefs], den)
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "nums", f.nums)
        object.__setattr__(self, "den", f.den)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Scalar is immutable")

    @property
    def terms(self) -> dict[Key, Fraction]:
        den = self.den
        return {key: Fraction(n, den) for key, n in self.nums.items()}

    # ------------------------------------------------------------------
    # constructors

    @staticmethod
    def zero(chart: Chart) -> "Scalar":
        return _make(chart, {}, 1)

    @staticmethod
    def const(chart: Chart, value: Number | str) -> "Scalar":
        coef = Fraction(value)
        if not coef:
            return _make(chart, {}, 1)
        return _make(chart, {_EMPTY_KEY: coef.numerator}, coef.denominator)

    @staticmethod
    def one(chart: Chart) -> "Scalar":
        return _make(chart, {_EMPTY_KEY: 1}, 1)

    @staticmethod
    def var(chart: Chart, name: str) -> "Scalar":
        if not chart.is_symbol(name):
            raise UnknownSymbol(f"{name!r} is not a symbol of {chart}")
        return _make(chart, {(((name, 1),), ()): 1}, 1)

    @staticmethod
    def harmonic(chart: Chart, kind: str, angle: str, multiple: int = 1) -> "Scalar":
        chart.require_angle(angle)
        normalized = {SIN: SIN, COS: COS, "sin": SIN, "cos": COS}.get(kind)
        if normalized is None:
            raise UnknownSymbol(f"harmonic kind must be sin or cos, got {kind!r}")
        kind = normalized
        sign, nkind, nm = _norm_harmonic(kind, multiple)
        if nkind is None:
            return Scalar.const(chart, sign)
        return _make(chart, {((), ((angle, nkind, nm),)): sign}, 1)

    @staticmethod
    def sin(chart: Chart, angle: str, multiple: int = 1) -> "Scalar":
        return Scalar.harmonic(chart, SIN, angle, multiple)

    @staticmethod
    def cos(chart: Chart, angle: str, multiple: int = 1) -> "Scalar":
        return Scalar.harmonic(chart, COS, angle, multiple)

    @staticmethod
    def pi(chart: Chart) -> "Scalar":
        return _make(chart, {(((PI, 1),), ()): 1}, 1)

    @staticmethod
    def sum(chart: Chart, parts: Iterable["Scalar"]) -> "Scalar":
        """The sum of scalars on a chart, collected once over the lcm of
        their denominators."""
        items, den = _over_lcm((f.nums.items(), f.den) for f in parts)
        return _collect(chart, items, den)

    # ------------------------------------------------------------------
    # ring structure

    def _check(self, other: "Scalar") -> None:
        if self.chart is not other.chart and self.chart != other.chart:
            raise ChartMismatch(f"{self.chart} vs {other.chart}")

    def _coerce(self, value: object) -> "Scalar | None":
        if isinstance(value, Scalar):
            self._check(value)
            return value
        if isinstance(value, (int, Fraction)):
            return Scalar.const(self.chart, value)
        return None

    def __add__(self, other: object) -> "Scalar":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        if not rhs.nums:
            return self
        if not self.nums:
            return rhs
        den, rden = self.den, rhs.den
        if den == rden:
            nums = dict(self.nums)
            scale = 1
        else:
            lcm = den // math.gcd(den, rden) * rden
            scale, lscale, den = lcm // rden, lcm // den, lcm
            nums = {key: n * lscale for key, n in self.nums.items()}
        get = nums.get
        for key, n in rhs.nums.items():
            total = get(key, 0) + n * scale
            if total:
                nums[key] = total
            else:
                del nums[key]
        return _make(self.chart, nums, den)

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return _make(self.chart, {k: -n for k, n in self.nums.items()}, self.den)

    def __sub__(self, other: object) -> "Scalar":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other: object) -> "Scalar":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other: object) -> "Scalar":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        if not self.nums:
            return self
        if not rhs.nums:
            return rhs
        if len(self.nums) == 1 and len(rhs.nums) == 1:
            # two single terms whose harmonics share no angle: one key
            (((p1, t1), n1),) = self.nums.items()
            (((p2, t2), n2),) = rhs.nums.items()
            if not (t1 and t2) or {a for a, _, _ in t1}.isdisjoint([a for a, _, _ in t2]):
                key = (_merge_powers(p1, p2), tuple(sorted(t1 + t2)))
                return _make(self.chart, {key: n1 * n2}, self.den * rhs.den)
        items, shift = _product_items(self.nums.items(), rhs.nums.items())
        return _collect(self.chart, items, self.den * rhs.den << shift)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Scalar":
        if not isinstance(exponent, int) or exponent < 0:
            raise ParseError("exponents must be non-negative integers")
        if exponent and len(self.nums) == 1:
            # a single term without harmonics: scale its exponents, numerator
            # and denominator in one step, where binary powering forms about
            # 2*log2(exponent) one-key products (a fifth of loading rot(3,1,12))
            (((powers, trig), n),) = self.nums.items()
            if not trig:
                powers = tuple((name, e * exponent) for name, e in powers)
                return _make(self.chart, {(powers, ()): n**exponent}, self.den**exponent)
        return _binary_power(Scalar.one(self.chart), self, exponent, Scalar.__mul__)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Scalar.const(self.chart, other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return (
            (self.chart is other.chart or self.chart == other.chart)
            and self.den == other.den
            and self.nums == other.nums
        )

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            value = hash((self.chart, tuple(sorted(self.nums.items())), self.den))
            object.__setattr__(self, "_hash", value)
            return value

    @property
    def is_zero(self) -> bool:
        return not self.nums

    def free_symbols(self) -> set[str]:
        # a power (name, e) and a harmonic (angle, kind, m) both lead with
        # their symbol
        return {entry[0] for key in self.nums for part in key for entry in part}

    def depends_on(self, name: str) -> bool:
        return name in self.free_symbols()

    # ------------------------------------------------------------------
    # calculus

    def diff(self, name: str) -> "Scalar":
        """Exact partial derivative with respect to a coordinate or angle."""
        is_angle = self.chart.is_angle(name)
        if not (is_angle or self.chart.is_coord(name)):
            raise UnknownSymbol(f"cannot differentiate along {name!r}")
        # each factor is replaced in place, which keeps the keys sorted
        items: list[tuple[Key, int]] = []
        for (powers, trig), n in self.nums.items():
            # bare power factor
            for i, (symbol, exp) in enumerate(powers):
                if symbol == name:
                    lowered = ((name, exp - 1),) if exp > 1 else ()
                    items.append(((powers[:i] + lowered + powers[i + 1 :], trig), n * exp))
                    break
            if not is_angle:
                continue
            # harmonic factor
            for i, (angle, kind, m) in enumerate(trig):
                if angle == name:
                    if kind == COS:
                        turned, coef = (angle, SIN, m), -n * m
                    else:
                        turned, coef = (angle, COS, m), n * m
                    items.append(((powers, trig[:i] + (turned,) + trig[i + 1 :]), coef))
                    break
        return _collect(self.chart, items, self.den)

    def substitute(self, rules: Mapping[str, "Scalar | Number"]) -> "Scalar":
        """Simultaneous substitution of coordinates by scalars.

        A :class:`Substitution` is used as given, so the image powers it
        keeps serve every scalar it is applied to; any other mapping is
        validated into a throwaway one.
        """
        if not isinstance(rules, Substitution):
            rules = Substitution(self.chart, rules)
        return rules.apply(self)

    def substitute_angle(self, angle: str, combo: Sequence[tuple[str, int]]) -> "Scalar":
        """Replace an angle by an integer combination of angles.

        ``combo`` lists (angle, coefficient) pairs; the empty combination
        sets the angle to zero.  Two combinations are rewritten term by term
        with sign rules: th -> 0 drops every term with a sine or a bare
        power of th and sets cos(m*th) to 1, and th -> -th negates the terms
        of odd degree in th, counting a sine as odd.  Any other combination
        expands harmonics with the angle addition formulas and bare powers
        multinomially (:func:`_expanded_substitute_angle`).  Each angle of
        the combination is checked, repeated angles are merged and zero
        coefficients dropped.
        """
        chart = self.chart
        chart.require_angle(angle)
        merged: dict[str, int] = {}
        for name, c in combo:
            chart.require_angle(name)
            merged[name] = merged.get(name, 0) + c
        pairs = tuple((name, c) for name, c in sorted(merged.items()) if c)
        if not pairs:
            return _angle_at_zero(self, angle)
        if pairs == ((angle, -1),):
            return _angle_reflected(self, angle)
        return _expanded_substitute_angle(self, angle, pairs)

    def average_over_angle(self, angle: str) -> "Scalar":
        """Exact Haar average (1/2pi) * integral over one full period."""
        self.chart.require_angle(angle)
        # (powers, trig, numerator, {pi power: value numerator}, value denominator)
        pieces = []
        for (powers, trig), n in self.nums.items():
            k, entry, powers, trig = _split_angle(powers, trig, angle)
            if entry is None:
                values, vden = _avg_power(k)
            else:
                values, vden = _avg_power_trig(k, entry[1], entry[2])
            if values:
                pieces.append((powers, trig, n, values, vden))
        den = math.lcm(*(piece[4] for piece in pieces))
        items: list[tuple[Key, int]] = []
        for powers, trig, n, values, vden in pieces:
            n *= den // vden
            for pi_pow, v in values.items():
                key_powers = _merge_powers(powers, ((PI, pi_pow),)) if pi_pow else powers
                items.append(((key_powers, trig), n * v))
        return _collect(self.chart, items, self.den * den)

    def antiderivative_from_zero(self, angle: str) -> "Scalar":
        """Integral from 0 to the angle of this scalar in that angle."""
        self.chart.require_angle(angle)
        # (key, numerator, divisor)
        pieces: list[tuple[Key, int, int]] = []
        for (powers, trig), n in self.nums.items():
            k, entry, rest_powers, rest_trig = _split_angle(powers, trig, angle)
            if entry is None:
                raised = _merge_powers(rest_powers, ((angle, k + 1),))
                pieces.append(((raised, trig), n, k + 1))
                continue
            if k:
                raise NonPolynomialIntegrand(
                    f"mixed power and harmonic in {angle!r} has no polynomial antiderivative"
                )
            _, kind, m = entry
            if kind == COS:
                newtrig = tuple(sorted(rest_trig + ((angle, SIN, m),)))
                pieces.append(((powers, newtrig), n, m))
            else:
                pieces.append(((powers, rest_trig), n, m))
                newtrig = tuple(sorted(rest_trig + ((angle, COS, m),)))
                pieces.append(((powers, newtrig), -n, m))
        den = math.lcm(*(d for _, _, d in pieces))
        items = [(key, n * (den // d)) for key, n, d in pieces]
        return _collect(self.chart, items, self.den * den)

    def on_chart(self, chart: Chart) -> "Scalar":
        """Rebind to a chart declaring a superset of the used symbols."""
        for name in self.free_symbols():
            if name != PI and not chart.is_symbol(name):
                raise UnknownSymbol(f"{name!r} is not a symbol of {chart}")
        return _make(chart, self.nums, self.den)

    def evaluate(self, point: Mapping[str, float | Number]) -> float:
        """Numerical evaluation; only used by cross-checking oracles."""
        total = 0.0
        for (powers, trig), coef in self.terms.items():
            value = float(coef)
            for name, e in powers:
                base = math.pi if name == PI else float(point[name])
                value *= base**e
            for angle, kind, m in trig:
                arg = m * float(point[angle])
                value *= math.sin(arg) if kind == SIN else math.cos(arg)
            total += value
        return total

    # ------------------------------------------------------------------
    # rendering

    def __str__(self) -> str:
        return render(self)

    __repr__ = __str__


def _binary_power(result: _T, base: _T, exponent: int, product: Callable[[_T, _T], _T]) -> _T:
    """``result`` times ``base`` to the power ``exponent`` by binary
    powering: one product per set bit of the exponent, one squaring per bit
    below the highest.  :meth:`Scalar.__pow__` and the parser's checked
    powers share this one schedule, so :func:`_harmonic_growth`, which runs
    it on exponents, bounds the products they form."""
    while exponent:
        if exponent & 1:
            result = product(result, base)
        exponent >>= 1
        if exponent:
            base = product(base, base)
    return result


def _split_angle(
    powers: Powers, trig: Trig, angle: str
) -> tuple[int, tuple[str, str, int] | None, Powers, Trig]:
    """The bare power of an angle in a monomial, its harmonic (None if it
    has none), and the power and trig parts without them."""
    e = 0
    for i, (name, exp) in enumerate(powers):
        if name == angle:
            e = exp
            powers = powers[:i] + powers[i + 1 :]
            break
    entry = None
    for i, t in enumerate(trig):
        if t[0] == angle:
            entry = t
            trig = trig[:i] + trig[i + 1 :]
            break
    return e, entry, powers, trig


def _angle_at_zero(f: Scalar, angle: str) -> Scalar:
    """``f`` at angle zero: sin(m*th) and th^e with e > 0 vanish there, and
    cos(m*th) is 1."""
    items: list[tuple[Key, int]] = []
    for key, n in f.nums.items():
        powers, trig = key
        e, entry, powers, rest = _split_angle(powers, trig, angle)
        if e:
            continue
        if entry is None:
            items.append((key, n))
        elif entry[1] == COS:
            items.append(((powers, rest), n))
    return _collect(f.chart, items, f.den)


def _angle_reflected(f: Scalar, angle: str) -> Scalar:
    """``f`` with the angle negated: every term keeps its key, and
    th^e * cos(m*th) changes sign when e is odd, th^e * sin(m*th) when
    e + 1 is odd."""
    nums = {}
    for key, n in f.nums.items():
        e = 0
        for name, exp in key[0]:
            if name == angle:
                e = exp
                break
        for name, kind, _ in key[1]:
            if name == angle:
                e += kind == SIN
                break
        nums[key] = -n if e & 1 else n
    return _make(f.chart, nums, f.den)


def _expanded_substitute_angle(
    f: Scalar, angle: str, pairs: Sequence[tuple[str, int]]
) -> Scalar:
    """``f`` with the angle replaced by the combination of (angle,
    coefficient) pairs, each harmonic th^e * trig(m*th) and bare power of
    the angle expanded once: the terms are grouped by that monomial."""
    chart = f.chart

    def image(hit: tuple[int, str | None, int]) -> Scalar | None:
        if not hit:
            return None
        e, kind, m = hit
        value = Scalar.one(chart)
        if e:
            value = Scalar.sum(chart, (c * Scalar.var(chart, a) for a, c in pairs)) ** e
        if kind is not None:
            value = value * _expand_harmonic(chart, kind, tuple((a, m * c) for a, c in pairs))
        return value

    # terms grouped by their monomial in the angle: (power, kind, multiple)
    groups: dict[tuple, list[tuple[Key, int]]] = {}
    for (powers, trig), n in f.nums.items():
        e, entry, powers, trig = _split_angle(powers, trig, angle)
        if entry is not None:
            hit = (e, entry[1], entry[2])
        else:
            hit = (e, None, 0) if e else ()
        groups.setdefault(hit, []).append(((powers, trig), n))
    return recombine(f, groups, image)


def _make(chart: Chart, nums: dict[Key, int], den: int) -> Scalar:
    """A scalar from nonzero numerators over a positive denominator, made
    canonical by one content pass: numerators and denominator are divided
    by their gcd."""
    if den != 1:
        if not nums:
            den = 1
        else:
            g = math.gcd(den, *nums.values())
            if g != 1:
                nums = {key: n // g for key, n in nums.items()}
                den //= g
    f = _new_object(Scalar)
    _set_chart(f, chart)
    _set_nums(f, nums)
    _set_den(f, den)
    return f


# The slots' own setters, past the immutability guard of Scalar.__setattr__.
_new_object = object.__new__
_set_chart, _set_nums, _set_den = Scalar.chart.__set__, Scalar.nums.__set__, Scalar.den.__set__


def _collect(chart: Chart, items: Iterable[tuple[Key, int]], den: int) -> Scalar:
    """The scalar sum(n * key) / den of integer terms whose repeated keys add."""
    nums: dict[Key, int] = {}
    get = nums.get
    for key, n in items:
        nums[key] = get(key, 0) + n
    if 0 in nums.values():
        nums = {key: n for key, n in nums.items() if n}
    return _make(chart, nums, den)


def recombine(
    f: Scalar,
    groups: Mapping[tuple, list[tuple[Key, int]]],
    image: Callable[[tuple], "Scalar | None"],
) -> Scalar:
    """The sum over the groups of the terms of ``f`` of each group's terms
    multiplied once by ``image`` of the group's monomial, collected over one
    lcm of denominators.  A group whose image is None stays as it is.

    ``groups`` maps monomials to the terms of ``f`` without them, as
    :meth:`Substitution.split` gives them.
    """
    parts = []
    for hit, kept in groups.items():
        value = image(hit)
        if value is None:
            parts.append((kept, 1))
            continue
        items, shift = _product_items(kept, value.nums.items())
        parts.append((items, value.den << shift))
    items, den = _over_lcm(parts)
    return _collect(f.chart, items, f.den * den)


def mean_of_product(a: Scalar, b: Scalar, angle: str, running: bool = False) -> Scalar:
    """The Haar mean in ``angle`` of ``a * b`` or, with ``running``, the mean
    of its integral from zero up to the angle, without forming ``a * b``.

    Neither functional reads more than a few harmonics in the angle: the
    Haar mean keeps the constant term, and the running mean keeps pi times
    it plus 1/k times each sin(k*angle) coefficient.  So the terms of both
    sides are grouped by their harmonic in the angle, and each group of
    ``a`` meets only the groups of ``b`` whose product with it has a term
    the functional keeps, weighted by what it keeps (:func:`_kept_weights`).
    Only the rests, free of the angle, are multiplied, over one shift and
    one table of trig pairs.  Neither side may hold a bare power of the
    angle.
    """
    a._check(b)
    chart = a.chart
    chart.require_angle(angle)
    left, right = _by_harmonic(a, angle), _by_harmonic(b, angle)
    # (harmonic of a, harmonic of b, pi power, numerator, denominator)
    weighted = []
    for h1 in left:
        if running:
            # a product is a sum of sines when one side is a sine, else of
            # cosines, of which the functional keeps only the constant
            sine = h1 is not None and h1[0] == SIN
            partners = [
                h2 for h2 in right if h2 == h1 or (h2 is not None and h2[0] == SIN) != sine
            ]
        else:
            partners = [h1] if h1 in right else []
        for h2 in partners:
            weighted.extend((h1, h2, *w) for w in _kept_weights(h1, h2, running))
    if not weighted:
        return Scalar.zero(chart)
    den = math.lcm(*(w[4] for w in weighted))
    # the terms of b each group of a meets, their weights multiplied in
    met: dict[Harmonic, list[tuple[Key, int]]] = {}
    for h1, h2, pi_pow, num, d in weighted:
        scale = num * (den // d)
        pi = ((PI, pi_pow),)
        met.setdefault(h1, []).extend(
            ((_merge_powers(powers, pi) if pi_pow else powers, trig), n * scale)
            for (powers, trig), n in right[h2]
        )
    angles = _harmonic_angles(item for h1 in met for item in left[h1])
    if angles:
        angles &= _harmonic_angles(item for terms in met.values() for item in terms)
    table: dict[tuple[Trig, Trig], list[tuple[Trig, int]]] = {}
    items: list[tuple[Key, int]] = []
    for h1, terms in met.items():
        items.extend(_product_items(left[h1], terms, len(angles), table)[0])
    return _collect(chart, items, a.den * b.den * den << len(angles))


def _by_harmonic(f: Scalar, angle: str) -> dict[Harmonic, list[tuple[Key, int]]]:
    """The terms of ``f`` grouped by their harmonic in the angle, each term
    without it; a bare power of the angle is refused."""
    groups: dict[Harmonic, list[tuple[Key, int]]] = {}
    for (powers, trig), n in f.nums.items():
        e, entry, powers, trig = _split_angle(powers, trig, angle)
        if e:
            raise NonPolynomialIntegrand(
                f"a bare power of {angle!r} is not a trigonometric polynomial in it"
            )
        harmonic = None if entry is None else entry[1:]
        group = groups.get(harmonic)
        if group is None:
            group = groups[harmonic] = []
        group.append(((powers, trig), n))
    return groups


@functools.lru_cache(maxsize=None)
def _kept_weights(h1: Harmonic, h2: Harmonic, running: bool) -> tuple[tuple[int, int, int], ...]:
    """What the Haar mean, or with ``running`` the mean of the running
    integral, keeps of the product of two harmonics in one angle, None
    standing for 1: (pi power, numerator, denominator) terms.

    Two harmonics multiply by the product-to-sum rewrite :func:`_trig_pair`.
    A constant c keeps c, or pi * c when running; c * sin(k*th) keeps c/k
    when running; every other harmonic keeps nothing.
    """
    if h1 is None or h2 is None:
        h = h1 or h2
        terms, den = [(1, None, 0)] if h is None else [(1, *h)], 1
    else:
        terms, den = _trig_pair(*h1, *h2), 2
    kept: dict[int, Fraction] = {}
    for c, kind, m in terms:
        if kind is None:
            pi_pow, w = int(running), Fraction(c, den)
        elif running and kind == SIN:
            pi_pow, w = 0, Fraction(c, den * m)
        else:
            continue
        kept[pi_pow] = kept.get(pi_pow, 0) + w
    return tuple((pi_pow, w.numerator, w.denominator) for pi_pow, w in kept.items() if w)


def rotation_mean(
    chart: Chart, u: str, v: str, a: int, b: int, cosines: int, sines: int, running: bool = False
) -> Scalar:
    """The Haar mean in an angle th, or with ``running`` the mean of the
    running integral from zero, of the image of u^a * v^b under the unit
    rotation u -> u*cos(th) - v*sin(th), v -> u*sin(th) + v*cos(th), times
    cos(th)^cosines * sin(th)^sines, in closed form.

    The image expands binomially into the sum over i <= a and j <= b of
    (-1)^i * C(a, i) * C(b, j) * u^(a-i+b-j) * v^(i+j) times
    cos^alpha * sin^beta, alpha = a-i+j+cosines and beta = i+b-j+sines.  So
    the functional needs only its value on cos^alpha * sin^beta
    (:func:`_wallis_weights`), and no harmonic is expanded.
    """
    # (power of v, pi power, numerator, denominator) per kept weight
    items = []
    for i in range(a + 1):
        ci = -math.comb(a, i) if i & 1 else math.comb(a, i)
        for j in range(b + 1):
            weights = _wallis_weights(a - i + j + cosines, i + b - j + sines, running)
            if weights:
                c = ci * math.comb(b, j)
                items.extend((i + j, pi_pow, c * num, d) for pi_pow, num, d in weights)
    den = math.lcm(*(d for *_, d in items)) if items else 1
    nums: dict[tuple[int, int], int] = {}
    for n, pi_pow, num, d in items:
        nums[n, pi_pow] = nums.get((n, pi_pow), 0) + num * (den // d)
    terms = []
    for (n, pi_pow), num in nums.items():
        powers = [(name, e) for name, e in ((u, a + b - n), (v, n)) if e]
        if pi_pow:
            powers.append((PI, pi_pow))
        terms.append(((tuple(sorted(powers)), ()), num))
    return _collect(chart, terms, den)


@functools.lru_cache(maxsize=None)
def _wallis_weights(alpha: int, beta: int, running: bool) -> tuple[tuple[int, int, int], ...]:
    """The Haar mean of cos(th)^alpha * sin(th)^beta, or with ``running``
    the mean of its running integral from zero, as (pi power, numerator,
    denominator) terms like those of :func:`_kept_weights`.

    The running mean is pi times the Haar mean (:func:`_wallis`) plus
    sum_k b_k/k over the sine coefficients b_k, and a sine term needs an odd
    beta.  Then, with beta = 2m + 1, the running integral is
    P(1) - P(cos(th)) for P(t) = sum_l (-1)^l C(m, l) t^(alpha+2l+1) /
    (alpha+2l+1), whose mean needs only the Haar means of powers of cos(th).
    """
    haar = _wallis(alpha, beta)
    if haar:
        return ((int(running), haar.numerator, haar.denominator),)
    if not running or not beta & 1:
        return ()
    m = beta // 2
    w = Fraction(0)
    for l in range(m + 1):
        n = alpha + 2 * l + 1
        w += Fraction((-1) ** l * math.comb(m, l), n) * (1 - _wallis(n, 0))
    return ((0, w.numerator, w.denominator),) if w else ()


def _wallis(alpha: int, beta: int) -> Fraction:
    """The Haar mean of cos(th)^alpha * sin(th)^beta by Wallis' formula: 0
    unless alpha and beta are both even, else (alpha-1)!! (beta-1)!! /
    (alpha+beta)!!."""
    if alpha & 1 or beta & 1:
        return Fraction(0)
    odd = math.prod(range(alpha - 1, 0, -2)) * math.prod(range(beta - 1, 0, -2))
    return Fraction(odd, math.prod(range(alpha + beta, 0, -2)))


class Substitution(Mapping):
    """A simultaneous substitution of chart coordinates, validated once.

    As a mapping it sends every coordinate of the chart to its image, the
    coordinate itself where no rule moves it.  ``moved`` maps just the
    coordinates a rule moves to their images (read it, never change it);
    :meth:`apply` and the pullbacks of :mod:`foliavg.geom` read only those.
    For each moved coordinate it keeps the powers of the image built so far
    (a ladder grown on first use), and for each monomial in them that it
    meets, that monomial's image, so one substitution applied to many
    scalars builds each power and each product once.
    """

    __slots__ = ("chart", "moved", "_ladders", "_images")

    def __init__(self, chart: Chart, rules: Mapping[str, "Scalar | Number"]) -> None:
        moved: dict[str, Scalar] = {}
        for name, value in rules.items():
            chart.require_coord(name)
            if isinstance(value, Scalar):
                if value.chart is not chart and value.chart != chart:
                    raise ChartMismatch(f"{chart} vs {value.chart}")
            elif isinstance(value, (int, Fraction)):
                value = Scalar.const(chart, value)
            else:
                raise ChartMismatch(f"substitution value for {name!r} is not a Scalar")
            if value.den != 1 or value.nums != {(((name, 1),), ()): 1}:
                moved[name] = value
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "moved", moved)
        object.__setattr__(self, "_ladders", {})
        object.__setattr__(self, "_images", {})

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Substitution is immutable")

    def __getitem__(self, name: str) -> Scalar:
        image = self.moved.get(name)
        if image is not None:
            return image
        if self.chart.is_coord(name):
            return Scalar.var(self.chart, name)
        raise KeyError(name)

    def __iter__(self) -> Iterator[str]:
        return iter(self.chart.coords)

    def __len__(self) -> int:
        return self.chart.dim

    def power(self, name: str, exponent: int) -> Scalar:
        """The image of ``name`` to a nonnegative power, from the kept
        ladder; the zeroth power is 1."""
        if exponent <= 0:
            if exponent:
                raise ValueError(f"negative power {exponent} of the image of {name!r}")
            return Scalar.one(self.chart)
        ladder = self._ladders.get(name)
        if ladder is None:
            ladder = self._ladders[name] = [self.moved[name]]
        while len(ladder) < exponent:
            ladder.append(ladder[-1] * ladder[0])
        return ladder[exponent - 1]

    def image(self, hit: Powers) -> Scalar | None:
        """The image of a monomial in the moved coordinates, kept; None for
        the empty monomial, which every substitution leaves as it is."""
        if not hit:
            return None
        image = self._images.get(hit)
        if image is None:
            image = self.power(*hit[0])
            for name, e in hit[1:]:
                image = image * self.power(name, e)
            self._images[hit] = image
        return image

    def split(self, f: Scalar) -> dict[Powers, list[tuple[Key, int]]]:
        """The terms of ``f`` grouped by their monomial in the moved
        coordinates, each term without that monomial: what :func:`recombine`
        takes."""
        chart = self.chart
        if f.chart is not chart and f.chart != chart:
            raise ChartMismatch(f"{f.chart} vs {chart}")
        moved = self.moved
        groups: dict[Powers, list[tuple[Key, int]]] = {}
        for (powers, trig), n in f.nums.items():
            hit = tuple((name, e) for name, e in powers if name in moved)
            if hit:
                powers = tuple((name, e) for name, e in powers if name not in moved)
            groups.setdefault(hit, []).append(((powers, trig), n))
        return groups

    def apply(self, f: Scalar) -> Scalar:
        """Substitute into ``f``.

        Terms are grouped by their monomial in the moved coordinates; each
        group's remaining part is multiplied once by that monomial's image.
        When no term contains a moved coordinate, ``f`` itself is returned.
        """
        chart = self.chart
        if f.chart is not chart and f.chart != chart:
            raise ChartMismatch(f"{f.chart} vs {chart}")
        moved = self.moved
        if not any(name in moved for powers, _ in f.nums for name, _ in powers):
            return f
        return recombine(f, self.split(f), self.image)


def _expand_harmonic(chart: Chart, kind: str, terms: tuple[tuple[str, int], ...]) -> Scalar:
    if not terms:
        return Scalar.const(chart, 1 if kind == COS else 0)
    (angle, c), rest = terms[0], terms[1:]
    sin_a = Scalar.sin(chart, angle, c)
    cos_a = Scalar.cos(chart, angle, c)
    sin_r = _expand_harmonic(chart, SIN, rest)
    cos_r = _expand_harmonic(chart, COS, rest)
    if kind == SIN:
        return sin_a * cos_r + cos_a * sin_r
    return cos_a * cos_r - sin_a * sin_r


@functools.lru_cache(maxsize=None)
def _avg_power(k: int) -> tuple[dict[int, int], int]:
    """Haar average of th^k: (2pi)^k / (k+1), as ({pi power: numerator},
    denominator)."""
    if k == 0:
        return {0: 1}, 1
    return {k: 2**k}, k + 1


@functools.lru_cache(maxsize=None)
def _avg_power_trig(k: int, kind: str, m: int) -> tuple[dict[int, int], int]:
    """Haar average of th^k * trig(m*th) by integration by parts, as
    ({pi power: numerator}, denominator)."""
    if k == 0:
        return {}, 1
    inner, den = _avg_power_trig(k - 1, SIN if kind == COS else COS, m)
    if kind == COS:
        return {p: -k * v for p, v in inner.items()}, den * m
    out = {k - 1: -(2 ** (k - 1)) * den}
    for p, v in inner.items():
        out[p] = out.get(p, 0) + k * v
    return {p: v for p, v in out.items() if v}, den * m


# ----------------------------------------------------------------------
# rendering


def _render_key(key: Key) -> str:
    powers, trig = key
    parts = []
    for name, e in powers:
        parts.append(name if e == 1 else f"{name}^{e}")
    for angle, kind, m in trig:
        fn = "sin" if kind == SIN else "cos"
        arg = angle if m == 1 else f"{m}*{angle}"
        parts.append(f"{fn}({arg})")
    return "*".join(parts)


def render(f: Scalar) -> str:
    """Canonical textual form, parseable by :func:`parse`."""
    terms = f.terms
    if not terms:
        return "0"
    pieces = []
    for key in sorted(terms):
        coef = terms[key]
        body = _render_key(key)
        mag = abs(coef)
        if not body:
            text = str(mag)
        elif mag == 1:
            text = body
        else:
            text = f"{mag}*{body}"
        pieces.append((coef < 0, text))
    first_neg, first = pieces[0]
    out = ("-" if first_neg else "") + first
    for neg, text in pieces[1:]:
        out += (" - " if neg else " + ") + text
    return out


# ----------------------------------------------------------------------
# parser

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:/\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])|(?P<bad>\S))"
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    """The (kind, text) tokens of an expression, ending with ("end", "")."""
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind == "bad":
            pos = match.start(kind)
            raise ParseError(f"unexpected character {text[pos]!r} at position {pos}")
        tokens.append((kind, match.group(kind)))
    tokens.append(("end", ""))
    return tokens


def _number(tok: str) -> tuple[int, int]:
    """A number token as (numerator, denominator), neither reduced nor
    checked for zero; one longer than ``_MAX_DIGITS`` digits is refused
    before it is read."""
    num, _, den = tok.partition("/")
    if len(num) > _MAX_DIGITS or len(den) > _MAX_DIGITS:
        raise ParseError(_TOO_MANY_DIGITS)
    return int(num), int(den) if den else 1


def _fitting(f: Scalar) -> Scalar:
    """``f``, refused when its denominator or a numerator has more than
    ``_MAX_DIGITS`` digits."""
    limit = _COEFFICIENT_LIMIT
    if f.den >= limit or any(n >= limit or -n >= limit for n in f.nums.values()):
        raise ParseError(_TOO_MANY_DIGITS)
    return f


def _product(a: Scalar, b: Scalar) -> Scalar:
    """``a * b`` for the parser, refused when it may expand to more than
    ``_MAX_PARSED_TERMS`` terms or its coefficients to more than
    ``_MAX_DIGITS`` digits."""
    m, n = len(a.nums), len(b.nums)
    if m * n > _MAX_PARSED_TERMS:
        raise ParseError(
            f"a product of {m} and {n} terms may expand to more than {_MAX_PARSED_TERMS} terms"
        )
    return _fitting(a * b)


class _Parser:
    """Recursive-descent parser for the scenario expression grammar."""

    def __init__(self, chart: Chart, text: str) -> None:
        self.chart = chart
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, str]:
        return self.tokens[self.pos]

    def take(self) -> tuple[str, str]:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, value: str) -> None:
        kind, got = self.take()
        if got != value:
            raise ParseError(f"expected {value!r} in {self.text!r}, got {got!r}")

    def parse(self) -> Scalar:
        value = self.expr()
        kind, tok = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input {tok!r} in {self.text!r}")
        return value

    def expr(self) -> Scalar:
        kind, tok = self.peek()
        sign = tok if kind == "op" and tok in "+-" else ""
        if sign:
            self.take()
        value = self.term()
        if sign == "-":
            value = -value
        summed = False
        while True:
            kind, tok = self.peek()
            if kind == "op" and tok in "+-":
                self.take()
                rhs = self.term()
                value = value + rhs if tok == "+" else value - rhs
                # a sum grows its denominator to the lcm; its numerators
                # stay within twice the digits, and are checked at the end
                if value.den >= _COEFFICIENT_LIMIT:
                    raise ParseError(_TOO_MANY_DIGITS)
                summed = True
            else:
                return _fitting(value) if summed else value

    def term(self) -> Scalar:
        value = self.factor()
        while True:
            kind, tok = self.peek()
            if kind == "op" and tok == "*":
                self.take()
                value = _product(value, self.factor())
            elif kind == "op" and tok == "/":
                self.take()
                const = _as_rational(self.factor())
                if const is None or const == 0:
                    raise ParseError("division is only allowed by nonzero rationals")
                value = _fitting(value * (1 / const))
            else:
                return value

    def factor(self) -> Scalar:
        value = self.atom()
        kind, tok = self.peek()
        if kind == "op" and tok == "^":
            self.take()
            nkind, num = self.take()
            if nkind != "number":
                raise ParseError("exponents must be non-negative integers")
            # the tokenizer reads "2/3" as one rational, but the power binds
            # tighter than the division
            exponent, denom = _number(num)
            if denom == 0:
                raise ParseError("division is only allowed by nonzero rationals")
            value = _bounded_power(value, exponent)
            if denom != 1:
                value = _fitting(value * Fraction(1, denom))
        return value

    def atom(self) -> Scalar:
        kind, tok = self.take()
        if kind == "number":
            num, den = _number(tok)
            if den == 0:
                # the tokenizer reads "1/0" as one rational
                raise ParseError("division is only allowed by nonzero rationals")
            return _make(self.chart, {_EMPTY_KEY: num} if num else {}, den)
        if kind == "op" and tok == "(":
            value = self.expr()
            self.expect(")")
            return value
        if kind == "op" and tok == "-":
            return -self.atom()
        if kind == "name":
            if tok in ("sin", "cos"):
                self.expect("(")
                multiple, angle = self.trig_argument()
                self.expect(")")
                return Scalar.harmonic(
                    self.chart, SIN if tok == "sin" else COS, angle, multiple
                )
            if not self.chart.is_symbol(tok):
                raise UnknownSymbol(f"{tok!r} is not a symbol of {self.chart}")
            return Scalar.var(self.chart, tok)
        raise ParseError(f"unexpected token {tok!r} in {self.text!r}")

    def trig_argument(self) -> tuple[int, str]:
        sign = 1
        kind, tok = self.peek()
        if kind == "op" and tok == "-":
            self.take()
            sign = -1
        kind, tok = self.take()
        if kind == "number":
            if "/" in tok:
                raise ParseError("harmonic multiples must be integers")
            multiple = sign * _number(tok)[0]
            self.expect("*")
            kind, tok = self.take()
            if kind != "name":
                raise ParseError("expected an angle name inside sin/cos")
            self.chart.require_angle(tok)
            return multiple, tok
        if kind == "name":
            self.chart.require_angle(tok)
            return sign, tok
        raise ParseError("expected an integer multiple of an angle inside sin/cos")


def _bounded_power(base: Scalar, exponent: int) -> Scalar:
    """``base ** exponent``, refused when the expansion may grow too large.

    A single term without harmonics, which :meth:`Scalar.__pow__` raises by
    scaling its exponents, numerator and denominator, is raised only after
    a bit-length estimate shows that the two integers may stay within
    ``_MAX_DIGITS`` digits.  Every other base is expanded by the binary
    powering of :func:`_binary_power`, under the bounds that follow.

    A power of t terms has at most C(t+e-1, e) monomials before any
    product-to-sum rewrite.  A one-term base with harmonics in h angles
    grows by product-to-sum instead: its power e // 2 has (e // 4 + 1)^h
    terms, and squaring that is refused by the m * n rule of products.

    A base of several terms with harmonics grows by both.  The power k of
    its terms with harmonics has at most C(p+k-1, k) power parts, p being
    the distinct power parts of those terms, times prod_a (k * M_a + 1)
    harmonic parts, M_a being the largest multiple of angle a in the base,
    or 2 * k * M_a + 1 when a appears in a sine.  Each squaring and product
    of the binary powering is refused by the m * n rule on these counts.

    Those counts bound terms, not work: a base that mixes terms with and
    without harmonics, such as q + p + cos(th), passes them and can still
    need products of millions of term pairs.  So the powering shares the
    schedule of :meth:`Scalar.__pow__`, :func:`_binary_power`, with checked
    products: since a product of m and n terms costs in proportion to its
    m * n term pairs (Johnson, "Sparse polynomial arithmetic", 1974), it is
    refused before any product whose pairs exceed ``_MAX_POWER_PAIRS``.
    Each product's coefficients are bounded like the direct route's.
    """
    t = len(base.nums)
    if t == 1 and exponent:
        (((_, trig), n),) = base.nums.items()
        if not trig:
            for x in (n, base.den):
                # |x|^e >= 2^((bits - 1) * e), so this refuses without computing
                if (abs(x).bit_length() - 1) * exponent >= _COEFFICIENT_BITS:
                    raise ParseError(_TOO_MANY_DIGITS)
            return _fitting(base**exponent)
    if t > 1 and math.comb(t + exponent - 1, exponent) > _MAX_PARSED_TERMS:
        raise ParseError(
            f"a {t}-term expression to the power {exponent} may expand to more "
            f"than {_MAX_PARSED_TERMS} terms"
        )
    if t == 1:
        ((_, trig),) = base.nums
        half = (exponent // 4 + 1) ** len(trig)
        if trig and half * half > _MAX_PARSED_TERMS:
            raise ParseError(
                f"a term with harmonics to the power {exponent} may expand to "
                f"more than {_MAX_PARSED_TERMS} terms"
            )
    elif _harmonic_growth(base, exponent) > _MAX_PARSED_TERMS:
        raise ParseError(
            f"a {t}-term expression with harmonics to the power {exponent} may "
            f"expand to more than {_MAX_PARSED_TERMS} terms"
        )

    def product(a: Scalar, b: Scalar) -> Scalar:
        m, n = len(a.nums), len(b.nums)
        if m * n > _MAX_POWER_PAIRS:
            raise ParseError(
                f"a {t}-term expression to the power {exponent} needs a product of "
                f"{m} and {n} terms, more than {_MAX_POWER_PAIRS} term pairs"
            )
        return _fitting(a * b)

    return _binary_power(Scalar.one(base.chart), base, exponent, product)


def _harmonic_growth(base: Scalar, exponent: int) -> int:
    """The largest m * n over the products :meth:`Scalar.__pow__` makes,
    m and n bounding the terms of the two factors' powers of the terms
    with harmonics: :func:`_binary_power` run on exponents."""
    powers = {p for p, trig in base.nums if trig}
    largest: dict[str, int] = {}
    sines: set[str] = set()
    for _, trig in base.nums:
        for angle, kind, m in trig:
            largest[angle] = max(largest.get(angle, 0), m)
            if kind == SIN:
                sines.add(angle)

    def parts(k: int) -> int:
        harmonics = math.prod((2 if a in sines else 1) * k * m + 1 for a, m in largest.items())
        return math.comb(len(powers) + k - 1, k) * harmonics

    worst = 0

    def product(r: int, s: int) -> int:
        # base^r times base^s; the first product, by base^0 = 1, forms no pairs
        nonlocal worst
        if r:
            worst = max(worst, parts(r) * parts(s))
        return r + s

    _binary_power(0, 1, exponent, product)
    return worst


def _as_rational(f: Scalar) -> Fraction | None:
    terms = f.terms
    if not terms:
        return Fraction(0)
    if list(terms) == [_EMPTY_KEY]:
        return terms[_EMPTY_KEY]
    return None


def parse(chart: Chart, text: str) -> Scalar:
    """Parse an expression string into a canonical Scalar."""
    try:
        return _Parser(chart, text).parse()
    except RecursionError:
        raise ParseError("expression nests too deeply") from None
