"""Exact scalar calculus on a coordinate chart with torus angles.

A :class:`Scalar` is a finite sum of monomials

    c * pi^a * x1^e1 * ... * th^k * trig(m1*th1) * trig(m2*th2) * ...

with ``c`` rational, ``x*`` chart coordinates and ``trig`` either ``sin`` or
``cos`` applied to a positive integer multiple of one chart angle.  The
canonical form keeps at most one trigonometric factor per angle: products of
harmonics in the same angle are rewritten to linear harmonics with the
product-to-sum identities, so equality of expressions is equality of the
term dictionaries and ``zero`` is the empty sum.  No floating point enters
any operation here; coefficients live in Q adjoined the symbol ``pi``,
which only appears through exact averages of bare angle powers.

Bare (polynomial) angle powers are not produced by the input grammar, but
they arise internally as antiderivatives of constant Fourier terms and are
fully supported by differentiation, substitution and exact averaging.

Products follow the Poisson-series layout: two monomials multiply by
merging their power tuples (an empty side leaves the other as it is) and
multiplying their trig parts.  A trig part times an empty one is itself,
with factor 1; only two non-empty trig parts need the product-to-sum
rewrite, and :func:`_product_items` does it once per distinct pair, in a
table local to the call.  The pairs of one product repeat many times, but
a table that outlived the call would carry state from one product to the
next and grow without bound, so each product starts with an empty one.
"""

from __future__ import annotations

import functools
import math
import re
from collections.abc import Iterable, Iterator, Mapping, Sequence
from fractions import Fraction
from typing import Union

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

# Largest multinomial term count the parser expands a power to.
_MAX_POWER_TERMS = 10_000

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*\Z")

Number = Union[int, Fraction]

# A monomial key is a pair (powers, trig):
#   powers: tuple of (symbol, exponent), sorted by symbol, exponent >= 1;
#           symbols are coordinates, bare angles, or the reserved "pi".
#   trig:   tuple of (angle, kind, multiple), sorted by angle, at most one
#           entry per angle, multiple >= 1, kind in {SIN, COS}.
Powers = tuple[tuple[str, int], ...]
Trig = tuple[tuple[str, str, int], ...]
Key = tuple[Powers, Trig]

_EMPTY_KEY: Key = ((), ())


class Chart:
    """Distinguished coordinates of one foliated chart plus torus angles.

    Horizontal coordinates label the leaves of the foliation, vertical
    coordinates span the leaves, and angles parametrise the acting torus.
    Angles are parameters, not manifold coordinates: forms and fields have
    no components along them.
    """

    __slots__ = ("horizontal", "vertical", "angles")

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
        object.__setattr__(self, "horizontal", horizontal)
        object.__setattr__(self, "vertical", vertical)
        object.__setattr__(self, "angles", angles)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Chart is immutable")

    @property
    def coords(self) -> tuple[str, ...]:
        return self.horizontal + self.vertical

    @property
    def dim(self) -> int:
        return len(self.horizontal) + len(self.vertical)

    def is_coord(self, name: str) -> bool:
        return name in self.horizontal or name in self.vertical

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
        self.require_coord(name)
        return self.coords.index(name)

    def with_extra_angles(self, extra: Sequence[str]) -> "Chart":
        return Chart(self.horizontal, self.vertical, self.angles + tuple(extra))

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


def _norm_harmonic(kind: str, m: int) -> tuple[Fraction, str | None, int]:
    """Reduce trig(m*th) to sign * trig(|m|*th) with m >= 0."""
    if m == 0:
        return (Fraction(1), None, 0) if kind == COS else (Fraction(0), None, 0)
    if m < 0:
        return (Fraction(1), COS, -m) if kind == COS else (Fraction(-1), SIN, -m)
    return Fraction(1), kind, m


def _trig_pair(kind1: str, m1: int, kind2: str, m2: int) -> list[tuple[Fraction, str | None, int]]:
    """Product-to-sum rewrite of trig(m1*th)*trig(m2*th), same angle."""
    half = Fraction(1, 2)
    if kind1 == COS and kind2 == COS:
        raw = [(half, COS, m1 - m2), (half, COS, m1 + m2)]
    elif kind1 == SIN and kind2 == SIN:
        raw = [(half, COS, m1 - m2), (-half, COS, m1 + m2)]
    elif kind1 == SIN and kind2 == COS:
        raw = [(half, SIN, m1 + m2), (half, SIN, m1 - m2)]
    else:  # cos * sin
        raw = [(half, SIN, m1 + m2), (-half, SIN, m1 - m2)]
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


def _mul_trig(t1: Trig, t2: Trig) -> list[tuple[Trig, Fraction]]:
    """Product-to-sum rewrite of two trig parts, as (trig part, factor) pairs."""
    trig1 = dict((a, (kind, m)) for a, kind, m in t1)
    trig2 = dict((a, (kind, m)) for a, kind, m in t2)
    # (coefficient, {angle: (kind, m)}) partial products
    partial: list[tuple[Fraction, dict[str, tuple[str, int]]]] = [(Fraction(1), {})]
    for angle in sorted(set(trig1) | set(trig2)):
        if angle in trig1 and angle in trig2:
            expansions = _trig_pair(*trig1[angle], *trig2[angle])
            nxt = []
            for coef, trig in partial:
                for c2, kind, m in expansions:
                    t = dict(trig)
                    if kind is not None:
                        t[angle] = (kind, m)
                    nxt.append((coef * c2, t))
            partial = nxt
        else:
            kind, m = trig1.get(angle) or trig2[angle]
            for _, trig in partial:
                trig[angle] = (kind, m)
    return [
        (tuple((a, kind, m) for a, (kind, m) in sorted(trig.items())), coef)
        for coef, trig in partial
    ]


def _product_items(
    left: Iterable[tuple[Key, Fraction]], right: Iterable[tuple[Key, Fraction]]
) -> list[tuple[Key, Fraction]]:
    """Uncollected terms of the product of two sums of terms.

    Each pair of trig parts is rewritten once per call: the table lives
    only as long as this product.
    """
    right = list(right)
    table: dict[tuple[Trig, Trig], list[tuple[Trig, Fraction]]] = {}
    items: list[tuple[Key, Fraction]] = []
    append = items.append
    for (p1, t1), c1 in left:
        for (p2, t2), c2 in right:
            powers = _merge_powers(p1, p2)
            if not t2:
                append(((powers, t1), c1 * c2))
            elif not t1:
                append(((powers, t2), c1 * c2))
            else:
                pairs = table.get((t1, t2))
                if pairs is None:
                    pairs = table[t1, t2] = _mul_trig(t1, t2)
                c = c1 * c2
                for trig, factor in pairs:
                    append(((powers, trig), c * factor))
    return items


class Scalar:
    """An exact scalar function on a chart, kept in canonical form."""

    __slots__ = ("chart", "terms", "_hash")

    def __init__(self, chart: Chart, terms: Mapping[Key, Fraction] | None = None) -> None:
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "terms", dict(terms or {}))
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Scalar is immutable")

    # ------------------------------------------------------------------
    # constructors

    @staticmethod
    def _new(chart: Chart, items: Iterable[tuple[Key, Fraction]]) -> "Scalar":
        acc: dict[Key, Fraction] = {}
        for key, coef in items:
            if not coef:
                continue
            prev = acc.get(key)
            total = coef if prev is None else prev + coef
            if total:
                acc[key] = total
            elif prev is not None:
                del acc[key]
        return Scalar(chart, acc)

    @staticmethod
    def zero(chart: Chart) -> "Scalar":
        return Scalar(chart)

    @staticmethod
    def const(chart: Chart, value: Number | str) -> "Scalar":
        coef = Fraction(value)
        return Scalar._new(chart, [(_EMPTY_KEY, coef)])

    @staticmethod
    def one(chart: Chart) -> "Scalar":
        return Scalar.const(chart, 1)

    @staticmethod
    def var(chart: Chart, name: str) -> "Scalar":
        if not chart.is_symbol(name):
            raise UnknownSymbol(f"{name!r} is not a symbol of {chart}")
        return Scalar._new(chart, [(((((name, 1),)), ()), Fraction(1))])

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
        key: Key = ((), ((angle, nkind, nm),))
        return Scalar._new(chart, [(key, sign)])

    @staticmethod
    def sin(chart: Chart, angle: str, multiple: int = 1) -> "Scalar":
        return Scalar.harmonic(chart, SIN, angle, multiple)

    @staticmethod
    def cos(chart: Chart, angle: str, multiple: int = 1) -> "Scalar":
        return Scalar.harmonic(chart, COS, angle, multiple)

    @staticmethod
    def pi(chart: Chart) -> "Scalar":
        return Scalar._new(chart, [((((PI, 1),), ()), Fraction(1))])

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
        if not rhs.terms:
            return self
        if not self.terms:
            return rhs
        return Scalar._new(self.chart, list(self.terms.items()) + list(rhs.terms.items()))

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return Scalar(self.chart, {k: -c for k, c in self.terms.items()})

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
        if not self.terms:
            return self
        if not rhs.terms:
            return rhs
        return Scalar._new(
            self.chart, _product_items(self.terms.items(), rhs.terms.items())
        )

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Scalar":
        if not isinstance(exponent, int) or exponent < 0:
            raise ParseError("exponents must be non-negative integers")
        # binary exponentiation: one squaring per bit of the exponent
        result = Scalar.one(self.chart)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Scalar.const(self.chart, other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return (
            self.chart is other.chart or self.chart == other.chart
        ) and self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            canon = tuple(sorted(self.terms.items()))
            object.__setattr__(self, "_hash", hash((self.chart, canon)))
        return self._hash

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def free_symbols(self) -> set[str]:
        names: set[str] = set()
        for powers, trig in self.terms:
            names.update(name for name, _ in powers)
            names.update(angle for angle, _, _ in trig)
        return names

    def depends_on(self, name: str) -> bool:
        return name in self.free_symbols()

    # ------------------------------------------------------------------
    # calculus

    def diff(self, name: str) -> "Scalar":
        """Exact partial derivative with respect to a coordinate or angle."""
        if not (self.chart.is_coord(name) or self.chart.is_angle(name)):
            raise UnknownSymbol(f"cannot differentiate along {name!r}")
        items: list[tuple[Key, Fraction]] = []
        for (powers, trig), coef in self.terms.items():
            power_map = dict(powers)
            # bare power factor
            exp = power_map.get(name, 0)
            if exp:
                reduced = dict(power_map)
                if exp == 1:
                    del reduced[name]
                else:
                    reduced[name] = exp - 1
                items.append(((tuple(sorted(reduced.items())), trig), coef * exp))
            # harmonic factor (angles only)
            for i, (angle, kind, m) in enumerate(trig):
                if angle != name:
                    continue
                rest = trig[:i] + trig[i + 1 :]
                if kind == COS:
                    newtrig = tuple(sorted(rest + ((angle, SIN, m),)))
                    items.append(((powers, newtrig), -coef * m))
                else:
                    newtrig = tuple(sorted(rest + ((angle, COS, m),)))
                    items.append(((powers, newtrig), coef * m))
        return Scalar._new(self.chart, items)

    def substitute(self, rules: Mapping[str, "Scalar | Number"]) -> "Scalar":
        """Simultaneous substitution of coordinates by scalars.

        A :class:`Substitution` is used as given, so the image powers it
        keeps serve every scalar it is applied to; any other mapping is
        validated into a throwaway one.
        """
        if not isinstance(rules, Substitution):
            rules = Substitution(self.chart, rules)
        return rules.apply(self)

    def substitute_angle(
        self, angle: str, combo: Sequence[tuple[str, int]]
    ) -> "Scalar":
        """Replace an angle by an integer combination of angles.

        ``combo`` lists (angle, coefficient) pairs; the empty combination
        sets the angle to zero.  Harmonics are expanded with the angle
        addition formulas, bare powers multinomially.
        """
        self.chart.require_angle(angle)
        merged: dict[str, int] = {}
        for other, c in combo:
            self.chart.require_angle(other)
            merged[other] = merged.get(other, 0) + c
        terms = tuple((a, c) for a, c in sorted(merged.items()) if c)
        linear = Scalar.zero(self.chart)
        for a, c in terms:
            linear = linear + c * Scalar.var(self.chart, a)
        # each power of the combination and each harmonic of it, once per call
        linear_powers: dict[int, Scalar] = {}
        harmonics: dict[tuple[str, int], Scalar] = {}
        total = Scalar.zero(self.chart)
        for (powers, trig), coef in self.terms.items():
            kept_powers = tuple((n, e) for n, e in powers if n != angle)
            kept_trig = tuple(t for t in trig if t[0] != angle)
            piece = Scalar._new(self.chart, [((kept_powers, kept_trig), coef)])
            for n, e in powers:
                if n == angle:
                    image = linear_powers.get(e)
                    if image is None:
                        image = linear_powers[e] = linear**e
                    piece = piece * image
            for a, kind, m in trig:
                if a == angle:
                    image = harmonics.get((kind, m))
                    if image is None:
                        image = harmonics[kind, m] = _harmonic_of_combo(
                            self.chart, kind, m, terms
                        )
                    piece = piece * image
            total = total + piece
        return total

    def average_over_angle(self, angle: str) -> "Scalar":
        """Exact Haar average (1/2pi) * integral over one full period."""
        self.chart.require_angle(angle)
        items: list[tuple[Key, Fraction]] = []
        for (powers, trig), coef in self.terms.items():
            power_map = dict(powers)
            k = power_map.pop(angle, 0)
            entry = next((t for t in trig if t[0] == angle), None)
            rest_trig = tuple(t for t in trig if t[0] != angle)
            if entry is None:
                values = _avg_power(k)
            else:
                values = _avg_power_trig(k, entry[1], entry[2])
            for pi_pow, val in values.items():
                if pi_pow:
                    power_map2 = dict(power_map)
                    power_map2[PI] = power_map2.get(PI, 0) + pi_pow
                else:
                    power_map2 = power_map
                key = (tuple(sorted(power_map2.items())), rest_trig)
                items.append((key, coef * val))
        return Scalar._new(self.chart, items)

    def antiderivative_from_zero(self, angle: str) -> "Scalar":
        """Integral from 0 to the angle of this scalar in that angle."""
        self.chart.require_angle(angle)
        items: list[tuple[Key, Fraction]] = []
        for (powers, trig), coef in self.terms.items():
            power_map = dict(powers)
            k = power_map.get(angle, 0)
            entry = next((t for t in trig if t[0] == angle), None)
            rest_trig = tuple(t for t in trig if t[0] != angle)
            if entry is None:
                power_map[angle] = k + 1
                key = (tuple(sorted(power_map.items())), trig)
                items.append((key, coef / (k + 1)))
                continue
            if k:
                raise NonPolynomialIntegrand(
                    f"mixed power and harmonic in {angle!r} has no polynomial antiderivative"
                )
            _, kind, m = entry
            if kind == COS:
                newtrig = tuple(sorted(rest_trig + ((angle, SIN, m),)))
                items.append(((powers, newtrig), coef / m))
            else:
                items.append(((powers, rest_trig), coef / m))
                newtrig = tuple(sorted(rest_trig + ((angle, COS, m),)))
                items.append(((powers, newtrig), -coef / m))
        return Scalar._new(self.chart, items)

    def on_chart(self, chart: Chart) -> "Scalar":
        """Rebind to a chart declaring a superset of the used symbols."""
        for name in self.free_symbols():
            if name != PI and not chart.is_symbol(name):
                raise UnknownSymbol(f"{name!r} is not a symbol of {chart}")
        return Scalar(chart, dict(self.terms))

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


class Substitution(Mapping):
    """A simultaneous substitution of chart coordinates, validated once.

    As a mapping it sends every coordinate of the chart to its image, the
    coordinate itself where no rule moves it.  Only the moved coordinates
    take part in :meth:`apply`.  For each of them it keeps the powers of
    the image built so far (a ladder grown on first use), so one
    substitution applied to many scalars builds each power once.
    """

    __slots__ = ("chart", "_moved", "_ladders")

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
            if value.terms != {(((name, 1),), ()): 1}:
                moved[name] = value
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "_moved", moved)
        object.__setattr__(self, "_ladders", {})

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Substitution is immutable")

    def __getitem__(self, name: str) -> Scalar:
        image = self._moved.get(name)
        if image is not None:
            return image
        if self.chart.is_coord(name):
            return Scalar.var(self.chart, name)
        raise KeyError(name)

    def __iter__(self) -> Iterator[str]:
        return iter(self.chart.coords)

    def __len__(self) -> int:
        return self.chart.dim

    def _power(self, name: str, exponent: int) -> Scalar:
        """The image of ``name`` to a positive power, from the kept ladder."""
        ladder = self._ladders.get(name)
        if ladder is None:
            ladder = self._ladders[name] = [self._moved[name]]
        while len(ladder) < exponent:
            ladder.append(ladder[-1] * ladder[0])
        return ladder[exponent - 1]

    def apply(self, f: Scalar) -> Scalar:
        """Substitute into ``f``.

        Terms are grouped by their monomial in the moved coordinates; each
        group's remaining part is multiplied once by that monomial's image.
        """
        chart = self.chart
        if f.chart is not chart and f.chart != chart:
            raise ChartMismatch(f"{f.chart} vs {chart}")
        moved = self._moved
        if not moved:
            return f
        groups: dict[tuple[tuple[str, int], ...], list[tuple[Key, Fraction]]] = {}
        for (powers, trig), coef in f.terms.items():
            hit = tuple((n, e) for n, e in powers if n in moved)
            if hit:
                powers = tuple((n, e) for n, e in powers if n not in moved)
            groups.setdefault(hit, []).append(((powers, trig), coef))
        items: list[tuple[Key, Fraction]] = []
        for hit, kept in groups.items():
            if not hit:
                items.extend(kept)
                continue
            image = self._power(*hit[0])
            for name, e in hit[1:]:
                image = image * self._power(name, e)
            items.extend(_product_items(kept, image.terms.items()))
        return Scalar._new(chart, items)


def _harmonic_of_combo(
    chart: Chart, kind: str, multiple: int, terms: tuple[tuple[str, int], ...]
) -> Scalar:
    """Expand trig(multiple * sum(c_i * angle_i)) into the canonical basis."""
    scaled = tuple((a, multiple * c) for a, c in terms)
    return _expand_harmonic(chart, kind, scaled)


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


def _avg_power(k: int) -> dict[int, Fraction]:
    """Haar average of th^k: (2pi)^k / (k+1), as {pi power: coefficient}."""
    if k == 0:
        return {0: Fraction(1)}
    return {k: Fraction(2**k, k + 1)}


@functools.lru_cache(maxsize=None)
def _avg_power_trig(k: int, kind: str, m: int) -> dict[int, Fraction]:
    """Haar average of th^k * trig(m*th) by integration by parts."""
    if k == 0:
        return {}
    if kind == COS:
        inner = _avg_power_trig(k - 1, SIN, m)
        return {p: -Fraction(k, m) * v for p, v in inner.items()}
    out = {k - 1: -Fraction(2 ** (k - 1), m)}
    for p, v in _avg_power_trig(k - 1, COS, m).items():
        out[p] = out.get(p, Fraction(0)) + Fraction(k, m) * v
    return {p: v for p, v in out.items() if v}


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
    if not f.terms:
        return "0"
    pieces = []
    for key in sorted(f.terms):
        coef = f.terms[key]
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
    r"\s*(?:(?P<number>\d+(?:/\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r} at position {pos}")
        pos = match.end()
        for group in ("number", "name", "op"):
            value = match.group(group)
            if value is not None:
                tokens.append((group, value))
                break
    tokens.append(("end", ""))
    return tokens


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
        sign = 1
        kind, tok = self.peek()
        if kind == "op" and tok in "+-":
            self.take()
            sign = -1 if tok == "-" else 1
        value = sign * self.term()
        while True:
            kind, tok = self.peek()
            if kind == "op" and tok in "+-":
                self.take()
                rhs = self.term()
                value = value + rhs if tok == "+" else value - rhs
            else:
                return value

    def term(self) -> Scalar:
        value = self.factor()
        while True:
            kind, tok = self.peek()
            if kind == "op" and tok == "*":
                self.take()
                value = value * self.factor()
            elif kind == "op" and tok == "/":
                self.take()
                divisor = self.factor()
                const = _as_rational(divisor)
                if const is None or const == 0:
                    raise ParseError("division is only allowed by nonzero rationals")
                value = value * (Fraction(1) / const)
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
            if "/" in num:
                # the tokenizer reads "2/3" as one rational, but the power
                # binds tighter than the division
                exponent, denom = num.split("/")
                if int(denom) == 0:
                    raise ParseError("division is only allowed by nonzero rationals")
                value = _bounded_power(value, int(exponent)) * Fraction(1, int(denom))
            else:
                value = _bounded_power(value, int(num))
        return value

    def atom(self) -> Scalar:
        kind, tok = self.take()
        if kind == "number":
            return Scalar.const(self.chart, Fraction(tok))
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
            multiple = sign * int(tok)
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

    A power of t terms has at most C(t+e-1, e) monomials before any
    product-to-sum rewrite; one-term bases are never refused.
    """
    t = len(base.terms)
    if t > 1 and math.comb(t + exponent - 1, exponent) > _MAX_POWER_TERMS:
        raise ParseError(
            f"a {t}-term expression to the power {exponent} may expand to more "
            f"than {_MAX_POWER_TERMS} terms"
        )
    return base**exponent


def _as_rational(f: Scalar) -> Fraction | None:
    if not f.terms:
        return Fraction(0)
    if list(f.terms) == [_EMPTY_KEY]:
        return f.terms[_EMPTY_KEY]
    return None


def parse(chart: Chart, text: str) -> Scalar:
    """Parse an expression string into a canonical Scalar."""
    try:
        return _Parser(chart, text).parse()
    except RecursionError:
        raise ParseError("expression nests too deeply") from None
