"""Courant calculus on tangent-plus-cotangent sections and the coupling
distribution built from a connection, a pairing form and the bivector.

The distribution is spanned by sections sharpening the connection coframe
and by frame lifts coupled through the pairing form.  It is Lagrangian by
construction, so membership reduces to pairing against the generators;
involutivity, gauge shifts and group invariance are all decided exactly.
On a Lagrangian family the Courant bracket is the Dorfman bracket (Courant,
"Dirac manifolds", Trans. AMS 319, 1990): each generator's form is
differentiated once, not once per pair.
:class:`DiracData` indexes the generators' entries by coordinate, so a
section is paired with all of them by multiplying only the entries that meet,
and it keeps the pairing of each generator with the family once computed.

Involutivity scans only the pairings that skewness leaves open.  On a
Lagrangian family T(a, b, c) = <[a, b], c> is totally skew (Courant 1990):
[a, b] + [b, a] = d<a, b> = 0, and <[a, b], c> + <b, [a, c]> = X_a<b, c> = 0.
So T vanishes when two entries repeat, and on three distinct generators it
is fixed, up to sign, by its value on i < j < k.  The scan therefore pairs
the bracket of generators (i, j) only with the generators k > j, and builds
no bracket whose j is the last index.  Its witness is the one the full scan
over every k gives: if the first pair (i, j) to escape in lexicographic
order paired nonzero with some k <= j, then k is neither i nor j, and
T(i, j, k) = T(k, i, j) for k < i, or -T(i, k, j) for i < k < j, so the
earlier pair (k, i), or (i, k), would have escaped first.

On a wide chart most brackets are zero because of which coordinates their
generators use, and the scan builds only the others.  For a generator
s = (X, alpha), let reach(s) be the indices X stores and touch(s) the
coordinates that the entries of X and alpha depend on, together with the
indices alpha stores (:func:`~foliavg.geom.support`).  The bracket of s and t = (Y, beta) is
([X, Y], i_X d(beta) - i_Y d(alpha) + d(beta(X))), and each term needs the
reach of one generator to meet the touch of the other: [X, Y]^k needs X^i
d_i Y^k != 0 or the mirror; i_X d(beta) needs X^i != 0 at an i that beta
depends on or stores, and i_Y d(alpha) the mirror; d(beta(X)) needs
X^i beta_i != 0.  When reach(s) misses touch(t) and reach(t) misses
touch(s), the bracket is the zero section, which pairs to zero with every
generator, so skipping it leaves the first witness as it is.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations
from operator import add
from typing import Sequence

from .action import TorusAction
from .errors import (
    ChartMismatch,
    InvariantViolation,
    NotHorizontal,
    UnsupportedDegree,
)
from .foliation import Connection, is_horizontal_form
from .geom import (
    DiffForm,
    VectorField,
    exterior_derivative,
    interior_product,
    lie_derivative,
    pullback,
    reaches_form,
    support,
    supports_meet,
)
from .poisson import PoissonBivector, differential
from .symcalc import Scalar


class Section:
    """A vector field paired with a one-form on the same chart."""

    __slots__ = ("chart", "X", "alpha")

    def __init__(self, X: VectorField, alpha: DiffForm) -> None:
        if X.chart != alpha.chart:
            raise ChartMismatch("field and form live on different charts")
        if alpha.degree != 1:
            raise UnsupportedDegree("a section carries a one-form")
        object.__setattr__(self, "chart", X.chart)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "alpha", alpha)

    def __setattr__(self, name, value):
        raise AttributeError("Section is immutable")

    @property
    def is_zero(self) -> bool:
        return self.X.is_zero and self.alpha.is_zero

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Section):
            return NotImplemented
        return self.X == other.X and self.alpha == other.alpha

    def __hash__(self) -> int:
        return hash((self.X, self.alpha))

    def __repr__(self) -> str:
        return f"Section({self.X!r}, {self.alpha!r})"


def pairing(s: Section, t: Section) -> Scalar:
    """The symmetric pairing: each form on the other's field, summed."""
    if s.chart != t.chart:
        raise ChartMismatch("sections live on different charts")
    return t.alpha.evaluate(s.X) + s.alpha.evaluate(t.X)


def courant_bracket(s: Section, t: Section) -> Section:
    """Bracket of fields with the antisymmetrized Lie derivative of forms."""
    if s.chart != t.chart:
        raise ChartMismatch("sections live on different charts")
    chart = s.chart
    half = Scalar.const(chart, "1/2")
    cross = s.alpha.evaluate(t.X) - t.alpha.evaluate(s.X)
    form = (
        lie_derivative(s.X, t.alpha)
        - lie_derivative(t.X, s.alpha)
        + differential(cross * half)
    )
    return Section(s.X.bracket(t.X), form)


def _lagrangian_bracket(s: Section, t: Section, ds: DiffForm, dt: DiffForm) -> Section:
    """The Courant bracket of sections that pair to zero, from the
    differentials of their forms: ([X, Y], i_X dt - i_Y ds + d(t(X)))."""
    form = interior_product(s.X, dt) - interior_product(t.X, ds)
    return Section(s.X.bracket(t.X), form + differential(t.alpha.evaluate(s.X)))


# ----------------------------------------------------------------------
# the coupling distribution


class DiracData:
    """Generator presentation of the coupling distribution.  ``_fields`` and
    ``_forms`` map each coordinate index i to the pairs (k, entry) of the
    generators k whose field, or form, stores an entry at i.  ``_supports``
    keeps, per generator (X, alpha), the pair (reach, touch): the indices X
    stores, and the coordinates that the entries of X and alpha depend on
    together with the indices alpha stores.  Two generators whose supports
    do not meet (:func:`~foliavg.geom.supports_meet`) have a zero bracket,
    and a flow that moves no coordinate in touch and gives no field image
    to an index in reach leaves a generator as it is.  ``_rows`` keeps, per
    generator, its pairings with every generator, each row filled on first
    use."""

    __slots__ = ("conn", "sigma", "P", "generators", "_fields", "_forms", "_supports", "_rows")

    def __init__(
        self,
        conn: Connection,
        sigma: DiffForm,
        P: PoissonBivector,
        generators: Sequence[Section],
    ) -> None:
        object.__setattr__(self, "conn", conn)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "P", P)
        generators = tuple(generators)
        fields: dict[int, list[tuple[int, Scalar]]] = {}
        forms: dict[int, list[tuple[int, Scalar]]] = {}
        supports = []
        for k, gen in enumerate(generators):
            for index, tensor in ((fields, gen.X), (forms, gen.alpha)):
                for (i,), entry in tensor.comps.items():
                    index.setdefault(i, []).append((k, entry))
            (reach, uses), (stored, form_uses) = support(gen.X), support(gen.alpha)
            supports.append((reach, uses | stored | form_uses))
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "_fields", fields)
        object.__setattr__(self, "_forms", forms)
        object.__setattr__(self, "_supports", tuple(supports))
        object.__setattr__(self, "_rows", [None] * len(generators))

    def __setattr__(self, name, value):
        raise AttributeError("DiracData is immutable")

    @property
    def chart(self):
        return self.conn.chart

    def __repr__(self) -> str:
        return "DiracData(" + ", ".join(repr(g) for g in self.generators) + ")"


def build_coupling_dirac(
    conn: Connection, sigma: DiffForm, P: PoissonBivector
) -> DiracData:
    """Span: frame lifts coupled through sigma, then sharpened coframe sections."""
    chart = conn.chart
    if sigma.chart != chart or P.chart != chart:
        raise ChartMismatch("pairing form or bivector lives on another chart")
    if sigma.degree != 2:
        raise UnsupportedDegree("the pairing form is a two-form")
    if not is_horizontal_form(sigma):
        raise NotHorizontal("the pairing form is horizontal")
    generators = []
    for lift in conn.frame.values():
        generators.append(Section(lift, -interior_product(lift, sigma)))
    for eta in conn.coframe.values():
        generators.append(Section(P.sharp(eta), eta))
    return DiracData(conn, sigma, P, generators)


def _pairings(D: DiracData, s: Section, first: int = 0) -> list[Scalar]:
    """The pairing of s with each generator k >= first, multiplying only
    the entries that share a coordinate index; entry k - first is the
    pairing with generator k."""
    if s.chart != D.chart:
        raise ChartMismatch("sections live on different charts")
    parts: list[list[Scalar]] = [[] for _ in D.generators[first:]]
    for own, index in ((s.X, D._forms), (s.alpha, D._fields)):
        for (i,), value in own.comps.items():
            for k, entry in index.get(i, ()):
                if k >= first:
                    parts[k - first].append(entry * value)
    zero = Scalar.zero(D.chart)
    return [reduce(add, terms) if terms else zero for terms in parts]


def _row(D: DiracData, i: int) -> list[Scalar]:
    """The pairings of generator i with every generator, computed once."""
    row = D._rows[i]
    if row is None:
        row = D._rows[i] = _pairings(D, D.generators[i])
    return row


def _escape(values: Sequence[Scalar], first: int = 0) -> str | None:
    """The witness of the first nonzero pairing, ``values`` starting at
    generator ``first``."""
    for k, value in enumerate(values, first):
        if not value.is_zero:
            return f"pairing with generator {k} is {value}"
    return None


def verify_lagrangian(D: DiracData) -> str | None:
    """Generator count equals the chart dimension and all pairings vanish."""
    if len(D.generators) != D.chart.dim:
        return (
            f"{len(D.generators)} generators for a {D.chart.dim}-dimensional chart"
        )
    count = len(D.generators)
    for i, j in combinations(range(count), 2):
        value = _row(D, i)[j]
        if not value.is_zero:
            return f"generators {i} and {j} pair to {value}"
    for i in range(count):
        value = _row(D, i)[i]
        if not value.is_zero:
            return f"generator {i} pairs with itself to {value}"
    return None


def is_member(D: DiracData, s: Section) -> str | None:
    """Membership via vanishing pairing with every generator."""
    return _escape(_pairings(D, s))


def verify_involutive(D: DiracData) -> str | None:
    """Courant brackets of generator pairs must pair to zero throughout.

    A family that is not Lagrangian gets the Lagrangian witness.  On one
    that is, each bracket is the Dorfman bracket (Courant 1990).  By the
    total skewness of <[a, b], c> on a Lagrangian family, the bracket of
    generators (i, j), i < j, is paired only with the generators k > j, and
    no bracket with j the last index is built.  Nor is the bracket of a pair
    whose supports do not meet: reach(i) misses touch(j) and reach(j)
    misses touch(i) (``DiracData._supports``), so each of the three terms of
    ([X, Y], i_X d(beta) - i_Y d(alpha) + d(beta(X))) vanishes, as the module
    docstring shows.  A generator's form is differentiated once, when a kept
    pair first needs it.  The first witness is still the full scan's: the
    first pair (i, j) to escape in lexicographic order, and its first
    generator k with a nonzero pairing.
    """
    flat = verify_lagrangian(D)
    if flat is not None:
        return flat
    gens, supports = D.generators, D._supports
    d_forms: dict[int, DiffForm] = {}
    for i, j in combinations(range(len(gens) - 1), 2):
        if not supports_meet(supports[i], supports[j]):
            continue
        for k in (i, j):
            if k not in d_forms:
                d_forms[k] = exterior_derivative(gens[k].alpha)
        bracket = _lagrangian_bracket(gens[i], gens[j], d_forms[i], d_forms[j])
        witness = _escape(_pairings(D, bracket, j + 1), j + 1)
        if witness is not None:
            return f"bracket of generators {i} and {j} escapes: {witness}"
    return None


def gauge_transform(D: DiracData, B: DiffForm) -> DiracData:
    """Shift each section's form by its field contracted into B.

    The result coincides generator by generator with the coupling
    distribution built from the pairing form minus B.
    """
    chart = D.chart
    if B.chart != chart:
        raise ChartMismatch("gauge form lives on another chart")
    if B.degree != 2:
        raise UnsupportedDegree("a gauge shift is a two-form")
    if not is_horizontal_form(B):
        raise NotHorizontal("a gauge shift is horizontal")
    moved = [
        Section(gen.X, gen.alpha + interior_product(gen.X, B))
        for gen in D.generators
    ]
    rebuilt = build_coupling_dirac(D.conn, D.sigma - B, D.P)
    if tuple(moved) != rebuilt.generators:
        raise InvariantViolation("gauge shift does not match the rebuilt family")
    return rebuilt


# ----------------------------------------------------------------------
# group invariance


def verify_g_invariance(action: TorusAction, D: DiracData) -> str | None:
    """Pull every generator back by each symbolic flow and test membership;
    a generator that a flow leaves as it is reads its row of pairings.

    Which generators a flow leaves as they are is read off their supports
    (``DiracData._supports``) and the flow's
    :meth:`~foliavg.geom.ChartMap.moved_indices`: touch must miss the moved
    coordinates, and reach the indices whose coordinate fields have images.
    Exactly those generators are their own pullbacks, so none of them is
    pulled back.  Reach is held against the field images, not the moved
    coordinates: on a flow that depends on a fixed base coordinate, such as
    p -> p + x1*q^2, d/dx1 gains -q^2 d/dp, so a generator that stores
    d/dx1 moves although x1 does not.

    When D is Lagrangian and every flow preserves the vertical foliation V,
    the verdict is cross-checked through the coupling data.  D determines
    them: H is spanned by the fields of the sections whose forms vanish on
    V, the pairing form is read off the forms paired with H, and the
    bivector is the vertical part of the fields paired with ann H.  Pullback
    is natural, so a flow keeps D exactly when it keeps the pairing form,
    the bivector and the projection; and a flow solves d/dth phi = X o phi
    (checked at load), so it keeps the pairing form exactly when its
    generator's Lie derivative of it vanishes.  An invariant D is checked
    on the pairing form alone; the bivector and the projection are pulled
    back only for a moved D whose pairing form is kept.

    That Lie derivative is zero, and not computed, when the generator
    stores no index that the pairing form stores or depends on
    (:func:`~foliavg.geom.reaches_form`).  The row of a generator that a
    flow leaves as it is is scanned once per call, not once per flow.
    """
    witness = None
    fixed: dict[int, str | None] = {}
    for factor in action.factors:
        flow = factor.flow()
        moved, field_moved = flow.moved_indices()
        for i, gen in enumerate(D.generators):
            reach, touch = D._supports[i]
            if touch.isdisjoint(moved) and reach.isdisjoint(field_moved):
                # the flow leaves the generator as it is: read its row
                if i not in fixed:
                    fixed[i] = _escape(_row(D, i))
                failed = fixed[i]
            else:
                failed = is_member(D, Section(pullback(flow, gen.X), pullback(flow, gen.alpha)))
            if failed is not None:
                witness = (
                    f"{factor.angle} flow moves generator {i} out: {failed}"
                )
                break
        if witness is not None:
            break
    if verify_lagrangian(D) is not None or any(
        factor.mixed_base() is not None for factor in action.factors
    ):
        return witness
    sigma_support = support(D.sigma)
    kept = all(
        not reaches_form(support(X)[0], sigma_support) or lie_derivative(X, D.sigma).is_zero
        for X in (factor.generator() for factor in action.factors)
    )
    if kept and witness is not None:
        kept = all(
            pullback(factor.flow(), D.P.mv) == D.P.mv
            and pullback(factor.flow(), D.conn.projection) == D.conn.projection
            for factor in action.factors
        )
    if kept != (witness is None):
        raise InvariantViolation("membership and pairing-form invariance routes disagree")
    return witness


def hamiltonian_generator_check(
    action: TorusAction, moments: Sequence[DiffForm], D: DiracData
) -> str | None:
    """Each generator field with its momentum one-form must be a section."""
    if len(moments) != len(action.factors):
        raise InvariantViolation("expected one momentum one-form per circle factor")
    for factor, mu in zip(action.factors, moments):
        witness = is_member(D, Section(factor.generator(), mu))
        if witness is not None:
            return f"({factor.angle} generator, its one-form) is no section: {witness}"
    return None

