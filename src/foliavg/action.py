"""Torus actions by explicit chart flows, and exact averaging along them.

Each circle factor acts through a polynomial-trigonometric flow in one
angle symbol, and is checked through its generator X: the flow must
solve d/dth phi = X o phi, and two factors commute when the bracket of
their generators vanishes.  Averaging takes the exact Haar mean in that
angle of the tensor pulled back by the symbolic flow, one factor at a
time.  The difference between a connection and its average is
reproduced by a flow integral of frame brackets, and the matching
potential one-form comes from the same integral applied to a momentum
datum.

Both functionals, the Haar mean and the mean of the running integral
from zero, are linear over every scalar that does not depend on the
angle.  So neither needs the pullback itself: each factor keeps, per
functional, a table of the functional of each flow image of a monomial
times basis factors that it has met (:class:`_PulledMeans`), and a
coefficient contributes its angle-free rest times a table entry.  An
entry builds neither its integrand nor the image of a mixed monomial: it
reads the functional of one ladder power times the rest of its parts off
:func:`~foliavg.symcalc.mean_of_product`.  Nor does deciding whether a
flow keeps a tensor T: the flow solves d/dth phi = X o phi, so it keeps T
for every angle exactly when L_X T = 0 (:func:`verify_action`).

Every bundled flow is a unit rotation of one coordinate pair.  There an
entry's integrand is a binomial sum of coordinate monomials times
cos^alpha * sin^beta of the angle, and Wallis' formula gives the mean of
each such product, so the entry is read off in closed form
(:func:`~foliavg.symcalc.rotation_mean`) and no ladder power is built.
Every other flow keeps the route above.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import reduce
from itertools import combinations
from operator import mul
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import (
    ChartMismatch,
    InvariantViolation,
    NonClosedOrbitCoefficients,
    NotHorizontal,
    UnsupportedDegree,
)
from .foliation import Connection, bigrade_component, is_horizontal_form, is_vertical_valued
from .geom import (
    ChartMap,
    DiffForm,
    VecValuedForm,
    VectorField,
    exterior_derivative,
    fn_bracket,
    interior_product,
    lie_derivative,
    support,
    supports_meet,
)
from .poisson import PoissonBivector
from .symcalc import COS, SIN, Chart, Scalar, _Frozen, mean_of_product, rotation_mean


# ----------------------------------------------------------------------
# average bookkeeping

class AverageRecord(NamedTuple):
    angle: str
    integrand: Scalar
    average: Scalar


_records: list[AverageRecord] | None = None


@contextmanager
def record_averages() -> Iterator[list[AverageRecord]]:
    """Collect every Haar average taken while the context is active.

    Averages of pullbacks are read off the tables of the flow factors, so
    each table entry is recorded once, when it is computed, and a later use
    of the entry records nothing.  The record's average is the Haar mean of
    its integrand: for a Haar entry the flow image of a monomial times basis
    factors, f; for a running entry pi * mean(f) + the integral from zero of
    f - mean(f), periodic in the angle.  Integrands are built only while
    recording, so the recorded averages check the values the tables use.
    """
    global _records
    previous, _records = _records, []
    try:
        yield _records
    finally:
        _records = previous


def haar_average(f: Scalar, angle: str) -> Scalar:
    """Exact mean over one angle, recorded while :func:`record_averages` is
    active."""
    result = f.average_over_angle(angle)
    if _records is not None:
        _record(angle, f, result, running=False)
    return result


def _record(angle: str, f: Scalar, result: Scalar, running: bool) -> None:
    """Record ``result``, the Haar mean of f or with ``running`` the mean of
    its running integral, as the Haar mean of an integrand: f itself, or
    pi * mean(f) + the integral from zero of f - mean(f), which is periodic
    in the angle when f has no bare power of it."""
    if running:
        mean = f.average_over_angle(angle)
        f = mean * Scalar.pi(f.chart) + (f - mean).antiderivative_from_zero(angle)
    _records.append(AverageRecord(angle, f, result))


class _PulledMeans:
    """One functional of the pullback along one flow, read off a table.

    The functional is the Haar mean in the flow's angle, or with
    ``running`` the mean of the running integral from zero.  Both are
    linear over every scalar that does not depend on the angle.  So on a
    target whose coefficients do not depend on it, the functional of the
    pullback is a sum of such rests times the functional of a flow image
    of a monomial times basis factors (:meth:`ChartMap.pull_linear`).
    Those values depend on the flow alone; the table keeps each one it
    computes, keyed by the monomial and the factors' key, and the
    pullback of the target is never built.

    Nor is an entry's integrand.  Its parts are the ladder powers of the
    monomial, from the flow's :class:`~foliavg.symcalc.Substitution`, and
    the path's factors.  The part with the most terms, mostly a ladder
    power, stays apart; the others are multiplied into one scalar, and
    :func:`~foliavg.symcalc.mean_of_product` reads the functional of the
    two's product.  So the image of a mixed monomial such as p1*q1^12 is
    never built for an entry.

    A table of a unit rotation, given as the pair ``rotation`` = (u, v)
    with u -> u*cos(th) - v*sin(th) and v -> u*sin(th) + v*cos(th), skips
    both: when every factor of a path is one term +-cos(th) or +-sin(th),
    as the rotation's form and field images are, the entry is a binomial
    sum of Wallis weights (:func:`~foliavg.symcalc.rotation_mean`).  While
    :func:`record_averages` is active the integrand is still built, and
    the closed-form value is recorded as its mean.  Every other flow and
    path keeps the route above.

    The table keeps the flow and the angle, never the factor that owns
    it, so a factor and its tables form no reference cycle.
    """

    __slots__ = ("flow", "angle", "running", "rotation", "_entries")

    def __init__(
        self, flow: ChartMap, angle: str, running: bool, rotation: tuple[str, str] | None
    ) -> None:
        self.flow = flow
        self.angle = angle
        self.running = running
        self.rotation = rotation
        self._entries: dict[tuple, Scalar] = {}

    def __call__(self, target):
        """The functional of each coefficient of the pullback of ``target``."""
        angle = self.angle
        for coef in _coefficients(target):
            if coef.depends_on(angle):
                raise NonClosedOrbitCoefficients(
                    f"input already depends on the action angle {angle!r}"
                )
        return self.flow.pull_linear(target, self._entry)

    def _entry(self, hit, key, factors) -> Scalar:
        value = self._entries.get((hit, key))
        if value is None:
            path = None if self.rotation is None else _trig_path(factors, self.angle)
            if path is None:
                value = mean_of_product(*self._parts(hit, factors), self.angle, self.running)
            else:
                sign, cosines, sines = path
                u, v = self.rotation
                exponents = dict(hit)
                value = rotation_mean(
                    self.flow.chart, u, v, exponents.get(u, 0), exponents.get(v, 0),
                    cosines, sines, self.running,
                )
                value = value if sign > 0 else -value
            if _records is not None:
                a, b = self._parts(hit, factors)
                _record(self.angle, a * b, value, self.running)
            self._entries[hit, key] = value
        return value

    def _parts(self, hit, factors) -> tuple[Scalar, Scalar]:
        """The entry's integrand as two scalars: the part with the most
        terms, and the product of the others."""
        power = self.flow.mapping.power
        parts = [power(name, e) for name, e in hit]
        parts.extend(factors)
        one = Scalar.one(self.flow.chart)
        a = one
        if parts:
            a = parts.pop(max(range(len(parts)), key=lambda i: len(parts[i].nums)))
        b = reduce(mul, parts) if parts else one
        return a, b


def _rotation_pair(angle: str, images: Mapping[str, Scalar]) -> tuple[str, str] | None:
    """The pair (u, v) when the flow moves exactly u and v, by the unit
    rotation u -> u*cos(th) - v*sin(th), v -> u*sin(th) + v*cos(th); else
    None.  Both orders are tried, so the clockwise rotation counts too."""
    if len(images) != 2:
        return None
    cos, sin = ((angle, COS, 1),), ((angle, SIN, 1),)
    for u, v in (tuple(images), tuple(images)[::-1]):
        U, V = ((u, 1),), ((v, 1),)
        if (
            images[u].den == 1
            and images[u].nums == {(U, cos): 1, (V, sin): -1}
            and images[v].den == 1
            and images[v].nums == {(U, sin): 1, (V, cos): 1}
        ):
            return u, v
    return None


def _trig_path(factors: Sequence[Scalar], angle: str) -> tuple[int, int, int] | None:
    """(sign, cosines, sines) when the factors are each one term +-cos(th)
    or +-sin(th), their product being sign * cos(th)^cosines *
    sin(th)^sines; else None."""
    sign, cosines, sines = 1, 0, 0
    for f in factors:
        if f.den != 1 or len(f.nums) != 1:
            return None
        ((powers, trig), n), = f.nums.items()
        if powers or n not in (1, -1) or len(trig) != 1:
            return None
        name, kind, m = trig[0]
        if name != angle or m != 1:
            return None
        sign *= n
        if kind == COS:
            cosines += 1
        else:
            sines += 1
    return sign, cosines, sines


# ----------------------------------------------------------------------
# the action


class FlowFactor(_Frozen):
    """One circle factor, given as a flow in a single angle symbol.

    The flow enters the theory through its generator X, the angle
    derivative of the flow at angle zero, which the factor keeps.  A
    family that is the identity at angle zero is a one-parameter group
    exactly when it solves d/dth phi = X o phi, so the group law is
    checked on that equation, one image at a time.  Periodicity and the
    identity at zero are checked on the images themselves: the equation
    alone accepts ``q + th``.

    The factor averages pullbacks along its flow through two tables, one
    for the Haar mean and one for the mean of the running integral, each
    filled on first use like the image powers of the flow's
    :class:`~foliavg.symcalc.Substitution`.  They are kept apart, so the
    two routes that decide ``difference_two_routes`` share no averaged
    value.  A unit rotation of a pair (u, v), u -> u*cos - v*sin and
    v -> u*sin + v*cos in either order, is recognised once, here, from the
    images' numerators; both tables then read their entries off Wallis'
    formula instead of building powers of the images.  Every other flow
    keeps the table route.
    """

    __slots__ = (
        "chart", "angle", "mapping", "_flow", "_generator", "_haar_means", "_running_means"
    )

    def __init__(self, chart: Chart, angle: str, mapping: Mapping[str, Scalar]) -> None:
        chart.require_angle(angle)
        clean: dict[str, Scalar] = {}
        for name, value in mapping.items():
            chart.require_coord(name)
            value = value.on_chart(chart)
            foreign = sorted(
                a for a in value.free_symbols()
                if chart.is_angle(a) and a != angle
            )
            if foreign:
                raise InvariantViolation(
                    f"flow in {angle!r} depends on unrelated angles {foreign}"
                )
            # the monomials th^k * trig(m*th) are linearly independent, so a
            # bare power of the angle keeps the image from being 2pi-periodic
            if _has_bare_angle(value, angle):
                raise InvariantViolation(
                    f"flow in {angle!r} is not periodic: the image of {name!r} "
                    f"has a bare power of {angle!r}"
                )
            if value != Scalar.var(chart, name):
                clean[name] = value
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "angle", angle)
        object.__setattr__(self, "mapping", clean)
        # th -> 0 and th -> -th are rewritten by sign rules, term by term
        at_zero, negated = (), ((angle, -1),)
        inverse = {name: value.substitute_angle(angle, negated) for name, value in clean.items()}
        flow = ChartMap(chart, clean, inverse)
        object.__setattr__(self, "_flow", flow)
        rates: dict[str, Scalar] = {}
        comps: dict[str, Scalar] = {}
        for name, value in clean.items():
            if value.substitute_angle(angle, at_zero) != Scalar.var(chart, name):
                raise InvariantViolation(f"flow in {angle!r} is not the identity at angle zero")
            rates[name] = value.diff(angle)
            comps[name] = rates[name].substitute_angle(angle, at_zero)
        # the flow's own substitution, so the image powers built here serve
        # every later pullback along it
        for name, rate in rates.items():
            if rate != comps[name].substitute(flow.mapping):
                raise InvariantViolation(f"flow in {angle!r} breaks the group law on {name!r}")
        generator = VectorField.from_dict(
            chart, {name: comp for name, comp in comps.items() if not comp.is_zero}
        )
        object.__setattr__(self, "_generator", generator)
        rotation = _rotation_pair(angle, clean)
        object.__setattr__(self, "_haar_means", _PulledMeans(flow, angle, False, rotation))
        object.__setattr__(self, "_running_means", _PulledMeans(flow, angle, True, rotation))

    def flow(self) -> ChartMap:
        """The flow at the symbolic angle; the inverse negates the angle."""
        return self._flow

    def generator(self) -> VectorField:
        """Angle derivative of the flow at angle zero."""
        return self._generator

    def mixed_base(self) -> str | None:
        """The first base coordinate whose image depends on a fiber
        coordinate, or None when the flow preserves the foliation."""
        vertical = set(self.chart.vertical)
        for name in self.chart.horizontal:
            image = self.mapping.get(name)
            if image is not None and image.free_symbols() & vertical:
                return name
        return None

    def __repr__(self) -> str:
        parts = ", ".join(f"{n} -> {v}" for n, v in sorted(self.mapping.items()))
        return f"FlowFactor({self.angle}: {parts})"


class TorusAction(_Frozen):
    """Commuting circle factors acting on one chart.

    Two factors commute exactly when their generators' bracket vanishes,
    as the flows of complete fields do.  The bracket is built only for a
    pair whose supports meet (:func:`~foliavg.geom.supports_meet`); that of
    any other pair is zero.
    """

    __slots__ = ("chart", "factors")

    def __init__(self, chart: Chart, factors: Sequence[FlowFactor]) -> None:
        factors = tuple(factors)
        if not factors:
            raise InvariantViolation("an action needs at least one circle factor")
        seen = set()
        for factor in factors:
            if factor.chart != chart:
                raise ChartMismatch("factor lives on another chart")
            if factor.angle in seen:
                raise InvariantViolation(
                    f"two factors share the angle {factor.angle!r}"
                )
            seen.add(factor.angle)
        supported = [(factor, support(factor.generator())) for factor in factors]
        for (a, a_support), (b, b_support) in combinations(supported, 2):
            if not supports_meet(a_support, b_support):
                continue
            if not a.generator().bracket(b.generator()).is_zero:
                raise InvariantViolation(
                    f"factors {a.angle!r} and {b.angle!r} do not commute"
                )
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "factors", factors)

    @property
    def angles(self) -> tuple[str, ...]:
        return tuple(factor.angle for factor in self.factors)

    def __repr__(self) -> str:
        return "TorusAction(" + ", ".join(repr(f) for f in self.factors) + ")"


def verify_action(action: TorusAction, P: PoissonBivector) -> dict[str, str | None]:
    """Per-property witnesses: leaves preserved, base fixed, and bivector
    kept, which a flow does exactly when L_X P = [X, P] vanishes."""
    verdict: dict[str, str | None] = {
        "foliation_preserving": None,
        "leaf_tangent": None,
        "canonical": None,
    }
    for factor in action.factors:
        mixed = factor.mixed_base()
        if verdict["foliation_preserving"] is None and mixed is not None:
            verdict["foliation_preserving"] = f"{factor.angle} flow mixes fiber data into {mixed}"
        moved = next((n for n in action.chart.horizontal if n in factor.mapping), None)
        if verdict["leaf_tangent"] is None and moved is not None:
            verdict["leaf_tangent"] = f"{factor.angle} flow moves the base point {moved}"
        if verdict["canonical"] is None and not lie_derivative(factor.generator(), P.mv).is_zero:
            verdict["canonical"] = f"{factor.angle} flow does not preserve the bivector"
    return verdict


# ----------------------------------------------------------------------
# averaging


def _coefficients(target) -> list[Scalar]:
    if isinstance(target, Scalar):
        return [target]
    if isinstance(target, VecValuedForm):
        return [c for vec in target.comps.values() for c in vec.comps.values()]
    return list(target.comps.values())


def _has_bare_angle(f: Scalar, angle: str) -> bool:
    return any(name == angle for powers, _ in f.nums for name, _ in powers)


def _average_factor(factor: FlowFactor, target):
    if isinstance(target, Connection):
        mixed = factor.mixed_base()
        if mixed is not None:
            raise InvariantViolation(
                f"{factor.angle} flow does not preserve the foliation: "
                f"it mixes fiber data into {mixed}"
            )
        return Connection.from_projection(_average_factor(factor, target.projection))
    return factor._haar_means(target)


def average_tensor(action: TorusAction, target):
    """Exact group average, one circle factor at a time.

    Connections are averaged through their projection and revalidated.
    Inputs must not depend on the action angles; since every flow is
    periodic in its angle, the pulled-back coefficients are then
    trigonometric polynomials in it.
    """
    *_, average = averaging_walk(action, target)
    return average


def averaging_walk(action: TorusAction, target) -> Iterator:
    """``target``, then its averages over the first k circle factors for
    k = 1, ..., n, each computed when it is asked for.

    Entry k is the partially averaged object that factor k + 1 acts on, and
    the last entry is the group average, so a caller that needs the partial
    averages and the average takes both from one walk.
    """
    yield target
    for factor in action.factors:
        target = _average_factor(factor, target)
        yield target


def hannay_berry(action: TorusAction, conn: Connection) -> Connection:
    """The averaged connection."""
    return average_tensor(action, conn)


def connection_difference(action: TorusAction, conn: Connection) -> VecValuedForm:
    """Average minus connection, a vertical-valued horizontal one-form."""
    return conn.difference(hannay_berry(action, conn))


def difference_via_flow_integral(action: TorusAction, conn: Connection) -> VecValuedForm:
    """The same difference computed from flow integrals of frame brackets.

    Per factor, on the partially averaged frame, the value is minus the
    average over the angle of the integral from zero of the pulled-back
    bracket of the frame field with the generator.  The frame is shifted
    by each factor's piece before the next factor, so the walk ends at its
    last piece; a zero piece leaves the frame as it is and is not applied.
    A piece that is not vertical-valued, from a generator that moves the
    base, shifts no frame and ends the walk: the direct difference is
    vertical-valued, so the two routes already disagree.

    A bracket that is zero by support is neither built nor averaged: when
    the lift stores no index that the generator's entries depend on, and
    the generator none that the lift's entries depend on, each term of
    [X, Y]^k = X^i d_i Y^k - Y^i d_i X^k vanishes
    (:func:`~foliavg.geom.supports_meet`).
    """
    chart = conn.chart
    current = conn
    total = VecValuedForm.zero(chart, 1)
    for k, factor in enumerate(action.factors):
        if k and not piece.is_zero:
            current = current.shifted(piece)
        gen = factor.generator()
        gen_support = support(gen)
        items = []
        for base, lift in current.frame.items():
            if not supports_meet(support(lift), gen_support):
                continue
            value = -factor._running_means(lift.bracket(gen))
            if not value.is_zero:
                items.append(((chart.coord_index(base),), value))
        piece = VecValuedForm._make(chart, 1, items)
        total = total + piece
        if not is_vertical_valued(piece):
            break
    return total


# ----------------------------------------------------------------------
# momentum data and the potential


def _require_momenta(action: TorusAction, moments: Sequence[DiffForm]) -> None:
    if len(moments) != len(action.factors):
        raise InvariantViolation("expected one momentum one-form per circle factor")
    for mu in moments:
        if mu.chart != action.chart:
            raise ChartMismatch("momentum one-form lives on another chart")
        if mu.degree != 1:
            raise UnsupportedDegree("momentum data must be one-forms")


def verify_premomentum(
    action: TorusAction, P: PoissonBivector, moments: Sequence[DiffForm]
) -> str | None:
    """Each factor one-form must sharpen to its generator and have a
    differential that is closed along the leaves: annihilated by the probes
    P-sharp dv = X_v of the fibre coordinates v, built once per call."""
    _require_momenta(action, moments)
    chart = action.chart
    probes = [(vert, P.hamiltonian_vf(Scalar.var(chart, vert))) for vert in chart.vertical]
    for factor, mu in zip(action.factors, moments):
        if P.sharp(mu) != factor.generator():
            return f"sharp of the {factor.angle} one-form is not its generator"
        dmu = exterior_derivative(mu)
        for vert, probe in probes:
            rest = interior_product(probe, dmu)
            if not rest.is_zero:
                return (
                    f"{factor.angle} one-form is not leafwise closed: "
                    f"contraction along sharp d{vert} leaves {rest!r}"
                )
    return None


def hamiltonian_potential(
    action: TorusAction, conn: Connection, moments: Sequence[DiffForm]
) -> DiffForm:
    """The horizontal potential of the averaging difference.

    Per factor, on the partially averaged frame, the coefficient on each
    base differential is minus the average over the angle of the integral
    from zero of the pulled-back pairing of the frame field with the
    base-degree part of the momentum one-form.  The frame is averaged
    before each factor after the first, so the walk ends at its last factor.
    """
    return potential_along(action, averaging_walk(action, conn), moments)


def potential_along(
    action: TorusAction, walk: Iterable[Connection], moments: Sequence[DiffForm]
) -> DiffForm:
    """:func:`hamiltonian_potential` on the :func:`averaging_walk` of the
    connection, reading the frame of factor k + 1 from the walk's entry k;
    the last entry, the average, is never asked for, and a lazy walk is
    only advanced once the momenta are checked.

    The (1, 0) piece of a momentum is horizontal and the lift of a base
    field x_b is d/dx_b plus a vertical field, so the piece takes its dx_b
    component on that lift: the stored components are read, in chart order,
    not evaluated on the frame."""
    _require_momenta(action, moments)
    chart = action.chart
    total = DiffForm.zero(chart, 1)
    for factor, mu, current in zip(action.factors, moments, walk):
        horizontal = bigrade_component(current, mu, 1, 0)
        items = []
        for idx, component in sorted(horizontal.comps.items()):
            value = -factor._running_means(component)
            if not value.is_zero:
                items.append((idx, value))
        total = total + DiffForm._make(chart, 1, items)
    return total


def difference_from_potential(P: PoissonBivector, potential: DiffForm) -> VecValuedForm:
    """The valued one-form sending each base field to the Hamiltonian
    field of its potential coefficient: the Hamiltonian image of the
    horizontal one-form ``potential``."""
    if potential.degree != 1:
        raise UnsupportedDegree("the potential must be a one-form")
    if not is_horizontal_form(potential):
        raise NotHorizontal("the potential must be horizontal")
    return P.hamiltonian_image(potential)


# ----------------------------------------------------------------------
# invariance


def invariance_criteria(action: TorusAction, conn: Connection) -> dict[str, bool]:
    """Three equivalent invariance tests for a connection.

    Averaging fixes it, its projection commutes with every generator,
    and the flow-integral difference vanishes; the verdicts must agree.
    """
    fixed = hannay_berry(action, conn) == conn
    brackets = all(
        fn_bracket(conn.projection, factor.generator()).is_zero
        for factor in action.factors
    )
    difference = difference_via_flow_integral(action, conn).is_zero
    return {
        "fixed_by_averaging": fixed,
        "generator_brackets_vanish": brackets,
        "flow_difference_vanishes": difference,
        "agree": fixed == brackets == difference,
    }
