"""Connections on a vertically foliated chart.

A chart fixes the splitting into base and fiber coordinates; a connection
is the vertical projection whose kernel is spanned by the lifted frame
``h_i = d/dx_i + sum_v A_i^v d/dv``.  Everything here is exact: curvature,
bigrading of forms, the covariant exterior derivative, and the transition
law between two connections.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Mapping

from .errors import (
    InvariantViolation,
    NotComplementary,
    NotHorizontal,
    NotVertical,
    UnsupportedDegree,
)
from .geom import (
    DiffForm,
    VecValuedForm,
    VectorField,
    _tensor,
    _wedge0,
    exterior_derivative,
    fn_bracket,
    wedge,
)
from .symcalc import Chart, Scalar

_HALF = Fraction(1, 2)


def is_vertical_field(field: VectorField) -> bool:
    chart = field.chart
    return all(
        field.comps[chart.coord_index(name)].is_zero for name in chart.horizontal
    )


def is_vertical_valued(vvf: VecValuedForm) -> bool:
    return all(is_vertical_field(vec) for vec in vvf.comps.values())


def is_horizontal_form(form: DiffForm) -> bool:
    """True when the form vanishes on every vertical argument."""
    chart = form.chart
    vertical = {chart.coord_index(name) for name in chart.vertical}
    return all(not (set(idx) & vertical) for idx in form.comps)


def is_horizontal_valued(vvf: VecValuedForm) -> bool:
    chart = vvf.chart
    vertical = {chart.coord_index(name) for name in chart.vertical}
    return all(not (set(idx) & vertical) for idx in vvf.comps)


def is_projectable(field: VectorField) -> bool:
    """True when brackets with vertical basis fields stay vertical."""
    chart = field.chart
    for vert in chart.vertical:
        moved = VectorField.basis(chart, vert).bracket(field)
        if not is_vertical_field(moved):
            return False
    return True


def is_basic_form(form: DiffForm) -> bool:
    """True when the form is the lift of a form on the base.

    Requires horizontal components whose coefficients involve neither
    fiber coordinates nor angle parameters.
    """
    if not is_horizontal_form(form):
        return False
    chart = form.chart
    banned = set(chart.vertical) | set(chart.angles)
    return all(
        not value.free_symbols() & banned for value in form.comps.values()
    )


class Connection:
    """An Ehresmann connection stored by its lift coefficients A_i^v."""

    __slots__ = ("chart", "coeffs")

    def __init__(self, chart: Chart, coeffs: Mapping[tuple[str, str], Scalar]) -> None:
        clean: dict[tuple[str, str], Scalar] = {}
        for (base, vert), value in coeffs.items():
            if base not in chart.horizontal:
                raise NotComplementary(f"{base!r} is not a base coordinate")
            if vert not in chart.vertical:
                raise NotVertical(f"{vert!r} is not a fiber coordinate")
            if not value.is_zero:
                clean[(base, vert)] = value
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Connection is immutable")

    @staticmethod
    def flat(chart: Chart) -> "Connection":
        return Connection(chart, {})

    @staticmethod
    def from_frame(chart: Chart, frame: Mapping[str, VectorField]) -> "Connection":
        """Build from lifted frame fields keyed by base coordinate."""
        if set(frame) != set(chart.horizontal):
            raise NotComplementary("frame must provide one lift per base coordinate")
        coeffs = {}
        one = Scalar.one(chart)
        for base, field in frame.items():
            for other in chart.horizontal:
                comp = field.component(other)
                want = one if other == base else Scalar.zero(chart)
                if comp != want:
                    raise NotComplementary(
                        f"lift of {base} has component {comp} along {other}"
                    )
            for vert in chart.vertical:
                coeffs[(base, vert)] = field.component(vert)
        return Connection(chart, coeffs)

    @staticmethod
    def from_projection(gamma: VecValuedForm) -> "Connection":
        """Build from a vertical projection, validating its structure."""
        chart = gamma.chart
        if gamma.degree != 1:
            raise UnsupportedDegree("a projection must be a valued one-form")
        if not is_vertical_valued(gamma):
            raise NotVertical("projection values must be vertical")
        for vert in chart.vertical:
            basis = VectorField.basis(chart, vert)
            if gamma.apply(basis) != basis:
                raise NotComplementary(f"projection is not the identity on d/d{vert}")
        coeffs = {}
        for base in chart.horizontal:
            image = gamma.apply(VectorField.basis(chart, base))
            for vert in chart.vertical:
                coeffs[(base, vert)] = -image.component(vert)
        conn = Connection(chart, coeffs)
        if conn.projection != gamma:
            raise InvariantViolation("input is not an adapted vertical projection")
        return conn

    def coefficient(self, base: str, vert: str) -> Scalar:
        self.chart.require_coord(base)
        self.chart.require_coord(vert)
        return self.coeffs.get((base, vert), Scalar.zero(self.chart))

    @property
    def frame(self) -> dict[str, VectorField]:
        chart = self.chart
        out = {}
        for base in chart.horizontal:
            field = VectorField.basis(chart, base)
            for vert in chart.vertical:
                value = self.coeffs.get((base, vert))
                if value is not None:
                    field = field + VectorField.basis(chart, vert) * value
            out[base] = field
        return out

    @property
    def coframe(self) -> dict[str, DiffForm]:
        """Vertical coframe eta_v = dv - sum_i A_i^v dx_i, dual to d/dv."""
        chart = self.chart
        out = {}
        for vert in chart.vertical:
            form = DiffForm.d_coord(chart, vert)
            for base in chart.horizontal:
                value = self.coeffs.get((base, vert))
                if value is not None:
                    form = form - DiffForm.from_dict(chart, 1, {(base,): value})
            out[vert] = form
        return out

    @property
    def projection(self) -> VecValuedForm:
        chart = self.chart
        total = VecValuedForm.zero(chart, 1)
        for vert, eta in self.coframe.items():
            total = total + _tensor(eta, VectorField.basis(chart, vert))
        return total

    def vertical_part(self, field: VectorField) -> VectorField:
        return self.projection.apply(field)

    def horizontal_part(self, field: VectorField) -> VectorField:
        return field - self.vertical_part(field)

    def shifted(self, xi: VecValuedForm) -> "Connection":
        """The connection with projection gamma - xi."""
        _require_difference_shape(self.chart, xi)
        return Connection.from_projection(self.projection - xi)

    def difference(self, other: "Connection") -> VecValuedForm:
        """The horizontal valued one-form xi with other = self shifted by xi."""
        if self.chart != other.chart:
            raise NotComplementary("connections live on different charts")
        return self.projection - other.projection

    @property
    def is_flat_frame(self) -> bool:
        return not self.coeffs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Connection):
            return NotImplemented
        return self.chart == other.chart and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.chart, tuple(sorted(self.coeffs.items()))))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "Connection(flat)"
        parts = [f"A[{b},{v}]={s}" for (b, v), s in sorted(self.coeffs.items())]
        return "Connection(" + ", ".join(parts) + ")"


def _require_difference_shape(chart: Chart, xi: VecValuedForm) -> None:
    if xi.chart != chart:
        raise NotComplementary("difference tensor lives on another chart")
    if xi.degree != 1:
        raise UnsupportedDegree("a connection difference is a valued one-form")
    if not is_vertical_valued(xi):
        raise NotVertical("difference values must be vertical")
    if not is_horizontal_valued(xi):
        raise NotHorizontal("difference must vanish on vertical arguments")


def verify_connection(gamma: VecValuedForm | Connection) -> str | None:
    """Check the vertical-projection laws; return a witness or None.

    A valid projection has vertical values, restricts to the identity on
    vertical basis fields, and is idempotent on every basis field.
    """
    if isinstance(gamma, Connection):
        gamma = gamma.projection
    if gamma.degree != 1:
        raise UnsupportedDegree("a projection is a valued one-form")
    chart = gamma.chart
    if not is_vertical_valued(gamma):
        return "projection takes values outside the vertical bundle"
    for vert in chart.vertical:
        basis = VectorField.basis(chart, vert)
        if gamma.apply(basis) != basis:
            return f"projection is not the identity on d/d{vert}"
    for name in chart.horizontal + chart.vertical:
        image = gamma.apply(VectorField.basis(chart, name))
        if gamma.apply(image) != image:
            return f"projection is not idempotent on d/d{name}"
    return None


# ----------------------------------------------------------------------
# curvature


def curvature(conn: Connection) -> VecValuedForm:
    """Curvature as half the Nijenhuis self-bracket of the projection."""
    gamma = conn.projection
    return fn_bracket(gamma, gamma) * _HALF


def curvature_from_frame(conn: Connection) -> VecValuedForm:
    """Curvature assembled from vertical parts of frame brackets."""
    chart = conn.chart
    frame = conn.frame
    total = VecValuedForm.zero(chart, 2)
    for a, b in combinations(chart.horizontal, 2):
        vert = conn.vertical_part(frame[a].bracket(frame[b]))
        if vert.is_zero:
            continue
        base = wedge(DiffForm.d_coord(chart, a), DiffForm.d_coord(chart, b))
        total = total + _tensor(base, vert)
    return total


def curvature_transition_check(conn: Connection, xi: VecValuedForm) -> str | None:
    """Exact transition law for the shifted connection on the frame.

    For each frame pair the curvature of gamma - xi must equal
    Curv(Z1,Z2) + [xi Z1, xi Z2] + [xi Z1, Z2] - [xi Z2, Z1] - xi [Z1,Z2].
    Returns a witness naming the first failing pair, or None.
    """
    _require_difference_shape(conn.chart, xi)
    chart = conn.chart
    frame = conn.frame
    curv = curvature(conn)
    shifted_curv = curvature(conn.shifted(xi))
    for a, b in combinations(chart.horizontal, 2):
        z1, z2 = frame[a], frame[b]
        x1, x2 = xi.evaluate(z1), xi.evaluate(z2)
        rhs = (
            curv.evaluate(z1, z2)
            + x1.bracket(x2)
            + x1.bracket(z2)
            - x2.bracket(z1)
            - xi.evaluate(z1.bracket(z2))
        )
        if shifted_curv.evaluate(z1, z2) != rhs:
            return f"transition law fails on the ({a}, {b}) frame pair"
    return None


# ----------------------------------------------------------------------
# bigrading


class BigradedForm:
    """A form split into components of base degree p and fiber degree q."""

    __slots__ = ("chart", "degree", "comps")

    def __init__(self, chart: Chart, degree: int, comps: Mapping[tuple[int, int], DiffForm]) -> None:
        clean = {}
        for (p, q), piece in comps.items():
            if p + q != degree:
                raise UnsupportedDegree("bidegree does not sum to the form degree")
            if not piece.is_zero:
                clean[(p, q)] = piece
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "comps", clean)

    def __setattr__(self, name, value):
        raise AttributeError("BigradedForm is immutable")

    def component(self, p: int, q: int) -> DiffForm:
        return self.comps.get((p, q), DiffForm.zero(self.chart, self.degree))

    def total(self) -> DiffForm:
        result = DiffForm.zero(self.chart, self.degree)
        for piece in self.comps.values():
            result = result + piece
        return result

    @property
    def bidegrees(self) -> set[tuple[int, int]]:
        return set(self.comps)

    def __repr__(self) -> str:
        return "BigradedForm(" + ", ".join(
            f"({p},{q}): {piece!r}" for (p, q), piece in sorted(self.comps.items())
        ) + ")"


def bigrade(conn: Connection, form: DiffForm) -> BigradedForm:
    """Split a form by base and fiber degree in the adapted coframe."""
    chart = conn.chart
    k = form.degree
    frame = conn.frame
    coframe = conn.coframe
    base_names = chart.horizontal
    vert_names = chart.vertical
    comps: dict[tuple[int, int], DiffForm] = {}
    for p in range(max(0, k - len(vert_names)), min(k, len(base_names)) + 1):
        q = k - p
        piece = DiffForm.zero(chart, k)
        for bases in combinations(base_names, p):
            for verts in combinations(vert_names, q):
                args = [frame[b] for b in bases]
                args += [VectorField.basis(chart, v) for v in verts]
                coef = form.evaluate(*args)
                if coef.is_zero:
                    continue
                basis = DiffForm.function(chart, coef)
                for b in bases:
                    basis = _wedge0(basis, DiffForm.d_coord(chart, b))
                for v in verts:
                    basis = _wedge0(basis, coframe[v])
                piece = piece + basis
        if not piece.is_zero:
            comps[(p, q)] = piece
    return BigradedForm(chart, k, comps)


def graded_derivative(conn: Connection, form: DiffForm, shift: tuple[int, int]) -> DiffForm:
    """The (shift)-component of d applied piecewise in the bigrading.

    Valid shifts are (1, 0), (0, 1) and (2, -1); every other component of
    the exterior derivative vanishes identically on an adapted chart.
    """
    if shift not in ((1, 0), (0, 1), (2, -1)):
        raise UnsupportedDegree(f"no derivative component with shift {shift}")
    chart = conn.chart
    if form.degree == chart.dim:
        return DiffForm.zero(chart, chart.dim)
    pieces = bigrade(conn, form)
    result = DiffForm.zero(chart, form.degree + 1)
    for (p, q), piece in pieces.comps.items():
        target = (p + shift[0], q + shift[1])
        if target[0] < 0 or target[1] < 0:
            continue
        graded = bigrade(conn, exterior_derivative(piece))
        result = result + graded.component(*target)
    return result


def covariant_derivative(conn: Connection, form: DiffForm) -> DiffForm:
    """Exterior derivative evaluated on horizontally projected arguments."""
    chart = conn.chart
    if form.degree == chart.dim:
        return DiffForm.zero(chart, chart.dim)
    d = exterior_derivative(form)
    return bigrade(conn, d).component(form.degree + 1, 0)
