"""Connections on a vertically foliated chart.

A chart fixes the splitting into base and fiber coordinates; a connection
is the vertical projection whose kernel is spanned by the lifted frame
``h_i = d/dx_i + sum_v A_i^v d/dv``.  Everything here is exact: curvature,
bigrading of forms and the graded pieces of the exterior derivative.
"""

from __future__ import annotations

from itertools import combinations
from types import MappingProxyType
from typing import Mapping

from .errors import (
    NotComplementary,
    NotHorizontal,
    NotVertical,
    UnsupportedDegree,
)
from .geom import (
    DiffForm,
    Index,
    VecValuedForm,
    VectorField,
    exterior_derivative,
)
from .symcalc import Chart, Scalar


# Chart.coords lists the horizontal coordinates first, so an index is
# vertical exactly when it is at least len(chart.horizontal).
def is_vertical_field(field: VectorField) -> bool:
    first_vertical = len(field.chart.horizontal)
    return all(i >= first_vertical for (i,) in field.comps)


def is_vertical_valued(vvf: VecValuedForm) -> bool:
    return all(is_vertical_field(vec) for vec in vvf.comps.values())


def is_horizontal_form(form: DiffForm | VecValuedForm) -> bool:
    """True when the (valued) form vanishes on every vertical argument."""
    first_vertical = len(form.chart.horizontal)
    return all(i < first_vertical for idx in form.comps for i in idx)


class Connection:
    """An Ehresmann connection stored by its lift coefficients A_i^v.

    The frame, coframe, projection and curvature depend only on the
    coefficients, so each is built from them on first use and kept; the
    frame and coframe are handed out as read-only mappings.  A connection
    built from a projection keeps that projection.
    """

    __slots__ = ("chart", "coeffs", "_frame", "_coframe", "_projection", "_curvature")

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
        for name in ("_frame", "_coframe", "_projection", "_curvature"):
            object.__setattr__(self, name, None)

    def __setattr__(self, name, value):
        raise AttributeError("Connection is immutable")

    @staticmethod
    def from_projection(gamma: VecValuedForm) -> "Connection":
        """Build from a vertical projection, testing the projection laws.

        A projection takes vertical values and is the identity on each d/dv:
        its entry on dv is the field with the single component 1 at v, on
        the same chart.  Idempotency needs no separate test, since a
        vertical-valued gamma that fixes every d/dv fixes every vertical
        field.  Then gamma = sum_v eta_v (x) d/dv with
        eta_v = dv - sum_b A_b^v dx_b, so its component on dx_b is
        -sum_v A_b^v d/dv; the coefficients are read off the stored
        components, in chart order.  Gamma is the connection's projection,
        so the connection keeps it.
        """
        chart = gamma.chart
        if gamma.degree != 1:
            raise UnsupportedDegree("a projection must be a valued one-form")
        if not is_vertical_valued(gamma):
            raise NotVertical("projection takes values outside the vertical bundle")
        coords = chart.coords
        first_vertical = len(chart.horizontal)
        one = Scalar.one(chart)
        for v in range(first_vertical, chart.dim):
            entry = gamma.comps.get((v,))
            if (
                not isinstance(entry, VectorField)
                or entry.chart != chart
                or entry.comps != {(v,): one}
            ):
                raise NotComplementary(f"projection is not the identity on d/d{coords[v]}")
        coeffs = {}
        for (b,), image in sorted(gamma.comps.items()):
            if b < first_vertical:
                for (v,), value in sorted(image.comps.items()):
                    coeffs[(coords[b], coords[v])] = -value
        conn = Connection(chart, coeffs)
        object.__setattr__(conn, "_projection", gamma)
        return conn

    @property
    def frame(self) -> Mapping[str, VectorField]:
        """Lifted frame h_b = d/dx_b + sum_v A_b^v d/dv, read off coeffs in one pass."""
        if self._frame is None:
            chart = self.chart
            index = chart.coord_index
            rows = {base: [((index(base),), Scalar.one(chart))] for base in chart.horizontal}
            for (base, vert), value in self.coeffs.items():
                rows[base].append(((index(vert),), value))
            out = {base: VectorField._make(chart, 1, row) for base, row in rows.items()}
            object.__setattr__(self, "_frame", MappingProxyType(out))
        return self._frame

    @property
    def coframe(self) -> Mapping[str, DiffForm]:
        """Coframe eta_v = dv - sum_b A_b^v dx_b, dual to d/dv, read off coeffs in one pass."""
        if self._coframe is None:
            chart = self.chart
            index = chart.coord_index
            rows = {vert: [((index(vert),), Scalar.one(chart))] for vert in chart.vertical}
            for (base, vert), value in self.coeffs.items():
                rows[vert].append(((index(base),), -value))
            out = {vert: DiffForm._make(chart, 1, row) for vert, row in rows.items()}
            object.__setattr__(self, "_coframe", MappingProxyType(out))
        return self._coframe

    @property
    def projection(self) -> VecValuedForm:
        """sum_v eta_v (x) d/dv: d/dv on dv, and -sum_v A_b^v d/dv on dx_b."""
        if self._projection is None:
            chart = self.chart
            index = chart.coord_index
            columns: dict[int, list[tuple[Index, Scalar]]] = {}
            for (base, vert), value in self.coeffs.items():
                columns.setdefault(index(base), []).append(((index(vert),), -value))
            one = Scalar.one(chart)
            items = [
                ((v,), VectorField._make(chart, 1, [((v,), one)]))
                for v in range(len(chart.horizontal), chart.dim)
            ]
            items += [((b,), VectorField._make(chart, 1, column)) for b, column in columns.items()]
            object.__setattr__(self, "_projection", VecValuedForm._make(chart, 1, items))
        return self._projection

    def vertical_part(self, field: VectorField) -> VectorField:
        return self.projection.apply(field)

    def horizontal_part(self, field: VectorField) -> VectorField:
        return field - self.vertical_part(field)

    def shifted(self, xi: VecValuedForm) -> "Connection":
        """The connection with projection gamma - xi.

        Gamma - xi takes dx_b to -sum_v (A_b^v + xi_b^v) d/dv, so xi's rows
        are added to the coefficients, in sorted (base, fiber) index order:
        the order :meth:`from_projection` reads them in.  A horizontal,
        vertical-valued xi leaves the identity block on the dv untouched,
        so gamma - xi is a projection again and is not re-tested.
        """
        _require_difference_shape(self.chart, xi)
        chart = self.chart
        coords, index = chart.coords, chart.coord_index
        total = dict(self.coeffs)
        for (b,), row in xi.comps.items():
            for (v,), value in row.comps.items():
                key = (coords[b], coords[v])
                total[key] = total[key] + value if key in total else value
        order = sorted(total, key=lambda key: (index(key[0]), index(key[1])))
        return Connection(chart, {key: total[key] for key in order})

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
    if not is_horizontal_form(xi):
        raise NotHorizontal("difference must vanish on vertical arguments")


def verify_connection(gamma: VecValuedForm | Connection) -> str | None:
    """Check the vertical-projection laws; return a witness or None.

    The witness is the message of the error :meth:`Connection.from_projection`
    raises, which is the one place the laws are tested.
    """
    if isinstance(gamma, Connection):
        gamma = gamma.projection
    try:
        Connection.from_projection(gamma)
    except (NotVertical, NotComplementary) as exc:
        return str(exc)
    return None


# ----------------------------------------------------------------------
# curvature


def curvature(conn: Connection) -> VecValuedForm:
    """Curvature sum_{a<b} dx_a ^ dx_b (x) [Z_a, Z_b] over the lifted frame
    Z_a = d/dx_a + sum_v A_a^v d/dv.

    Curv(Z_a, Z_b) is the vertical part of [Z_a, Z_b]; each Z_a has constant
    base components, so the bracket is already vertical.  Computed once per
    connection object and kept on it.
    """
    if conn._curvature is None:
        frame = conn.frame
        brackets = {
            (a, b): frame[a].bracket(frame[b])
            for a, b in combinations(conn.chart.horizontal, 2)
        }
        object.__setattr__(conn, "_curvature", VecValuedForm.from_dict(conn.chart, 2, brackets))
    return conn._curvature


# ----------------------------------------------------------------------
# bigrading


def _adapted_groups(
    conn: Connection, form: DiffForm
) -> tuple[dict[tuple[int, int], list[tuple[Index, Scalar]]], dict[int, list[tuple[int, Scalar]]]]:
    """The components of a form in the adapted coframe, grouped by
    bidegree, and the basis images that map a group back to coordinate
    differentials."""
    chart = conn.chart
    k = form.degree
    forward: dict[int, list[tuple[int, Scalar | None]]] = {}
    backward: dict[int, list[tuple[int, Scalar | None]]] = {}
    for (base, vert), value in conn.coeffs.items():
        v, b = chart.coord_index(vert), chart.coord_index(base)
        forward.setdefault(v, [(v, None)]).append((b, value))
        backward.setdefault(v, [(v, None)]).append((b, -value))
    first_vertical = len(chart.horizontal)
    groups: dict[tuple[int, int], list[tuple[Index, Scalar]]] = {}
    sheared = DiffForm._rebase(chart, k, form.comps.items(), forward)
    for idx, value in sheared.comps.items():
        q = sum(1 for i in idx if i >= first_vertical)
        groups.setdefault((k - q, q), []).append((idx, value))
    return groups, backward


def bigrade(conn: Connection, form: DiffForm) -> dict[tuple[int, int], DiffForm]:
    """Split a form by base and fiber degree in the adapted coframe: the
    nonzero pieces, keyed by bidegree (p, q).

    The adapted coframe is (dx_b, eta_v) with eta_v = dv - sum_b A_b^v dx_b.
    Substituting dv = eta_v + sum_b A_b^v dx_b writes the form in that
    coframe; the fiber degree of a component is its number of eta indices.
    Each group is mapped back to coordinate differentials by the inverse
    substitution.
    """
    chart, k = conn.chart, form.degree
    groups, backward = _adapted_groups(conn, form)
    pieces = {pq: DiffForm._rebase(chart, k, items, backward) for pq, items in groups.items()}
    return {pq: piece for pq, piece in pieces.items() if not piece.is_zero}


def bigrade_component(conn: Connection, form: DiffForm, p: int, q: int) -> DiffForm:
    """The piece of a form of bidegree (p, q), zero when :func:`bigrade`
    has none; only that group is mapped back to coordinate differentials."""
    groups, backward = _adapted_groups(conn, form)
    return DiffForm._rebase(conn.chart, form.degree, groups.get((p, q), ()), backward)


def graded_derivative(conn: Connection, form: DiffForm, shift: tuple[int, int]) -> DiffForm:
    """The (shift)-component of d applied piecewise in the bigrading.

    Valid shifts are (1, 0), (0, 1) and (2, -1); every other component of
    the exterior derivative vanishes identically on an adapted chart.  Of
    the derivative of each piece only the target component is mapped back.
    """
    if shift not in ((1, 0), (0, 1), (2, -1)):
        raise UnsupportedDegree(f"no derivative component with shift {shift}")
    chart = conn.chart
    if form.degree == chart.dim:
        return DiffForm.zero(chart, chart.dim)
    result = DiffForm.zero(chart, form.degree + 1)
    for (p, q), piece in bigrade(conn, form).items():
        target = (p + shift[0], q + shift[1])
        if target[0] < 0 or target[1] < 0:
            continue
        result = result + bigrade_component(conn, exterior_derivative(piece), *target)
    return result
