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
    ChartMismatch,
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
from .symcalc import Chart, Scalar, _Frozen


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


class Connection(_Frozen):
    """An Ehresmann connection, stored as its vertical projection gamma.

    gamma = sum_v eta_v (x) d/dv is the one tensor a connection holds: it
    takes each dv to d/dv and each dx_b to -sum_v A_b^v d/dv.  The lift
    coefficients A_b^v, the lifted frame and the coframe are read off
    gamma's rows when asked for; only the curvature is kept once computed.
    """

    __slots__ = ("chart", "_projection", "_curvature")

    def __init__(self, chart: Chart, coeffs: Mapping[tuple[str, str], Scalar]) -> None:
        """The connection with lift coefficients ``coeffs[(base, fiber)]``,
        each a scalar on ``chart``; gamma is built from them here."""
        index = chart.coord_index
        rows: dict[int, list[tuple[Index, Scalar]]] = {}
        for (base, vert), value in coeffs.items():
            if base not in chart.horizontal:
                raise NotComplementary(f"{base!r} is not a base coordinate")
            if vert not in chart.vertical:
                raise NotVertical(f"{vert!r} is not a fiber coordinate")
            if value.chart is not chart and value.chart != chart:
                raise ChartMismatch(f"A[{base},{vert}]: {value.chart} vs {chart}")
            rows.setdefault(index(base), []).append(((index(vert),), -value))
        one = Scalar.one(chart)
        items = [
            ((v,), VectorField._make(chart, 1, [((v,), one)]))
            for v in range(len(chart.horizontal), chart.dim)
        ]
        items += [((b,), VectorField._make(chart, 1, row)) for b, row in rows.items()]
        self._hold(VecValuedForm._make(chart, 1, items))

    def _hold(self, gamma: VecValuedForm) -> "Connection":
        object.__setattr__(self, "chart", gamma.chart)
        object.__setattr__(self, "_projection", gamma)
        object.__setattr__(self, "_curvature", None)
        return self

    @staticmethod
    def from_projection(gamma: VecValuedForm) -> "Connection":
        """The connection whose projection is gamma, after testing the
        projection laws.

        A projection takes vertical values and is the identity on each d/dv:
        its entry on dv is the field with the single component 1 at v, on
        the same chart.  Idempotency needs no separate test, since a
        vertical-valued gamma that fixes every d/dv fixes every vertical
        field.
        """
        chart = gamma.chart
        if gamma.degree != 1:
            raise UnsupportedDegree("a projection must be a valued one-form")
        if not is_vertical_valued(gamma):
            raise NotVertical("projection takes values outside the vertical bundle")
        one = Scalar.one(chart)
        for v in range(len(chart.horizontal), chart.dim):
            entry = gamma.comps.get((v,))
            if (
                not isinstance(entry, VectorField)
                or entry.chart != chart
                or entry.comps != {(v,): one}
            ):
                raise NotComplementary(f"projection is not the identity on d/d{chart.coords[v]}")
        return object.__new__(Connection)._hold(gamma)

    @property
    def projection(self) -> VecValuedForm:
        """gamma: d/dv on dv, and -sum_v A_b^v d/dv on dx_b."""
        return self._projection

    @property
    def coeffs(self) -> dict[tuple[str, str], Scalar]:
        """The nonzero lift coefficients A_b^v, minus gamma's entries on the
        dx_b rows, in (base, fiber) index order; a new dict on each call."""
        coords, first_vertical = self.chart.coords, len(self.chart.horizontal)
        return {
            (coords[b], coords[v]): -value
            for (b,), row in sorted(self._projection.comps.items())
            if b < first_vertical
            for (v,), value in sorted(row.comps.items())
        }

    @property
    def frame(self) -> Mapping[str, VectorField]:
        """Lifted frame h_b = d/dx_b - gamma(d/dx_b) = d/dx_b + sum_v A_b^v d/dv."""
        chart, rows = self.chart, self._projection.comps
        one = Scalar.one(chart)
        out = {}
        for b, base in enumerate(chart.horizontal):
            row = rows.get((b,))
            items = [((b,), one)]
            if row is not None:
                items += [(idx, -value) for idx, value in row.comps.items()]
            out[base] = VectorField._make(chart, 1, items)
        return MappingProxyType(out)

    @property
    def coframe(self) -> Mapping[str, DiffForm]:
        """Coframe eta_v = dv - sum_b A_b^v dx_b, the d/dv component of
        gamma, dual to d/dv: gamma's entries at v, one per row."""
        chart = self.chart
        columns: dict[int, list[tuple[Index, Scalar]]] = {
            v: [] for v in range(len(chart.horizontal), chart.dim)
        }
        for idx, row in self._projection.comps.items():
            for (v,), value in row.comps.items():
                columns[v].append((idx, value))
        return MappingProxyType(
            {chart.coords[v]: DiffForm._make(chart, 1, column) for v, column in columns.items()}
        )

    def vertical_part(self, field: VectorField) -> VectorField:
        return self._projection.apply(field)

    def horizontal_part(self, field: VectorField) -> VectorField:
        return field - self.vertical_part(field)

    def shifted(self, xi: VecValuedForm) -> "Connection":
        """The connection with projection gamma - xi.

        A horizontal, vertical-valued xi leaves the identity block on the
        dv untouched, so gamma - xi is a projection again and is not
        re-tested.
        """
        _require_difference_shape(self.chart, xi)
        return object.__new__(Connection)._hold(self._projection - xi)

    def difference(self, other: "Connection") -> VecValuedForm:
        """The horizontal valued one-form xi with other = self shifted by xi."""
        if self.chart != other.chart:
            raise NotComplementary("connections live on different charts")
        return self._projection - other._projection

    @property
    def is_flat_frame(self) -> bool:
        """True when gamma stores no horizontal row, only the dv rows."""
        return len(self._projection.comps) == len(self.chart.vertical)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Connection):
            return NotImplemented
        return self._projection == other._projection

    def __hash__(self) -> int:
        return hash(self._projection)

    def __repr__(self) -> str:
        coeffs = self.coeffs
        if not coeffs:
            return "Connection(flat)"
        parts = [f"A[{b},{v}]={s}" for (b, v), s in sorted(coeffs.items())]
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
    differentials.

    Gamma's entry at v on row b is -A_b^v, so dv = eta_v + sum_b A_b^v dx_b
    reads minus the entries and eta_v = dv - sum_b A_b^v dx_b the entries.
    """
    chart = conn.chart
    k = form.degree
    first_vertical = len(chart.horizontal)
    forward: dict[int, list[tuple[int, Scalar | None]]] = {}
    backward: dict[int, list[tuple[int, Scalar | None]]] = {}
    for (b,), row in conn._projection.comps.items():
        if b < first_vertical:
            for (v,), value in row.comps.items():
                forward.setdefault(v, [(v, None)]).append((b, -value))
                backward.setdefault(v, [(v, None)]).append((b, value))
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
