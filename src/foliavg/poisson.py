"""Leafwise Poisson structures and their pairing with a connection.

The bivector is tangent to the fibers; its components are indexed by fiber
coordinates only.  The musical map uses the convention
``beta(sharp(alpha)) = SHARP_SIGN * P(alpha, beta)``, so ``X_f = sharp(df)``
and ``{f, g} = P(df, dg) = SHARP_SIGN * X_f(g)``.  The pipeline contracts P
only in ``sharp``; ``pairing`` and ``bracket`` are the sign-free reference.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .errors import (
    ChartMismatch,
    DegreeOverflow,
    NotHorizontal,
    NotVertical,
    UnsupportedDegree,
)
from .foliation import Connection, is_horizontal_form
from .geom import (
    DiffForm,
    Multivector,
    VecValuedForm,
    VectorField,
    _sort_index,
    exterior_derivative,
    lie_derivative,
    schouten_bracket,
)
from .symcalc import Chart, Scalar

# Orientation of the musical map.  sharp and braided_wedge read it; pairing
# and bracket never do, so flipping it breaks sharp against them on purpose.
SHARP_SIGN = 1


def differential(f: Scalar) -> DiffForm:
    return exterior_derivative(DiffForm.function(f.chart, f))


class PoissonBivector:
    """A fiber-tangent bivector field with exact polynomial coefficients."""

    __slots__ = ("chart", "mv")

    def __init__(self, mv: Multivector) -> None:
        if mv.degree != 2:
            raise UnsupportedDegree("a Poisson structure here is a bivector")
        chart = mv.chart
        # indices are increasing and the vertical ones come last
        for idx in mv.comps:
            if idx[0] < len(chart.horizontal):
                raise NotVertical(
                    "bivector must be tangent to the fibers, got component "
                    + "^".join(chart.coords[i] for i in idx)
                )
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "mv", mv)

    def __setattr__(self, name, value):
        raise AttributeError("PoissonBivector is immutable")

    @staticmethod
    def from_dict(chart: Chart, comps: Mapping[Sequence[str], Scalar]) -> "PoissonBivector":
        return PoissonBivector(Multivector.from_dict(chart, 2, comps))

    def pairing(self, alpha: DiffForm, beta: DiffForm) -> Scalar:
        return self.mv.evaluate(alpha, beta)

    def sharp(self, alpha: DiffForm) -> VectorField:
        """The field X with beta(X) = SHARP_SIGN * P(alpha, beta)."""
        if alpha.degree != 1:
            raise UnsupportedDegree("sharp expects a one-form")
        items = []
        for (i, j), value in self.mv.comps.items():
            a_i = alpha.comps.get((i,))
            a_j = alpha.comps.get((j,))
            if a_i is not None:
                items.append(((j,), a_i * value))
            if a_j is not None:
                items.append(((i,), -(a_j * value)))
        field = VectorField._make(self.chart, 1, items)
        return field if SHARP_SIGN == 1 else field * SHARP_SIGN

    def hamiltonian_vf(self, f: Scalar) -> VectorField:
        return self.sharp(differential(f))

    def hamiltonian_image(self, form: DiffForm) -> VecValuedForm:
        """The valued form of the same degree whose component at each stored
        index is the Hamiltonian field of that coefficient.  The curvature is
        Hamiltonian when Curv = -X_sigma for a horizontal two-form sigma, and
        sigma is unique modulo the kernel, the Casimir-valued forms."""
        items = ((idx, self.hamiltonian_vf(value)) for idx, value in form.comps.items())
        return VecValuedForm._make(self.chart, form.degree, items)

    def bracket(self, f: Scalar, g: Scalar) -> Scalar:
        return self.pairing(differential(f), differential(g))

    def is_casimir(self, f: Scalar) -> bool:
        return self.hamiltonian_vf(f).is_zero

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PoissonBivector):
            return NotImplemented
        return self.mv == other.mv

    def __hash__(self) -> int:
        return hash(self.mv)

    def __repr__(self) -> str:
        return f"PoissonBivector({self.mv!r})"


def verify_jacobi(P: PoissonBivector) -> str | None:
    """None when the Schouten self-bracket vanishes, else a witness."""
    jac = schouten_bracket(P.mv, P.mv)
    if jac.is_zero:
        return None
    idx, value = next(iter(sorted(jac.comps.items())))
    names = ", ".join(P.chart.coords[i] for i in idx)
    return f"Schouten self-bracket has component {value} on ({names})"


def verify_poisson_connection(conn: Connection, P: PoissonBivector) -> str | None:
    """None when every lifted frame field preserves the bivector."""
    for base, lift in conn.frame.items():
        moved = lie_derivative(lift, P.mv)
        if not moved.is_zero:
            idx, value = next(iter(sorted(moved.comps.items())))
            names = ", ".join(conn.chart.coords[i] for i in idx)
            return f"lift of {base} moves the bivector by {value} on ({names})"
    return None


def braided_wedge(P: PoissonBivector, alpha: DiffForm, beta: DiffForm) -> DiffForm:
    """Wedge of two horizontal forms with coefficients multiplied in the bracket.

    On decomposables ``a dx^I`` and ``b dx^J`` the result is
    ``{a, b} dx^I ^ dx^J``; both inputs must be horizontal.  The Hamiltonian
    image of alpha is built once, and ``{a, b} = SHARP_SIGN * X_a(b)``
    differentiates each partner b only along the field X_a.
    """
    if alpha.chart != beta.chart or alpha.chart != P.chart:
        raise ChartMismatch("operands live on different charts")
    if alpha.degree != 1:
        raise UnsupportedDegree("braided wedge expects a one-form first factor")
    if not is_horizontal_form(alpha) or not is_horizontal_form(beta):
        raise NotHorizontal("braided wedge expects horizontal forms")
    chart = alpha.chart
    degree = alpha.degree + beta.degree
    if degree > chart.dim:
        raise DegreeOverflow("braided wedge degree exceeds dimension")
    items = []
    for ia, field in P.hamiltonian_image(alpha).comps.items():
        for ib, vb in beta.comps.items():
            sorted_sign = _sort_index(ia + ib)
            if sorted_sign is None:
                continue
            idx, sign = sorted_sign
            value = field.apply(vb)
            if value.is_zero:
                continue
            items.append((idx, value if sign * SHARP_SIGN > 0 else -value))
    return DiffForm._make(chart, degree, items)
