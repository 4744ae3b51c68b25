"""Curvature as a Hamiltonian pairing form, and its exact averaging laws.

A pairing form attaches to each frame pair a function whose Hamiltonian
field is minus the curvature.  Averaging shifts it by a derivative and a
bracket correction; three derivative identities control the shift.  The
adiabatic machinery detects momentum data whose base-degree part fails
to average away and repairs it from supplied Casimir primitives.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .action import (
    TorusAction,
    average_tensor,
    averaging_walk,
    difference_from_potential,
    hannay_berry,
    potential_along,
)
from .errors import (
    ChartMismatch,
    InvariantViolation,
    NotACocycle,
    NotHorizontal,
    PrimitiveMismatch,
    UnsupportedDegree,
)
from .foliation import (
    Connection,
    bigrade_component,
    curvature,
    graded_derivative,
    is_horizontal_form,
)
from .geom import DiffForm, VecValuedForm, exterior_derivative
from .poisson import PoissonBivector, braided_wedge
from .symcalc import Scalar

_HALF = Fraction(1, 2)


def _require_pairing_form(conn: Connection, sigma: DiffForm) -> None:
    if sigma.chart != conn.chart:
        raise ChartMismatch("pairing form lives on another chart")
    if sigma.degree != 2:
        raise UnsupportedDegree("a pairing form is a two-form")
    if not is_horizontal_form(sigma):
        raise NotHorizontal("a pairing form is horizontal")


def verify_hamiltonian_curvature(
    conn: Connection, P: PoissonBivector, sigma: DiffForm
) -> str | None:
    """Curv = -X_sigma: the curvature plus the Hamiltonian image of the
    pairing form must vanish.

    Both forms are horizontal and the lifted frame is h_a = d/dx_a plus a
    vertical field, so on h_a, h_b each form is its dx_a ^ dx_b component;
    the witness is the first stored one of the sum in sorted index order,
    frame-pair order since the chart lists its base coordinates first.
    """
    _require_pairing_form(conn, sigma)
    defect = curvature(conn) + P.hamiltonian_image(sigma)
    if defect.is_zero:
        return None
    idx = min(defect.comps)
    a, b = (conn.chart.coords[i] for i in idx)
    return (
        f"frame pair ({a}, {b}): curvature misses minus the "
        f"Hamiltonian field by {defect.comps[idx]!r}"
    )


# ----------------------------------------------------------------------
# Casimir-valued forms


def is_casimir_form(P: PoissonBivector, form: DiffForm) -> bool:
    """Horizontal with every coefficient a Casimir function: in the kernel
    of the Hamiltonian image."""
    return is_horizontal_form(form) and P.hamiltonian_image(form).is_zero


def verify_admissible(conn: Connection, sigma: DiffForm) -> str | None:
    """The base-degree covariant derivative of the pairing form must vanish."""
    _require_pairing_form(conn, sigma)
    return admissible_witness(graded_derivative(conn, sigma, (1, 0)))


def admissible_witness(d_sigma: DiffForm) -> str | None:
    """The witness of :func:`verify_admissible`, given the base-degree
    derivative ``d_sigma`` of the pairing form."""
    if d_sigma.is_zero:
        return None
    return f"base-degree derivative is {d_sigma!r}"


# ----------------------------------------------------------------------
# averaging the pairing form


def half_self_bracket(P: PoissonBivector, potential: DiffForm) -> DiffForm:
    """Half the braided self-wedge of the potential, (1/2){Q, Q}."""
    return braided_wedge(P, potential, potential) * _HALF


def averaging_correction(
    conn: Connection, P: PoissonBivector, potential: DiffForm
) -> DiffForm:
    """Derivative plus half self-bracket of the potential."""
    return graded_derivative(conn, potential, (1, 0)) + half_self_bracket(P, potential)


def averaged_hamiltonian_form(
    conn: Connection, P: PoissonBivector, sigma: DiffForm, potential: DiffForm
) -> DiffForm:
    """The pairing form belonging to the averaged connection."""
    _require_pairing_form(conn, sigma)
    return sigma - averaging_correction(conn, P, potential)


def averaged_curvature_check(
    action: TorusAction,
    conn: Connection,
    P: PoissonBivector,
    moments: Sequence[DiffForm],
) -> str | None:
    """On frame pairs, the averaged curvature must equal the curvature
    plus the Hamiltonian field of the averaging correction."""
    walk = list(averaging_walk(action, conn))
    potential = potential_along(action, walk, moments)
    return curvature_transition_witness(
        conn, P, walk[-1], averaging_correction(conn, P, potential)
    )


def curvature_transition_witness(
    conn: Connection,
    P: PoissonBivector,
    averaged: Connection,
    correction: DiffForm,
) -> str | None:
    """The check of :func:`averaged_curvature_check`, given the averaged
    connection ``averaged`` of ``conn`` and the averaging correction
    ``correction`` of the Hamiltonian potential of the averaging difference,
    as :func:`averaging_correction` builds it.

    The averaged curvature minus the curvature minus the Hamiltonian image
    of the correction must vanish; the witness names the frame pair of its
    first stored component, as in :func:`verify_hamiltonian_curvature`.  A
    correction that is not horizontal is refused.
    """
    if not is_horizontal_form(correction):
        raise NotHorizontal("an averaging correction is horizontal")
    defect = curvature(averaged) - curvature(conn) - P.hamiltonian_image(correction)
    if defect.is_zero:
        return None
    a, b = (conn.chart.coords[i] for i in min(defect.comps))
    return f"transition fails on the ({a}, {b}) frame pair"


def averaging_identities(
    conn: Connection, P: PoissonBivector, sigma: DiffForm, potential: DiffForm
) -> dict[str, DiffForm]:
    """Exact residuals of the three derivative identities behind averaging.

    The shift of the base-degree derivative across the averaged
    connection, the second derivative of the potential, and the
    derivative of its half self-bracket are each balanced by braided
    wedges; all residuals must be zero forms.
    """
    _require_pairing_form(conn, sigma)
    return identity_residuals(
        conn,
        P,
        sigma,
        potential,
        graded_derivative(conn, sigma, (1, 0)),
        graded_derivative(conn, potential, (1, 0)),
        half_self_bracket(P, potential),
        difference_from_potential(P, potential),
    )


def identity_residuals(
    conn: Connection,
    P: PoissonBivector,
    sigma: DiffForm,
    potential: DiffForm,
    d_sigma: DiffForm,
    d_potential: DiffForm,
    half_bracket: DiffForm,
    difference: VecValuedForm,
) -> dict[str, DiffForm]:
    """The residuals of :func:`averaging_identities`, given the base-degree
    derivative ``d_sigma`` of the pairing form and the pieces of the
    potential Q that the averaging correction is made of: its base-degree
    derivative ``d_potential``, its half self-bracket ``half_bracket`` and
    ``difference``, the valued one-form of
    :func:`~foliavg.action.difference_from_potential`."""
    shifted = conn.shifted(difference)
    balance = braided_wedge(P, potential, sigma)
    return {
        "shifted_derivative": graded_derivative(shifted, sigma, (1, 0)) - d_sigma - balance,
        "second_derivative": graded_derivative(conn, d_potential, (1, 0)) - balance,
        "bracket_derivative": (
            graded_derivative(conn, half_bracket, (1, 0))
            + braided_wedge(P, potential, d_potential)
        ),
    }


# ----------------------------------------------------------------------
# adiabatic conditions


def horizontal_momentum(conn: Connection, mu: DiffForm) -> DiffForm:
    """Base-degree part of a momentum one-form."""
    return bigrade_component(conn, mu, 1, 0)


def adiabatic_defect(action: TorusAction, conn: Connection, mu: DiffForm) -> DiffForm:
    """Group average of the base-degree part; zero exactly when adiabatic."""
    return average_tensor(action, horizontal_momentum(conn, mu))


def adiabatic_check(
    action: TorusAction, conn: Connection, moments: Sequence[DiffForm]
) -> str | None:
    """Every momentum one-form must average to pure fiber degree.

    The defect is also recomputed as the base-degree part taken with
    respect to the averaged connection; the two routes must agree.
    """
    return adiabatic_witness(action, conn, hannay_berry(action, conn), moments)


def adiabatic_witness(
    action: TorusAction,
    conn: Connection,
    averaged: Connection,
    moments: Sequence[DiffForm],
) -> str | None:
    """The check of :func:`adiabatic_check`, given the averaged connection
    ``averaged`` of ``conn``."""
    for factor, mu in zip(action.factors, moments):
        # Two independent routes: the defect averages the base-degree part
        # itself and must never read ``averaged``, or agreement proves nothing.
        defect = adiabatic_defect(action, conn, mu)
        cross = horizontal_momentum(averaged, mu)
        if cross != defect:
            return (
                f"defect routes disagree for {factor.angle}: "
                f"{cross!r} against {defect!r}"
            )
        if not defect.is_zero:
            return f"{factor.angle} one-form has averaged base part {defect!r}"
    return None


def adiabatic_fix(
    action: TorusAction,
    conn: Connection,
    P: PoissonBivector,
    moments: Sequence[DiffForm],
    primitives: Sequence[Scalar],
) -> list[DiffForm]:
    """Shift each momentum one-form by the differential of a supplied
    Casimir primitive of its averaged defect.

    The defect must be closed for the base-degree derivative, and each
    primitive must be a Casimir whose derivative is exactly the defect.
    Primitives are verified, never solved for.
    """
    if len(primitives) != len(moments):
        raise InvariantViolation("expected one primitive per momentum one-form")
    chart = conn.chart
    fixed = []
    for factor, mu, prim in zip(action.factors, moments, primitives):
        defect = adiabatic_defect(action, conn, mu)
        if not graded_derivative(conn, defect, (1, 0)).is_zero:
            raise NotACocycle(
                f"averaged defect of {factor.angle} is not closed for the "
                "base-degree derivative"
            )
        if not P.is_casimir(prim):
            raise PrimitiveMismatch(f"primitive for {factor.angle} is not a Casimir")
        as_form = DiffForm.function(chart, prim)
        if graded_derivative(conn, as_form, (1, 0)) != defect:
            raise PrimitiveMismatch(
                f"primitive for {factor.angle} does not produce the defect"
            )
        fixed.append(mu - exterior_derivative(as_form))
    return fixed


# ----------------------------------------------------------------------
# the axiomatic characterization


def axiomatic_verify(
    action: TorusAction,
    conn: Connection,
    candidate: Connection,
    P: PoissonBivector,
    moments: Sequence[DiffForm],
    potential: DiffForm,
) -> dict[str, str | None]:
    """The four framewise laws singling out the averaged connection.

    The momentum one-forms annihilate the candidate's horizontal parts;
    the difference of the connections is the Hamiltonian image of the
    potential; the averaged potential coefficients are Casimirs; and the
    original horizontal pairings average to zero.
    """
    verdict: dict[str, str | None] = {
        "annihilates_horizontal": None,
        "difference_is_hamiltonian": None,
        "averaged_potential_casimir": None,
        "averaged_pairing_vanishes": None,
    }
    frame = conn.frame
    for factor, mu in zip(action.factors, moments):
        for base, lift in frame.items():
            if verdict["annihilates_horizontal"] is None:
                value = mu.evaluate(candidate.horizontal_part(lift))
                if not value.is_zero:
                    verdict["annihilates_horizontal"] = (
                        f"{factor.angle} one-form takes {value} on the "
                        f"candidate-horizontal part of the {base} lift"
                    )
            if verdict["averaged_pairing_vanishes"] is None:
                value = average_tensor(action, mu.evaluate(lift))
                if not value.is_zero:
                    verdict["averaged_pairing_vanishes"] = (
                        f"{factor.angle} one-form pairs with the {base} lift "
                        f"to average {value}"
                    )
    if conn.difference(candidate) != difference_from_potential(P, potential):
        verdict["difference_is_hamiltonian"] = (
            "connection difference is not the Hamiltonian image of the potential"
        )
    for (i,), value in potential.comps.items():
        averaged = average_tensor(action, value)
        if not P.is_casimir(averaged):
            verdict["averaged_potential_casimir"] = (
                f"averaged coefficient {averaged} on d{conn.chart.coords[i]} "
                "is not a Casimir"
            )
            break
    return verdict

