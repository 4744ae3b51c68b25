"""Pairing two-forms: curvature law, admissibility, averaging, adiabatics."""

import pytest
from hypothesis import given

from foliavg.action import hamiltonian_potential, hannay_berry
from foliavg.errors import (
    InvariantViolation,
    NotACocycle,
    NotHorizontal,
    PrimitiveMismatch,
    UnsupportedDegree,
)
from foliavg.foliation import Connection, graded_derivative
from foliavg.geom import DiffForm, VectorField, wedge
from foliavg.hamcurv import (
    adiabatic_check,
    adiabatic_defect,
    adiabatic_fix,
    adiabatic_witness,
    averaged_curvature_check,
    averaged_hamiltonian_form,
    averaging_correction,
    averaging_identities,
    axiomatic_verify,
    curvature_transition_witness,
    horizontal_momentum,
    is_casimir_form,
    verify_admissible,
    verify_hamiltonian_curvature,
)
from foliavg.poisson import differential
from foliavg.scenarios import load_scenario
from foliavg.symcalc import Chart, Scalar, parse

from conftest import CHART, polynomials, sc


def d(name):
    return DiffForm.d_coord(CHART, name)


def two_form(text):
    return DiffForm.from_dict(CHART, 2, {("x1", "x2"): sc(text)})


SIGMA = two_form("q")
SIGMA_INV = two_form("(q^2 + p^2)/2")
CASIMIR = two_form("x1")


# ----------------------------------------------------------------------
# the curvature law


def test_hamiltonian_curvature_accepts_matched_pairs(
    shear_conn, invariant_conn, bivector
):
    assert verify_hamiltonian_curvature(shear_conn, bivector, SIGMA) is None
    assert verify_hamiltonian_curvature(invariant_conn, bivector, SIGMA_INV) is None


def test_hamiltonian_curvature_witness(invariant_conn, bivector):
    witness = verify_hamiltonian_curvature(invariant_conn, bivector, SIGMA)
    assert witness == (
        "frame pair (x1, x2): curvature misses minus the "
        "Hamiltonian field by (p)*d/dq + (1 - q)*d/dp"
    )


def test_pairing_form_shape_guards(shear_conn, bivector):
    with pytest.raises(UnsupportedDegree):
        verify_hamiltonian_curvature(shear_conn, bivector, d("x1"))
    vertical = DiffForm.from_dict(CHART, 2, {("q", "p"): sc("1")})
    with pytest.raises(NotHorizontal):
        verify_hamiltonian_curvature(shear_conn, bivector, vertical)


def casimir_freedom_check(P, sigma, sigma_new):
    """Two pairing forms of one connection may differ only by a Casimir form."""
    diff = sigma_new - sigma
    if is_casimir_form(P, diff):
        return None
    return f"difference {diff!r} is not a Casimir-valued horizontal form"


def test_casimir_freedom(bivector):
    assert casimir_freedom_check(bivector, SIGMA, SIGMA + CASIMIR) is None
    witness = casimir_freedom_check(bivector, SIGMA, SIGMA + SIGMA)
    assert witness == "difference (q)*dx1^dx2 is not a Casimir-valued horizontal form"


@given(polynomials())
def test_casimir_forms_are_exactly_fiberwise_constants(f):
    from foliavg.poisson import PoissonBivector

    P = PoissonBivector.from_dict(CHART, {("q", "p"): Scalar.one(CHART)})
    form = DiffForm.from_dict(CHART, 2, {("x1", "x2"): f})
    expected = not f.depends_on("q") and not f.depends_on("p")
    assert is_casimir_form(P, form) == expected


# ----------------------------------------------------------------------
# admissibility and the Casimir complex


def test_admissible(shear_conn, invariant_conn, bivector):
    assert verify_admissible(shear_conn, SIGMA) is None
    assert verify_admissible(invariant_conn, SIGMA_INV) is None


# The Casimir complex (Vorobiev, "Coupling tensors and Poisson geometry near
# a single symplectic leaf", 2001): the base-degree derivative maps
# Casimir-valued horizontal forms to Casimir-valued horizontal forms, and by
# the Bianchi identity it sends the pairing form there too.


def bianchi_residue(conn, P, sigma):
    residue = graded_derivative(conn, sigma, (1, 0))
    assert is_casimir_form(P, residue)
    return residue


def casimir_complex_d(conn, P, beta):
    assert is_casimir_form(P, beta)
    result = graded_derivative(conn, beta, (1, 0))
    assert is_casimir_form(P, result)
    return result


def test_bianchi_residue(shear_conn, bivector):
    assert bianchi_residue(shear_conn, bivector, SIGMA).is_zero


def test_casimir_complex_d(shear_conn, bivector):
    f0 = DiffForm.function(CHART, sc("x1*x2"))
    assert casimir_complex_d(shear_conn, bivector, f0) == (
        d("x1") * sc("x2") + d("x2") * sc("x1")
    )
    assert not is_casimir_form(bivector, DiffForm.function(CHART, sc("q")))


# ----------------------------------------------------------------------
# the averaged pairing form


def test_averaging_correction_value(
    rotation, shear_conn, bivector, quadratic_momentum
):
    Q = hamiltonian_potential(rotation, shear_conn, [quadratic_momentum])
    assert averaging_correction(shear_conn, bivector, Q) == SIGMA


def test_averaged_form_is_casimir_valued(
    rotation, shear_conn, bivector, quadratic_momentum
):
    Q = hamiltonian_potential(rotation, shear_conn, [quadratic_momentum])
    sbar = averaged_hamiltonian_form(shear_conn, bivector, SIGMA, Q)
    assert sbar.is_zero
    assert is_casimir_form(bivector, sbar)
    averaged = hannay_berry(rotation, shear_conn)
    assert verify_hamiltonian_curvature(averaged, bivector, sbar) is None


def test_averaging_identities_residuals(
    rotation, shear_conn, bivector, quadratic_momentum
):
    Q = hamiltonian_potential(rotation, shear_conn, [quadratic_momentum])
    residuals = averaging_identities(shear_conn, bivector, SIGMA, Q)
    assert set(residuals) == {
        "shifted_derivative",
        "second_derivative",
        "bracket_derivative",
    }
    for residual in residuals.values():
        assert residual.is_zero


def test_averaged_curvature_transition(
    rotation, shear_conn, invariant_conn, bivector, quadratic_momentum
):
    assert (
        averaged_curvature_check(rotation, shear_conn, bivector, [quadratic_momentum])
        is None
    )
    assert (
        averaged_curvature_check(
            rotation, invariant_conn, bivector, [quadratic_momentum]
        )
        is None
    )


def test_transition_witness_names_the_failing_frame_pair(shear_conn, bivector):
    # the curvature does not move, but the correction q has a nonzero
    # Hamiltonian field
    assert curvature_transition_witness(shear_conn, bivector, shear_conn, two_form("q")) == (
        "transition fails on the (x1, x2) frame pair"
    )


def test_transition_witness_refuses_a_correction_that_is_not_horizontal(
    shear_conn, bivector
):
    correction = wedge(d("x1"), d("q"))
    with pytest.raises(NotHorizontal):
        curvature_transition_witness(shear_conn, bivector, shear_conn, correction)


# ----------------------------------------------------------------------
# adiabatic conditions


def test_adiabatic_check(rotation, shear_conn, flat_conn, quadratic_momentum):
    assert adiabatic_check(rotation, shear_conn, [quadratic_momentum]) is None
    shifted = quadratic_momentum + d("x1")
    assert adiabatic_check(rotation, flat_conn, [shifted]) == (
        "th one-form has averaged base part (1)*dx1"
    )
    assert adiabatic_defect(rotation, flat_conn, shifted) == d("x1")
    assert horizontal_momentum(flat_conn, shifted) == d("x1")


def test_adiabatic_fix(rotation, flat_conn, bivector, quadratic_momentum):
    shifted = quadratic_momentum + d("x1")
    fixed = adiabatic_fix(rotation, flat_conn, bivector, [shifted], [sc("x1")])
    assert fixed == [quadratic_momentum]
    assert adiabatic_check(rotation, flat_conn, fixed) is None


def test_adiabatic_fix_rejects_bad_primitives(
    rotation, flat_conn, bivector, quadratic_momentum
):
    shifted = quadratic_momentum + d("x1")
    with pytest.raises(PrimitiveMismatch):
        adiabatic_fix(rotation, flat_conn, bivector, [shifted], [sc("q")])
    with pytest.raises(PrimitiveMismatch):
        adiabatic_fix(rotation, flat_conn, bivector, [shifted], [sc("x2")])
    with pytest.raises(InvariantViolation, match="expected one primitive per momentum"):
        adiabatic_fix(rotation, flat_conn, bivector, [shifted], [])


def test_adiabatic_fix_refuses_a_defect_that_is_no_cocycle(
    rotation, flat_conn, bivector, quadratic_momentum
):
    # the averaged defect x2*dx1 has D^{1,0} = dx2 ^ dx1, so no primitive
    # can produce it
    shifted = quadratic_momentum + d("x1") * sc("x2")
    with pytest.raises(NotACocycle, match="averaged defect of th is not closed"):
        adiabatic_fix(rotation, flat_conn, bivector, [shifted], [sc("x1")])


# ----------------------------------------------------------------------
# the axiomatic characterization


def test_axiomatic_verify_accepts_the_average(
    rotation, shear_conn, bivector, quadratic_momentum
):
    Q = hamiltonian_potential(rotation, shear_conn, [quadratic_momentum])
    averaged = hannay_berry(rotation, shear_conn)
    verdict = axiomatic_verify(
        rotation, shear_conn, averaged, bivector, [quadratic_momentum], Q
    )
    assert all(value is None for value in verdict.values())


def test_axiomatic_verify_rejects_the_unaveraged_candidate(
    rotation, shear_conn, bivector, quadratic_momentum
):
    Q = hamiltonian_potential(rotation, shear_conn, [quadratic_momentum])
    verdict = axiomatic_verify(
        rotation, shear_conn, shear_conn, bivector, [quadratic_momentum], Q
    )
    assert verdict["annihilates_horizontal"] is not None
    assert verdict["difference_is_hamiltonian"] is not None
    assert verdict["averaged_potential_casimir"] is None
    assert verdict["averaged_pairing_vanishes"] is None


def test_axiomatic_verify_names_a_pairing_and_a_potential_that_fail(
    rotation, shear_conn, bivector, quadratic_momentum
):
    Q = hamiltonian_potential(rotation, shear_conn, [quadratic_momentum])
    averaged = hannay_berry(rotation, shear_conn)
    # dx1 pairs with the x1 lift to 1, whose average is 1
    shifted = quadratic_momentum + d("x1")
    verdict = axiomatic_verify(rotation, shear_conn, averaged, bivector, [shifted], Q)
    assert verdict["averaged_pairing_vanishes"] == (
        "th one-form pairs with the x1 lift to average 1"
    )
    # q^2 + p^2 is invariant, so it is its own average, and no Casimir
    wrong = Q + d("x1") * sc("q^2 + p^2")
    verdict = axiomatic_verify(
        rotation, shear_conn, averaged, bivector, [quadratic_momentum], wrong
    )
    assert verdict["averaged_potential_casimir"] == (
        "averaged coefficient p^2 + q^2 on dx1 is not a Casimir"
    )


def test_invariant_pairing_casimir(rotation, shear_conn, bivector, quadratic_momentum):
    """Momentum one-forms pair with the averaged frame to Casimirs."""
    averaged = hannay_berry(rotation, shear_conn)
    for lift in averaged.frame.values():
        assert bivector.is_casimir(quadratic_momentum.evaluate(lift))


# ----------------------------------------------------------------------
# one momentum per circle factor
#
# Each consumer zips the factors with the momenta, so a short or long list
# would be truncated in silence; each refuses it instead.

TRIV_SHIFTED = load_scenario("triv_shifted")
WRONG_COUNTS = pytest.mark.parametrize(
    "moments", [(), TRIV_SHIFTED.momenta * 2], ids=["none", "two"]
)
ONE_PER_FACTOR = "expected one momentum one-form per circle factor"


@WRONG_COUNTS
def test_adiabatic_witness_needs_one_momentum_per_factor(moments):
    s = TRIV_SHIFTED
    with pytest.raises(InvariantViolation, match=ONE_PER_FACTOR):
        adiabatic_witness(s.action, s.conn, hannay_berry(s.action, s.conn), moments)
    with pytest.raises(InvariantViolation, match=ONE_PER_FACTOR):
        adiabatic_check(s.action, s.conn, moments)


@WRONG_COUNTS
def test_adiabatic_fix_needs_one_momentum_per_factor(moments):
    s = TRIV_SHIFTED
    with pytest.raises(InvariantViolation, match=ONE_PER_FACTOR):
        adiabatic_fix(s.action, s.conn, s.P, moments, s.primitives[: len(moments)])


@WRONG_COUNTS
def test_axiomatic_verify_needs_one_momentum_per_factor(moments):
    s = TRIV_SHIFTED
    averaged = hannay_berry(s.action, s.conn)
    potential = hamiltonian_potential(s.action, s.conn, s.momenta)
    with pytest.raises(InvariantViolation, match=ONE_PER_FACTOR):
        axiomatic_verify(s.action, s.conn, averaged, s.P, moments, potential)
