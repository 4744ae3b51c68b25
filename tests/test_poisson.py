"""Fiber-tangent Poisson structures: sharps, brackets, Casimirs."""

import pytest
from hypothesis import given

from foliavg.errors import NotHorizontal, NotVertical, UnsupportedDegree
from foliavg.foliation import Connection
from foliavg.geom import DiffForm, VectorField, wedge
from foliavg.poisson import (
    PoissonBivector,
    braided_wedge,
    differential,
    verify_jacobi,
    verify_poisson_connection,
)
from foliavg.symcalc import Chart, Scalar, parse

from conftest import CHART, polynomials, sc


def d(name):
    return DiffForm.d_coord(CHART, name)


def vf(name):
    return VectorField.basis(CHART, name)


PAIRS = Chart(("x1",), ("q1", "p1", "q2", "p2"), ("th1", "th2"))


def scp(text):
    return parse(PAIRS, text)


# ----------------------------------------------------------------------
# structure guards


def test_bivector_must_be_fiber_tangent():
    with pytest.raises(NotVertical):
        PoissonBivector.from_dict(CHART, {("x1", "q"): Scalar.one(CHART)})


def test_bivector_must_have_degree_two():
    from foliavg.geom import Multivector

    with pytest.raises(UnsupportedDegree):
        PoissonBivector(Multivector.from_dict(CHART, 1, {("q",): Scalar.one(CHART)}))


# ----------------------------------------------------------------------
# sharp and Hamiltonian fields


def test_sharp_on_basis_forms(bivector):
    assert bivector.sharp(d("q")) == vf("p")
    assert bivector.sharp(d("p")) == -vf("q")
    assert bivector.sharp(d("x1")).is_zero


def test_sharp_convention(bivector):
    alpha, beta = d("q") * sc("x1"), d("p") * sc("q")
    assert beta.evaluate(bivector.sharp(alpha)) == bivector.pairing(alpha, beta)


def test_rotation_generator_is_hamiltonian(bivector, rotation):
    X = bivector.hamiltonian_vf(sc("(q^2 + p^2)/2"))
    assert X == vf("p") * sc("q") - vf("q") * sc("p")
    assert X == rotation.factors[0].generator()


def test_bracket_examples(bivector):
    assert bivector.bracket(sc("q"), sc("p")) == Scalar.one(CHART)
    assert bivector.bracket(sc("p"), sc("q")) == -Scalar.one(CHART)
    assert bivector.bracket(sc("q^2"), sc("p")) == sc("2*q")
    assert bivector.bracket(sc("x1"), sc("p")).is_zero


@given(polynomials(), polynomials(), polynomials())
def test_bracket_laws(f, g, h):
    P = PoissonBivector.from_dict(CHART, {("q", "p"): Scalar.one(CHART)})
    assert P.bracket(f, g) == -P.bracket(g, f)
    assert P.bracket(f, g * h) == P.bracket(f, g) * h + g * P.bracket(f, h)
    jacobiator = (
        P.bracket(f, P.bracket(g, h))
        + P.bracket(g, P.bracket(h, f))
        + P.bracket(h, P.bracket(f, g))
    )
    assert jacobiator.is_zero


# ----------------------------------------------------------------------
# Casimirs and Jacobi


def test_casimirs(bivector):
    assert bivector.is_casimir(sc("x1*x2"))
    assert not bivector.is_casimir(sc("q"))
    degenerate = PoissonBivector.from_dict(
        PAIRS, {("q1", "p1"): Scalar.one(PAIRS)}
    )
    assert degenerate.is_casimir(scp("q2*p2 + x1"))
    assert not degenerate.is_casimir(scp("q1"))


def test_verify_jacobi(bivector):
    assert verify_jacobi(bivector) is None
    rank_varying = PoissonBivector.from_dict(
        PAIRS,
        {("q1", "p1"): scp("q2"), ("q2", "p2"): Scalar.one(PAIRS)},
    )
    witness = verify_jacobi(rank_varying)
    assert witness is not None and "Schouten" in witness
    linear = PoissonBivector.from_dict(
        PAIRS,
        {("q1", "p1"): scp("p2"), ("q2", "p2"): Scalar.one(PAIRS)},
    )
    assert verify_jacobi(linear) is not None


# ----------------------------------------------------------------------
# compatibility with connections


def test_connection_preserves_bivector(bivector, shear_conn, invariant_conn):
    assert verify_poisson_connection(shear_conn, bivector) is None
    assert verify_poisson_connection(invariant_conn, bivector) is None
    stretching = Connection(CHART, {("x1", "p"): sc("p")})
    witness = verify_poisson_connection(stretching, bivector)
    assert witness == "lift of x1 moves the bivector by -1 on (q, p)"


# ----------------------------------------------------------------------
# braided wedge


def test_braided_wedge_values(bivector):
    alpha = d("x1") * sc("q")
    beta = d("x2") * sc("p")
    got = braided_wedge(bivector, alpha, beta)
    assert got == wedge(d("x1"), d("x2"))
    assert braided_wedge(bivector, alpha, alpha).is_zero


def test_braided_wedge_antisymmetry_needs_bracket(bivector):
    alpha = d("x1") * sc("q^2")
    beta = d("x2") * sc("p")
    ab = braided_wedge(bivector, alpha, beta)
    ba = braided_wedge(bivector, beta, alpha)
    assert ab.coefficient("x1", "x2") == sc("2*q")
    assert ba.coefficient("x2", "x1") == sc("-2*q")
    assert ab == ba


def test_braided_wedge_guards(bivector):
    with pytest.raises(NotHorizontal):
        braided_wedge(bivector, d("q"), d("x1"))
    with pytest.raises(UnsupportedDegree):
        braided_wedge(bivector, wedge(d("x1"), d("x2")), d("x1"))
