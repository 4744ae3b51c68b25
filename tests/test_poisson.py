"""Fiber-tangent Poisson structures: sharps, brackets, Casimirs."""

from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import example, find, given
from hypothesis import strategies as st

import foliavg.poisson
from foliavg.errors import NotHorizontal, NotVertical, UnsupportedDegree
from foliavg.foliation import Connection
from foliavg.geom import DiffForm, VectorField, _sort_index, wedge
from foliavg.poisson import (
    PoissonBivector,
    braided_wedge,
    differential,
    verify_jacobi,
    verify_poisson_connection,
)
from foliavg.scenarios import _Pipeline, load_scenario
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


def braided_wedge_reference(P, alpha, beta):
    """The braided wedge that brackets every pair of components afresh,
    differentiating both coefficients each time."""
    items = []
    for ia, va in alpha.comps.items():
        for ib, vb in beta.comps.items():
            sorted_sign = _sort_index(ia + ib)
            if sorted_sign is None:
                continue
            idx, sign = sorted_sign
            value = P.bracket(va, vb)
            if value.is_zero:
                continue
            items.append((idx, value if sign > 0 else -value))
    return DiffForm._make(alpha.chart, alpha.degree + beta.degree, items)


BASE3 = Chart(("x1", "x2", "x3"), ("q1", "p1", "q2", "p2"), ())
P3 = PoissonBivector.from_dict(
    BASE3, {("q1", "p1"): Scalar.one(BASE3), ("q2", "p2"): parse(BASE3, "x1 + q1")}
)


@st.composite
def horizontal_forms(draw, degree, support):
    """Horizontal forms of BASE3 with nonzero components on a drawn nonempty
    subset of the given indices."""
    names = draw(st.lists(st.sampled_from(support), min_size=1, unique=True))
    coefficients = polynomials(BASE3, coord_degree=2, max_terms=2).filter(
        lambda f: not f.is_zero
    )
    comps = {idx: draw(coefficients) for idx in names}
    return DiffForm.from_dict(BASE3, degree, comps)


@st.composite
def braided_operands(draw):
    """(alpha, beta): beta drawn freely, beta that is alpha, or beta whose
    every index collides with every index of alpha."""
    kind = draw(st.sampled_from(["free", "same", "colliding"]))
    if kind == "colliding":
        base = draw(st.sampled_from(BASE3.horizontal))
        alpha = draw(horizontal_forms(1, [(base,)]))
        degree = draw(st.integers(1, 2))
        pairs = [idx for idx in combinations(BASE3.horizontal, degree) if base in idx]
        return alpha, draw(horizontal_forms(degree, pairs))
    alpha = draw(horizontal_forms(1, list(combinations(BASE3.horizontal, 1))))
    if kind == "same":
        return alpha, alpha
    degree = draw(st.integers(1, 2))
    return alpha, draw(horizontal_forms(degree, list(combinations(BASE3.horizontal, degree))))


def base3_form(degree, comps):
    return DiffForm.from_dict(BASE3, degree, {k: parse(BASE3, v) for k, v in comps.items()})


# the second operand's dx1 meets alpha's dx2 after alpha's dx1 has met dx3:
# a field or a coefficient looked up by index alone would fail here
SHARED_KEYS = (
    base3_form(1, {("x1",): "q1", ("x2",): "p1"}),
    base3_form(1, {("x1",): "p2", ("x3",): "q2"}),
)
THREE_TERMS = base3_form(1, {("x1",): "q1", ("x2",): "p1*q2", ("x3",): "x2*p2"})
# a one-form against a two-form, with a nonzero wedge:
# {q1*q2, p1 + x3*p2} = q2 + q1*x3*(x1 + q1)
NONZERO = (base3_form(1, {("x1",): "q1*q2"}), base3_form(2, {("x2", "x3"): "p1 + x3*p2"}))


@given(braided_operands())
@example(SHARED_KEYS)
@example((THREE_TERMS, THREE_TERMS))
@example(NONZERO)
def test_braided_wedge_matches_reference(operands):
    alpha, beta = operands
    fields, differentiated, pairings = [], [], []
    hamiltonian_vf, pairing = PoissonBivector.hamiltonian_vf, PoissonBivector.pairing

    def counted_vf(P, f):
        fields.append(f)
        return hamiltonian_vf(P, f)

    def counted_differential(f):
        differentiated.append(f)
        return differential(f)

    def counted_pairing(P, a, b):
        pairings.append((a, b))
        return pairing(P, a, b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PoissonBivector, "hamiltonian_vf", counted_vf)
        mp.setattr(PoissonBivector, "pairing", counted_pairing)
        mp.setattr(foliavg.poisson, "differential", counted_differential)
        got = braided_wedge(P3, alpha, beta)
    assert got == braided_wedge_reference(P3, alpha, beta)
    # one Hamiltonian field per component of alpha, no coefficient of beta
    # differentiated, and no pairing of differentials
    assert fields == differentiated == list(alpha.comps.values())
    assert not pairings


@given(braided_operands())
@example(SHARED_KEYS)
@example((THREE_TERMS, THREE_TERMS))
@example(NONZERO)
def test_braided_wedge_does_not_depend_on_the_sharp_sign(operands):
    # sharp reads SHARP_SIGN and the reference does not: the wedge must
    # undo the sign it reads through the Hamiltonian image
    alpha, beta = operands
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(foliavg.poisson, "SHARP_SIGN", -1)
        got = braided_wedge(P3, alpha, beta)
    assert got == braided_wedge_reference(P3, alpha, beta)


def test_braided_draws_reach_nonzero_wedges():
    assert not braided_wedge(P3, *NONZERO).is_zero
    assert not braided_wedge(P3, THREE_TERMS, THREE_TERMS).is_zero
    find(braided_operands(), lambda operands: not braided_wedge(P3, *operands).is_zero)


# the only pipeline data whose wedges are nonzero
@pytest.mark.parametrize(
    "source", ["ext3", "ext3adm", str(Path(__file__).parent / "data" / "ext3_vertical_pairing.json")]
)
def test_pipeline_wedges_match_reference(source):
    p = _Pipeline(load_scenario(source))
    P, Q = p.s.P, p.potential
    for partner in (Q, p.sigma, p.d_potential):
        got = braided_wedge(P, Q, partner)
        assert got == braided_wedge_reference(P, Q, partner)
        assert not got.is_zero
