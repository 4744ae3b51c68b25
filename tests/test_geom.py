"""Exterior calculus, brackets and pullbacks on a fixed chart."""

import json
import re
from fractions import Fraction
from itertools import combinations, permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foliavg.action import FlowFactor, hannay_berry
from foliavg.errors import DegreeOverflow, MissingInverse, UnsupportedDegree
from foliavg.geom import (
    ChartMap,
    DiffForm,
    Multivector,
    VecValuedForm,
    VectorField,
    _det,
    _gradient,
    _sort_index,
    exterior_derivative,
    fn_bracket,
    interior_product,
    lie_derivative,
    pullback,
    schouten_bracket,
    support,
    wedge,
)
from foliavg.scenarios import bundled_names, load_scenario, run_checks, scenario_from_dict
from foliavg.symcalc import Chart, Scalar, Substitution, parse

from conftest import CHART, forms, polynomials, sc, scalars, vector_fields
from test_foliation import fn_bracket_reference
from test_symcalc import naive_substitute


def d(name):
    return DiffForm.d_coord(CHART, name)


def vf(name):
    return VectorField.basis(CHART, name)


# ----------------------------------------------------------------------
# vector fields


def test_vector_field_basics():
    X = VectorField.from_dict(CHART, {"q": sc("p"), "p": sc("-q")})
    assert X.coefficient("q") == sc("p")
    assert X.coefficient("x1").is_zero
    assert X.apply(sc("q^2 + p^2")).is_zero
    assert (X - X).is_zero


def test_bracket_example():
    X, Y = vf("q") * sc("q"), vf("q")
    assert X.bracket(Y) == -vf("q")


@given(vector_fields(), vector_fields(), vector_fields())
def test_bracket_jacobi(X, Y, Z):
    total = (
        X.bracket(Y.bracket(Z))
        + Y.bracket(Z.bracket(X))
        + Z.bracket(X.bracket(Y))
    )
    assert total.is_zero


@given(vector_fields(), vector_fields(), polynomials())
def test_bracket_leibniz(X, Y, f):
    assert X.bracket(Y * f) == Y.bracket(X) * (-f) + Y * X.apply(f)


# ----------------------------------------------------------------------
# forms and the exterior derivative


def test_wedge_examples():
    a, b = d("x1"), d("x2")
    assert wedge(a, b).coefficient("x1", "x2") == Scalar.one(CHART)
    assert wedge(a, b) == -wedge(b, a)
    assert wedge(a, a).is_zero
    two = wedge(d("q"), d("p"))
    assert wedge(two, wedge(a, b)).coefficient("q", "p", "x1", "x2") == Scalar.one(CHART)


def test_coefficient_is_antisymmetric():
    two = wedge(d("q"), d("p")) * sc("x1")
    assert two.coefficient("q", "p") == sc("x1")
    assert two.coefficient("p", "q") == sc("-x1")
    assert two.coefficient("q", "x1").is_zero


def test_wedge_degree_overflow():
    top = wedge(wedge(d("x1"), d("x2")), wedge(d("q"), d("p")))
    with pytest.raises(DegreeOverflow):
        wedge(top, d("q"))


def test_exterior_derivative_examples():
    assert exterior_derivative(DiffForm.function(CHART, sc("q"))) == d("q")
    a = d("x1") * sc("q")
    assert exterior_derivative(a) == wedge(d("q"), d("x1"))
    top = wedge(wedge(d("x1"), d("x2")), wedge(d("q"), d("p")))
    assert exterior_derivative(top * sc("q^3")).is_zero


@given(forms(1))
def test_d_squared_is_zero(a):
    assert exterior_derivative(exterior_derivative(a)).is_zero


@given(forms(1), forms(1))
def test_d_is_an_antiderivation(a, b):
    lhs = exterior_derivative(wedge(a, b))
    rhs = wedge(exterior_derivative(a), b) - wedge(a, exterior_derivative(b))
    assert lhs == rhs


def test_form_evaluate():
    omega = wedge(d("q"), d("p"))
    assert omega.evaluate(vf("q"), vf("p")) == Scalar.one(CHART)
    assert omega.evaluate(vf("p"), vf("q")) == -Scalar.one(CHART)
    X = VectorField.from_dict(CHART, {"q": sc("p"), "p": sc("-q")})
    assert omega.evaluate(X, vf("p")) == sc("p")


# ----------------------------------------------------------------------
# interior products and Lie derivatives


def test_interior_product_examples():
    omega = wedge(d("q"), d("p"))
    assert interior_product(vf("q"), omega) == d("p")
    assert interior_product(vf("p"), omega) == -d("q")
    assert interior_product(vf("x1"), omega).is_zero


@given(vector_fields(), forms(1), forms(1))
def test_interior_product_is_an_antiderivation(X, a, b):
    lhs = interior_product(X, wedge(a, b))
    assert lhs == b * a.evaluate(X) - a * b.evaluate(X)


@given(vector_fields(), forms(2))
def test_cartan_formula(X, omega):
    lhs = lie_derivative(X, omega)
    rhs = interior_product(X, exterior_derivative(omega)) + exterior_derivative(
        interior_product(X, omega)
    )
    assert lhs == rhs


@given(vector_fields(), polynomials())
def test_lie_derivative_on_functions(X, f):
    assert lie_derivative(X, DiffForm.function(CHART, f)) == DiffForm.function(
        CHART, X.apply(f)
    )


@given(vector_fields(), vector_fields(), forms(1))
def test_lie_derivative_commutator(X, Y, a):
    lhs = lie_derivative(X, lie_derivative(Y, a)) - lie_derivative(
        Y, lie_derivative(X, a)
    )
    assert lhs == lie_derivative(X.bracket(Y), a)


# ----------------------------------------------------------------------
# multivectors and the Schouten bracket


def _vector_from_index(chart, i, coef=None):
    return VectorField(chart, 1, {(i,): Scalar.one(chart) if coef is None else coef})


def _wedge_vectors(fields):
    """The multivector fields[0] ^ ... ^ fields[-1], expanded over coordinates."""
    chart = fields[0].chart
    degree = len(fields)
    items = []

    def emit(pos, idx, coef):
        if pos == degree:
            sorted_sign = _sort_index(idx)
            if sorted_sign is None:
                return
            sidx, sign = sorted_sign
            items.append((sidx, coef if sign > 0 else -coef))
            return
        for (i,), comp in fields[pos].comps.items():
            emit(pos + 1, idx + (i,), coef * comp)

    emit(0, (), Scalar.one(chart))
    return Multivector._make(chart, degree, items)


def schouten_reference(a, b):
    """The Schouten bracket of two multivectors, by basis-field brackets.

    Each component is written as a wedge of coordinate fields with the
    coefficient on the first factor; for X = x_1 ^ ... ^ x_p and
    Y = y_1 ^ ... ^ y_q,
    [X, Y] = sum_{k, l} (-1)^(k+l) [x_k, y_l] ^ X without x_k ^ Y without y_l.
    """
    chart = a.chart
    result = Multivector.zero(chart, a.degree + b.degree - 1)
    for ia, va in a.comps.items():
        xs = [_vector_from_index(chart, ia[0], va)] + [
            _vector_from_index(chart, i) for i in ia[1:]
        ]
        for ib, vb in b.comps.items():
            ys = [_vector_from_index(chart, ib[0], vb)] + [
                _vector_from_index(chart, i) for i in ib[1:]
            ]
            for k, x in enumerate(xs, start=1):
                for l, y in enumerate(ys, start=1):
                    rest = [f for t, f in enumerate(xs, start=1) if t != k]
                    rest += [f for t, f in enumerate(ys, start=1) if t != l]
                    bracket = x.bracket(y)
                    if bracket.is_zero:
                        continue
                    piece = _wedge_vectors([bracket] + rest)
                    result = result + (-piece if (k + l) % 2 else piece)
    return result


def as_multivector(X):
    return Multivector(X.chart, 1, X.comps)


@st.composite
def multivectors(draw, degree):
    comps = {
        index: draw(scalars(coord_degree=2, freq=2, max_terms=2))
        for index in combinations(CHART.coords, degree)
    }
    return Multivector.from_dict(CHART, degree, comps)


# degree pairs whose bracket fits the four coordinates of CHART
BRACKET_DEGREES = [
    (p, q) for p in (1, 2, 3) for q in (1, 2, 3) if p + q - 1 <= CHART.dim
]


@st.composite
def multivector_pairs(draw):
    p, q = draw(st.sampled_from(BRACKET_DEGREES))
    return draw(multivectors(p)), draw(multivectors(q))


def test_schouten_on_fields_is_the_bracket():
    X = VectorField.from_dict(CHART, {"q": sc("q*p")})
    Y = vf("p")
    a = Multivector.from_dict(CHART, 1, {("q",): sc("q*p")})
    b = Multivector.from_dict(CHART, 1, {("p",): Scalar.one(CHART)})
    got = schouten_bracket(a, b)
    assert got.coefficient("q") == X.bracket(Y).coefficient("q")


@given(multivector_pairs())
def test_schouten_graded_antisymmetry_fields(pair):
    a, b = pair
    sign = -1 if (a.degree - 1) * (b.degree - 1) % 2 else 1
    assert schouten_bracket(a, b) == -(schouten_bracket(b, a) * sign)


@given(multivector_pairs())
def test_schouten_matches_the_reference(pair):
    a, b = pair
    assert schouten_bracket(a, b) == schouten_reference(a, b)


def _counting_diffs(fn):
    """fn's result and the coordinate names of the Scalar.diff calls it makes."""
    names = []
    diff = Scalar.diff

    def counted(self, name):
        names.append(name)
        return diff(self, name)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Scalar, "diff", counted)
        result = fn()
    return result, sorted(names)


def partials_of(*operands):
    """The coordinate of each (component, coordinate it contains) of the
    distinct operands: one partial each."""
    distinct = {id(t): t for t in operands}.values()
    return sorted(
        name
        for t in distinct
        for value in t.comps.values()
        for name in value.free_symbols()
        if name in t.chart.coords
    )


@given(multivector_pairs())
def test_schouten_takes_each_partial_once(pair):
    a, b = pair
    for x, y in ((a, b), (a, a)):
        if x.degree + y.degree - 1 > CHART.dim:
            continue
        bracket, names = _counting_diffs(lambda: schouten_bracket(x, y))
        assert names == partials_of(x, y)
        assert bracket == schouten_reference(x, y)


@pytest.mark.parametrize("name", bundled_names())
def test_schouten_takes_each_partial_once_on_bundled_data(name):
    s = load_scenario(name)
    P = s.P.mv
    assert _counting_diffs(lambda: schouten_bracket(P, P))[1] == partials_of(P)
    for lift in s.conn.frame.values():
        one = as_multivector(lift)
        assert _counting_diffs(lambda: schouten_bracket(one, P))[1] == partials_of(one, P)


@pytest.mark.parametrize("name", bundled_names())
def test_schouten_matches_the_reference_on_bundled_data(name):
    s = load_scenario(name)
    P = s.P.mv
    assert schouten_bracket(P, P) == schouten_reference(P, P)
    for conn in (s.conn, hannay_berry(s.action, s.conn)):
        for lift in conn.frame.values():
            one = as_multivector(lift)
            expected = schouten_reference(one, P)
            assert schouten_bracket(one, P) == expected
            assert lie_derivative(lift, P) == expected


def _rotating_pairs_doc(poisson):
    """Two base and two rotating fibre pairs, with a lift along p1."""
    rotations = [
        {
            "angle": f"th{j}",
            "flow": {
                f"q{j}": f"q{j}*cos(th{j}) - p{j}*sin(th{j})",
                f"p{j}": f"q{j}*sin(th{j}) + p{j}*cos(th{j})",
            },
        }
        for j in (1, 2)
    ]
    return {
        "schema": 1,
        "name": "rot_pairs",
        "chart": {
            "horizontal": ["x1", "x2"],
            "vertical": ["q1", "p1", "q2", "p2"],
            "angles": ["th1", "th2"],
        },
        "poisson": poisson,
        "connection": {"frame": {"x1": {"p1": "-3/5*x2*q1"}}},
        "action": rotations,
        "momenta": [{"q1": "q1", "p1": "p1"}, {"q2": "q2", "p2": "p2"}],
        "pairing_form": {"x1^x2": "-3/10*q1^2"},
    }


# fails both Schouten checks; committed as data/rot_pairs_not_jacobi.json
NOT_JACOBI = {"q1^p1": "q2^2", "q2^p2": "1", "p1^p2": "q1*x1"}


def test_the_committed_not_jacobi_document_is_the_built_one():
    path = Path(__file__).parent / "data" / "rot_pairs_not_jacobi.json"
    committed = json.loads(path.read_text())
    built = _rotating_pairs_doc(NOT_JACOBI)
    assert committed["name"] == "rot_pairs_not_jacobi"
    for doc in (committed, built):
        del doc["name"]
        doc.pop("description", None)
    assert committed == built


def _first_component(mv):
    idx, value = min(mv.comps.items())
    return value, ", ".join(mv.chart.coords[i] for i in idx)


@pytest.mark.parametrize(
    ("doc", "failing"),
    [
        (
            _rotating_pairs_doc(NOT_JACOBI),
            {"jacobi", "frame_preserves_bivector"},
        ),
        (dict(load_scenario("hb4d").raw, poisson={"q^p": "x1"}), {"frame_preserves_bivector"}),
    ],
    ids=["rot-pairs-not-jacobi", "hb4d-scaled-by-x1"],
)
def test_poisson_verdicts_see_a_nonzero_bracket(doc, failing):
    """Bundled brackets all vanish; here each failing witness is checked
    against the basis-field reference."""
    s = scenario_from_dict(doc)
    witnesses = {c.check: c.witness for c in run_checks(s, ["poisson"]).checks}
    assert {check for check, witness in witnesses.items() if witness} == failing
    P = s.P.mv
    jacobi = schouten_reference(P, P)
    if jacobi.is_zero:
        assert witnesses["jacobi"] is None
    else:
        value, names = _first_component(jacobi)
        assert witnesses["jacobi"] == f"Schouten self-bracket has component {value} on ({names})"
    moves = {}
    for base, lift in s.conn.frame.items():
        moved = schouten_reference(as_multivector(lift), P)
        if not moved.is_zero:
            moves[base] = _first_component(moved)
    base = next(iter(moves))
    value, names = moves[base]
    assert witnesses["frame_preserves_bivector"] == (
        f"lift of {base} moves the bivector by {value} on ({names})"
    )


def test_schouten_rejects_functions():
    P = Multivector.from_dict(CHART, 2, {("q", "p"): Scalar.one(CHART)})
    f = Multivector.from_dict(CHART, 0, {(): sc("q^2")})
    with pytest.raises(UnsupportedDegree):
        schouten_bracket(P, f)


def test_schouten_self_bracket_of_symplectic_bivector():
    P = Multivector.from_dict(CHART, 2, {("q", "p"): Scalar.one(CHART)})
    assert schouten_bracket(P, P).is_zero
    twisted = Multivector.from_dict(
        CHART, 2, {("q", "p"): Scalar.one(CHART), ("x1", "x2"): sc("q")}
    )
    self_bracket = schouten_bracket(twisted, twisted)
    assert self_bracket.coefficient("x1", "x2", "p") == sc("-2")


# ----------------------------------------------------------------------
# vector-valued forms


def test_identity_valued_form():
    ident = VecValuedForm.identity(CHART)
    X = VectorField.from_dict(CHART, {"q": sc("p^2"), "x1": sc("q")})
    assert ident.apply(X) == X
    assert ident.evaluate(X) == X


def test_fn_bracket_of_identity_vanishes():
    ident = VecValuedForm.identity(CHART)
    assert fn_bracket_reference(ident, ident).is_zero


@given(vector_fields(), vector_fields())
def test_fn_bracket_of_wrapped_fields(X, Y):
    got = fn_bracket(VecValuedForm.vector(CHART, X), Y)
    assert got == VecValuedForm.vector(CHART, X.bracket(Y))


@st.composite
def valued_forms(draw, degree):
    return VecValuedForm.from_dict(
        CHART, degree,
        {names: draw(vector_fields()) for names in combinations(CHART.coords, degree)},
    )


@given(st.integers(0, 2).flatmap(valued_forms), vector_fields())
def test_fn_bracket_with_a_field_matches_the_reference(K, X):
    assert fn_bracket(K, X) == fn_bracket_reference(K, VecValuedForm.vector(CHART, X))


# ----------------------------------------------------------------------
# chart maps


def shear_map():
    return ChartMap(
        CHART,
        {"q": sc("q + x1"), "p": sc("p - x2")},
        {"q": sc("q - x1"), "p": sc("p + x2")},
    )


def test_pull_scalar():
    phi = shear_map()
    assert pullback(phi, sc("q*p")) == sc("(q + x1)*(p - x2)")


def test_pull_form_commutes_with_d():
    phi = shear_map()
    f = DiffForm.function(CHART, sc("q^2*p"))
    lhs = pullback(phi, exterior_derivative(f))
    rhs = exterior_derivative(pullback(phi, f))
    assert lhs == rhs


@given(forms(1))
def test_pullback_commutes_with_d_random(a):
    phi = shear_map()
    assert pullback(phi, exterior_derivative(a)) == exterior_derivative(
        pullback(phi, a)
    )


def test_pull_vector_round_trip():
    phi = shear_map()
    X = VectorField.from_dict(CHART, {"q": sc("q"), "x1": sc("p")})
    back = pullback(phi.inverse(), pullback(phi, X))
    assert back == X


def test_pull_vector_needs_inverse():
    phi = ChartMap(CHART, {"q": sc("q + x1")})
    for _ in range(2):
        with pytest.raises(MissingInverse):
            pullback(phi, vf("q"))


def test_repeated_pullbacks_along_one_flow_agree(rotation):
    flow = rotation.factors[0].flow()
    targets = [
        sc("q^3*p + x1"),
        sc("q*p^5 - x2*q^2"),
        vf("q"),
        VectorField.from_dict(CHART, {"p": sc("q*x1"), "x2": sc("p^2")}),
        VectorField.from_dict(CHART, {"q": sc("p^3"), "x1": sc("q^2*p")}),
        d("q"),
        d("q") * sc("q^2*p^2"),
        wedge(d("q"), d("p")) * sc("x1*p"),
    ]
    for _ in range(2):
        for target in targets:
            fresh = ChartMap(CHART, flow.mapping, flow.inverse_mapping)
            assert pullback(flow, target) == pullback(fresh, target)


def test_chart_map_lists_every_image(rotation):
    flow = rotation.factors[0].flow()
    assert list(flow.mapping) == list(CHART.coords)
    assert flow.mapping["q"] == sc("q*cos(th) - p*sin(th)")
    assert flow.mapping["p"] == sc("q*sin(th) + p*cos(th)")
    assert flow.mapping["x1"] == sc("x1")
    assert flow.mapping["x2"] == sc("x2")
    assert list(flow.mapping.moved) == list(flow.inverse_mapping.moved) == ["q", "p"]
    assert list(flow.inverse_mapping) == list(CHART.coords)
    assert flow.inverse_mapping["q"] == sc("q*cos(th) + p*sin(th)")
    assert flow.inverse_mapping["x1"] == sc("x1")
    fixed = ChartMap(CHART, {"q": sc("q")})
    assert not fixed.mapping.moved
    assert {c: fixed.mapping[c] for c in CHART.coords} == {
        c: Scalar.var(CHART, c) for c in CHART.coords
    }
    assert flow.inverse() is not flow.inverse()


# ----------------------------------------------------------------------
# the dense path, kept as a reference for the sparse one


def jacobian_reference(chart, mapping):
    """The dense Jacobian: row c holds d mapping^c / d e for every e."""
    coords = chart.coords
    return [[mapping[c].diff(e) for e in coords] for c in coords]


def basis_images_reference(rows):
    """Basis images for ``_rebase``, row i being the image of index i;
    identity rows are left out, so those indices stay as they are."""
    images = {}
    for i, row in enumerate(rows):
        image = [(j, entry) for j, entry in enumerate(row) if not entry.is_zero]
        if image != [(i, 1)]:
            images[i] = image
    return images


def pullback_reference(phi, target):
    """The pullback through images read off dense Jacobians: the rows of
    the map's for differentials, the columns of the inverse's, composed
    with the map, for coordinate fields."""
    chart = phi.chart
    form_images = basis_images_reference(jacobian_reference(chart, phi.mapping))
    inverse = jacobian_reference(chart, phi.inverse_mapping)
    matrix = [[entry.substitute(phi.mapping) for entry in row] for row in inverse]
    field_images = basis_images_reference(zip(*matrix))

    def pull(a, images):
        items = [(idx, phi.pull_scalar(value)) for idx, value in a.comps.items()]
        return rebase_reference(type(a), chart, a.degree, items, images)

    if isinstance(target, DiffForm):
        return pull(target, form_images)
    if isinstance(target, VecValuedForm):
        items = [(idx, pull(vec, field_images)) for idx, vec in target.comps.items()]
        return rebase_reference(VecValuedForm, chart, target.degree, items, form_images)
    return pull(target, field_images)


def rebase_reference(cls, chart, degree, items, images):
    """The change of basis that expands the wedge of every component, moved
    or not, and collects the terms by sorted index."""
    out = []
    for idx, value in items:
        partial = [((), value)]
        for i in idx:
            partial = [
                (head + (j,), coef if factor is None else coef * factor)
                for j, factor in images.get(i, ((i, None),))
                for head, coef in partial
                if j not in head
            ]
        for new, coef in partial:
            sidx, sign = _sort_index(new)
            out.append((sidx, coef if sign > 0 else -coef))
    return cls._make(chart, degree, out)


def exterior_derivative_reference(a):
    """d by differentiating every component along every coordinate."""
    chart = a.chart
    if a.degree == chart.dim:
        return DiffForm.zero(chart, chart.dim)
    items = []
    for idx, value in a.comps.items():
        for c, name in enumerate(chart.coords):
            dv = value.diff(name)
            if dv.is_zero:
                continue
            sorted_sign = _sort_index((c,) + idx)
            if sorted_sign is None:
                continue
            sidx, sign = sorted_sign
            items.append((sidx, dv if sign > 0 else -dv))
    return DiffForm._make(chart, a.degree + 1, items)


def apply_reference(X, f):
    """X(f) summed over every coordinate."""
    zero = Scalar.zero(X.chart)
    total = zero
    for i, name in enumerate(X.chart.coords):
        total = total + X.comps.get((i,), zero) * f.diff(name)
    return total


@st.composite
def base_polynomials(draw):
    """Polynomials in the base coordinates x1, x2 alone."""
    total = Scalar.zero(CHART)
    for _ in range(draw(st.integers(0, 3))):
        coef = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
        term = Scalar.const(CHART, coef)
        for name in ("x1", "x2"):
            term = term * Scalar.var(CHART, name) ** draw(st.integers(0, 2))
        total = total + term
    return total


@st.composite
def shears(draw):
    """q -> q + f(x1, x2), p -> p + g(x1, x2), inverted by subtracting: the
    images of d/dx1 and d/dx2 gain q and p entries, although x1 and x2 do
    not move."""
    f, g = draw(base_polynomials()), draw(base_polynomials())
    q, p = sc("q"), sc("p")
    return ChartMap(CHART, {"q": q + f, "p": p + g}, {"q": q - f, "p": p - g})


@st.composite
def trig_forms(draw, degree):
    return DiffForm(CHART, degree, draw(multivectors(degree)).comps)


@given(shears(), vector_fields(), st.integers(0, 4).flatmap(trig_forms),
       st.integers(1, 3).flatmap(multivectors), valued_forms(1))
def test_pullbacks_match_the_dense_reference_on_shears(phi, X, a, m, K):
    for target in (X, a, m, K):
        assert pullback(phi, target) == pullback_reference(phi, target)
        assert pullback(phi.inverse(), target) == pullback_reference(phi.inverse(), target)


@given(st.integers(0, 3).flatmap(lambda k: forms(k) if k != 3 else vector_fields()))
def test_support_reads_the_stored_indices_and_the_dependencies(t):
    stored, touched = support(t)
    assert stored == {i for idx in t.comps for i in idx}
    assert touched == {
        c for c, name in enumerate(CHART.coords)
        if any(not value.diff(name).is_zero for value in t.comps.values())
    }


def test_a_map_gives_field_images_to_the_coordinates_its_images_depend_on():
    x1q2 = sc("x1*q^2")
    phi = ChartMap(CHART, {"p": sc("p") + x1q2}, {"p": sc("p") - x1q2})
    index = CHART.coord_index
    assert phi.moved_indices() == ({index("p")}, {index("x1"), index("q"), index("p")})
    assert pullback(phi, vf("x1")) == vf("x1") - VectorField.from_dict(CHART, {"p": sc("q^2")})


@given(shears(), vector_fields(), forms(1), forms(2))
def test_a_tensor_is_its_own_pullback_exactly_when_its_support_misses_the_moved_indices(
    phi, X, a, b
):
    moved, field_moved = phi.moved_indices()
    assert moved == set(phi._form_images()) and field_moved == set(phi._vector_images())
    for target, images in ((X, field_moved), (a, moved), (b, moved)):
        stored, touched = support(target)
        fixed = touched.isdisjoint(moved) and stored.isdisjoint(images)
        assert (pullback(phi, target) is target) == fixed


@pytest.mark.parametrize("name", bundled_names())
def test_pullbacks_match_the_dense_reference_on_bundled_flows(name):
    s = load_scenario(name)
    targets = [s.P.mv, s.conn.projection, *s.conn.frame.values(), *(s.momenta or ())]
    targets += [form for form in (s.sigma, s.casimir) if form is not None]
    for factor in s.action.factors:
        for phi in (factor.flow(), factor.flow().inverse()):
            for target in targets:
                assert pullback(phi, target) == pullback_reference(phi, target)


# ----------------------------------------------------------------------
# a pullback costs what the map moves: the pass-through of unmoved scalars
# and components, against the expansion of everything


def expanded_pullback(phi, target):
    """The pullback through the map's own basis images, each scalar
    substituted term by term and each component's wedge expanded."""
    moved = dict(phi.mapping.moved)

    def pull(a, images):
        items = [(idx, naive_substitute(value, moved)) for idx, value in a.comps.items()]
        return rebase_reference(type(a), phi.chart, a.degree, items, images)

    if isinstance(target, DiffForm):
        return pull(target, phi._form_images())
    if isinstance(target, VecValuedForm):
        items = [(idx, pull(vec, phi._vector_images())) for idx, vec in target.comps.items()]
        return rebase_reference(VecValuedForm, phi.chart, target.degree, items, phi._form_images())
    return pull(target, phi._vector_images())


# rot(3,2,1): three base coordinates and two rotating fibre pairs
ROT = Chart(("x1", "x2", "x3"), ("q1", "p1", "q2", "p2"), ("th1", "th2"))


def rot_flows():
    return [
        FlowFactor(ROT, f"th{j}", {
            f"q{j}": parse(ROT, f"q{j}*cos(th{j}) - p{j}*sin(th{j})"),
            f"p{j}": parse(ROT, f"q{j}*sin(th{j}) + p{j}*cos(th{j})"),
        }).flow()
        for j in (1, 2)
    ]


def pass_through_maps():
    """The flows of rot(3,2,1) and of the bundled scenarios, the shear
    q1 -> q1 + x2 that moves a fibre coordinate by a base one, and the
    inverse of each."""
    q1, x2 = Scalar.var(ROT, "q1"), Scalar.var(ROT, "x2")
    maps = [*rot_flows(), ChartMap(ROT, {"q1": q1 + x2}, {"q1": q1 - x2})]
    for name in bundled_names():
        maps += [factor.flow() for factor in load_scenario(name).action.factors]
    return [phi for flow in maps for phi in (flow, flow.inverse())]


@st.composite
def few_coordinate_polynomials(draw, chart):
    """Up to two monomials in up to two drawn coordinates each, so that
    many of them contain nothing a map moves."""
    total = Scalar.zero(chart)
    for _ in range(draw(st.integers(1, 2))):
        coef = Fraction(draw(st.sampled_from((-3, -1, 1, 2))), draw(st.integers(1, 2)))
        term = Scalar.const(chart, coef)
        for name in draw(st.lists(st.sampled_from(chart.coords), max_size=2)):
            term = term * Scalar.var(chart, name)
        total = total + term
    return total


@st.composite
def tensors_on(draw, chart, cls, degree):
    """A tensor of a class and degree on a chart, storing a drawn few
    components; a valued form's values are such vector fields."""
    indices = list(combinations(range(chart.dim), degree))
    chosen = draw(st.lists(st.sampled_from(indices), unique=True, min_size=1, max_size=3))
    if cls is VecValuedForm:
        values = tensors_on(chart, VectorField, 1)
    else:
        values = few_coordinate_polynomials(chart)
    return cls(chart, degree, {idx: draw(values) for idx in chosen})


@given(st.sampled_from(pass_through_maps()), st.data())
def test_pass_through_pullbacks_match_the_full_expansion(phi, data):
    chart = phi.chart
    kinds = [(VectorField, 1, 1), (DiffForm, 0, 3), (Multivector, 1, 3), (VecValuedForm, 0, 2)]
    for cls, low, high in kinds:
        degree = data.draw(st.integers(low, min(high, chart.dim)))
        target = data.draw(tensors_on(chart, cls, degree))
        assert pullback(phi, target) == expanded_pullback(phi, target)


def test_a_pullback_that_moves_nothing_returns_its_target():
    flow = rot_flows()[0]
    f = parse(ROT, "x1*q2 + p2^2/3")
    assert flow.mapping.apply(f) is f
    assert Substitution(ROT, {"q1": parse(ROT, "p1")}).apply(f) is f
    assert pullback(flow, f) is f
    field = VectorField.from_dict(ROT, {"x1": f, "q2": parse(ROT, "x3")})
    targets = [
        field,
        DiffForm.from_dict(ROT, 2, {("x1", "q2"): f, ("p2", "x3"): parse(ROT, "x2")}),
        Multivector.from_dict(ROT, 2, {("q2", "p2"): f}),
        VecValuedForm.from_dict(ROT, 1, {("x2",): field, ("p2",): field * f}),
    ]
    for target in targets:
        assert pullback(flow, target) is target
    # one moved coordinate, in a value or in an index, rebuilds the tensor
    for target in (
        DiffForm.from_dict(ROT, 1, {("x1",): f, ("x2",): parse(ROT, "q1")}),
        DiffForm.from_dict(ROT, 1, {("x1",): f, ("p1",): Scalar.one(ROT)}),
        VectorField.from_dict(ROT, {"x1": f, "q1": Scalar.one(ROT)}),
    ):
        pulled = pullback(flow, target)
        assert pulled is not target
        assert pulled == expanded_pullback(flow, target)


@given(st.integers(0, 4).flatmap(trig_forms))
def test_exterior_derivative_matches_the_dense_reference(a):
    assert exterior_derivative(a) == exterior_derivative_reference(a)


@given(vector_fields(), scalars())
def test_apply_matches_the_dense_reference(X, f):
    assert X.apply(f) == apply_reference(X, f)


@pytest.mark.parametrize("name", bundled_names())
def test_sparse_derivatives_match_the_dense_references_on_bundled_data(name):
    s = load_scenario(name)
    data = [*(s.momenta or ()), *(form for form in (s.sigma, s.casimir) if form is not None)]
    for form in data:
        assert exterior_derivative(form) == exterior_derivative_reference(form)
    coefficients = [v for form in data for v in form.comps.values()]
    coefficients += s.P.mv.comps.values()
    for lift in s.conn.frame.values():
        for f in coefficients:
            assert lift.apply(f) == apply_reference(lift, f)


@given(forms(1), vector_fields())
def test_pullback_is_natural_on_pairings(a, X):
    phi = shear_map()
    lhs = pullback(phi, a.evaluate(X))
    rhs = pullback(phi, a).evaluate(pullback(phi, X))
    assert lhs == rhs


def test_det_example():
    rows = [[sc("q"), sc("p")], [sc("1"), sc("q")]]
    assert _det(rows) == sc("q^2 - p")


# ----------------------------------------------------------------------
# contraction: the determinant loop over every component, kept as a
# reference for the kernel that visits only stored entries


def contract_reference(t, args):
    """Sum of value * det(args at idx) over all components of t, with a
    zero for every entry an argument does not store."""
    if not args:
        return t.comps.get((), t._zero_value(t.chart))
    zero = Scalar.zero(t.chart)
    total = t._zero_value(t.chart)
    for idx, value in t.comps.items():
        rows = [[arg.comps.get((i,), zero) for i in idx] for arg in args]
        total = total + value * _det(rows)
    return total


@st.composite
def sparse_tensors(draw, cls, degree, values=polynomials):
    """A tensor storing a drawn few of its components."""
    indices = list(combinations(range(CHART.dim), degree))
    chosen = draw(st.lists(st.sampled_from(indices), unique=True, max_size=3))
    return cls(CHART, degree, {idx: draw(values()) for idx in chosen})


@st.composite
def dense_one_tensors(draw, cls):
    """A degree-one tensor storing every index, so that a contraction with
    such arguments expands every permutation."""
    nonzero = polynomials().filter(lambda f: not f.is_zero)
    return cls(CHART, 1, {(i,): draw(nonzero) for i in range(CHART.dim)})


@settings(max_examples=50)
@given(st.integers(0, CHART.dim), st.booleans(), st.data())
def test_contraction_matches_the_reference(degree, dense, data):
    arguments = dense_one_tensors if dense else (lambda cls: sparse_tensors(cls, 1))
    fields = [data.draw(arguments(VectorField)) for _ in range(degree)]
    one_forms = [data.draw(arguments(DiffForm)) for _ in range(degree)]
    a = data.draw(sparse_tensors(DiffForm, degree))
    m = data.draw(sparse_tensors(Multivector, degree))
    K = data.draw(
        sparse_tensors(VecValuedForm, degree, lambda: sparse_tensors(VectorField, 1))
    )
    assert a.evaluate(*fields) == contract_reference(a, fields)
    assert m.evaluate(*one_forms) == contract_reference(m, one_forms)
    assert K.evaluate(*fields) == contract_reference(K, fields)


def test_the_public_constructor_checks_every_index():
    one = Scalar.one(CHART)
    for idx in [(1, 0), (0, 0), (0,), (0, 1, 2)]:
        with pytest.raises(ValueError, match=re.escape(f"bad component index {idx}")):
            DiffForm(CHART, 2, {idx: one})
    with pytest.raises(ValueError, match=re.escape("bad component index (0,)")):
        DiffForm.from_dict(CHART, 2, {("x1",): one})
    with pytest.raises(ValueError, match="repeated coordinate"):
        DiffForm.from_dict(CHART, 2, {("x1", "x1"): one})
    with pytest.raises(DegreeOverflow):
        Multivector.from_dict(CHART, 5, {})


# ----------------------------------------------------------------------
# the container kernels: the lean constructor, sorting and gradients


def _summed_reference(items):
    acc = {}
    for idx, value in items:
        acc[idx] = acc.get(idx, Scalar.zero(CHART)) + value
    return acc


@settings(max_examples=50)
@given(st.lists(
    st.tuples(st.sampled_from([(0, 1), (0, 2), (1, 3)]), polynomials(max_terms=2)),
    max_size=6,
))
def test_make_drops_zero_items_and_cancelled_sums(items):
    # a zero item, and a sum that cancels: the first item and its negative
    items = items + [((2, 3), Scalar.zero(CHART))] + [(idx, -value) for idx, value in items[:1]]
    made = DiffForm._make(CHART, 2, items)
    assert made == DiffForm(CHART, 2, _summed_reference(items))
    assert all(not value.is_zero for value in made.comps.values())
    assert (2, 3) not in made.comps
    with pytest.raises(AttributeError, match="immutable"):
        made.comps = {}
    with pytest.raises(AttributeError, match="immutable"):
        made.degree = 1


def test_make_sums_valued_components_that_cancel():
    X = VectorField.from_dict(CHART, {"q": sc("p")})
    K = VecValuedForm._make(CHART, 1, [((0,), X), ((1,), X), ((0,), -X), ((2,), -X + X)])
    assert K.comps == {(1,): X}


def sort_index_reference(idx):
    """The sorted index and the parity of the permutation that sorts it,
    counted as inversions; None on a repeat."""
    if len(set(idx)) != len(idx):
        return None
    inversions = sum(1 for a, b in combinations(idx, 2) if a > b)
    return tuple(sorted(idx)), -1 if inversions % 2 else 1


@settings(max_examples=200)
@given(st.lists(st.integers(0, 5), max_size=4))
def test_sort_index_matches_the_permutation_parity(idx):
    assert _sort_index(idx) == sort_index_reference(idx)
    assert _sort_index(tuple(idx)) == sort_index_reference(idx)


def test_sort_index_on_every_short_permutation():
    for n in range(5):
        for idx in permutations(range(n)):
            assert _sort_index(idx) == sort_index_reference(idx)
    assert _sort_index((3, 3)) is None and _sort_index([]) == ((), 1)


def gradient_reference(f):
    """The partials along every chart coordinate f contains, in chart order."""
    names = f.free_symbols()
    return [(c, f.diff(name)) for c, name in enumerate(f.chart.coords) if name in names]


@given(scalars(), st.booleans())
def test_gradient_matches_the_chart_order_enumeration(f, with_pi):
    if with_pi:
        f = f * Scalar.pi(CHART) + sc("x2*cos(th)")
    grad = _gradient(f)
    assert grad == gradient_reference(f)
    assert [c for c, _ in grad] == sorted(c for c, _ in grad)


def test_gradient_skips_angles_and_pi():
    f = sc("p*x1^2*sin(2*th) + pi*q + cos(th)")
    assert {"th", "pi"} <= f.free_symbols()
    assert _gradient(f) == [
        (0, sc("2*p*x1*sin(2*th)")), (2, sc("pi")), (3, sc("x1^2*sin(2*th)")),
    ]
    assert _gradient(sc("pi*sin(th)")) == []
