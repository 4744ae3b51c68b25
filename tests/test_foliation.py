"""Adapted connections, curvature and the bigraded calculus."""

from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from foliavg.action import hannay_berry
from foliavg.errors import (
    ChartMismatch,
    NotComplementary,
    NotHorizontal,
    NotVertical,
    UnsupportedDegree,
)
from foliavg.foliation import (
    Connection,
    bigrade,
    bigrade_component,
    curvature,
    graded_derivative,
    is_horizontal_form,
    is_vertical_field,
    verify_connection,
)
from foliavg.geom import (
    DiffForm,
    VecValuedForm,
    VectorField,
    _tensor,
    exterior_derivative,
    lie_derivative,
    wedge,
)
from foliavg.poisson import differential
from foliavg.scenarios import bundled_names, load_scenario
from foliavg.symcalc import Chart, Scalar, parse

from conftest import CHART, forms, polynomials, sc, scalars


def d(name):
    return DiffForm.d_coord(CHART, name)


def vf(name):
    return VectorField.basis(CHART, name)


EXT3 = Chart(("x1", "x2", "x3"), ("q", "p"), ())


def sc3(text):
    return parse(EXT3, text)


# ----------------------------------------------------------------------
# predicates


def test_verticality_predicates():
    assert is_vertical_field(vf("q") * sc("x1"))
    assert not is_vertical_field(vf("x1") + vf("q"))
    assert is_horizontal_form(d("x1") * sc("q"))
    assert not is_horizontal_form(d("q"))


# ----------------------------------------------------------------------
# connections


def test_frame_and_coframe(shear_conn):
    frame = shear_conn.frame
    assert frame["x1"] == vf("x1") + vf("p") * sc("x2")
    assert frame["x2"] == vf("x2")
    coframe = shear_conn.coframe
    assert coframe["q"] == d("q")
    assert coframe["p"] == d("p") - d("x1") * sc("x2")
    for eta in coframe.values():
        for lift in frame.values():
            assert eta.evaluate(lift).is_zero


def test_projection_shape(shear_conn):
    proj = shear_conn.projection
    for v in CHART.vertical:
        assert proj.apply(vf(v)) == vf(v)
    for base, lift in shear_conn.frame.items():
        assert proj.apply(lift).is_zero
    assert verify_connection(proj) is None


def test_connection_round_trips(shear_conn):
    assert Connection.from_projection(shear_conn.projection) == shear_conn


def test_frame_and_coframe_are_read_only(shear_conn):
    with pytest.raises(TypeError):
        shear_conn.frame["x1"] = vf("x2")
    with pytest.raises(TypeError):
        shear_conn.coframe["q"] = d("p")
    assert shear_conn.frame["x1"] == vf("x1") + vf("p") * sc("x2")


def test_from_projection_rejects_bad_input():
    ident = VecValuedForm.identity(CHART)
    with pytest.raises(NotVertical):
        Connection.from_projection(ident)
    halved = VecValuedForm.from_dict(
        CHART, 1, {("q",): vf("q") * sc("1/2"), ("p",): vf("p")}
    )
    with pytest.raises(NotComplementary):
        Connection.from_projection(halved)
    assert verify_connection(halved) is not None


def test_horizontal_and_vertical_parts(shear_conn):
    X = vf("x1") + vf("q") * sc("p")
    hor = shear_conn.horizontal_part(X)
    ver = shear_conn.vertical_part(X)
    assert hor == shear_conn.frame["x1"]
    assert ver == vf("q") * sc("p") - vf("p") * sc("x2")
    assert hor + ver == X


def test_difference_and_shift(shear_conn, flat_conn):
    xi = flat_conn.difference(shear_conn)
    assert flat_conn.shifted(xi) == shear_conn
    assert shear_conn.shifted(-xi) == flat_conn
    assert xi.evaluate(vf("x1")) == vf("p") * sc("x2")
    assert xi.evaluate(vf("x2")).is_zero


def test_flat_frame_flag(flat_conn, shear_conn, invariant_conn):
    assert flat_conn.is_flat_frame
    assert not shear_conn.is_flat_frame
    assert not invariant_conn.is_flat_frame


# ----------------------------------------------------------------------
# curvature


def test_curvature_values_on_two_base_coordinates(flat_conn, shear_conn, invariant_conn):
    assert curvature(flat_conn).is_zero
    frame = shear_conn.frame
    assert curvature(shear_conn).evaluate(frame["x1"], frame["x2"]) == -vf("p")
    frame = invariant_conn.frame
    assert curvature(invariant_conn).evaluate(frame["x1"], frame["x2"]) == (
        vf("q") * sc("p") - vf("p") * sc("q")
    )


def test_curvature_on_three_base_coordinates():
    conn = Connection(EXT3, {("x1", "p"): sc3("x2"), ("x2", "q"): sc3("-x3")})
    curv = curvature(conn)
    frame = conn.frame
    assert curv.evaluate(frame["x1"], frame["x2"]) == -VectorField.basis(EXT3, "p")
    assert curv.evaluate(frame["x2"], frame["x3"]) == VectorField.basis(EXT3, "q")
    assert curv.evaluate(frame["x1"], frame["x3"]).is_zero
    assert curv == half_self_bracket(conn)


def fn_bracket_reference(K, L):
    """The Froelicher-Nijenhuis bracket of two valued forms, by components.

    For closed coordinate wedges phi, psi and fields X, Y:
    [phi (x) X, psi (x) Y] = phi ^ psi (x) [X, Y] + phi ^ L_X psi (x) Y
    - L_Y phi ^ psi (x) X.
    """
    chart = K.chart
    result = VecValuedForm.zero(chart, K.degree + L.degree)
    for ia, x in K.comps.items():
        phi = DiffForm(chart, K.degree, {ia: Scalar.one(chart)})
        for ib, y in L.comps.items():
            psi = DiffForm(chart, L.degree, {ib: Scalar.one(chart)})
            result = result + _tensor(wedge(phi, psi), x.bracket(y))
            result = result + _tensor(wedge(phi, lie_derivative(x, psi)), y)
            result = result - _tensor(wedge(lie_derivative(y, phi), psi), x)
    return result


def half_self_bracket(conn):
    """The definition of curvature: half the self-bracket of the projection."""
    return fn_bracket_reference(conn.projection, conn.projection) * Fraction(1, 2)


@st.composite
def connections(draw, chart):
    coefficients = scalars(chart, coord_degree=1, freq=2, max_terms=2)
    coeffs = {
        (base, vert): draw(coefficients)
        for base in chart.horizontal
        for vert in chart.vertical
    }
    return Connection(chart, coeffs)


@pytest.mark.parametrize("chart", [CHART, EXT3], ids=["two-base", "three-base"])
@given(data=st.data())
def test_horizontal_forms_take_their_components_on_the_lifted_frame(chart, data):
    """h_a = d/dx_a + (vertical), so a horizontal form evaluated on lifts is
    its component on the base names, which the checks read directly."""
    conn = data.draw(connections(chart))
    pairs = combinations(chart.horizontal, 2)
    sigma = DiffForm.from_dict(chart, 2, {pair: data.draw(polynomials(chart)) for pair in pairs})
    piece = bigrade_component(conn, data.draw(forms(1, chart)), 1, 0)
    curv = curvature(conn)
    frame = conn.frame
    for a in chart.horizontal:
        assert piece.evaluate(frame[a]) == piece.coefficient(a)
    for a, b in permutations(chart.horizontal, 2):
        assert sigma.evaluate(frame[a], frame[b]) == sigma.coefficient(a, b)
        assert curv.evaluate(frame[a], frame[b]) == curv.coefficient(a, b)


def projection_reference(conn):
    """The projection as the sum over the fibre coordinates v of
    eta_v (x) d/dv, one whole-form addition each."""
    total = VecValuedForm.zero(conn.chart, 1)
    for vert, eta in conn.coframe.items():
        total = total + _tensor(eta, VectorField.basis(conn.chart, vert))
    return total


@given(connections(EXT3))
def test_projection_matches_the_summed_reference(conn):
    assert conn.projection == projection_reference(conn)


@pytest.mark.parametrize("name", bundled_names())
def test_projection_matches_the_summed_reference_on_bundled_data(name):
    s = load_scenario(name)
    for conn in (s.conn, hannay_berry(s.action, s.conn)):
        assert conn.projection == projection_reference(conn)


@given(connections(EXT3))
def test_curvature_is_half_the_self_bracket_of_the_projection(conn):
    assert curvature(conn) == half_self_bracket(conn)


@pytest.mark.parametrize("name", bundled_names())
def test_curvature_is_half_the_self_bracket_on_bundled_data(name):
    s = load_scenario(name)
    for conn in (s.conn, hannay_berry(s.action, s.conn)):
        assert curvature(conn) == half_self_bracket(conn)


def curvature_transition_check(conn, xi):
    """The transition law for a general shift xi, on each frame pair:
    Curv_{gamma - xi}(Z1, Z2) equals
    Curv(Z1, Z2) + [xi Z1, xi Z2] + [xi Z1, Z2] - [xi Z2, Z1] - xi [Z1, Z2].
    """
    frame = conn.frame
    curv = curvature(conn)
    shifted_curv = curvature(conn.shifted(xi))
    for a, b in combinations(conn.chart.horizontal, 2):
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


@given(
    st.builds(
        lambda a, b: VecValuedForm.from_dict(
            CHART,
            1,
            {
                ("x1",): VectorField.from_dict(CHART, {"q": a}),
                ("x2",): VectorField.from_dict(CHART, {"p": b}),
            },
        ),
        polynomials(),
        polynomials(),
    )
)
def test_curvature_transition_law(xi):
    conn = Connection(CHART, {("x1", "p"): sc("x2")})
    assert curvature_transition_check(conn, xi) is None


# ----------------------------------------------------------------------
# bigrading


def total(pieces, chart, degree):
    """The sum of the bigraded pieces of a form of the given degree."""
    result = DiffForm.zero(chart, degree)
    for piece in pieces.values():
        result = result + piece
    return result


def test_bigrade_of_momentum_form(shear_conn):
    mu = differential(sc("(q^2 + p^2)/2")) + d("x1")
    pieces = bigrade(shear_conn, mu)
    assert set(pieces) == {(1, 0), (0, 1)}
    assert pieces[1, 0] == d("x1") * sc("1 + p*x2")
    assert pieces[0, 1] == (
        d("x1") * sc("-p*x2") + d("q") * sc("q") + d("p") * sc("p")
    )
    assert total(pieces, CHART, 1) == mu


@pytest.mark.parametrize("coeffs", [{}, {("x1", "p"): "x1*q"}], ids=["trivial", "sheared"])
def test_bigrade_of_a_horizontal_form_is_that_form_alone(coeffs):
    conn = Connection(CHART, {key: sc(value) for key, value in coeffs.items()})
    assert curvature(conn).is_zero
    forms = (DiffForm.function(CHART, sc("q*cos(th)")), d("x2") * sc("p"), wedge(d("x1"), d("x2")))
    for form in forms:
        assert bigrade(conn, form) == {(form.degree, 0): form}


def bigrade_by_determinants(conn, form):
    """The definition: evaluate on (frame, d/dv) tuples, rebuild in the coframe."""
    chart = conn.chart
    k = form.degree
    frame = conn.frame
    coframe = conn.coframe
    comps = {}
    for p in range(max(0, k - len(chart.vertical)), min(k, len(chart.horizontal)) + 1):
        q = k - p
        piece = DiffForm.zero(chart, k)
        for bases in combinations(chart.horizontal, p):
            for verts in combinations(chart.vertical, q):
                args = [frame[b] for b in bases]
                args += [VectorField.basis(chart, v) for v in verts]
                coef = form.evaluate(*args)
                if coef.is_zero:
                    continue
                basis = DiffForm.function(chart, coef)
                for b in bases:
                    basis = wedge(basis, DiffForm.d_coord(chart, b))
                for v in verts:
                    basis = wedge(basis, coframe[v])
                piece = piece + basis
        if not piece.is_zero:
            comps[(p, q)] = piece
    return comps


FIBER3 = Chart(("x1", "x2"), ("q", "p", "r"), ("th",))
FIBER3_SCALARS = scalars(FIBER3, coord_degree=1, freq=2, max_terms=2)


@st.composite
def fiber3_forms(draw):
    degree = draw(st.integers(0, 3))
    comps = {
        index: draw(FIBER3_SCALARS) for index in combinations(FIBER3.coords, degree)
    }
    return DiffForm.from_dict(FIBER3, degree, comps)


def fiber3_vertical_fields():
    return st.builds(
        lambda comps: VectorField.from_dict(FIBER3, dict(zip(FIBER3.vertical, comps))),
        st.tuples(*[FIBER3_SCALARS] * len(FIBER3.vertical)),
    )


@st.composite
def fiber3_vertical_projections(draw):
    """Vertical-valued one-forms that send each d/dv to itself."""
    comps = {(base,): draw(fiber3_vertical_fields()) for base in FIBER3.horizontal}
    for vert in FIBER3.vertical:
        comps[(vert,)] = VectorField.basis(FIBER3, vert)
    return VecValuedForm.from_dict(FIBER3, 1, comps)


@given(connections(FIBER3), connections(FIBER3))
def test_connections_round_trip_through_their_projections(c, d):
    assert Connection.from_projection(c.projection) == c
    assert c.shifted(c.difference(d)) == d


@given(fiber3_vertical_projections())
def test_identity_on_the_fibers_implies_idempotency(gamma):
    for name in FIBER3.coords:
        image = gamma.apply(VectorField.basis(FIBER3, name))
        assert gamma.apply(image) == image
    assert verify_connection(gamma) is None
    assert Connection.from_projection(gamma).projection == gamma


@given(
    fiber3_vertical_projections(),
    st.sampled_from(FIBER3.vertical),
    fiber3_vertical_fields().filter(lambda field: not field.is_zero),
)
def test_a_moved_fiber_direction_is_rejected(gamma, vert, shift):
    moved = gamma + VecValuedForm.from_dict(FIBER3, 1, {(vert,): shift})
    with pytest.raises(NotComplementary) as info:
        Connection.from_projection(moved)
    assert verify_connection(moved) == str(info.value)
    assert str(info.value) == f"projection is not the identity on d/d{vert}"


@given(
    fiber3_vertical_projections(),
    st.sampled_from(FIBER3.coords),
    st.sampled_from(FIBER3.horizontal),
    FIBER3_SCALARS.filter(lambda value: not value.is_zero),
)
def test_a_value_off_the_fibers_is_rejected(gamma, source, target, value):
    off = VectorField.from_dict(FIBER3, {target: value})
    moved = gamma + VecValuedForm.from_dict(FIBER3, 1, {(source,): off})
    with pytest.raises(NotVertical) as info:
        Connection.from_projection(moved)
    assert verify_connection(moved) == str(info.value)
    assert str(info.value) == "projection takes values outside the vertical bundle"


def fiber3_differences():
    """Horizontal, vertical-valued one-forms: the shape of a shift."""
    return st.builds(
        lambda rows: VecValuedForm.from_dict(
            FIBER3, 1, {(base,): row for base, row in zip(FIBER3.horizontal, rows)}
        ),
        st.tuples(*[fiber3_vertical_fields()] * len(FIBER3.horizontal)),
    )


def shifted_reference(conn, xi):
    """The connection with projection gamma - xi, re-tested and read off
    gamma - xi by the projection route."""
    return Connection.from_projection(conn.projection - xi)


@given(data=st.data())
def test_a_shift_adds_the_rows_of_the_difference(data):
    drawn = data.draw(connections(FIBER3))
    conn = Connection(FIBER3, dict(data.draw(st.permutations(list(drawn.coeffs.items())))))
    xi = data.draw(fiber3_differences())
    for shift in (xi, conn.difference(Connection(FIBER3, {})), -xi):
        got, expected = conn.shifted(shift), shifted_reference(conn, shift)
        assert got == expected
        assert list(got.coeffs.items()) == list(expected.coeffs.items())
        assert got.projection == conn.projection - shift
    assert conn.shifted(conn.difference(Connection(FIBER3, {}))).coeffs == {}


FIBER3_BARE = Chart(FIBER3.horizontal, FIBER3.vertical, ())


def _difference_on(chart, comps):
    return VecValuedForm.from_dict(chart, 1, comps)


# differences of the wrong shape, with the error and message a shift raises
MALFORMED_DIFFERENCES = {
    "another_chart": (
        lambda: _difference_on(FIBER3_BARE, {("x1",): VectorField.basis(FIBER3_BARE, "q")}),
        NotComplementary,
        "difference tensor lives on another chart",
    ),
    "degree_two": (
        lambda: VecValuedForm.from_dict(
            FIBER3, 2, {("x1", "x2"): VectorField.basis(FIBER3, "q")}
        ),
        UnsupportedDegree,
        "a connection difference is a valued one-form",
    ),
    "horizontal_value": (
        lambda: _difference_on(FIBER3, {("x1",): VectorField.basis(FIBER3, "x2")}),
        NotVertical,
        "difference values must be vertical",
    ),
    "vertical_argument": (
        lambda: _difference_on(FIBER3, {("q",): VectorField.basis(FIBER3, "p")}),
        NotHorizontal,
        "difference must vanish on vertical arguments",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_DIFFERENCES))
def test_a_malformed_difference_is_rejected_by_a_shift(case):
    build, error, message = MALFORMED_DIFFERENCES[case]
    conn = Connection(FIBER3, {("x1", "q"): parse(FIBER3, "x2*p")})
    with pytest.raises(error) as info:
        conn.shifted(build())
    assert str(info.value) == message


@given(fiber3_vertical_projections())
def test_a_connection_built_from_a_projection_keeps_it(gamma):
    conn = Connection.from_projection(gamma)
    assert conn.projection is gamma
    assert conn.projection == Connection(FIBER3, conn.coeffs).projection


# ----------------------------------------------------------------------
# one representation: the projection is the only tensor a connection holds


@st.composite
def sparse_fiber3_coeffs(draw):
    """Nonzero lift coefficients on a drawn subset of the (base, fiber)
    pairs, in drawn order."""
    keys = [(b, v) for b in FIBER3.horizontal for v in FIBER3.vertical]
    chosen = draw(st.lists(st.sampled_from(keys), max_size=5, unique=True))
    values = FIBER3_SCALARS.filter(lambda value: not value.is_zero)
    return {key: draw(values) for key in chosen}


@given(data=st.data())
def test_coefficients_in_any_order_and_their_projection_give_one_connection(data):
    coeffs = data.draw(sparse_fiber3_coeffs())
    shuffled = dict(data.draw(st.permutations(list(coeffs.items()))))
    conn = Connection(FIBER3, coeffs)
    # coeffs is read in (base, fiber) index order, whatever built the connection
    order = sorted(coeffs, key=lambda key: (FIBER3.coord_index(key[0]), FIBER3.coord_index(key[1])))
    for other in (conn, Connection(FIBER3, shuffled), Connection.from_projection(conn.projection)):
        assert other == conn
        assert hash(other) == hash(conn)
        assert list(other.coeffs.items()) == [(key, coeffs[key]) for key in order]


def test_mutating_the_coefficients_leaves_the_connection_unchanged(shear_conn):
    coeffs = shear_conn.coeffs
    coeffs[("x1", "q")] = sc("q")
    del coeffs[("x1", "p")]
    assert shear_conn.coeffs == {("x1", "p"): sc("x2")}
    assert shear_conn.frame["x1"] == vf("x1") + vf("p") * sc("x2")
    assert shear_conn.projection.apply(vf("x1")) == -vf("p") * sc("x2")
    assert shear_conn == Connection(CHART, {("x1", "p"): sc("x2")})
    with pytest.raises(AttributeError):
        shear_conn.coeffs = {}


def test_a_coefficient_on_another_chart_is_rejected():
    """A[x1,p] = x2*q parsed on a chart with x2 is not a scalar of the
    chart (x1; q, p; th), whose lift it would otherwise carry."""
    narrow = Chart(("x1",), ("q", "p"), ("th",))
    with pytest.raises(ChartMismatch):
        Connection(narrow, {("x1", "p"): parse(CHART, "x2*q")})
    # the same text parsed on its own chart is accepted
    conn = Connection(narrow, {("x1", "p"): parse(narrow, "q")})
    assert conn.frame["x1"].chart is narrow


def _with_entry(gamma, vert, entry):
    comps = dict(gamma.comps)
    if entry is None:
        del comps[(FIBER3.coord_index(vert),)]
    else:
        comps[(FIBER3.coord_index(vert),)] = entry
    return VecValuedForm(FIBER3, 1, comps)


# entries on dv that are not d/dv itself: on another chart, with or
# without that chart's scalars, with a second entry, scaled, or absent
BAD_IDENTITY_ENTRIES = {
    "another_chart": lambda vert, other: VectorField.basis(FIBER3_BARE, vert),
    "another_chart_same_scalars": lambda vert, other: VectorField(
        FIBER3_BARE, 1, {(FIBER3.coord_index(vert),): Scalar.one(FIBER3)}
    ),
    "second_entry": lambda vert, other: (
        VectorField.basis(FIBER3, vert) + VectorField.basis(FIBER3, other)
    ),
    "scaled": lambda vert, other: VectorField.basis(FIBER3, vert) * parse(FIBER3, "2"),
    "absent": lambda vert, other: None,
}


@pytest.mark.parametrize("case", sorted(BAD_IDENTITY_ENTRIES))
@given(
    gamma=fiber3_vertical_projections(),
    pair=st.permutations(FIBER3.vertical).map(lambda names: names[:2]),
)
def test_an_identity_entry_that_is_not_d_dv_is_rejected(case, gamma, pair):
    vert, other = pair
    moved = _with_entry(gamma, vert, BAD_IDENTITY_ENTRIES[case](vert, other))
    with pytest.raises(NotComplementary) as info:
        Connection.from_projection(moved)
    assert str(info.value) == f"projection is not the identity on d/d{vert}"
    assert verify_connection(moved) == str(info.value)


def assert_bigrade_matches_the_determinant_definition(conn, form):
    pieces = bigrade(conn, form)
    reference = bigrade_by_determinants(conn, form)
    assert pieces == reference
    assert total(pieces, conn.chart, form.degree) == form
    for p in range(form.degree + 1):
        q = form.degree - p
        expected = reference.get((p, q), DiffForm.zero(conn.chart, form.degree))
        assert bigrade_component(conn, form, p, q) == expected


@given(connections(FIBER3), fiber3_forms())
def test_bigrade_matches_the_determinant_definition(conn, form):
    assert_bigrade_matches_the_determinant_definition(conn, form)


@pytest.mark.parametrize("name", bundled_names())
def test_bigrade_matches_the_determinant_definition_on_bundled_data(name):
    s = load_scenario(name)
    forms = [s.sigma] + list(s.momenta)
    forms += [exterior_derivative(form) for form in forms]
    for form in forms:
        assert_bigrade_matches_the_determinant_definition(s.conn, form)


def test_graded_derivative_splits_d(shear_conn):
    f = DiffForm.function(CHART, sc("q*x1"))
    d10 = graded_derivative(shear_conn, f, (1, 0))
    d01 = graded_derivative(shear_conn, f, (0, 1))
    assert d10 == d("x1") * sc("q")
    assert d01 == d("q") * sc("x1")
    assert d10 + d01 == exterior_derivative(f)


def test_graded_derivative_shift_guard(shear_conn):
    with pytest.raises(UnsupportedDegree):
        graded_derivative(shear_conn, d("x1"), (1, 1))

