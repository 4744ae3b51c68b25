"""Torus actions: flows, exact averaging, the averaged connection."""

import json
from importlib import resources
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from foliavg.action import (
    FlowFactor,
    TorusAction,
    average_tensor,
    connection_difference,
    difference_from_potential,
    difference_via_flow_integral,
    haar_average,
    hamiltonian_potential,
    hannay_berry,
    invariance_criteria,
    record_averages,
    verify_action,
    verify_premomentum,
)
from foliavg import geom
from foliavg.errors import InvariantViolation, NonClosedOrbitCoefficients
from foliavg.foliation import Connection
from foliavg.geom import DiffForm, VecValuedForm, VectorField, pullback
from foliavg.poisson import PoissonBivector, differential
from foliavg.scenarios import _chart, _torus_action, bundled_names
from foliavg.symcalc import Chart, Scalar, _expanded_substitute_angle, parse

from conftest import CHART, SUPPORT_SOURCES, sc, scalars, support_scenario


def d(name):
    return DiffForm.d_coord(CHART, name)


def vf(name):
    return VectorField.basis(CHART, name)


WIDE = Chart(("x1", "x2"), ("q", "p"), ("th", "ph"))


def scw(text):
    return parse(WIDE, text)


PAIRS = Chart(("x1",), ("q1", "p1", "q2", "p2"), ("th1", "th2"))


def scp(text):
    return parse(PAIRS, text)


def rotation_factor(chart, angle, q, p):
    return FlowFactor(
        chart,
        angle,
        {
            q: parse(chart, f"{q}*cos({angle}) - {p}*sin({angle})"),
            p: parse(chart, f"{q}*sin({angle}) + {p}*cos({angle})"),
        },
    )


# ----------------------------------------------------------------------
# flow factors


def test_flow_round_trip(rotation):
    factor = rotation.factors[0]
    phi = factor.flow()
    f = sc("q^2 + x1*p")
    assert pullback(phi.inverse(), pullback(phi, f)) == f


def test_generator_of_rotation(rotation):
    assert rotation.factors[0].generator() == vf("p") * sc("q") - vf("q") * sc("p")


def test_flow_validation_rejects_non_flows():
    with pytest.raises(InvariantViolation):
        FlowFactor(CHART, "th", {"q": sc("q + sin(th)")})
    with pytest.raises(InvariantViolation):
        FlowFactor(CHART, "th", {"q": sc("2*q")})
    with pytest.raises(InvariantViolation):
        FlowFactor(WIDE, "th", {"q": scw("q*cos(ph)")})


def test_flow_validation_rejects_non_periodic_flows():
    for image in ("q + th", "q + x1*th^2", "q*cos(th) + th*sin(th)"):
        with pytest.raises(InvariantViolation, match="not periodic"):
            FlowFactor(CHART, "th", {"q": sc(image)})
    with pytest.raises(InvariantViolation, match="not periodic"):
        FlowFactor(WIDE, "ph", {"q": scw("q + x1*ph")})


def test_factors_must_commute():
    rot = rotation_factor(WIDE, "th", "q", "p")
    tilt = rotation_factor(WIDE, "ph", "q", "x1")
    assert not commute_reference(rot, tilt)
    with pytest.raises(InvariantViolation, match="factors 'th' and 'ph' do not commute"):
        TorusAction(WIDE, (rot, tilt))
    pair = (
        rotation_factor(PAIRS, "th1", "q1", "p1"),
        rotation_factor(PAIRS, "th2", "q2", "p2"),
    )
    assert commute_reference(*pair)
    assert len(TorusAction(PAIRS, pair).factors) == 2


# ----------------------------------------------------------------------
# the composition checks the generator equation replaced


def group_law_reference(chart, angle, mapping):
    """The images, in order, on which the flow at th + s differs from the
    flow at th after the flow at s; s is an auxiliary angle on an extended
    chart.  The flow is a one-parameter group when the list is empty."""
    aux = angle + "_s"
    while chart.is_symbol(aux):
        aux = aux + "_s"
    ext = Chart(chart.horizontal, chart.vertical, chart.angles + (aux,))
    lifted = {
        name: value.on_chart(ext)
        for name, value in mapping.items()
        if value != Scalar.var(chart, name)
    }
    inner = {name: value.substitute_angle(angle, [(aux, 1)]) for name, value in lifted.items()}
    return [
        name
        for name, value in lifted.items()
        if value.substitute(inner) != value.substitute_angle(angle, [(angle, 1), (aux, 1)])
    ]


def _group_law_message(angle, name):
    return f"flow in {angle!r} breaks the group law on {name!r}"


def commute_reference(a, b):
    """Whether the two flows, composed in either order, agree on every
    coordinate either one moves."""
    ma, mb = a.flow().mapping, b.flow().mapping
    names = ma.moved.keys() | mb.moved.keys()

    def compose(outer, inner):
        return {name: outer[name].substitute(inner) for name in names}

    return compose(ma, mb) == compose(mb, ma)


FLOWS = Chart(("x1", "x2"), ("q", "p", "u", "v"), ("th", "ph"))
CENTRES = [("0", "0"), ("x1", "x2^2"), ("x2", "0"), ("0", "x1*x2")]
PERTURBATIONS = ["sin({a})", "x1*(cos({a})-1)", "p*sin({a})", "q*(cos(2*{a})-1)"]


@st.composite
def candidate_flows(draw, angle, perturbed=True):
    """Rotations of fiber pairs by k*angle, k in {1, -1, 2}, about
    base-dependent centres, possibly with one perturbation term added to
    one image."""
    order = draw(st.permutations(FLOWS.vertical))
    images = {}
    for i in range(draw(st.integers(1, 2))):
        a, b = order[2 * i], order[2 * i + 1]
        t = draw(st.sampled_from((angle, f"-{angle}", f"2*{angle}")))
        ca, cb = draw(st.sampled_from(CENTRES))
        images[a] = f"{ca} + ({a} - ({ca}))*cos({t}) - ({b} - ({cb}))*sin({t})"
        images[b] = f"{cb} + ({a} - ({ca}))*sin({t}) + ({b} - ({cb}))*cos({t})"
    if perturbed and draw(st.booleans()):
        target = draw(st.sampled_from(FLOWS.coords))
        term = draw(st.sampled_from(PERTURBATIONS)).format(a=angle)
        images[target] = f"{images.get(target, target)} + {term}"
    return {name: parse(FLOWS, text) for name, text in images.items()}


def _flow_message(angle, mapping):
    try:
        FlowFactor(FLOWS, angle, mapping)
    except InvariantViolation as exc:
        return str(exc)
    return None


@given(candidate_flows("th"))
def test_flow_validation_agrees_with_composition(mapping):
    # a rejection names an image the composition breaks too; it is the
    # first one when the broken images do not feed each other
    broken = group_law_reference(FLOWS, "th", mapping)
    message = _flow_message("th", mapping)
    if broken:
        assert message in [_group_law_message("th", name) for name in broken]
    else:
        assert message is None


ROTATION = {
    "q": parse(FLOWS, "x1 + (q - x1)*cos(th) - (p - x2^2)*sin(th)"),
    "p": parse(FLOWS, "x2^2 + (q - x1)*sin(th) + (p - x2^2)*cos(th)"),
}


def test_flow_validation_agrees_on_both_verdicts():
    assert group_law_reference(FLOWS, "th", ROTATION) == []
    assert _flow_message("th", ROTATION) is None
    broken = dict(ROTATION, p=ROTATION["p"] + parse(FLOWS, "q*(cos(2*th)-1)"))
    assert group_law_reference(FLOWS, "th", broken) == ["q", "p"]
    assert _flow_message("th", broken) == _group_law_message("th", "q")


def test_a_broken_centre_is_named_where_the_equation_breaks():
    # the image of q solves its own equation, so the first image that does
    # not is p's, though the composition already breaks on q
    drifting = dict(ROTATION, x1=parse(FLOWS, "x1 + sin(th)"))
    assert group_law_reference(FLOWS, "th", drifting) == ["q", "p", "x1"]
    assert _flow_message("th", drifting) == _group_law_message("th", "p")


DOCUMENTS = {
    **{
        name: resources.files("foliavg").joinpath("data", f"{name}.json").read_text()
        for name in bundled_names()
    },
    **{path.name: path.read_text() for path in (Path(__file__).parent / "data").glob("*.json")},
}


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_flow_factors_agree_with_the_general_angle_expansion(monkeypatch, name):
    """The inverse flow, the generator and the rotation pair each factor
    keeps, built with th -> -th and th -> 0 rewritten by sign rules, equal
    those built through the general expansion of every combination."""
    raw = json.loads(DOCUMENTS[name])
    chart = _chart(raw["chart"])
    direct = _torus_action(chart, raw["action"])
    monkeypatch.setattr(Scalar, "substitute_angle", _expanded_substitute_angle)
    expanded = _torus_action(chart, raw["action"])
    for a, b in zip(direct.factors, expanded.factors, strict=True):
        assert a.flow().inverse_mapping.moved == b.flow().inverse_mapping.moved
        assert a.generator() == b.generator()
        rotations = (a._haar_means.rotation, a._running_means.rotation)
        assert rotations == (b._haar_means.rotation, b._running_means.rotation)


@given(candidate_flows("th", perturbed=False), candidate_flows("ph", perturbed=False))
def test_commutation_agrees_with_composition(first, second):
    a, b = FlowFactor(FLOWS, "th", first), FlowFactor(FLOWS, "ph", second)
    try:
        TorusAction(FLOWS, (a, b))
    except InvariantViolation as exc:
        assert str(exc) == "factors 'th' and 'ph' do not commute"
        assert not commute_reference(a, b)
    else:
        assert commute_reference(a, b)


@pytest.mark.parametrize("name", SUPPORT_SOURCES)
def test_commutation_brackets_only_the_pairs_whose_supports_meet(name, monkeypatch):
    """Loading an action builds the generator bracket of a pair only when
    the pair's supports meet; every pair it skips has a zero bracket."""
    factors = support_scenario(name).action.factors
    built = []
    bracket = VectorField.bracket

    def counted(X, Y):
        built.append((X, Y))
        return bracket(X, Y)

    monkeypatch.setattr(VectorField, "bracket", counted)
    TorusAction(factors[0].chart, factors)
    monkeypatch.undo()
    pairs = list(combinations([f.generator() for f in factors], 2))
    met = [
        (X, Y) for X, Y in pairs if geom.supports_meet(geom.support(X), geom.support(Y))
    ]
    assert built == met
    assert all(X.bracket(Y).is_zero for X, Y in pairs if (X, Y) not in met)
    if name.startswith("rot"):
        # the rotations of distinct fibre pairs never meet
        assert built == []


def test_the_first_non_commuting_pair_is_named_past_disjoint_pairs():
    """(th1, th2) and (th1, ph) are skipped by support; (th2, ph) share q2
    and do not commute, and the message names them."""
    chart = Chart(("x1",), ("q1", "p1", "q2", "p2"), ("th1", "th2", "ph"))
    factors = (
        rotation_factor(chart, "th1", "q1", "p1"),
        rotation_factor(chart, "th2", "q2", "p2"),
        rotation_factor(chart, "ph", "q2", "x1"),
    )
    with pytest.raises(InvariantViolation, match="factors 'th2' and 'ph' do not commute"):
        TorusAction(chart, factors)


def test_verify_action(rotation, bivector):
    verdict = verify_action(rotation, bivector)
    assert verdict == {
        "foliation_preserving": None,
        "leaf_tangent": None,
        "canonical": None,
    }


def test_verify_action_flags_base_motion(bivector):
    tilt = rotation_factor(CHART, "th", "x1", "x2")
    verdict = verify_action(TorusAction(CHART, (tilt,)), bivector)
    assert verdict["leaf_tangent"] is not None


# ----------------------------------------------------------------------
# averaging


def test_average_examples(rotation):
    assert average_tensor(rotation, sc("q^2")) == sc("(q^2 + p^2)/2")
    assert average_tensor(rotation, sc("q*p")).is_zero
    J = sc("(q^2 + p^2)/2")
    assert average_tensor(rotation, J) == J
    assert average_tensor(rotation, d("q")).is_zero
    assert average_tensor(rotation, vf("q")).is_zero
    assert average_tensor(rotation, d("x1")) == d("x1")


def test_average_rejects_open_orbits():
    # a drift never closes its orbits, so no action made of it can be averaged
    with pytest.raises(InvariantViolation, match="not periodic"):
        TorusAction(CHART, (FlowFactor(CHART, "th", {"q": sc("q + th")}),))


def test_average_rejects_angle_dependent_input(rotation):
    with pytest.raises(NonClosedOrbitCoefficients):
        average_tensor(rotation, sc("q*cos(th)"))


@given(scalars(angles=False))
def test_average_projects_onto_invariants(f):
    rotation = TorusAction(
        CHART,
        (rotation_factor(CHART, "th", "q", "p"),),
    )
    mean = average_tensor(rotation, f)
    assert average_tensor(rotation, mean) == mean


def test_averaged_connection_values(rotation, shear_conn, invariant_conn, flat_conn):
    assert hannay_berry(rotation, shear_conn) == flat_conn
    assert hannay_berry(rotation, invariant_conn) == invariant_conn
    assert hannay_berry(rotation, flat_conn) == flat_conn


def test_averaged_connection_is_invariant(rotation, shear_conn):
    averaged = hannay_berry(rotation, shear_conn)
    verdict = invariance_criteria(rotation, averaged)
    assert verdict == {
        "fixed_by_averaging": True,
        "generator_brackets_vanish": True,
        "flow_difference_vanishes": True,
        "agree": True,
    }


def test_invariance_criteria_reject_moving_connection(rotation, shear_conn):
    verdict = invariance_criteria(rotation, shear_conn)
    assert verdict["agree"] and not verdict["fixed_by_averaging"]


# ----------------------------------------------------------------------
# the difference one-form and its potential


def test_difference_routes_agree(rotation, shear_conn, invariant_conn):
    for conn in (shear_conn, invariant_conn):
        xi = connection_difference(rotation, conn)
        assert xi == difference_via_flow_integral(rotation, conn)


def test_difference_values(rotation, shear_conn):
    xi = connection_difference(rotation, shear_conn)
    assert xi.evaluate(vf("x1")) == vf("p") * sc("-x2")
    assert xi.evaluate(vf("x2")).is_zero
    assert shear_conn.shifted(xi) == hannay_berry(rotation, shear_conn)


def test_potential_frozen_values(rotation, shear_conn, bivector, quadratic_momentum):
    Q = hamiltonian_potential(rotation, shear_conn, [quadratic_momentum])
    assert Q == DiffForm.from_dict(CHART, 1, {("x1",): sc("-x2*q")})
    xi = connection_difference(rotation, shear_conn)
    assert difference_from_potential(bivector, Q) == xi


def test_potential_on_two_factors():
    action = TorusAction(
        PAIRS,
        (
            rotation_factor(PAIRS, "th1", "q1", "p1"),
            rotation_factor(PAIRS, "th2", "q2", "p2"),
        ),
    )
    conn = Connection(PAIRS, {("x1", "p1"): scp("x1")})
    moments = [
        differential(scp("(q1^2 + p1^2)/2")),
        differential(scp("(q2^2 + p2^2)/2")),
    ]
    Q = hamiltonian_potential(action, conn, moments)
    assert Q == DiffForm.from_dict(PAIRS, 1, {("x1",): scp("-x1*q1")})
    P = PoissonBivector.from_dict(
        PAIRS, {("q1", "p1"): Scalar.one(PAIRS), ("q2", "p2"): Scalar.one(PAIRS)}
    )
    assert difference_from_potential(P, Q) == connection_difference(action, conn)


TRIPLES = Chart(("x1",), ("q1", "p1", "q2", "p2", "q3", "p3"), ("th1", "th2", "th3"))


def test_walks_advance_the_frame_only_between_factors(monkeypatch):
    """The potential averages its frame before each factor after the first
    and never after the last; the flow integral shifts it only by the
    nonzero pieces of the factors before the last."""
    import foliavg.action as action_mod

    def sct(text):
        return parse(TRIPLES, text)

    pairs = [("th1", "q1", "p1"), ("th2", "q2", "p2"), ("th3", "q3", "p3")]
    action = TorusAction(TRIPLES, [rotation_factor(TRIPLES, *pair) for pair in pairs])
    conn = Connection(TRIPLES, {("x1", "p1"): sct("x1"), ("x1", "p3"): sct("x1^2")})
    moments = [differential(sct(f"({q}^2 + {p}^2)/2")) for _, q, p in pairs]
    averaged, shifted = [], []
    average_factor, shift = action_mod._average_factor, Connection.shifted

    def counted_average(factor, target):
        if isinstance(target, Connection):
            averaged.append(factor.angle)
        return average_factor(factor, target)

    def counted_shift(conn, xi):
        shifted.append(xi)
        return shift(conn, xi)

    monkeypatch.setattr(action_mod, "_average_factor", counted_average)
    monkeypatch.setattr(Connection, "shifted", counted_shift)
    Q = hamiltonian_potential(action, conn, moments)
    via_flows = difference_via_flow_integral(action, conn)
    assert averaged == ["th1", "th2"]
    # the frame touches neither q2 nor p2, so the th2 piece is zero and
    # only the th1 piece shifts the frame
    th1_piece = VecValuedForm(TRIPLES, 1, {(0,): VectorField.from_dict(TRIPLES, {"p1": sct("-x1")})})
    assert shifted == [th1_piece]
    monkeypatch.undo()
    assert Q == DiffForm.from_dict(TRIPLES, 1, {("x1",): sct("-x1*q1 - x1^2*q3")})
    P = PoissonBivector.from_dict(TRIPLES, {(q, p): Scalar.one(TRIPLES) for _, q, p in pairs})
    xi = connection_difference(action, conn)
    assert via_flows == xi == difference_from_potential(P, Q)


class _Tagged(tuple):
    """A support that remembers the field it was read off."""


@pytest.mark.parametrize("name", SUPPORT_SOURCES)
def test_the_flow_integral_skips_only_zero_brackets(name, monkeypatch):
    import foliavg.action as action_mod

    s = support_scenario(name)
    skipped, built = [], []
    support, supports_meet, bracket = geom.support, geom.supports_meet, VectorField.bracket

    def tagged(field):
        out = _Tagged(support(field))
        out.field = field
        return out

    def recorded(a, b):
        met = supports_meet(a, b)
        if not met:
            skipped.append((a.field, b.field))
        return met

    def counted(X, Y):
        built.append((X, Y))
        return bracket(X, Y)

    monkeypatch.setattr(action_mod, "support", tagged)
    monkeypatch.setattr(action_mod, "supports_meet", recorded)
    monkeypatch.setattr(VectorField, "bracket", counted)
    via_flows = difference_via_flow_integral(s.action, s.conn)
    monkeypatch.undo()
    assert all(lift.bracket(gen).is_zero for lift, gen in skipped)
    # every lift meets every generator once, and is skipped or bracketed
    assert len(skipped) + len(built) == len(s.action.factors) * len(s.conn.frame)
    # the routes agree, except on base_rot, whose flow moves the base and
    # whose difference_two_routes failure is pinned
    agree = via_flows == s.conn.difference(hannay_berry(s.action, s.conn))
    assert agree == (name != "base_rot")
    if name.startswith("rot"):
        assert skipped


def test_the_flow_integral_route_on_a_base_rotation():
    """On base_rot the generator X = -x2 d/dx1 + x1 d/dx2 is horizontal, so
    the brackets [d/dx_b, X] of the flat lifts are horizontal too, and the
    flow-integral route, which assumes a vertical generator, returns a
    horizontal-valued form where direct averaging returns 0."""
    s = support_scenario("base_rot")
    chart = s.chart
    (factor,) = s.action.factors
    X = factor.generator()
    assert X == VectorField.from_dict(chart, {"x1": parse(chart, "-x2"), "x2": parse(chart, "x1")})
    frame = s.conn.frame
    assert frame["x1"].bracket(X) == VectorField.basis(chart, "x2")
    assert frame["x2"].bracket(X) == -VectorField.basis(chart, "x1")
    expected = VecValuedForm.from_dict(chart, 1, {
        ("x1",): -VectorField.basis(chart, "x1"),
        ("x2",): -VectorField.basis(chart, "x2"),
    })
    assert difference_via_flow_integral(s.action, s.conn) == expected
    assert connection_difference(s.action, s.conn).is_zero


# ----------------------------------------------------------------------
# premomentum


def test_premomentum(rotation, bivector, quadratic_momentum):
    assert verify_premomentum(rotation, bivector, [quadratic_momentum]) is None
    wrong = differential(sc("q"))
    witness = verify_premomentum(rotation, bivector, [wrong])
    assert witness is not None and "th" in witness


def test_premomentum_witness_of_a_one_form_not_leafwise_closed(
    rotation, bivector, quadratic_momentum
):
    # q*dx1 leaves the sharp as it is, but d(q*dx1) = dq ^ dx1 does not
    # vanish along the leaves
    shifted = quadratic_momentum + d("x1") * sc("q")
    assert verify_premomentum(rotation, bivector, [shifted]) == (
        "th one-form is not leafwise closed: contraction along sharp dp leaves (-1)*dx1"
    )


# ----------------------------------------------------------------------
# recorded averages


def test_record_averages_capture(rotation, shear_conn, bivector, quadratic_momentum):
    from foliavg.action import _has_bare_angle

    with record_averages() as records:
        hamiltonian_potential(rotation, shear_conn, [quadratic_momentum])
    assert records
    for rec in records:
        assert rec.angle == "th"
        assert rec.average == haar_average(rec.integrand, rec.angle)
        assert not _has_bare_angle(rec.integrand, rec.angle)
