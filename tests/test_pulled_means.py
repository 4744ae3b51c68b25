"""The averages of pullbacks read off per-flow tables, against the full route.

A flow factor averages a pullback without building it: each coefficient
is split by its monomial in the moved coordinates, and the Haar mean, or
the mean of the running integral, of each flow image of a monomial times
basis factors is kept in a table of the factor.  The reference below is
the route the tables replaced: pull the whole tensor back, then take the
functional of every coefficient, the running one by its definition, the
Haar mean of the integral from zero.  Unit rotations read their entries off
Wallis' formula and every other flow off products of image powers, so both
routes meet the reference.  A component that the flow leaves as it is
passes through as L(1) times itself, with no table lookup; the
``partly_untouched_*`` kinds mix such components with expanded ones.
"""

import gc
from pathlib import Path

import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from foliavg.action import (
    FlowFactor,
    _has_bare_angle,
    averaging_walk,
    haar_average,
    record_averages,
)
from foliavg import geom
from foliavg.foliation import Connection
from foliavg.geom import DiffForm, Multivector, VecValuedForm, VectorField, pullback
from foliavg.scenarios import averaged_scenario, load_scenario, run_checks
from foliavg.symcalc import Scalar, mean_of_product, parse, render

from conftest import SUPPORT_SOURCES, support_scenario

HERE = Path(__file__).parent
HB4D = load_scenario("hb4d").action.chart


def flow(images):
    """A flow factor in th on hb4d's chart, its images given as text."""
    return FlowFactor(HB4D, "th", {name: parse(HB4D, text) for name, text in images.items()})


# the bundled rotation; two rotations of rot(3,2,1); the rotation of
# rot(3,1,12); and hb4d moved by p -> p + x1*q^2, whose flow depends on the
# base and has second harmonics.  Unit rotations, in either orientation,
# read their entries off Wallis' formula, so the table also meets a rotation
# by 2*th and an elliptic flow, which take the general route.
FACTORS = {
    "rotation": load_scenario("hb4d").action.factors[0],
    "rot_3_2_1_th1": load_scenario(str(HERE / "data" / "rot_3_2_1.json")).action.factors[0],
    "rot_3_2_1_th2": load_scenario(str(HERE / "data" / "rot_3_2_1.json")).action.factors[1],
    "rot_3_1_12": load_scenario(str(HERE / "data" / "rot_3_1_12.json")).action.factors[0],
    "sheared": load_scenario(str(HERE / "data" / "hb4d_sheared.json")).action.factors[0],
    "clockwise": flow({"q": "q*cos(th) + p*sin(th)", "p": "-q*sin(th) + p*cos(th)"}),
    "double": flow({"q": "q*cos(2*th) - p*sin(2*th)", "p": "q*sin(2*th) + p*cos(2*th)"}),
    "elliptic": flow({"q": "q*cos(th) - 2*p*sin(th)", "p": "1/2*q*sin(th) + p*cos(th)"}),
}
# the pair (u, v) each factor is recognised as rotating, u -> u*cos - v*sin
ROTATIONS = {
    "rotation": ("q", "p"),
    "rot_3_2_1_th1": ("q1", "p1"),
    "rot_3_2_1_th2": ("q2", "p2"),
    "rot_3_1_12": ("q1", "p1"),
    "sheared": None,
    "clockwise": ("p", "q"),
    "double": None,
    "elliptic": None,
}
FUNCTIONALS = {
    "haar": haar_average,
    "running": lambda f, angle: haar_average(f.antiderivative_from_zero(angle), angle),
}


def map_coefficients(target, fn):
    if isinstance(target, Scalar):
        return fn(target)
    if isinstance(target, VecValuedForm):
        items = [(idx, map_coefficients(vec, fn)) for idx, vec in target.comps.items()]
        return VecValuedForm._make(target.chart, target.degree, items)
    items = [(idx, fn(value)) for idx, value in target.comps.items()]
    return type(target)._make(target.chart, target.degree, items)


def reference(factor, target, functional):
    """The functional of every coefficient of the whole pullback."""
    moved = pullback(factor.flow(), target)
    return map_coefficients(moved, lambda f: FUNCTIONALS[functional](f, factor.angle))


def table(factor, functional):
    return factor._haar_means if functional == "haar" else factor._running_means


@st.composite
def coefficients(draw, chart, names=None):
    """Sparse angle-free polynomials: up to two terms of up to three of the
    coordinates ``names`` (by default all), each to a power of at most 2."""
    total = Scalar.zero(chart)
    for _ in range(draw(st.integers(1, 2))):
        term = Scalar.const(chart, draw(st.sampled_from((-3, -1, 1, 2, 5))))
        for name in draw(st.lists(st.sampled_from(names or chart.coords), max_size=3)):
            term = term * Scalar.var(chart, name) ** draw(st.integers(1, 2))
        total = total + term
    return total


@st.composite
def indices(draw, chart, degree, moved=None):
    """Sorted indices of the given degree; with ``moved``, one entry is
    drawn from it."""
    first = [] if moved is None else [draw(st.sampled_from(sorted(moved)))]
    rest = draw(st.lists(
        st.integers(0, chart.dim - 1).filter(lambda i: i not in first),
        min_size=degree - len(first), max_size=degree - len(first), unique=True,
    ))
    return tuple(sorted(first + rest))


@st.composite
def sparse(draw, cls, chart, degree, moved=None, names=None):
    comps = {}
    for _ in range(draw(st.integers(1, 3))):
        comps[draw(indices(chart, degree, moved))] = draw(coefficients(chart, names))
    return cls(chart, degree, comps)


@st.composite
def valued_forms(draw, chart, degree, moved=None, names=None):
    forms_moved, fields_moved = moved or (None, None)
    comps = {}
    for _ in range(draw(st.integers(1, 2))):
        comps[draw(indices(chart, degree, forms_moved))] = draw(
            sparse(VectorField, chart, 1, fields_moved, names)
        )
    return VecValuedForm(chart, degree, comps)


def fixed_names(factor):
    """The coordinates the flow does not move."""
    moved = factor.flow().mapping.moved
    return [name for name in factor.chart.coords if name not in moved]


def unmoved(factor, cls, degree):
    """Tensors that store an index the flow rewrites, with coefficients
    free of the moved coordinates: constants or polynomials in the others."""
    forms_moved, fields_moved = factor.flow().moved_indices()
    names = fixed_names(factor)
    if cls is VecValuedForm:
        return valued_forms(factor.chart, degree, (forms_moved, fields_moved), names)
    moved = forms_moved if cls is DiffForm else fields_moved
    return sparse(cls, factor.chart, degree, moved, names)


@st.composite
def projections(draw, factor):
    """The projection of a connection: d/dv on each dv, whose coefficient 1
    contains no moved coordinate, and drawn lift coefficients."""
    chart = factor.chart
    lifts = draw(st.lists(
        st.tuples(st.sampled_from(chart.horizontal), st.sampled_from(chart.vertical)),
        max_size=3, unique=True,
    ))
    return Connection(chart, {pair: draw(coefficients(chart)) for pair in lifts}).projection


@st.composite
def untouched(draw, factor, cls, degree):
    """A tensor that the flow leaves as it is: no index with a basis image,
    no field index of a value with a field image, and coefficients free of
    the moved coordinates.  Zero when too few indices are left."""
    chart = factor.chart
    forms_moved, fields_moved = factor.flow().moved_indices()
    names = fixed_names(factor)

    def kept(cls, degree, moved):
        free = [i for i in range(chart.dim) if i not in moved]
        if len(free) < degree:
            return cls(chart, degree, {})
        comps = {}
        for _ in range(draw(st.integers(1, 2))):
            idx = draw(st.lists(st.sampled_from(free), min_size=degree, max_size=degree, unique=True))
            comps[tuple(sorted(idx))] = draw(coefficients(chart, names))
        return cls(chart, degree, comps)

    if cls is VecValuedForm:
        outer = kept(DiffForm, degree, forms_moved)
        return VecValuedForm(chart, degree, {
            idx: kept(VectorField, 1, fields_moved) for idx in outer.comps
        })
    return kept(cls, degree, forms_moved if cls is DiffForm else fields_moved)


@st.composite
def partly_untouched(draw, factor, cls, degree):
    """A drawn tensor plus one that the flow leaves as it is, so that some
    components pass through the tables and others are expanded."""
    if cls is VecValuedForm:
        drawn = draw(valued_forms(factor.chart, degree))
    else:
        drawn = draw(sparse(cls, factor.chart, degree))
    return drawn + draw(untouched(factor, cls, degree))


KINDS = {
    "scalar": lambda factor: coefficients(factor.chart),
    "field": lambda factor: sparse(VectorField, factor.chart, 1),
    "one_form": lambda factor: sparse(DiffForm, factor.chart, 1),
    "two_form": lambda factor: sparse(DiffForm, factor.chart, 2),
    "bivector": lambda factor: sparse(Multivector, factor.chart, 2),
    "valued_one_form": lambda factor: valued_forms(factor.chart, 1),
    "valued_two_form": lambda factor: valued_forms(factor.chart, 2),
    "unmoved_scalar": lambda factor: coefficients(factor.chart, fixed_names(factor)),
    "unmoved_field": lambda factor: unmoved(factor, VectorField, 1),
    "unmoved_two_form": lambda factor: unmoved(factor, DiffForm, 2),
    "unmoved_bivector": lambda factor: unmoved(factor, Multivector, 2),
    "unmoved_valued_one_form": lambda factor: unmoved(factor, VecValuedForm, 1),
    "projection": projections,
    "partly_untouched_field": lambda factor: partly_untouched(factor, VectorField, 1),
    "partly_untouched_one_form": lambda factor: partly_untouched(factor, DiffForm, 1),
    "partly_untouched_two_form": lambda factor: partly_untouched(factor, DiffForm, 2),
    "partly_untouched_bivector": lambda factor: partly_untouched(factor, Multivector, 2),
    "partly_untouched_valued_one_form": lambda factor: partly_untouched(factor, VecValuedForm, 1),
    "partly_untouched_valued_two_form": lambda factor: partly_untouched(factor, VecValuedForm, 2),
}
# the tensors the flow leaves as they are, as (class, degree)
UNTOUCHED = [
    (VectorField, 1), (DiffForm, 1), (DiffForm, 2), (Multivector, 2),
    (VecValuedForm, 1), (VecValuedForm, 2),
]


@pytest.mark.parametrize("functional", sorted(FUNCTIONALS))
@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("name", sorted(FACTORS))
@settings(max_examples=12)
@given(data=st.data())
def test_table_route_equals_full_pullback(name, kind, functional, data):
    factor = FACTORS[name]
    target = data.draw(KINDS[kind](factor))
    assert table(factor, functional)(target) == reference(factor, target, functional)


@pytest.mark.parametrize("functional", sorted(FUNCTIONALS))
@pytest.mark.parametrize("name", sorted(FACTORS))
@settings(max_examples=12)
@given(data=st.data())
def test_an_untouched_tensor_reads_only_the_unit_entry(name, functional, data):
    """A tensor whose components the flow all leaves as they are is L(1)
    times itself: the target on the Haar table, pi times it on the running
    table.  Nothing is expanded, and no entry but the unit is read."""
    factor = FACTORS[name]
    cls, degree = data.draw(st.sampled_from(UNTOUCHED))
    target = data.draw(untouched(factor, cls, degree))
    means = table(factor, functional)
    entries, expansions = [], []
    expand = geom._expansions

    def entry(hit, key, factors):
        entries.append((hit, key))
        return means._entry(hit, key, factors)

    def counted(idx, images):
        expansions.append(idx)
        return expand(idx, images)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geom, "_expansions", counted)
        pulled = factor.flow().pull_linear(target, entry)
    assert entries == [((), ())]
    assert expansions == []
    unit = Scalar.one(factor.chart) if functional == "haar" else Scalar.pi(factor.chart)
    assert pulled == target * unit
    assert pulled == reference(factor, target, functional)


@pytest.mark.parametrize("name", sorted(FACTORS))
def test_every_factor_leaves_some_tensor_as_it_is(name):
    """The pass-through draws are not all zero: every factor keeps some
    index of each kind free of basis images, and some coordinate fixed."""
    factor = FACTORS[name]
    forms_moved, fields_moved = factor.flow().moved_indices()
    assert len(forms_moved) <= factor.chart.dim - 2
    assert len(fields_moved) <= factor.chart.dim - 1
    assert fixed_names(factor)


@pytest.mark.parametrize("name", sorted(FACTORS))
def test_unit_rotations_are_recognised_at_load(name):
    factor = FACTORS[name]
    assert factor._haar_means.rotation == ROTATIONS[name]
    assert factor._running_means.rotation == ROTATIONS[name]


@pytest.mark.parametrize("functional", sorted(FUNCTIONALS))
def test_closed_form_entries_equal_the_ladder_route(functional):
    """Every entry q^a * p^b (a <= 41, b <= 2) of the bundled rotation, alone
    and times path factors, equals mean_of_product of the ladder powers; the
    closed form builds none of them."""
    factor = load_scenario("hb4d").action.factors[0]
    chart, angle, running = factor.chart, factor.angle, functional == "running"
    cos, sin = Scalar.cos(chart, angle), Scalar.sin(chart, angle)
    paths = {"none": (), "cos": (cos,), "-sin": (-sin,), "-sin*cos*sin": (-sin, cos, sin)}
    means = table(factor, functional)
    hits = [
        tuple(sorted((name, e) for name, e in (("q", a), ("p", b)) if e))
        for a in range(42) for b in range(3)
    ]
    entries = {(hit, path): means._entry(hit, path, paths[path]) for hit in hits for path in paths}
    mapping = factor.flow().mapping
    assert all(len(ladder) <= 1 for ladder in mapping._ladders.values())
    rests = {path: Scalar.one(chart) for path in paths}
    for path, factors in paths.items():
        for f in factors:
            rests[path] = rests[path] * f
    for hit in hits:
        image = Scalar.one(chart)
        for name, e in hit:
            image = image * mapping.power(name, e)
        for path, rest in rests.items():
            assert entries[hit, path] == mean_of_product(image, rest, angle, running), (hit, path)


def test_averaging_a_deep_rotation_builds_no_ladder_power():
    """The closed form cannot silently go dead: averaging rot(3,1,12), frame
    degree 12, would otherwise grow the ladder of q1's image to q1^12.  The
    ladders keep what loading put there, the images themselves, which the
    group law check reads."""
    s = load_scenario(str(HERE / "data" / "rot_3_1_12.json"))
    ladders = s.action.factors[0].flow().mapping._ladders
    loaded = {name: len(ladder) for name, ladder in ladders.items()}
    averaged_scenario(s)
    assert {name: len(ladder) for name, ladder in ladders.items()} == loaded
    assert all(n <= 1 for n in loaded.values())


@pytest.mark.parametrize("functional", sorted(FUNCTIONALS))
@given(data=st.data())
def test_one_factor_fed_a_field_then_a_form(functional, data):
    """A field and a form share basis indices but not basis images; each
    table entry must say which images its factors came from."""
    factor = load_scenario(str(HERE / "data" / "hb4d_sheared.json")).action.factors[0]
    chart = factor.chart
    field = data.draw(sparse(VectorField, chart, 1))
    form = DiffForm(chart, 1, field.comps)
    means = table(factor, functional)
    assert means(field) == reference(factor, field, functional)
    assert means(form) == reference(factor, form, functional)


def test_field_and_form_images_differ_on_the_sheared_flow():
    """The field-then-form test means something: on the sheared flow, the
    same coefficient on d/dp and on dp averages to different components."""
    factor = FACTORS["sheared"]
    chart = factor.chart
    x1 = Scalar.var(chart, "x1")
    field = VectorField.from_dict(chart, {"p": x1})
    form = DiffForm.from_dict(chart, 1, {("p",): x1})
    assert factor._haar_means(field).comps != factor._haar_means(form).comps


@pytest.mark.parametrize("functional", sorted(FUNCTIONALS))
def test_an_entry_of_a_mixed_monomial(functional):
    """p1*q1^12 on rot(3,1,12): the entry multiplies the ladder power
    q1^12's image by p1's, never forming the image of p1*q1^12."""
    factor = load_scenario(str(HERE / "data" / "rot_3_1_12.json")).action.factors[0]
    chart = factor.chart
    target = parse(chart, "x1*p1*q1^12")
    means = table(factor, functional)
    # the rotation keeps no odd monomial; the running mean keeps q1^13/13
    pinned = {"haar": "0", "running": "1/13*q1^13*x1"}
    assert render(means(target)) == pinned[functional]
    assert means(target) == reference(factor, target, functional)
    assert ((("p1", 1), ("q1", 12)), ()) in means._entries


@pytest.mark.parametrize("functional", sorted(FUNCTIONALS))
def test_each_new_entry_records_one_haar_mean_of_its_integrand(functional):
    factor = load_scenario(str(HERE / "data" / "rot_3_1_12.json")).action.factors[0]
    chart = factor.chart
    target = DiffForm.from_dict(
        chart, 1, {("p1",): parse(chart, "x1*p1*q1^12"), ("q1",): parse(chart, "x2*q1^3")}
    )
    means = table(factor, functional)
    with record_averages() as records:
        means(target)
    assert len(records) == len(means._entries)
    for rec in records:
        assert rec.angle == factor.angle
        assert rec.average == haar_average(rec.integrand, rec.angle)
        assert not _has_bare_angle(rec.integrand, rec.angle)


def test_records_one_average_per_table_entry():
    factor = load_scenario("hb4d").action.factors[0]
    chart = factor.chart
    target = DiffForm.from_dict(chart, 1, {("q",): Scalar.var(chart, "x1")})
    with record_averages() as first:
        factor._haar_means(target)
    with record_averages() as again:
        factor._haar_means(target * Scalar.var(chart, "x2"))
    assert first and not again


def test_a_run_leaves_no_reference_cycle():
    """A factor's tables never refer back to it, so a scenario is freed by
    reference counting alone once a run drops it."""
    gc.collect()
    gc.disable()
    try:
        for source in ("hb4d", "t2pairs", str(HERE / "data" / "rot_3_2_1.json")):
            s = load_scenario(source)
            run_checks(s)
            averaged_scenario(s)
            del s
            assert gc.collect() == 0
    finally:
        gc.enable()


# ----------------------------------------------------------------------
# the homological equation, an exact oracle for both tables
#
# With T_s the pullback of T along the flow to angle s, d/ds T_s = L_X T_s
# for the generator X, so the running mean R(T) = mean over th of the
# integral of T_s from 0 to th satisfies L_X R(T) = H(T) - T, where H(T) is
# the Haar mean.  H(T) is invariant, L_X H(T) = 0, and averaging it again
# changes nothing, H(H(T)) = H(T).  None of the three reads the reference
# route above.

ORACLE_KINDS = ("scalar", "field", "one_form", "two_form", "bivector", "valued_one_form", "projection")


def assert_homological_equation(factor, target):
    X = factor.generator()
    haar, running = factor._haar_means(target), factor._running_means(target)
    assert geom.lie_derivative(X, running) == haar - target
    assert geom.lie_derivative(X, haar).is_zero
    assert factor._haar_means(haar) == haar


@pytest.mark.parametrize("kind", ORACLE_KINDS)
@pytest.mark.parametrize("name", sorted(FACTORS))
@settings(max_examples=4)
@given(data=st.data())
def test_the_tables_solve_the_homological_equation(name, kind, data):
    factor = FACTORS[name]
    assert_homological_equation(factor, data.draw(KINDS[kind](factor)))


# ----------------------------------------------------------------------
# invariance through the generator
#
# Each flow solves d/dth phi = X o phi, so it keeps a tensor T for every
# angle exactly when L_X T = 0.  The pipeline decides ``canonical`` and the
# g_invariant cross-check that way; the full pullback is the reference.

UNMOVED_KINDS = ("unmoved_bivector", "unmoved_valued_one_form")


@st.composite
def invariance_targets(draw, factor):
    """A drawn bivector or valued one-form, or the Haar mean of one whose
    coefficients are free of the moved coordinates, which the flow keeps.
    The reference pullback of the Haar mean of a generic one takes seconds
    on the sheared flow."""
    if draw(st.booleans()):
        return factor._haar_means(draw(KINDS[draw(st.sampled_from(UNMOVED_KINDS))](factor)))
    kind = draw(st.sampled_from(("bivector", "valued_one_form", *UNMOVED_KINDS)))
    return draw(KINDS[kind](factor))


def kept_by_pullback(factor, target):
    return pullback(factor.flow(), target) == target


@pytest.mark.parametrize("name", sorted(FACTORS))
@settings(max_examples=20)
@given(data=st.data())
def test_the_generator_decides_invariance_as_the_pullback_does(name, data):
    factor = FACTORS[name]
    target = data.draw(invariance_targets(factor))
    kept = geom.lie_derivative(factor.generator(), target).is_zero
    assert kept == kept_by_pullback(factor, target)


@pytest.mark.parametrize("kept", [True, False], ids=["kept", "moved"])
@pytest.mark.parametrize("name", sorted(FACTORS))
def test_the_invariance_draws_reach_both_outcomes(name, kept):
    factor = FACTORS[name]
    find(
        invariance_targets(factor),
        lambda target: not target.is_zero and kept_by_pullback(factor, target) == kept,
    )


# rot(24,24,1) is left out for time
@pytest.mark.parametrize("name", [n for n in SUPPORT_SOURCES if n != "rot_24_24_1"])
def test_the_homological_equation_on_the_pipeline_inputs(name):
    """On each scenario: the projection each factor averages along the
    walk, and the bracket of each lift of that connection with the
    factor's generator where their supports meet, the pairs the
    flow-integral route brackets."""
    s = support_scenario(name)
    for factor, conn in zip(s.action.factors, averaging_walk(s.action, s.conn)):
        assert_homological_equation(factor, conn.projection)
        gen = factor.generator()
        for lift in conn.frame.values():
            if geom.supports_meet(geom.support(lift), geom.support(gen)):
                assert_homological_equation(factor, lift.bracket(gen))
