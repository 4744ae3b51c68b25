"""Courant sections and the coupling distribution of a connection pair."""

import json
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import foliavg.dirac
from foliavg.action import (
    FlowFactor,
    TorusAction,
    hamiltonian_potential,
    hannay_berry,
    verify_action,
)
from foliavg.dirac import (
    DiracData,
    Section,
    _escape,
    _lagrangian_bracket,
    _pairings,
    _row,
    build_coupling_dirac,
    courant_bracket,
    gauge_transform,
    hamiltonian_generator_check,
    is_member,
    pairing,
    verify_g_invariance,
    verify_involutive,
    verify_lagrangian,
)
from foliavg.errors import FoliavgError, InvariantViolation, MissingInverse, NotHorizontal
from foliavg.foliation import Connection
from foliavg.geom import (
    DiffForm,
    VectorField,
    _det,
    exterior_derivative,
    interior_product,
    lie_derivative,
    pullback,
    reaches_form,
    support,
    supports_meet,
)
from foliavg.hamcurv import averaged_hamiltonian_form, averaging_correction
from foliavg.poisson import PoissonBivector, differential
from foliavg.scenarios import _Pipeline, bundled_names, load_scenario, scenario_from_dict
from foliavg.symcalc import Chart, Scalar, Substitution, _as_rational, parse

from conftest import (
    CHART,
    SUPPORT_SOURCES,
    forms,
    perturbed_pairing_form,
    polynomials,
    sc,
    support_scenario,
    vector_fields,
)
from test_covariance import transform

DATA = Path(__file__).parent / "data"


def d(name):
    return DiffForm.d_coord(CHART, name)


def vf(name):
    return VectorField.basis(CHART, name)


def zero1():
    return DiffForm.zero(CHART, 1)


def zero2():
    return DiffForm.zero(CHART, 2)


def two_form(text):
    return DiffForm.from_dict(CHART, 2, {("x1", "x2"): sc(text)})


SIGMA = two_form("q")
SIGMA_INV = two_form("(q^2 + p^2)/2")
CASIMIR = two_form("x1")


@pytest.fixture
def trivial_dirac(flat_conn, bivector):
    return build_coupling_dirac(flat_conn, DiffForm.zero(CHART, 2), bivector)


@pytest.fixture
def invariant_dirac(invariant_conn, bivector):
    return build_coupling_dirac(invariant_conn, SIGMA_INV, bivector)


# ----------------------------------------------------------------------
# sections and brackets


def test_pairing_examples():
    left = Section(vf("q"), zero1())
    right = Section(VectorField.zero(CHART), d("q"))
    assert pairing(left, right) == Scalar.one(CHART)
    assert pairing(Section(vf("q"), d("q")), Section(vf("q"), -d("q"))).is_zero


def test_courant_bracket_examples(bivector):
    assert courant_bracket(
        Section(vf("q"), zero1()), Section(vf("p"), zero1())
    ).is_zero
    assert courant_bracket(
        Section(vf("x1"), zero1()), Section(VectorField.zero(CHART), d("q"))
    ).is_zero
    f, g = sc("q"), sc("p")
    graph_f = Section(bivector.hamiltonian_vf(f), differential(f))
    graph_g = Section(bivector.hamiltonian_vf(g), differential(g))
    b = courant_bracket(graph_f, graph_g)
    h = bivector.bracket(f, g)
    assert b.X == bivector.hamiltonian_vf(h)
    assert b.alpha == differential(h)


# ----------------------------------------------------------------------
# the coupling family


def test_trivial_generator_family(trivial_dirac):
    assert trivial_dirac.generators == (
        Section(vf("x1"), zero1()),
        Section(vf("x2"), zero1()),
        Section(vf("p"), d("q")),
        Section(-vf("q"), d("p")),
    )
    assert verify_lagrangian(trivial_dirac) is None
    assert verify_involutive(trivial_dirac) is None


def test_invariant_family_values(invariant_dirac, invariant_conn):
    h1 = invariant_conn.frame["x1"]
    expected = Section(h1, -d("x2") * SIGMA_INV.coefficient("x1", "x2"))
    assert invariant_dirac.generators[0] == expected
    assert verify_lagrangian(invariant_dirac) is None
    assert verify_involutive(invariant_dirac) is None


def test_coframe_generators_are_twisted(shear_conn, bivector):
    D = build_coupling_dirac(shear_conn, SIGMA, bivector)
    eta_p = shear_conn.coframe["p"]
    assert D.generators[3] == Section(bivector.sharp(eta_p), eta_p)


def test_perturbed_generator_breaks_isotropy(invariant_dirac, invariant_conn, bivector):
    h1 = invariant_conn.frame["x1"]
    bad = DiracData(
        invariant_conn,
        SIGMA_INV,
        bivector,
        (Section(h1, interior_product(h1, SIGMA_INV)),)
        + invariant_dirac.generators[1:],
    )
    assert verify_lagrangian(bad) == "generators 0 and 1 pair to p^2 + q^2"


def test_off_diagonal_pairs_are_reported_before_self_pairings(trivial_dirac, bivector):
    # generator 0 pairs with itself to 2, but the pair (1, 3) is tested first
    gens = list(trivial_dirac.generators)
    gens[0] = Section(vf("x1"), d("x1"))
    gens[3] = Section(-vf("q"), d("p") + d("x2"))
    bad = DiracData(trivial_dirac.conn, trivial_dirac.sigma, bivector, gens)
    assert verify_lagrangian(bad) == "generators 1 and 3 pair to 1"


def test_a_self_pairing_alone_breaks_isotropy(trivial_dirac, bivector):
    gens = list(trivial_dirac.generators)
    gens[2] = Section(vf("p"), d("q") + d("p") * sc("x1"))
    bad = DiracData(trivial_dirac.conn, trivial_dirac.sigma, bivector, gens)
    assert verify_lagrangian(bad) == "generator 2 pairs with itself to 2*x1"


def test_curvature_law_violation_breaks_involutivity(invariant_conn, bivector):
    D = build_coupling_dirac(invariant_conn, SIGMA, bivector)
    assert verify_lagrangian(D) is None
    witness = verify_involutive(D)
    assert witness == (
        "bracket of generators 0 and 1 escapes: pairing with generator 2 is p"
    )


# ----------------------------------------------------------------------
# the bracket table on the invariant family


def test_bracket_of_coframe_sections(invariant_dirac, invariant_conn, bivector):
    eq, ep = invariant_conn.coframe["q"], invariant_conn.coframe["p"]
    e_q, e_p = invariant_dirac.generators[2], invariant_dirac.generators[3]
    phi = lie_derivative(bivector.sharp(eq), ep) - interior_product(
        bivector.sharp(ep), exterior_derivative(eq)
    )
    got = courant_bracket(e_q, e_p)
    assert got == Section(bivector.sharp(phi), phi)
    assert is_member(invariant_dirac, got) is None


def test_bracket_of_mixed_sections(invariant_dirac, invariant_conn, bivector):
    frame, coframe = invariant_conn.frame, invariant_conn.coframe
    for base, e_X in zip(("x1", "x2"), invariant_dirac.generators):
        lift = frame[base]
        for vert, e_a in zip(("q", "p"), invariant_dirac.generators[2:]):
            eta = coframe[vert]
            moved = lie_derivative(lift, eta)
            expected = Section(
                bivector.sharp(moved),
                moved
                + interior_product(
                    bivector.sharp(eta),
                    exterior_derivative(interior_product(lift, SIGMA_INV)),
                ),
            )
            got = courant_bracket(e_X, e_a)
            assert got == expected
            assert is_member(invariant_dirac, got) is None


def test_bracket_of_frame_sections(invariant_dirac, invariant_conn):
    h1, h2 = invariant_conn.frame["x1"], invariant_conn.frame["x2"]
    e_h1, e_h2 = invariant_dirac.generators[:2]
    got = courant_bracket(e_h1, e_h2)
    direct = -lie_derivative(h1, interior_product(h2, SIGMA_INV)) + interior_product(
        h2, exterior_derivative(interior_product(h1, SIGMA_INV))
    )
    contracted = -interior_product(h1.bracket(h2), SIGMA_INV) - interior_product(
        h2, interior_product(h1, exterior_derivative(SIGMA_INV))
    )
    assert got == Section(h1.bracket(h2), direct)
    assert direct == contracted
    assert is_member(invariant_dirac, got) is None


# ----------------------------------------------------------------------
# membership


@given(polynomials(), polynomials(), polynomials(), polynomials())
def test_function_combinations_stay_members(f1, f2, g1, g2):
    conn = Connection(CHART, {("x1", "q"): sc("-x2*p"), ("x1", "p"): sc("x2*q")})
    P = PoissonBivector.from_dict(CHART, {("q", "p"): Scalar.one(CHART)})
    D = build_coupling_dirac(conn, SIGMA_INV, P)
    X = conn.frame["x1"] * f1 + conn.frame["x2"] * f2
    alpha = conn.coframe["q"] * g1 + conn.coframe["p"] * g2
    section = Section(X + P.sharp(alpha), alpha - interior_product(X, SIGMA_INV))
    assert is_member(D, section) is None


def _coupling(s):
    """The coupling distribution of a scenario's own connection, pairing
    form and bivector."""
    sigma = s.sigma if s.sigma is not None else DiffForm.zero(s.chart, 2)
    return build_coupling_dirac(s.conn, sigma, s.P)


COUPLINGS = {
    name: _coupling(load_scenario(source))
    for name, source in [(n, n) for n in bundled_names()]
    + [
        (name, str(DATA / f"{name}.json"))
        for name in ("rot_4_4_0", "rot_4_4_0_perturbed", "rot_4_4_0_late_escape")
    ]
}


@pytest.mark.parametrize("name", sorted(COUPLINGS))
@given(data=st.data())
def test_pairings_with_every_generator_match_pairing(name, data):
    D = COUPLINGS[name]
    chart = D.chart
    small = {"chart": chart, "coord_degree": 1, "max_terms": 2}
    X = data.draw(vector_fields(**small))
    alpha = data.draw(forms(1, **small))
    k = data.draw(st.integers(0, len(D.generators) - 1))
    # a drawn section, and one that shares every entry of a generator
    for s in (Section(X, alpha), Section(X + D.generators[k].X, alpha - D.generators[k].alpha)):
        values = _pairings(D, s)
        assert values == [pairing(s, gen) for gen in D.generators]


# ----------------------------------------------------------------------
# the bracket of a Lagrangian family


def all_pairs_agree(D):
    """Assert that the Dorfman route equals the Courant bracket on every
    generator pair of D."""
    gens = D.generators
    d_forms = [exterior_derivative(gen.alpha) for gen in gens]
    for i, j in combinations(range(len(gens)), 2):
        got = _lagrangian_bracket(gens[i], gens[j], d_forms[i], d_forms[j])
        assert got == courant_bracket(gens[i], gens[j]), (i, j)


@pytest.mark.parametrize("name", sorted(COUPLINGS))
def test_lagrangian_bracket_is_the_courant_bracket(name):
    D = COUPLINGS[name]
    assert verify_lagrangian(D) is None
    all_pairs_agree(D)


@pytest.mark.parametrize(
    "name", ["ext3", "hb4d", "rot_4_4_0", "rot_4_4_0_perturbed", "rot_4_4_0_late_escape"]
)
def test_involutivity_differentiates_each_form_once(name, monkeypatch):
    D = COUPLINGS[name]
    calls = []

    def counted(form):
        calls.append(form)
        return exterior_derivative(form)

    def refused(s, t):
        raise AssertionError("the general bracket is not needed on a Lagrangian family")

    monkeypatch.setattr(foliavg.dirac, "exterior_derivative", counted)
    monkeypatch.setattr(foliavg.dirac, "courant_bracket", refused)
    witness = verify_involutive(D)
    # the generators of the pairs whose supports meet, in the order the scan
    # first needs their forms, up to the escaping pair
    needed = []
    for i, j in combinations(range(len(D.generators) - 1), 2):
        if supports_meet(D._supports[i], D._supports[j]):
            needed += [k for k in (i, j) if k not in needed]
            if witness is not None and witness.startswith(f"bracket of generators {i} and {j} "):
                break
    assert calls == [D.generators[k].alpha for k in needed]
    if name.startswith("rot"):
        # the rot charts have generators that meet no other generator
        assert len(needed) < len(D.generators) - 1


# ----------------------------------------------------------------------
# structural zeros


def section_support(s):
    """(reach, touch) of a section (X, alpha): the indices X stores, and the
    coordinates the entries of X and alpha depend on with the indices alpha
    stores."""
    (reach, uses), (stored, form_uses) = support(s.X), support(s.alpha)
    return reach, uses | stored | form_uses


def _support_couplings(name):
    """The coupling of a scenario's own data, and the one its dirac stage
    checks, when it has momenta."""
    s = support_scenario(name)
    couplings = [_coupling(s)]
    if s.momenta is not None:
        couplings.append(_Pipeline(s).coupling)
    return couplings


def test_the_support_sources_cover_every_loadable_document():
    loadable = set()
    for path in DATA.glob("*.json"):
        try:
            load_scenario(path)
        except FoliavgError:
            continue
        loadable.add(path.stem)
    # averaging does not finish on the degree-4 composite (ROADMAP item 2);
    # its stages that do are held in test_scenarios.py
    assert loadable <= set(SUPPORT_SOURCES) | {"t2pairs_composite"}


@pytest.mark.parametrize("name", SUPPORT_SOURCES)
def test_generator_pairs_whose_supports_miss_have_zero_brackets(name):
    for D in _support_couplings(name):
        gens = D.generators
        assert D._supports == tuple(section_support(gen) for gen in gens)
        d_forms = [exterior_derivative(gen.alpha) for gen in gens]
        for i, j in combinations(range(len(gens)), 2):
            if not supports_meet(D._supports[i], D._supports[j]):
                bracket = _lagrangian_bracket(gens[i], gens[j], d_forms[i], d_forms[j])
                assert bracket.is_zero, (i, j)


def test_the_wide_charts_build_few_brackets():
    # rot(4,4,0): 3 of the 55 pairs that the skew scan visits; rot(24,24,1):
    # 138 of 2,485
    for name, kept, total in (("rot_4_4_0", 3, 55), ("rot_24_24_1", 138, 2485)):
        D = _Pipeline(support_scenario(name)).coupling
        pairs = list(combinations(range(len(D.generators) - 1), 2))
        assert len(pairs) == total
        assert sum(supports_meet(D._supports[i], D._supports[j]) for i, j in pairs) == kept


@st.composite
def sparse_sections(draw, reach, touch):
    """A section whose field stores only indices in ``reach`` and whose
    entries, and the indices its form stores, lie in ``touch``."""
    fixed = Substitution(
        CHART, {n: Scalar.zero(CHART) for i, n in enumerate(CHART.coords) if i not in touch}
    )
    small = {"coord_degree": 2, "max_terms": 2}

    def entry():
        return draw(polynomials(**small)).substitute(fixed)

    X = VectorField(CHART, 1, {(i,): entry() for i in sorted(reach)})
    alpha = DiffForm(CHART, 1, {(i,): entry() for i in sorted(touch)})
    return Section(X, alpha)


@given(data=st.data())
def test_disjoint_supports_give_a_zero_bracket(data):
    def subset(pool):
        return {i for i in pool if data.draw(st.booleans())}

    indices = range(CHART.dim)
    reach_s, touch_s = subset(indices), subset(indices)
    # t reaches no index that s touches, and touches none that s reaches
    reach_t = subset([i for i in indices if i not in touch_s])
    touch_t = subset([i for i in indices if i not in reach_s])
    s = data.draw(sparse_sections(reach_s, touch_s))
    t = data.draw(sparse_sections(reach_t, touch_t))
    assert not supports_meet(section_support(s), section_support(t))
    ds, dt = exterior_derivative(s.alpha), exterior_derivative(t.alpha)
    assert _lagrangian_bracket(s, t, ds, dt).is_zero
    assert s.X.bracket(t.X).is_zero


@given(
    source=st.sampled_from(["rot_3_1_12", "rot_4_4_0"]),
    seed=st.integers(0, 2**16),
)
def test_lagrangian_bracket_on_perturbed_pairing_forms(source, seed):
    doc = perturbed_pairing_form(json.loads((DATA / f"{source}.json").read_text()), seed)
    s = scenario_from_dict(doc)
    D = build_coupling_dirac(s.conn, s.sigma, s.P)
    assert verify_lagrangian(D) is None
    all_pairs_agree(D)


@given(vector_fields(), forms(1), vector_fields(), forms(1))
def test_the_two_brackets_differ_by_half_the_differential_of_the_pairing(X, alpha, Y, beta):
    s, t = Section(X, alpha), Section(Y, beta)
    got = _lagrangian_bracket(s, t, exterior_derivative(alpha), exterior_derivative(beta))
    courant = courant_bracket(s, t)
    half = Scalar.const(CHART, "1/2")
    assert got == Section(courant.X, courant.alpha + differential(pairing(s, t) * half))


def test_the_brackets_differ_off_a_lagrangian_family():
    s, t = Section(vf("q"), zero1()), Section(vf("p"), d("q") * sc("x1"))
    assert pairing(s, t) == sc("x1")
    assert courant_bracket(s, t) == Section(VectorField.zero(CHART), d("x1") * sc("-1/2"))
    assert _lagrangian_bracket(s, t, zero2(), exterior_derivative(t.alpha)).is_zero


NOT_LAGRANGIAN = {
    "too_few": lambda gens: gens[:-1],
    "off_diagonal": lambda gens: [Section(vf("x1"), d("x1"))] + gens[1:],
    "self_pairing": lambda gens: gens[:2]
    + [Section(vf("p"), d("q") + d("p") * sc("x1"))]
    + gens[3:],
}


@pytest.mark.parametrize("case", sorted(NOT_LAGRANGIAN))
def test_a_family_that_is_not_lagrangian_gets_the_lagrangian_witness(
    case, trivial_dirac, bivector
):
    gens = NOT_LAGRANGIAN[case](list(trivial_dirac.generators))
    bad = DiracData(trivial_dirac.conn, trivial_dirac.sigma, bivector, gens)
    witness = verify_lagrangian(bad)
    assert witness is not None
    assert verify_involutive(bad) == witness


# ----------------------------------------------------------------------
# the skew-pruned involutivity scan


def involutive_reference(D):
    """The full scan that ``verify_involutive`` prunes: the bracket of every
    generator pair, paired with every generator."""
    flat = verify_lagrangian(D)
    if flat is not None:
        return flat
    gens = D.generators
    d_forms = [exterior_derivative(gen.alpha) for gen in gens]
    for i, j in combinations(range(len(gens)), 2):
        witness = is_member(D, _lagrangian_bracket(gens[i], gens[j], d_forms[i], d_forms[j]))
        if witness is not None:
            return f"bracket of generators {i} and {j} escapes: {witness}"
    return None


@pytest.mark.parametrize("name", sorted(COUPLINGS))
def test_the_pruned_scan_gives_the_full_scan_witness(name):
    D = COUPLINGS[name]
    assert verify_involutive(D) == involutive_reference(D)
    # reversed, the frame lifts come last, so on ext3 and the perturbed
    # chart the escaping pair (i, j) has j next to last and k last
    flipped = DiracData(D.conn, D.sigma, D.P, D.generators[::-1])
    assert verify_involutive(flipped) == involutive_reference(flipped)


@pytest.mark.parametrize("case", sorted(NOT_LAGRANGIAN))
def test_the_pruned_scan_gives_the_full_scan_witness_off_a_lagrangian_family(
    case, trivial_dirac, bivector
):
    gens = NOT_LAGRANGIAN[case](list(trivial_dirac.generators))
    bad = DiracData(trivial_dirac.conn, trivial_dirac.sigma, bivector, gens)
    assert verify_involutive(bad) == involutive_reference(bad)


def _perturbed_coupling(source, seed):
    doc = perturbed_pairing_form(json.loads((DATA / f"{source}.json").read_text()), seed)
    s = scenario_from_dict(doc)
    return build_coupling_dirac(s.conn, s.sigma, s.P)


@given(
    source=st.sampled_from(["rot_3_1_12", "rot_3_2_2", "rot_4_4_0"]),
    seed=st.integers(0, 2**16),
)
def test_the_pruned_scan_gives_the_full_scan_witness_on_perturbed_pairing_forms(source, seed):
    D = _perturbed_coupling(source, seed)
    witness = verify_involutive(D)
    assert witness is not None
    assert witness == involutive_reference(D)


def test_perturbed_pairing_forms_escape_at_several_pairs():
    # the first escaping pair moves with the perturbed entry, so the
    # comparison above is not confined to the pair (0, 1)
    pairs = {
        verify_involutive(_perturbed_coupling("rot_4_4_0", seed)).split(" escapes")[0]
        for seed in range(8)
    }
    assert len(pairs) > 1


# families in which generator i fails membership and the rotation returns it
# as it is; generator 0 is the lift of x1, generator 1 the lift of x2
UNTOUCHED_FAILING = {
    0: lambda gens: [Section(vf("x1"), d("x1"))] + gens[1:],
    1: lambda gens: gens[:1] + [Section(vf("x2"), d("x2"))] + gens[2:],
}


@pytest.mark.parametrize("i", sorted(UNTOUCHED_FAILING))
def test_an_untouched_generator_reads_its_row_of_pairings(i, trivial_dirac, bivector, rotation):
    gens = UNTOUCHED_FAILING[i](list(trivial_dirac.generators))
    bad = DiracData(trivial_dirac.conn, trivial_dirac.sigma, bivector, gens)
    flow = rotation.factors[0].flow()
    for gen in gens[: i + 1]:
        assert pullback(flow, gen.X) is gen.X
        assert pullback(flow, gen.alpha) is gen.alpha
    assert all(is_member(bad, gen) is None for gen in gens[:i])
    expected = is_member(bad, gens[i])
    assert expected is not None
    # the family is not Lagrangian, so the invariance cross-check does not apply
    witness = verify_g_invariance(rotation, bad)
    assert witness == f"th flow moves generator {i} out: {expected}"
    assert bad._rows[i] is not None


@pytest.mark.parametrize("name", SUPPORT_SOURCES)
def test_a_generator_is_fixed_by_support_exactly_when_it_is_its_own_pullback(name):
    s = support_scenario(name)
    for D in _support_couplings(name):
        for factor in s.action.factors:
            flow = factor.flow()
            moved, field_moved = flow.moved_indices()
            for (reach, touch), gen in zip(D._supports, D.generators):
                fixed = touch.isdisjoint(moved) and reach.isdisjoint(field_moved)
                own = pullback(flow, gen.X) is gen.X and pullback(flow, gen.alpha) is gen.alpha
                assert fixed == own


@settings(max_examples=10)
@given(data=st.data())
def test_a_base_dependent_flow_pulls_back_a_field_on_a_fixed_coordinate(data):
    # hb4d moved by a shear v -> v + c*x1^a*w^b of one fibre coordinate by
    # a term in x1 and the other fibre coordinate w: the moved flow fixes x1
    # and gives d/dx1 a field image, so the generator (d/dx1, 0), whose
    # entries are free of q and p, must be pulled back, not read from its row
    s = load_scenario("hb4d")
    chart = s.chart
    v, w = data.draw(st.permutations(["q", "p"]))
    g = Scalar.const(chart, data.draw(st.sampled_from((-2, -1, 1, 2, 3))))
    g = g * Scalar.var(chart, "x1") ** data.draw(st.integers(1, 2))
    g = g * Scalar.var(chart, w) ** data.draw(st.integers(0, 2))
    y = Scalar.var(chart, v)
    sheared = transform(s, {v: y + g}, {v: y - g})
    flow = sheared.action.factors[0].flow()
    moved, field_moved = flow.moved_indices()
    x1 = chart.coord_index("x1")
    assert x1 not in moved and x1 in field_moved
    field = VectorField.basis(chart, "x1")
    assert pullback(flow, field) != field
    D = build_coupling_dirac(sheared.conn, sheared.sigma, sheared.P)
    gens = [Section(field, DiffForm.zero(chart, 1))] + list(D.generators[1:])
    bad = DiracData(D.conn, D.sigma, D.P, gens)
    pulled = []

    def recorded(phi, target):
        pulled.append(target)
        return pullback(phi, target)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(foliavg.dirac, "pullback", recorded)
        witness = verify_g_invariance(sheared.action, bad)
    assert any(target is field for target in pulled)
    # the membership route through every generator's pullback
    expected = None
    for i, gen in enumerate(gens):
        failed = is_member(bad, Section(pullback(flow, gen.X), pullback(flow, gen.alpha)))
        if failed is not None:
            expected = f"th flow moves generator {i} out: {failed}"
            break
    assert witness == expected


def test_membership_witness(trivial_dirac):
    witness = is_member(trivial_dirac, Section(vf("q"), zero1()))
    assert witness == "pairing with generator 2 is 1"


# ----------------------------------------------------------------------
# gauge moves


def test_gauge_by_zero_is_identity(invariant_dirac):
    moved = gauge_transform(invariant_dirac, DiffForm.zero(CHART, 2))
    assert moved.generators == invariant_dirac.generators


def test_gauge_needs_horizontal_forms(invariant_dirac):
    vertical = DiffForm.from_dict(CHART, 2, {("q", "p"): sc("1")})
    with pytest.raises(NotHorizontal):
        gauge_transform(invariant_dirac, vertical)


def test_gauge_against_correction(rotation, shear_conn, bivector, quadratic_momentum):
    Q = hamiltonian_potential(rotation, shear_conn, [quadratic_momentum])
    corr = averaging_correction(shear_conn, bivector, Q)
    averaged = hannay_berry(rotation, shear_conn)
    sbar = averaged_hamiltonian_form(shear_conn, bivector, SIGMA, Q)
    D_avg = build_coupling_dirac(averaged, sbar, bivector)
    gauged = gauge_transform(D_avg, -corr)
    direct = build_coupling_dirac(averaged, SIGMA, bivector)
    assert gauged.generators == direct.generators


def test_gauge_by_casimir_form(rotation, shear_conn, bivector, quadratic_momentum):
    Q = hamiltonian_potential(rotation, shear_conn, [quadratic_momentum])
    averaged = hannay_berry(rotation, shear_conn)
    sbar = averaged_hamiltonian_form(shear_conn, bivector, SIGMA, Q)
    D_avg = build_coupling_dirac(averaged, sbar, bivector)
    gauged = gauge_transform(D_avg, -CASIMIR)
    assert gauged.generators == build_coupling_dirac(
        averaged, sbar + CASIMIR, bivector
    ).generators


# ----------------------------------------------------------------------
# group invariance


def test_invariance_of_averaged_family(
    rotation, shear_conn, bivector, quadratic_momentum
):
    Q = hamiltonian_potential(rotation, shear_conn, [quadratic_momentum])
    averaged = hannay_berry(rotation, shear_conn)
    sbar = averaged_hamiltonian_form(shear_conn, bivector, SIGMA, Q)
    D = build_coupling_dirac(averaged, sbar + CASIMIR, bivector)
    assert verify_g_invariance(rotation, D) is None


def test_unaveraged_family_moves(rotation, shear_conn, bivector):
    D = build_coupling_dirac(shear_conn, SIGMA, bivector)
    witness = verify_g_invariance(rotation, D)
    assert witness == (
        "th flow moves generator 0 out: "
        "pairing with generator 1 is p*sin(th) + q - q*cos(th)"
    )


def test_invariance_cross_check_runs(rotation, invariant_dirac, trivial_dirac):
    assert verify_g_invariance(rotation, invariant_dirac) is None
    assert verify_g_invariance(rotation, trivial_dirac) is None


def g_invariance_reference(action, D, bivector_kept=None):
    """The membership route cross-checked whenever the connection and the
    bivector are invariant, decided by pulling both back along every flow;
    ``bivector_kept`` says whether every flow preserves ``D.P``, and by
    default it is decided here."""
    witness = None
    for factor in action.factors:
        flow = factor.flow()
        for i, gen in enumerate(D.generators):
            X, alpha = pullback(flow, gen.X), pullback(flow, gen.alpha)
            if X is gen.X and alpha is gen.alpha:
                failed = _escape(_row(D, i))
            else:
                failed = is_member(D, Section(X, alpha))
            if failed is not None:
                witness = f"{factor.angle} flow moves generator {i} out: {failed}"
                break
        if witness is not None:
            break
    if bivector_kept is None:
        bivector_kept = all(
            pullback(factor.flow(), D.P.mv) == D.P.mv for factor in action.factors
        )
    structure_invariant = bivector_kept and all(
        pullback(factor.flow(), D.conn.projection) == D.conn.projection
        for factor in action.factors
    )
    if structure_invariant:
        sigma_invariant = all(
            lie_derivative(factor.generator(), D.sigma).is_zero
            for factor in action.factors
        )
        if sigma_invariant != (witness is None):
            raise InvariantViolation(
                "membership and pairing-form invariance routes disagree"
            )
    return witness


def test_a_shared_bivector_verdict_gives_the_same_witness(rotation, shear_conn, invariant_dirac):
    # q d/dq ^ d/dp is Poisson on the fibre plane, and the rotation moves it;
    # the canonical verdict that the reference takes gives the same witness
    moved = PoissonBivector.from_dict(CHART, {("q", "p"): sc("q")})
    cases = [(invariant_dirac, True), (build_coupling_dirac(shear_conn, SIGMA, moved), False)]
    for D, kept in cases:
        assert (verify_action(rotation, D.P)["canonical"] is None) is kept
        witness = verify_g_invariance(rotation, D)
        assert witness == g_invariance_reference(rotation, D, bivector_kept=kept)
        assert witness == g_invariance_reference(rotation, D)
    assert witness is not None


def _outcome(check, *args):
    """The witness check(*args) returns, or the message it raises."""
    try:
        return check(*args)
    except InvariantViolation as exc:
        return f"raised: {exc}"


@pytest.mark.parametrize("name", SUPPORT_SOURCES)
def test_the_g_invariance_witness_is_the_reference_witness(name):
    s = support_scenario(name)
    for D in _support_couplings(name):
        assert _outcome(verify_g_invariance, s.action, D) == _outcome(
            g_invariance_reference, s.action, D
        )


@pytest.mark.parametrize("name", ["rot_4_4_0", "rot_4_4_0_late_escape", "rot_24_24_1"])
def test_g_invariance_scans_each_fixed_row_once(name):
    s = support_scenario(name)
    D = _Pipeline(s).coupling
    scanned = []

    def recorded(values, first=0):
        scanned.append(values)
        return _escape(values, first)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(foliavg.dirac, "_escape", recorded)
        assert verify_g_invariance(s.action, D) is None
    rows = {id(row): i for i, row in enumerate(D._rows) if row is not None}
    scans = [rows[id(values)] for values in scanned if id(values) in rows]
    fixed = set()
    for factor in s.action.factors:
        moved, field_moved = factor.flow().moved_indices()
        fixed.update(
            i for i, (reach, touch) in enumerate(D._supports)
            if touch.isdisjoint(moved) and reach.isdisjoint(field_moved)
        )
    assert sorted(scans) == sorted(fixed)
    assert len(s.action.factors) > 1 and fixed


THREE_BASE = Chart(("x1", "x2", "x3"), ("q", "p"), ())


def test_a_field_off_the_support_of_the_other_side_can_move_a_form():
    # X = x3 d/dx1 and sigma = dx1 ^ dx2: X stores x1, which sigma stores
    # and does not depend on, so the bracket rule reads no meeting, yet the
    # Lie derivative is dx3 ^ dx2
    X = VectorField.from_dict(THREE_BASE, {"x1": parse(THREE_BASE, "x3")})
    sigma = DiffForm.from_dict(THREE_BASE, 2, {("x1", "x2"): Scalar.one(THREE_BASE)})
    assert not supports_meet(support(X), support(sigma))
    assert reaches_form(support(X)[0], support(sigma))
    moved = lie_derivative(X, sigma)
    assert moved == DiffForm.from_dict(THREE_BASE, 2, {("x3", "x2"): Scalar.one(THREE_BASE)})


@given(data=st.data())
def test_a_field_that_reaches_no_index_of_a_form_keeps_it(data):
    def subset(pool):
        return {i for i in pool if data.draw(st.booleans())}

    indices = range(CHART.dim)
    stored, uses = subset(indices), subset(indices)
    reach = subset([i for i in indices if i not in stored | uses])
    fixed = Substitution(
        CHART, {n: Scalar.zero(CHART) for i, n in enumerate(CHART.coords) if i not in uses}
    )
    small = {"coord_degree": 2, "max_terms": 2}
    degree = data.draw(st.integers(0, 2))
    sigma = DiffForm(CHART, degree, {
        idx: data.draw(polynomials(**small)).substitute(fixed)
        for idx in combinations(sorted(stored), degree)
    })
    X = VectorField(CHART, 1, {(i,): data.draw(polynomials(**small)) for i in sorted(reach)})
    assert not reaches_form(support(X)[0], support(sigma))
    assert lie_derivative(X, sigma).is_zero


@pytest.mark.parametrize("name", SUPPORT_SOURCES)
def test_generators_the_rule_skips_keep_the_pairing_form(name):
    s = support_scenario(name)
    for D in _support_couplings(name):
        sigma_support = support(D.sigma)
        for factor in s.action.factors:
            X = factor.generator()
            if not reaches_form(support(X)[0], sigma_support):
                assert lie_derivative(X, D.sigma).is_zero


def _circle(images):
    images = {name: sc(image) for name, image in images.items()}
    return TorusAction(CHART, (FlowFactor(CHART, "th", images),))


# the rotation of the fibre plane, and one of the (x1, q) plane, which does
# not preserve the vertical foliation
ROTATION = _circle({"q": "q*cos(th) - p*sin(th)", "p": "q*sin(th) + p*cos(th)"})
MIXING = _circle({"x1": "x1*cos(th) - q*sin(th)", "q": "x1*sin(th) + q*cos(th)"})
CONNECTIONS = {
    "flat": {},
    "shear": {("x1", "p"): "x2"},
    "invariant": {("x1", "q"): "-x2*p", ("x1", "p"): "x2*q"},
}


@given(conn=st.sampled_from(sorted(CONNECTIONS)), sigma=polynomials(), scale=polynomials())
def test_the_coupling_cross_check_gives_the_reference_witness(conn, sigma, scale):
    # any bivector on a 2-dimensional fibre satisfies Jacobi
    P = PoissonBivector.from_dict(CHART, {("q", "p"): Scalar.one(CHART) + scale})
    connection = Connection(CHART, {k: sc(v) for k, v in CONNECTIONS[conn].items()})
    pairing_form = DiffForm.from_dict(CHART, 2, {("x1", "x2"): sigma})
    D = build_coupling_dirac(connection, pairing_form, P)
    assert verify_g_invariance(ROTATION, D) == g_invariance_reference(ROTATION, D)


def test_an_invariant_family_with_a_moved_pairing_form_is_inconsistent(invariant_conn, bivector):
    # the generators are those of the invariant family; the pairing form
    # they are said to carry is moved by the rotation
    kept = build_coupling_dirac(invariant_conn, SIGMA_INV, bivector)
    D = DiracData(invariant_conn, SIGMA, bivector, kept.generators)
    with pytest.raises(InvariantViolation, match="routes disagree"):
        verify_g_invariance(ROTATION, D)


def test_a_flow_that_mixes_the_base_skips_the_cross_check(flat_conn, bivector):
    # every section (X, 0) is in the family of all fields, which each flow
    # keeps; the rotation of the fibre moves the pairing form q dx1^dx2 that
    # the family is said to carry, so the cross-check raises, while the
    # (x1, q) rotation does not preserve the vertical foliation, the coupling
    # data do not decide the family, and the witness stands as it is
    fields = [Section(vf(name), zero1()) for name in CHART.coords]
    D = DiracData(flat_conn, SIGMA, bivector, fields)
    assert verify_lagrangian(D) is None
    with pytest.raises(InvariantViolation, match="routes disagree"):
        verify_g_invariance(ROTATION, D)
    assert MIXING.factors[0].mixed_base() == "x1"
    assert verify_g_invariance(MIXING, D) is None


# ----------------------------------------------------------------------
# Hamiltonian generator sections


def test_hamiltonian_generator_membership(
    rotation, shear_conn, bivector, quadratic_momentum
):
    Q = hamiltonian_potential(rotation, shear_conn, [quadratic_momentum])
    averaged = hannay_berry(rotation, shear_conn)
    sbar = averaged_hamiltonian_form(shear_conn, bivector, SIGMA, Q)
    D = build_coupling_dirac(averaged, sbar + CASIMIR, bivector)
    assert hamiltonian_generator_check(rotation, [quadratic_momentum], D) is None


def test_hamiltonian_generator_witness(rotation, trivial_dirac, quadratic_momentum):
    shifted = quadratic_momentum + d("x1")
    witness = hamiltonian_generator_check(rotation, [shifted], trivial_dirac)
    assert witness is not None and "pairing with generator 0 is 1" in witness


@pytest.mark.parametrize("count", [0, 2])
def test_hamiltonian_generator_check_needs_one_momentum_per_factor(count):
    s = load_scenario("triv_shifted")
    with pytest.raises(InvariantViolation, match="expected one momentum one-form per circle factor"):
        hamiltonian_generator_check(s.action, s.momenta * count, _Pipeline(s).coupling)


# ----------------------------------------------------------------------
# sections over a chosen tangent field


def section_with_tangent(D, field):
    """The unique section of D whose field part is the given one.

    The vertical part must sharpen from the coframe span; the linear system
    is solved by Cramer's rule and needs a constant determinant.
    """
    conn, chart = D.conn, D.chart
    horizontal = conn.horizontal_part(field)
    vertical = conn.vertical_part(field)
    names = list(chart.vertical)
    columns = [D.P.sharp(conn.coframe[v]) for v in names]
    matrix = [[column.coefficient(w) for column in columns] for w in names]
    target = [vertical.coefficient(w) for w in names]
    det = _as_rational(_det(matrix))
    if det is None or det == 0:
        raise MissingInverse("coframe sharps do not span the vertical part")
    alpha = DiffForm.zero(chart, 1)
    for k, name in enumerate(names):
        replaced = [row[:k] + [target[i]] + row[k + 1:] for i, row in enumerate(matrix)]
        alpha = alpha + conn.coframe[name] * (_det(replaced) * (1 / det))
    assert field - horizontal == D.P.sharp(alpha)
    return Section(field, alpha - interior_product(horizontal, D.sigma))


def presymplectic_value(s, t):
    """Leafwise two-form value: minus the first coform on the second field."""
    return -s.alpha.evaluate(t.X)


def test_section_with_tangent(shear_conn, bivector):
    D = build_coupling_dirac(shear_conn, SIGMA, bivector)
    section = section_with_tangent(D, vf("x1"))
    assert section.X == vf("x1")
    assert section.alpha == -d("q") * sc("x2") - d("x2") * sc("q")
    assert is_member(D, section) is None


def test_section_with_tangent_needs_nondegenerate_sharp(flat_conn):
    degenerate = PoissonBivector.from_dict(CHART, {})
    D = build_coupling_dirac(flat_conn, DiffForm.zero(CHART, 2), degenerate)
    with pytest.raises(MissingInverse):
        section_with_tangent(D, vf("q"))


def test_presymplectic_comparison(rotation, shear_conn, bivector, quadratic_momentum):
    Q = hamiltonian_potential(rotation, shear_conn, [quadratic_momentum])
    averaged = hannay_berry(rotation, shear_conn)
    sbar = averaged_hamiltonian_form(shear_conn, bivector, SIGMA, Q)
    D_avg = build_coupling_dirac(averaged, sbar, bivector)
    D_raw = build_coupling_dirac(shear_conn, SIGMA, bivector)
    dQ = exterior_derivative(Q)
    tangents = [vf("x1"), vf("x2"), bivector.sharp(d("q")), bivector.sharp(d("p"))]
    for i in range(4):
        for j in range(i + 1, 4):
            u, v = tangents[i], tangents[j]
            lhs = presymplectic_value(
                section_with_tangent(D_avg, u), section_with_tangent(D_avg, v)
            )
            rhs = presymplectic_value(
                section_with_tangent(D_raw, u), section_with_tangent(D_raw, v)
            ) - dQ.evaluate(u, v)
            assert lhs == rhs
