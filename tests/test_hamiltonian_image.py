"""The Hamiltonian image of a form, and the checks stated through it.

:meth:`PoissonBivector.hamiltonian_image` sends each stored coefficient to
its Hamiltonian field.  The two curvature checks, the premomentum check and
the lifted frame and coframe read stored components; the pair scans, the
per-factor probes and the incremental sums they replaced are kept here as
references, over ext3's chart of three base coordinates, where several frame
pairs can fail at once.
"""

from itertools import combinations
from pathlib import Path

from hypothesis import example, given
from hypothesis import strategies as st

from foliavg.action import FlowFactor, TorusAction, hannay_berry, verify_premomentum
from foliavg.foliation import Connection, curvature
from foliavg.geom import (
    DiffForm,
    VecValuedForm,
    VectorField,
    exterior_derivative,
    interior_product,
)
from foliavg.hamcurv import curvature_transition_witness, verify_hamiltonian_curvature
from foliavg.poisson import PoissonBivector
from foliavg.scenarios import load_scenario
from foliavg.symcalc import Chart, Scalar, parse

from conftest import polynomials

EXT3 = load_scenario("ext3")
# ext3 with a pairing form on all three frame pairs and a base term in its momentum
PINNED = load_scenario(str(Path(__file__).parent / "data" / "ext3_vertical_pairing.json"))
CHART = EXT3.chart
P = EXT3.P
# a bivector whose coefficient depends on the base and the fibre
P_VAR = PoissonBivector.from_dict(CHART, {("q", "p"): parse(CHART, "1 + x1*q")})
# every frame pair of the base
PAIRS = list(combinations(CHART.horizontal, 2))


def form(degree, comps):
    return DiffForm.from_dict(CHART, degree, {k: parse(CHART, v) for k, v in comps.items()})


def coefficients(casimir):
    """Small polynomials on the chart; Casimirs of both bivectors (functions
    of the base alone) when ``casimir`` is true."""
    values = polynomials(CHART, coord_degree=2, max_terms=2)
    if casimir:
        return values.map(lambda f: f.substitute({"q": 0, "p": 0}))
    return values


@st.composite
def any_forms(draw, degree=None, casimir=None):
    """A form of a drawn (or given) degree with components on a drawn subset
    of all indices, each coefficient drawn as a Casimir or not."""
    if degree is None:
        degree = draw(st.integers(0, 3))
    indices = list(combinations(CHART.coords, degree))
    names = draw(st.lists(st.sampled_from(indices), max_size=4, unique=True))
    comps = {}
    for idx in names:
        flag = draw(st.booleans()) if casimir is None else casimir
        comps[idx] = draw(coefficients(flag))
    return DiffForm.from_dict(CHART, degree, comps)


@st.composite
def horizontal_two_forms(draw):
    """A horizontal two-form with components on a drawn subset of the frame
    pairs, in drawn order."""
    names = draw(st.lists(st.sampled_from(PAIRS), max_size=3, unique=True))
    return DiffForm.from_dict(CHART, 2, {idx: draw(coefficients(False)) for idx in names})


@st.composite
def connections(draw):
    """A connection on the chart with coefficients on a drawn subset of the
    (base, fibre) pairs, inserted in drawn order."""
    keys = [(b, v) for b in CHART.horizontal for v in CHART.vertical]
    chosen = draw(st.lists(st.sampled_from(keys), max_size=4, unique=True))
    return Connection(
        CHART, {key: draw(polynomials(CHART, coord_degree=1, max_terms=2)) for key in chosen}
    )


@st.composite
def momenta(draw, chart, q, p):
    """The rotation momentum q dq + p dp with drawn terms added on a drawn
    subset of the differentials."""
    comps = {(q,): parse(chart, q), (p,): parse(chart, p)}
    for name in draw(st.lists(st.sampled_from(chart.coords), max_size=2, unique=True)):
        extra = draw(polynomials(chart, coord_degree=1, max_terms=2))
        comps[(name,)] = comps.get((name,), Scalar.zero(chart)) + extra
    return DiffForm.from_dict(chart, 1, comps)


# ----------------------------------------------------------------------
# the references: the pair scans and the incremental sums of the image


def hamiltonian_curvature_reference(conn, P, sigma):
    curv = curvature(conn)
    for a, b in combinations(conn.chart.horizontal, 2):
        defect = curv.coefficient(a, b) + P.hamiltonian_vf(sigma.coefficient(a, b))
        if not defect.is_zero:
            return (
                f"frame pair ({a}, {b}): curvature misses minus the "
                f"Hamiltonian field by {defect!r}"
            )
    return None


def transition_reference(conn, P, averaged, correction):
    curv = curvature(conn)
    curv_avg = curvature(averaged)
    for a, b in combinations(conn.chart.horizontal, 2):
        rhs = curv.coefficient(a, b) + P.hamiltonian_vf(correction.coefficient(a, b))
        if curv_avg.coefficient(a, b) != rhs:
            return f"transition fails on the ({a}, {b}) frame pair"
    return None


def premomentum_reference(action, P, moments):
    chart = action.chart
    for factor, mu in zip(action.factors, moments):
        if P.sharp(mu) != factor.generator():
            return f"sharp of the {factor.angle} one-form is not its generator"
        dmu = exterior_derivative(mu)
        for vert in chart.vertical:
            probe = P.sharp(DiffForm.d_coord(chart, vert))
            rest = interior_product(probe, dmu)
            if not rest.is_zero:
                return (
                    f"{factor.angle} one-form is not leafwise closed: "
                    f"contraction along sharp d{vert} leaves {rest!r}"
                )
    return None


def frame_reference(conn):
    chart = conn.chart
    out = {}
    for base in chart.horizontal:
        field = VectorField.basis(chart, base)
        for vert in chart.vertical:
            value = conn.coeffs.get((base, vert))
            if value is not None:
                field = field + VectorField.basis(chart, vert) * value
        out[base] = field
    return out


def coframe_reference(conn):
    chart = conn.chart
    out = {}
    for vert in chart.vertical:
        form = DiffForm.d_coord(chart, vert)
        for base in chart.horizontal:
            value = conn.coeffs.get((base, vert))
            if value is not None:
                form = form - DiffForm.from_dict(chart, 1, {(base,): value})
        out[vert] = form
    return out


# ----------------------------------------------------------------------
# the image


@given(st.sampled_from([P, P_VAR]), any_forms())
def test_image_is_the_hamiltonian_field_of_each_coefficient(bivector, alpha):
    image = bivector.hamiltonian_image(alpha)
    assert isinstance(image, VecValuedForm)
    assert image.chart == alpha.chart and image.degree == alpha.degree
    for names in combinations(CHART.coords, alpha.degree):
        assert image.coefficient(*names) == bivector.hamiltonian_vf(alpha.coefficient(*names))


SAME_DEGREE_PAIRS = st.integers(0, 3).flatmap(lambda k: st.tuples(any_forms(k), any_forms(k)))


@given(st.sampled_from([P, P_VAR]), SAME_DEGREE_PAIRS)
def test_image_is_additive(bivector, operands):
    alpha, beta = operands
    image = bivector.hamiltonian_image
    assert image(alpha + beta) == image(alpha) + image(beta)
    assert image(alpha - beta) == image(alpha) - image(beta)


@given(st.sampled_from([P, P_VAR]), any_forms())
def test_image_vanishes_exactly_on_casimir_valued_forms(bivector, alpha):
    every_casimir = all(bivector.is_casimir(value) for value in alpha.comps.values())
    assert bivector.hamiltonian_image(alpha).is_zero == every_casimir


@given(any_forms(casimir=True))
def test_casimir_valued_forms_are_in_the_kernel(alpha):
    assert P_VAR.hamiltonian_image(alpha).is_zero


def test_image_keeps_the_order_of_the_stored_components():
    sigma = form(2, {("x2", "x3"): "q", ("x1", "x3"): "x1", ("x1", "x2"): "p"})
    assert list(P.hamiltonian_image(sigma).comps) == [(1, 2), (0, 1)]


# ----------------------------------------------------------------------
# the checks held to their references


@given(connections(), horizontal_two_forms())
@example(EXT3.conn, EXT3.sigma)
@example(PINNED.conn, PINNED.sigma)
def test_hamiltonian_curvature_matches_the_pair_scan(conn, sigma):
    for bivector in (P, P_VAR):
        got = verify_hamiltonian_curvature(conn, bivector, sigma)
        assert got == hamiltonian_curvature_reference(conn, bivector, sigma)


def test_hamiltonian_curvature_passes_on_ext3():
    assert verify_hamiltonian_curvature(EXT3.conn, P, EXT3.sigma) is None


@given(connections(), connections(), horizontal_two_forms())
@example(EXT3.conn, EXT3.conn, DiffForm.zero(CHART, 2))
@example(EXT3.conn, EXT3.conn, form(2, {("x1", "x3"): "x2"}))
@example(EXT3.conn, hannay_berry(EXT3.action, EXT3.conn), form(2, {("x1", "x3"): "q"}))
def test_curvature_transition_matches_the_pair_scan(conn, averaged, correction):
    for bivector in (P, P_VAR):
        got = curvature_transition_witness(conn, bivector, averaged, correction)
        assert got == transition_reference(conn, bivector, averaged, correction)


def test_curvature_transition_passes_on_a_casimir_correction():
    correction = form(2, {("x1", "x3"): "x2"})
    assert curvature_transition_witness(EXT3.conn, P, EXT3.conn, correction) is None


# the rotation of each of two fibre pairs, on a chart with three base coordinates
CHART2 = Chart(("x1", "x2", "x3"), ("q1", "p1", "q2", "p2"), ("th1", "th2"))
ROTATION2 = TorusAction(
    CHART2,
    tuple(
        FlowFactor(
            CHART2,
            f"th{j}",
            {
                f"q{j}": parse(CHART2, f"q{j}*cos(th{j}) - p{j}*sin(th{j})"),
                f"p{j}": parse(CHART2, f"q{j}*sin(th{j}) + p{j}*cos(th{j})"),
            },
        )
        for j in (1, 2)
    ),
)
P2 = PoissonBivector.from_dict(
    CHART2, {("q1", "p1"): Scalar.one(CHART2), ("q2", "p2"): Scalar.one(CHART2)}
)
P2_VAR = PoissonBivector.from_dict(
    CHART2, {("q1", "p1"): Scalar.one(CHART2), ("q2", "p2"): parse(CHART2, "1 + x1")}
)


@given(momenta(CHART, "q", "p"))
@example(EXT3.momenta[0])
@example(PINNED.momenta[0])
def test_premomentum_matches_the_per_factor_probes(mu):
    for bivector in (P, P_VAR):
        got = verify_premomentum(EXT3.action, bivector, [mu])
        assert got == premomentum_reference(EXT3.action, bivector, [mu])


@given(st.tuples(momenta(CHART2, "q1", "p1"), momenta(CHART2, "q2", "p2")))
def test_premomentum_matches_the_per_factor_probes_on_two_factors(moments):
    for bivector in (P2, P2_VAR):
        got = verify_premomentum(ROTATION2, bivector, moments)
        assert got == premomentum_reference(ROTATION2, bivector, moments)


def test_the_probes_are_built_once_per_call(monkeypatch):
    calls = []
    original = PoissonBivector.hamiltonian_vf

    def counted(self, f):
        calls.append(f)
        return original(self, f)

    monkeypatch.setattr(PoissonBivector, "hamiltonian_vf", counted)
    moments = [
        DiffForm.from_dict(
            CHART2, 1, {(f"q{j}",): parse(CHART2, f"q{j}"), (f"p{j}",): parse(CHART2, f"p{j}")}
        )
        for j in (1, 2)
    ]
    assert verify_premomentum(ROTATION2, P2, moments) is None
    # one probe per fibre coordinate, not one per factor and fibre coordinate
    assert [str(f) for f in calls] == list(CHART2.vertical)


@given(connections())
@example(EXT3.conn)
def test_frame_and_coframe_match_the_incremental_sums(conn):
    assert dict(conn.frame) == frame_reference(conn)
    assert dict(conn.coframe) == coframe_reference(conn)
    assert list(conn.frame) == list(CHART.horizontal)
    assert list(conn.coframe) == list(CHART.vertical)
