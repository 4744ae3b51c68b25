"""Shared charts, model data and exact-value strategies for the test suite."""

import copy
import functools
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from foliavg.action import FlowFactor, TorusAction
from foliavg.foliation import Connection
from foliavg.geom import DiffForm, VectorField
from foliavg.poisson import PoissonBivector, differential
from foliavg.symcalc import Chart, Scalar, parse

settings.register_profile(
    "exact",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")

CHART = Chart(("x1", "x2"), ("q", "p"), ("th",))


def sc(text, chart=CHART):
    return parse(chart, text)


@pytest.fixture
def chart():
    return CHART


@pytest.fixture
def bivector():
    return PoissonBivector.from_dict(CHART, {("q", "p"): Scalar.one(CHART)})


@pytest.fixture
def rotation():
    return TorusAction(
        CHART,
        (
            FlowFactor(
                CHART,
                "th",
                {
                    "q": sc("q*cos(th) - p*sin(th)"),
                    "p": sc("q*sin(th) + p*cos(th)"),
                },
            ),
        ),
    )


@pytest.fixture
def flat_conn():
    return Connection(CHART, {})


@pytest.fixture
def shear_conn():
    return Connection(CHART, {("x1", "p"): sc("x2")})


@pytest.fixture
def invariant_conn():
    return Connection(CHART, {("x1", "q"): sc("-x2*p"), ("x1", "p"): sc("x2*q")})


@pytest.fixture
def quadratic_momentum():
    return differential(sc("(q^2 + p^2)/2"))


@st.composite
def scalars(draw, chart=CHART, coord_degree=2, freq=2, max_terms=3, angles=True):
    """Random elements of the exact coefficient ring."""
    total = Scalar.zero(chart)
    for _ in range(draw(st.integers(0, max_terms))):
        coef = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
        term = Scalar.const(chart, coef)
        for name in chart.coords:
            term = term * Scalar.var(chart, name) ** draw(st.integers(0, coord_degree))
        if angles:
            for name in chart.angles:
                kind = draw(st.sampled_from(("none", "sin", "cos")))
                if kind != "none":
                    term = term * Scalar.harmonic(
                        chart, kind, name, draw(st.integers(1, freq))
                    )
        total = total + term
    return total


@st.composite
def polynomials(draw, chart=CHART, coord_degree=2, max_terms=3):
    """Angle-free ring elements, for flows and brackets."""
    return draw(scalars(chart, coord_degree, 0, max_terms, angles=False))


@st.composite
def vector_fields(draw, chart=CHART, **kwargs):
    comps = {(i,): draw(polynomials(chart, **kwargs)) for i in range(chart.dim)}
    return VectorField(chart, 1, comps)


@st.composite
def forms(draw, degree, chart=CHART, **kwargs):
    from itertools import combinations

    comps = {}
    for index in combinations(chart.coords, degree):
        comps[index] = draw(polynomials(chart, **kwargs))
    return DiffForm.from_dict(chart, degree, comps)


def perturbed_pairing_form(doc, seed):
    """A copy of a generated rot(m, n, d) document in which one pairing-form
    entry x_a^x_{a+1} gains a seeded base term c * x_k, k not a or a + 1.

    The seed draws c, then the pair (a, k) among all such pairs, those of
    x1^x2 first.  A function of the base coordinates is a Casimir, so the
    curvature stays the Hamiltonian field of the pairing form; but d of the
    pairing form gains c dx_k ^ dx_a ^ dx_{a+1}, which breaks admissibility
    and with it the involutivity of the coupling Dirac structure.  Which
    generator pair escapes first depends on the entry and on k.
    """
    rng = random.Random(seed)
    coef = Fraction(rng.choice([n for n in range(-5, 6) if n]), rng.randint(1, 5))
    base = doc["chart"]["horizontal"]
    a, k = rng.choice([
        (a, k)
        for a in range(len(base) - 1)
        for k in range(len(base))
        if k not in (a, a + 1)
    ])
    entry = f"{base[a]}^{base[a + 1]}"
    term = f"({coef})*{base[k]}"
    out = copy.deepcopy(doc)
    out["name"] = f"{doc['name']}_perturbed"
    out["description"] = f"{doc['description']}, plus {term} on {entry}"
    out["pairing_form"][entry] += f" + {term}"
    return out


def _workloads():
    """``perfbench/workloads.py``, which builds the rot(m, n, d) documents."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the bundled scenarios, every tests/data document that loads, and
# rot(24,24,1) at seed 1: the inputs on which the structural-zero rules are
# held against full scans
SUPPORT_SOURCES = (
    "ext3", "ext3adm", "hb4d", "hb4d_inv", "t2pairs", "triv", "triv_shifted",
    "ext3_vertical_pairing", "hb4d_sheared", "rot_3_1_12", "rot_3_2_1", "rot_3_2_2",
    "rot_4_2_40", "rot_4_4_0", "rot_4_4_0_late_escape", "rot_4_4_0_perturbed",
    "rot_6_6_1", "rot_pairs_not_jacobi", "triv_moved_bivector", "triv_shifted_wrong_primitive",
    "base_rot", "base_rot_two_factors", "t2pairs_moved_bivector", "rot_24_24_1",
)


@functools.lru_cache(maxsize=None)
def support_scenario(name):
    """The scenario of one of ``SUPPORT_SOURCES``, loaded once."""
    from pathlib import Path

    from foliavg.scenarios import bundled_names, load_scenario, scenario_from_dict

    if name == "rot_24_24_1":
        return scenario_from_dict(_workloads().rot(24, 24, 1, 1))
    if name in bundled_names():
        return load_scenario(name)
    return load_scenario(Path(__file__).parent / "data" / f"{name}.json")
