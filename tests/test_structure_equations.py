"""The coupling Dirac structure against its structure equations.

A coupling distribution built from a connection Γ, a horizontal two-form σ
and a vertical bivector P is involutive exactly when four structure
equations hold (Vorobiev 2001; Vaisman 2004): P is Poisson, Γ is a Poisson
connection, the curvature of Γ is the Hamiltonian field of σ, and σ is
covariantly constant along the base.  The library checks the two sides by
independent code: ``verify_involutive`` evaluates Courant brackets of the
generators, while the four equations are tensor identities.
"""

from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from foliavg.dirac import build_coupling_dirac, verify_involutive
from foliavg.geom import DiffForm
from foliavg.hamcurv import verify_admissible, verify_hamiltonian_curvature
from foliavg.poisson import verify_jacobi, verify_poisson_connection
from foliavg.scenarios import _Pipeline, load_scenario

from conftest import polynomials

BUNDLED = ["ext3", "ext3adm", "hb4d", "hb4d_inv", "t2pairs", "triv", "triv_shifted"]
SCENARIOS = {name: load_scenario(name) for name in BUNDLED}


def structure_equations(conn, sigma, P) -> dict[str, str | None]:
    return {
        "jacobi": verify_jacobi(P),
        "poisson_connection": verify_poisson_connection(conn, P),
        "hamiltonian_curvature": verify_hamiltonian_curvature(conn, P, sigma),
        "admissible": verify_admissible(conn, sigma),
    }


def assert_agreement(conn, sigma, P) -> bool:
    """Assert that involutivity and the four equations agree; return the
    common verdict."""
    involutive = verify_involutive(build_coupling_dirac(conn, sigma, P)) is None
    equations = structure_equations(conn, sigma, P)
    assert involutive == all(w is None for w in equations.values()), equations
    return involutive


def input_data(s):
    p = _Pipeline(s)
    return s.conn, p.sigma, s.P


def averaged_data(s):
    """The data of the ``dirac`` stage: averaged connection, averaged pairing
    form plus the Casimir form."""
    p = _Pipeline(s)
    return p.averaged, p.sigma_bar + p.casimir, s.P


@pytest.mark.parametrize("data", [input_data, averaged_data], ids=["input", "averaged"])
@pytest.mark.parametrize("name", BUNDLED)
def test_involutive_exactly_when_structure_equations_hold(name, data):
    verdict = assert_agreement(*data(SCENARIOS[name]))
    assert verdict == (name != "ext3")


@st.composite
def horizontal_two_forms(draw, chart):
    comps = {
        pair: draw(polynomials(chart, coord_degree=2, max_terms=2))
        for pair in combinations(chart.horizontal, 2)
    }
    return DiffForm.from_dict(chart, 2, comps)


# t2pairs has a one-dimensional base, so its only horizontal two-form is 0
# and it keeps its own pairing form; ext3adm adds a three-dimensional base.
@pytest.mark.parametrize("name", ["hb4d", "t2pairs", "ext3adm"])
@given(data=st.data())
def test_agreement_under_pairing_form_perturbations(name, data):
    conn, sigma, P = input_data(SCENARIOS[name])
    extra = data.draw(horizontal_two_forms(conn.chart))
    assert_agreement(conn, sigma + extra, P)
