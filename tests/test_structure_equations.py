"""The coupling Dirac structure against its structure equations.

A coupling distribution built from a connection Γ, a horizontal two-form σ
and a vertical bivector P is involutive exactly when four structure
equations hold (Vorobiev 2001; Vaisman 2004): P is Poisson, Γ is a Poisson
connection, the curvature of Γ is the Hamiltonian field of σ, and σ is
covariantly constant along the base.  The library checks the two sides by
independent code: ``verify_involutive`` evaluates Courant brackets of the
generators, while the four equations are tensor identities.
"""

import json
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import foliavg
from foliavg.dirac import build_coupling_dirac, verify_involutive
from foliavg.geom import DiffForm
from foliavg.hamcurv import verify_admissible, verify_hamiltonian_curvature
from foliavg.poisson import verify_jacobi, verify_poisson_connection
from foliavg.scenarios import _Pipeline, load_scenario, run_checks, scenario_from_dict

from conftest import perturbed_pairing_form, polynomials

DATA = Path(__file__).parent / "data"

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


# ----------------------------------------------------------------------
# a failing family at width


def test_the_committed_perturbed_chart_is_the_seeded_one():
    doc = json.loads((DATA / "rot_4_4_0.json").read_text())
    committed = json.loads((DATA / "rot_4_4_0_perturbed.json").read_text())
    assert committed == perturbed_pairing_form(doc, 0)


# seed 0 adds a multiple of x3 to x1^x2, seed 5 a multiple of x2 to x3^x4 on
# rot(4,4,0) and a multiple of x1 to x2^x3 on rot(3,1,12)
@pytest.mark.parametrize(
    "source, seed", [("rot_4_4_0", 0), ("rot_4_4_0", 5), ("rot_3_1_12", 0), ("rot_3_1_12", 5)]
)
def test_a_base_term_in_the_pairing_form_breaks_only_admissibility(source, seed):
    doc = perturbed_pairing_form(json.loads((DATA / f"{source}.json").read_text()), seed)
    s = scenario_from_dict(doc)
    report = run_checks(s)
    failed = [f"{c.stage}: {c.check}" for c in report.checks if not c.passed]
    # admissibility_preserved runs only on an admissible input pairing form
    assert len(report.checks) == 22
    assert failed == ["curvature_form: admissible", "dirac: involutive"]
    data = input_data(s)
    equations = structure_equations(*data)
    assert [name for name, witness in equations.items() if witness] == ["admissible"]
    assert not assert_agreement(*data)


def test_perturbed_witnesses_do_not_depend_on_the_hash_seed():
    path = os.pathsep.join(
        p for p in (str(Path(foliavg.__file__).parents[1]), os.environ.get("PYTHONPATH")) if p
    )
    command = [sys.executable, "-m", "foliavg.cli", "check", str(DATA / "rot_4_4_0_perturbed.json"),
               "--witness", "--format", "json"]
    texts = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
        proc = subprocess.run(command, capture_output=True, text=True, env=env, check=False)
        assert proc.returncode == 1, proc.stderr
        doc = json.loads(proc.stdout)
        del doc["elapsed_ms"]
        assert doc["failures"] == 2
        texts.append(json.dumps(doc, indent=2))
    assert texts[0] == texts[1]
