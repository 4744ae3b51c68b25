"""Covariance under coordinate changes: an exact oracle.

Every object here is tensorial.  Let psi be a diffeomorphism that preserves
the foliation.  Replace every tensor T of a scenario by psi*T and every flow
phi by psi^-1 o phi o psi.  Then every check must reach the same verdict,
and the averaging maps must commute with psi*:
``hannay_berry``, ``hamiltonian_potential`` and
``averaged_hamiltonian_form`` of the new scenario are psi* of the old ones.

psi is drawn from triangular polynomial shears, which have polynomial
inverses.  One elementary shear sends a coordinate y to y + g, where g does
not contain y and is a function of the base when y is a base coordinate;
its inverse sends y to y - g.  A drawn psi composes one or two of them,
with g of degree at most 4, and at most 2 in a composite.
Witness texts print expressions, so only (stage, check, passed) is compared.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foliavg.action import hamiltonian_potential, hannay_berry
from foliavg.foliation import Connection
from foliavg.geom import ChartMap, pullback
from foliavg.hamcurv import averaged_hamiltonian_form
from foliavg.scenarios import (
    _form_table,
    _frame_table,
    load_scenario,
    run_checks,
    scenario_from_dict,
)
from foliavg.symcalc import Scalar, Substitution, render

HERE = Path(__file__).parent
SOURCES = (
    "ext3", "ext3adm", "hb4d", "hb4d_inv", "t2pairs", "triv", "triv_shifted",
    str(HERE / "data" / "rot_3_2_1.json"),
    str(HERE / "data" / "rot_4_4_0_perturbed.json"),
)


def transform(s, forward, backward):
    """The scenario ``s`` moved by the chart map psi whose coordinate images
    are ``forward`` and whose inverse's are ``backward``: every tensor T
    becomes psi*T and every flow phi becomes psi^-1 o phi o psi.

    The result is loaded from its own document (``raw``), so the document
    can be written out as it is.
    """
    chart = s.chart
    psi = ChartMap(chart, forward, backward)
    back = Substitution(chart, backward)

    def conjugated(factor):
        # x o psi^-1 o phi o psi: the inverse image of x, moved by the flow,
        # then by psi
        flow = {}
        for name in chart.coords:
            image = back[name].substitute(factor.flow().mapping).substitute(psi.mapping)
            if image != Scalar.var(chart, name):
                flow[name] = render(image)
        return {"angle": factor.angle, "flow": flow}

    projection = pullback(psi, s.conn.projection)
    doc = {
        "schema": 1,
        "name": s.name,
        "description": s.description,
        "chart": {
            "horizontal": list(chart.horizontal),
            "vertical": list(chart.vertical),
            "angles": list(chart.angles),
        },
        "poisson": _form_table(pullback(psi, s.P.mv)),
        "connection": {"frame": _frame_table(Connection.from_projection(projection))},
        "action": [conjugated(factor) for factor in s.action.factors],
    }
    if s.momenta is not None:
        doc["momenta"] = [_form_table(pullback(psi, mu)) for mu in s.momenta]
    for key, form in (("pairing_form", s.sigma), ("casimir_form", s.casimir), ("potential", s.potential)):
        if form is not None:
            doc[key] = _form_table(pullback(psi, form))
    if s.primitives is not None:
        doc["primitives"] = [render(psi.pull_scalar(f)) for f in s.primitives]
    return scenario_from_dict(doc)


def compose(first, second):
    """(forward, backward) of psi o s, for psi = ``first`` and s = ``second``,
    each given as (forward, backward) substitutions."""
    (f1, b1), (f2, b2) = first, second
    chart = f1.chart
    forward = {name: f1[name].substitute(f2) for name in chart.coords}
    backward = {name: b2[name].substitute(b1) for name in chart.coords}
    return Substitution(chart, forward), Substitution(chart, backward)


@st.composite
def shears(draw, chart):
    """(forward, backward) substitutions of one or two triangular shears."""
    psi = (Substitution(chart, {}), Substitution(chart, {}))
    count = draw(st.integers(1, 2))
    for _ in range(count):
        target = draw(st.sampled_from(chart.coords))
        pool = chart.horizontal if target in chart.horizontal else chart.coords
        pool = [name for name in pool if name != target]
        if not pool:
            continue
        g = Scalar.zero(chart)
        for _ in range(draw(st.integers(1, 2))):
            term = Scalar.const(chart, draw(st.sampled_from((-2, -1, 1, 2, 3))))
            names = st.lists(st.sampled_from(pool), min_size=1, max_size=2, unique=True)
            for name in draw(names):
                # exponents of at most 2, and 1 in a composite, keep the moved
                # flows' degrees small: each conjugation multiplies them
                term = term * Scalar.var(chart, name) ** draw(st.integers(1, 3 - count))
            g = g + term
        y = Scalar.var(chart, target)
        step = (Substitution(chart, {target: y + g}), Substitution(chart, {target: y - g}))
        psi = compose(psi, step)
    return psi


def verdicts(s):
    return [(c.stage, c.check, c.passed) for c in run_checks(s).checks]


def moved_back(psi, conn):
    return Connection.from_projection(pullback(psi, conn.projection))


@pytest.mark.parametrize("source", SOURCES, ids=lambda s: Path(s).stem)
@settings(max_examples=8)
@given(data=st.data())
def test_shears_keep_verdicts_and_commute_with_averaging(source, data):
    s = load_scenario(source)
    forward, backward = data.draw(shears(s.chart))
    moved = transform(s, forward.moved, backward.moved)
    psi = ChartMap(s.chart, forward.moved, backward.moved)

    assert verdicts(moved) == verdicts(s)

    averaged = hannay_berry(s.action, s.conn)
    assert hannay_berry(moved.action, moved.conn) == moved_back(psi, averaged)
    potential = hamiltonian_potential(s.action, s.conn, s.momenta)
    moved_potential = hamiltonian_potential(moved.action, moved.conn, moved.momenta)
    assert moved_potential == pullback(psi, potential)
    if s.sigma is not None:
        sigma_bar = averaged_hamiltonian_form(s.conn, s.P, s.sigma, potential)
        assert averaged_hamiltonian_form(
            moved.conn, moved.P, moved.sigma, moved_potential
        ) == pullback(psi, sigma_bar)


def sheared_hb4d():
    """hb4d moved by p -> p + x1*q^2.  The moved flow depends on the base
    and has second harmonics; the frame and the momenta gain fiber terms."""
    s = load_scenario("hb4d")
    chart = s.chart
    x1q2 = Scalar.var(chart, "x1") * Scalar.var(chart, "q") ** 2
    p = Scalar.var(chart, "p")
    return transform(s, {"p": p + x1q2}, {"p": p - x1q2})


def test_committed_sheared_document_is_hb4d_moved():
    doc = sheared_hb4d().raw
    doc["name"] = "hb4d_sheared"
    doc["description"] = (
        "hb4d moved by the shear p -> p + x1*q^2: a base-dependent flow with "
        "second harmonics, and a frame and momenta with fiber terms"
    )
    committed = json.loads((HERE / "data" / "hb4d_sheared.json").read_text())
    assert committed == doc
    assert "2*th" in json.dumps(doc["action"])
    assert any("x1" in text for text in doc["action"][0]["flow"].values())


def test_committed_composite_is_t2pairs_moved_by_two_degree_4_shears():
    """t2pairs moved by p1 -> p1 + p2^2 - q2^2 and then
    q2 -> q2 + 3*p1^2 - p2^2*q1^2.  Its flows are not affine in the moved
    coordinates: their images reach degree 4 in them."""
    s = load_scenario("t2pairs")
    chart = s.chart

    def shear(target, g):
        y = Scalar.var(chart, target)
        return Substitution(chart, {target: y + g}), Substitution(chart, {target: y - g})

    q1, p1, q2, p2 = (Scalar.var(chart, name) for name in ("q1", "p1", "q2", "p2"))
    psi = (Substitution(chart, {}), Substitution(chart, {}))
    for step in (shear("p1", p2**2 - q2**2), shear("q2", 3 * p1**2 - p2**2 * q1**2)):
        psi = compose(psi, step)
    forward, backward = psi
    doc = transform(s, forward.moved, backward.moved).raw
    doc["name"] = "t2pairs_composite"
    doc["description"] = (
        "t2pairs moved by p1 -> p1 + p2^2 - q2^2 and then q2 -> q2 + 3*p1^2 - p2^2*q1^2: "
        "degree-4 flows that are not affine in the moved coordinates"
    )
    committed = json.loads((HERE / "data" / "t2pairs_composite.json").read_text())
    assert committed == doc
