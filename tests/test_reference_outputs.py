"""Output surface pinned byte for byte: averaged documents, generator tables
and check reports.

``reference_outputs.json`` holds, per scenario, the ``average`` document and
the ``dirac`` generator table of the 7 bundled scenarios and of six charts
built with ``perfbench/workloads.py`` at seed 1: ``data/rot_4_4_0.json``
(rot(4,4,0): dimension 12, four circle factors), ``data/rot_3_1_12.json``
(rot(3,1,12): dimension 5, frame degree 12), ``data/rot_6_6_1.json``
(rot(6,6,1): dimension 18, six circle factors), ``data/rot_3_2_2.json``
(rot(3,2,2): two circle factors, frame degree 2), ``data/rot_4_2_40.json``
(rot(4,2,40): frame degree 40, the deep regime) and
``data/rot_4_4_0_perturbed.json`` (rot(4,4,0) with a base term in its
pairing form), ``data/rot_4_4_0_late_escape.json`` (rot(4,4,0) with a
base term on x3^x4: its first escaping generator pair is (1, 2), after ten
pairs (0, j) that are zero by support), and of ``data/hb4d_sheared.json``
(hb4d moved by the shear p -> p + x1*q^2, see ``test_covariance.py``: its flow depends on the base and
has second harmonics).  It also holds the check report with witnesses of
each generated or sheared chart, of the two failing bundled scenarios,
``ext3`` and ``triv_shifted``, and of ``data/ext3_vertical_pairing.json``
(ext3 with a pairing form on all three frame pairs and a base term in its
momentum: two frame pairs fail the Hamiltonian curvature checks at once,
and the momentum is not leafwise closed), and of
``data/triv_moved_bivector.json`` (triv with its bivector scaled by 1 + q^2:
the rotation moves the bivector and keeps the pairing form, so ``canonical``
and ``g_invariant`` fail), and of ``data/t2pairs_moved_bivector.json``
(t2pairs with its second bivector pair scaled by 1 + q2^2: th1 keeps the
pairing form and the bivector, th2 moves the bivector, so ``canonical``
and ``g_invariant`` fail), and of ``data/base_rot_two_factors.json``
(``data/base_rot.json`` with a second factor rotating the fibre: the
flow-integral route stops after the base rotation's piece, and base_rot's
four checks fail), and of ``data/rot_pairs_not_jacobi.json`` (two
base coordinates and two rotating fibre pairs whose bivector fails Jacobi
and is moved by the lift of x1, so both Schouten checks, ``jacobi`` and
``frame_preserves_bivector``, fail with a witness).  The bundled and rot(4,4,0) entries were written before
vector fields became sparse tensors, the rot(3,1,12) entry before scalars
kept integer numerators over one denominator, and the failing reports and
the rot(6,6,1) entries before contractions and Dirac membership visited only
the stored entries, the hb4d_sheared entries before averages were read
off per-flow tables instead of full pullbacks, and the rot(3,2,2) and
rot(4,2,40) entries before rotation flows read their table entries off
Wallis' formula.  Each comparison is of the indented JSON text, so key
order counts too.
"""

import json
from pathlib import Path

import pytest

from foliavg.scenarios import (
    averaged_scenario,
    generator_table,
    load_scenario,
    render_report,
    run_checks,
)

HERE = Path(__file__).parent
REFERENCE = json.loads((HERE / "reference_outputs.json").read_text())
SOURCES = {
    name: name for name in ("ext3", "ext3adm", "hb4d", "hb4d_inv", "t2pairs", "triv", "triv_shifted")
}
SOURCES.update(
    (name, str(HERE / "data" / f"{name}.json"))
    for name in (
        "rot_4_4_0",
        "rot_4_4_0_perturbed",
        "rot_4_4_0_late_escape",
        "rot_3_1_12",
        "rot_3_2_2",
        "rot_4_2_40",
        "rot_6_6_1",
        "hb4d_sheared",
        "ext3_vertical_pairing",
        "triv_moved_bivector",
        "rot_pairs_not_jacobi",
        "triv_shifted_wrong_primitive",
        "base_rot",
        "base_rot_two_factors",
        "t2pairs_moved_bivector",
    )
)
# the check count and the failed checks of each document built to fail
FAILING = {
    "ext3": (22, ["curvature_form: admissible", "dirac: involutive"]),
    "triv_shifted": (24, ["adiabatic: horizontal_momentum_average"]),
    "triv_shifted_wrong_primitive": (
        24,
        [
            "adiabatic: horizontal_momentum_average",
            "adiabatic: primitive_fix",
            "dirac: hamiltonian_generators",
        ],
    ),
    "base_rot": (
        23,
        [
            "action: leaf_tangent",
            "premomentum: sharp_and_leafwise_closed",
            "averaging: difference_two_routes",
            "dirac: hamiltonian_generators",
        ],
    ),
    "base_rot_two_factors": (
        23,
        [
            "action: leaf_tangent",
            "premomentum: sharp_and_leafwise_closed",
            "averaging: difference_two_routes",
            "dirac: hamiltonian_generators",
        ],
    ),
    "rot_4_4_0_perturbed": (22, ["curvature_form: admissible", "dirac: involutive"]),
    "rot_4_4_0_late_escape": (22, ["curvature_form: admissible", "dirac: involutive"]),
    "ext3_vertical_pairing": (
        22,
        [
            "premomentum: sharp_and_leafwise_closed",
            "averaging: difference_is_hamiltonian",
            "curvature_form: hamiltonian_curvature",
            "curvature_form: admissible",
            "averaged_form: averaged_hamiltonian_curvature",
            "averaged_form: second_derivative",
            "adiabatic: horizontal_momentum_average",
            "dirac: involutive",
            "dirac: g_invariant",
            "dirac: hamiltonian_generators",
        ],
    ),
    "triv_moved_bivector": (
        23,
        [
            "action: canonical",
            "premomentum: sharp_and_leafwise_closed",
            "dirac: g_invariant",
            "dirac: hamiltonian_generators",
        ],
    ),
    "t2pairs_moved_bivector": (
        23,
        [
            "action: canonical",
            "premomentum: sharp_and_leafwise_closed",
            "dirac: g_invariant",
            "dirac: hamiltonian_generators",
        ],
    ),
    "rot_pairs_not_jacobi": (
        23,
        [
            "poisson: jacobi",
            "poisson: frame_preserves_bivector",
            "action: canonical",
            "premomentum: sharp_and_leafwise_closed",
            "averaging: difference_is_hamiltonian",
            "averaging: averaged_curvature_transition",
            "curvature_form: hamiltonian_curvature",
            "averaged_form: averaged_frame_poisson",
            "averaged_form: averaged_hamiltonian_curvature",
            "dirac: involutive",
            "dirac: g_invariant",
            "dirac: hamiltonian_generators",
        ],
    ),
}


def _text(doc) -> str:
    return json.dumps(doc, indent=2)


def test_every_reference_has_a_source():
    assert sorted(REFERENCE) == sorted(SOURCES)


# average refuses triv_shifted_wrong_primitive (exit code 2; the message is
# held in test_cli.py), so only the others pin an average document
@pytest.mark.parametrize("name", sorted(n for n in SOURCES if "average" in REFERENCE[n]))
def test_average_matches_reference(name):
    doc = averaged_scenario(load_scenario(SOURCES[name]))
    assert _text(doc) == _text(REFERENCE[name]["average"])


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_generator_table_matches_reference(name):
    table = generator_table(load_scenario(SOURCES[name]))
    assert _text(table) == _text(REFERENCE[name]["dirac"])


def _assert_check_report_matches(name):
    report = run_checks(load_scenario(SOURCES[name]))
    doc = json.loads(render_report(report, "json", witness=True))
    del doc["elapsed_ms"]
    assert _text(doc) == _text(REFERENCE[name]["check"])
    count, failed = FAILING.get(name, (23, []))
    assert len(report.checks) == count
    assert [f"{c.stage}: {c.check}" for c in report.checks if not c.passed] == failed


def test_wide_check_report_matches_reference():
    _assert_check_report_matches("rot_4_4_0")


def test_deep_check_report_matches_reference():
    _assert_check_report_matches("rot_3_1_12")


def test_deeper_check_reports_match_reference():
    _assert_check_report_matches("rot_3_2_2")
    _assert_check_report_matches("rot_4_2_40")


def test_wider_check_report_matches_reference():
    _assert_check_report_matches("rot_6_6_1")


def test_sheared_check_report_matches_reference():
    _assert_check_report_matches("hb4d_sheared")


@pytest.mark.parametrize("name", sorted(FAILING))
def test_failing_check_report_matches_reference(name):
    _assert_check_report_matches(name)
