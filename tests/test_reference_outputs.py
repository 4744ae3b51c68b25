"""Output surface pinned byte for byte: averaged documents, generator tables
and one wide check report.

``reference_outputs.json`` holds, per scenario, the ``average`` document and
the ``dirac`` generator table of the 7 bundled scenarios and of two charts
generated by ``perfbench/workloads.py`` at seed 1: ``data/rot_4_4_0.json``
(rot(4,4,0): dimension 12, four circle factors) and ``data/rot_3_1_12.json``
(rot(3,1,12): dimension 5, frame degree 12), plus the check report with
witnesses of each generated chart.  The bundled and rot(4,4,0) entries were
written before vector fields became sparse tensors, the rot(3,1,12) entry
before scalars kept integer numerators over one denominator.  Each
comparison is of the indented JSON text, so key order counts too.
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
SOURCES["rot_4_4_0"] = str(HERE / "data" / "rot_4_4_0.json")
SOURCES["rot_3_1_12"] = str(HERE / "data" / "rot_3_1_12.json")


def _text(doc) -> str:
    return json.dumps(doc, indent=2)


def test_every_reference_has_a_source():
    assert sorted(REFERENCE) == sorted(SOURCES)


@pytest.mark.parametrize("name", sorted(SOURCES))
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
    assert report.all_passed and len(report.checks) == 23


def test_wide_check_report_matches_reference():
    _assert_check_report_matches("rot_4_4_0")


def test_deep_check_report_matches_reference():
    _assert_check_report_matches("rot_3_1_12")
