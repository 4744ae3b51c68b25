"""Output surface pinned byte for byte: averaged documents, generator tables
and one wide check report.

``reference_outputs.json`` holds, per scenario, the ``average`` document and
the ``dirac`` generator table of the 7 bundled scenarios and of
``data/rot_4_4_0.json`` (rot(4,4,0) at seed 1 from ``perfbench/workloads.py``:
dimension 12, four circle factors), plus that file's check report with
witnesses.  They were written before vector fields became sparse tensors.
Each comparison is of the indented JSON text, so key order counts too.
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


def test_wide_check_report_matches_reference():
    report = run_checks(load_scenario(SOURCES["rot_4_4_0"]))
    doc = json.loads(render_report(report, "json", witness=True))
    del doc["elapsed_ms"]
    assert _text(doc) == _text(REFERENCE["rot_4_4_0"]["check"])
    assert report.all_passed and len(report.checks) == 23
