"""Scenario files: schema, verification pipeline, reports, emission."""

import json
from pathlib import Path

import pytest

from foliavg import action, dirac, foliation, geom, hamcurv, poisson, scenarios
from foliavg.errors import (
    InvariantViolation,
    ParseError,
    PrimitiveMismatch,
    SchemaError,
    UnknownFormat,
)
from foliavg.scenarios import (
    STAGE_NAMES,
    _Pipeline,
    averaged_scenario,
    bundled_names,
    generator_table,
    load_scenario,
    render_report,
    run_checks,
    scenario_from_dict,
)

BUNDLED = ["ext3", "ext3adm", "hb4d", "hb4d_inv", "t2pairs", "triv", "triv_shifted"]
DATA = Path(__file__).parent / "data"

EXPECTED_FAILURES = {
    "triv": set(),
    "hb4d": set(),
    "hb4d_inv": set(),
    "ext3": {("curvature_form", "admissible"), ("dirac", "involutive")},
    "ext3adm": set(),
    "t2pairs": set(),
    "triv_shifted": {("adiabatic", "horizontal_momentum_average")},
}


def test_bundled_names():
    assert bundled_names() == BUNDLED


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_scenario_verdicts(name):
    report = run_checks(load_scenario(name))
    failed = {(c.stage, c.check) for c in report.checks if not c.passed}
    assert failed == EXPECTED_FAILURES[name]
    assert report.failures == len(EXPECTED_FAILURES[name])
    assert report.all_passed == (not EXPECTED_FAILURES[name])


# Reports of the bundled scenarios, stage, check, verdict and witness,
# as computed before the pipeline shared its averaged objects.
REFERENCE_REPORTS = json.loads((Path(__file__).parent / "bundled_reports.json").read_text())


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_reports_match_reference(name):
    report = run_checks(load_scenario(name))
    got = [[c.stage, c.check, c.passed, c.witness] for c in report.checks]
    assert got == REFERENCE_REPORTS[name]


@pytest.fixture
def connection_walks(monkeypatch):
    """Count the averaging walks of a connection through both bindings of
    averaging_walk; hannay_berry and the potential walk through it too."""
    calls = []
    original = action.averaging_walk

    def counted(act, target):
        if isinstance(target, foliation.Connection):
            calls.append(target)
        return original(act, target)

    monkeypatch.setattr(action, "averaging_walk", counted)
    monkeypatch.setattr(hamcurv, "averaging_walk", counted)
    return calls


@pytest.mark.parametrize("name", BUNDLED)
def test_connection_is_averaged_once_per_run(name, connection_walks):
    scenario = load_scenario(name)
    assert scenario.momenta is not None
    run_checks(scenario)
    assert len(connection_walks) == 1
    connection_walks.clear()
    averaged_scenario(scenario)
    assert len(connection_walks) == 1


@pytest.mark.parametrize("name", [*BUNDLED, str(DATA / "rot_4_4_0.json")])
def test_shared_objects_match_the_standalone_functions(name):
    s = load_scenario(name)
    p = _Pipeline(s)
    assert p.averaged == action.hannay_berry(s.action, s.conn)
    assert p.potential == action.hamiltonian_potential(s.action, s.conn, s.momenta)


@pytest.fixture
def tensor_pullbacks(monkeypatch):
    """Count the pullbacks of bivectors and valued forms."""
    calls = {"pull_valued_form": 0, "pull_multivector": 0}
    for method in calls:
        original = getattr(geom.ChartMap, method)

        def counted(self, a, method=method, original=original):
            calls[method] += 1
            return original(self, a)

        monkeypatch.setattr(geom.ChartMap, method, counted)
    return calls


@pytest.mark.parametrize("name", BUNDLED)
def test_a_passing_run_pulls_no_valued_form_back(name, tensor_pullbacks):
    # canonical and the g_invariant cross-check decide through the
    # generator's Lie derivative, so no bivector or projection is pulled back
    run_checks(load_scenario(name))
    assert tensor_pullbacks == {"pull_valued_form": 0, "pull_multivector": 0}


def test_the_g_invariant_cross_check_pulls_no_projection_back(tensor_pullbacks):
    """On t2pairs_moved_bivector, th1 keeps the pairing form and the
    bivector and th2 moves the bivector: the cross-check tests the averaged
    projection under th1 through L_X, and pulls nothing back."""
    s = load_scenario(DATA / "t2pairs_moved_bivector.json")
    report = run_checks(s)
    assert [c.check for c in report.checks if not c.passed] == [
        "canonical", "sharp_and_leafwise_closed", "g_invariant", "hamiltonian_generators"
    ]
    assert tensor_pullbacks == {"pull_valued_form": 0, "pull_multivector": 0}


COMPOSITE = DATA / "t2pairs_composite.json"
COMPOSITE_STAGES = ("connection", "poisson", "action", "premomentum", "curvature_form")


@pytest.fixture(scope="module")
def composite():
    return load_scenario(COMPOSITE)


@pytest.mark.parametrize("stage", COMPOSITE_STAGES)
def test_the_degree_4_composite_passes_its_stages(stage, composite, tensor_pullbacks):
    """t2pairs moved by two degree-4 shears: its flows are not affine in the
    moved coordinates, and each of these stages passes without a pullback of
    the bivector."""
    report = run_checks(composite, [stage])
    assert report.checks and report.all_passed
    assert tensor_pullbacks == {"pull_valued_form": 0, "pull_multivector": 0}


@pytest.mark.parametrize("order", [1, -1], ids=["base_first", "fiber_first"])
def test_a_factor_that_moves_the_base_fails_the_checks_of_base_rot(order):
    """base_rot with a second factor rotating (q, p), in either order, fails
    exactly base_rot's four checks with its witnesses, and averages."""
    raw = json.loads((DATA / "base_rot_two_factors.json").read_text())
    raw["action"], raw["momenta"] = raw["action"][::order], raw["momenta"][::order]
    s = scenario_from_dict(raw)

    def failures(report):
        return [(c.stage, c.check, c.witness) for c in report.checks if not c.passed]

    failed = failures(run_checks(s))
    assert len(failed) == 4
    assert failed == failures(run_checks(load_scenario(DATA / "base_rot.json")))
    assert averaged_scenario(s)["action"] == raw["action"]


@pytest.mark.parametrize("name", BUNDLED)
def test_curvature_is_built_once_per_connection(name, monkeypatch):
    built = []
    original = foliation.curvature

    def counted(conn):
        if conn._curvature is None:
            built.append(conn)
        return original(conn)

    for module in (foliation, hamcurv):
        monkeypatch.setattr(module, "curvature", counted)
    run_checks(load_scenario(name))
    # the pipeline needs the curvature of the connection and of its average
    assert 1 <= len(built) <= 2
    assert len({id(conn) for conn in built}) == len(built)


@pytest.mark.parametrize(("name", "verdicts"), [("ext3", 1), ("ext3adm", 2)])
def test_admissibility_is_decided_once_per_run(name, verdicts, monkeypatch):
    calls = []
    original = hamcurv.admissible_witness

    def counted(d_sigma):
        calls.append(d_sigma)
        return original(d_sigma)

    monkeypatch.setattr(hamcurv, "admissible_witness", counted)
    scenario = load_scenario(name)
    full = run_checks(scenario)
    # once for the scenario's connection, and once for the averaged one
    # only when the first verdict passes (ext3 is not admissible)
    assert len(calls) == verdicts
    assert calls[0] == foliation.graded_derivative(scenario.conn, scenario.sigma, (1, 0))
    alone = run_checks(scenario, ["averaged_form"])
    assert alone.checks == tuple(c for c in full.checks if c.stage == "averaged_form")


@pytest.mark.parametrize(
    "name", [*BUNDLED, str(DATA / "rot_4_4_0.json"), str(DATA / "rot_4_4_0_late_escape.json")]
)
def test_the_pairing_form_is_differentiated_once_per_run(name, monkeypatch):
    # the admissible witness and the shifted_derivative residual share one
    # base-degree derivative of the pairing form
    s = load_scenario(name)
    calls = []
    original = foliation.graded_derivative

    def counted(conn, form, shift):
        if conn is s.conn and form is s.sigma and shift == (1, 0):
            calls.append(form)
        return original(conn, form, shift)

    _rebind(monkeypatch, original, counted)
    run_checks(s)
    assert len(calls) == 1


def _rebind(monkeypatch, original, replacement):
    """Rebind ``original`` to ``replacement`` in every module that binds it."""
    for module in (action, dirac, foliation, hamcurv, poisson, scenarios):
        for name, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, name, replacement)


@pytest.mark.parametrize("name", [*BUNDLED, str(DATA / "rot_4_4_0.json")])
def test_each_pipeline_object_is_computed_once_per_run(name, monkeypatch):
    s = load_scenario(name)
    potential = action.hamiltonian_potential(s.action, s.conn, s.momenta)
    derivatives, brackets, differences, rows = [], [], [], []
    originals = (
        foliation.graded_derivative,
        poisson.braided_wedge,
        action.difference_from_potential,
        dirac._pairings,
    )

    def graded_derivative(conn, form, shift):
        if form == potential:
            derivatives.append(shift)
        return originals[0](conn, form, shift)

    def braided_wedge(P, alpha, beta):
        if alpha == potential and beta == potential:
            brackets.append(P)
        return originals[1](P, alpha, beta)

    def difference_from_potential(P, form):
        differences.append(form)
        return originals[2](P, form)

    def pairings(D, section, first=0):
        rows.extend((id(D), k) for k, gen in enumerate(D.generators) if gen is section)
        return originals[3](D, section, first)

    for original, replacement in zip(
        originals, (graded_derivative, braided_wedge, difference_from_potential, pairings)
    ):
        _rebind(monkeypatch, original, replacement)
    run_checks(s)
    assert len(derivatives) <= 1
    assert len(brackets) <= 1
    assert len(differences) == 1
    assert differences[0] == potential
    # each generator is paired with its family at most once, by
    # verify_lagrangian; verify_involutive reads those rows again, and so does
    # verify_g_invariance for a generator that a flow returns as it is
    assert rows
    assert len(set(rows)) == len(rows)


@pytest.mark.parametrize("name", BUNDLED)
def test_average_builds_the_adiabatic_witness_only_to_apply_primitives(name, monkeypatch):
    calls = []
    original = hamcurv.adiabatic_witness

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(hamcurv, "adiabatic_witness", counted)
    s = load_scenario(name)
    averaged_scenario(s)
    if s.primitives is None:
        assert calls == []
    else:
        assert calls


# The report of triv_shifted with the primitive x2, whose differential is
# not the averaged defect dx1: the repair fails once, under primitive_fix,
# and the dirac stage checks the momenta as given.
WRONG_PRIMITIVE_REPORT = """\
✗ adiabatic: horizontal_momentum_average
    witness: th one-form has averaged base part (1)*dx1
✗ adiabatic: primitive_fix
    witness: primitive for th does not produce the defect
✓ dirac: lagrangian
✓ dirac: involutive
✓ dirac: g_invariant
✗ dirac: hamiltonian_generators
    witness: (th generator, its one-form) is no section: pairing with generator 0 is 1"""


def test_a_wrong_primitive_is_reported_under_primitive_fix(monkeypatch):
    calls = []
    original = hamcurv.adiabatic_fix

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(hamcurv, "adiabatic_fix", counted)
    report = run_checks(load_scenario(DATA / "triv_shifted_wrong_primitive.json"))
    lines = render_report(report, witness=True).splitlines()
    assert lines[0].startswith("scenario triv_shifted_wrong_primitive: 24 checks, 3 failed (")
    # every check before the adiabatic stage passes
    assert all(line.startswith("✓ ") for line in lines[1:19])
    assert "\n".join(lines[19:]) == WRONG_PRIMITIVE_REPORT
    assert len(calls) == 1


def test_the_dirac_stage_alone_checks_the_momenta_as_given_after_a_wrong_primitive():
    report = run_checks(load_scenario(DATA / "triv_shifted_wrong_primitive.json"), ["dirac"])
    body = render_report(report, witness=True).split("\n", 1)[1]
    assert body == WRONG_PRIMITIVE_REPORT.split("\n", 4)[4]


@pytest.mark.parametrize(
    ("primitive", "message"),
    [
        ("x2", "primitive for th does not produce the defect"),
        ("q", "primitive for th is not a Casimir"),
    ],
)
def test_average_refuses_a_wrong_primitive(primitive, message):
    raw = dict(load_scenario("triv_shifted").raw, primitives=[primitive])
    s = scenario_from_dict(raw)
    failed = {(c.stage, c.check): c.witness for c in run_checks(s).checks if not c.passed}
    assert failed[("adiabatic", "primitive_fix")] == message
    with pytest.raises(PrimitiveMismatch, match=message):
        averaged_scenario(s)


def test_stage_names_are_canonical():
    assert STAGE_NAMES == (
        "connection",
        "poisson",
        "action",
        "premomentum",
        "averaging",
        "curvature_form",
        "averaged_form",
        "adiabatic",
        "dirac",
    )


# ----------------------------------------------------------------------
# reports


def test_json_report_shape():
    report = run_checks(load_scenario("hb4d"))
    doc = json.loads(render_report(report, "json", witness=True))
    assert doc["schema"] == 1
    assert doc["scenario"] == "hb4d"
    assert doc["failures"] == 0
    assert isinstance(doc["elapsed_ms"], (int, float))
    assert all("witness" in c for c in doc["checks"])
    plain = json.loads(render_report(report, "json"))
    assert all("witness" not in c for c in plain["checks"])


def test_text_report_shape():
    report = run_checks(load_scenario("hb4d"))
    text = render_report(report, "text")
    lines = text.splitlines()
    assert lines[0].startswith("scenario hb4d: 23 checks, all passed")
    assert "✓ poisson: jacobi" in text
    failing = run_checks(load_scenario("ext3"))
    text = render_report(failing, "text", witness=True)
    assert "✗ curvature_form: admissible" in text
    assert "witness:" in text


def test_unknown_format_rejected():
    report = run_checks(load_scenario("triv"))
    with pytest.raises(UnknownFormat):
        render_report(report, "yaml")


def test_report_is_deterministic():
    a = json.loads(render_report(run_checks(load_scenario("hb4d")), "json", witness=True))
    b = json.loads(render_report(run_checks(load_scenario("hb4d")), "json", witness=True))
    a.pop("elapsed_ms")
    b.pop("elapsed_ms")
    assert a == b


# ----------------------------------------------------------------------
# stage selection and skipping


def test_stage_selection_keeps_canonical_order():
    report = run_checks(load_scenario("hb4d"), ["poisson", "connection"])
    assert report.stages == ("connection", "poisson")
    assert {c.stage for c in report.checks} == {"connection", "poisson"}


def test_unknown_stage_rejected():
    with pytest.raises(SchemaError):
        run_checks(load_scenario("hb4d"), ["nope"])


def momenta_free_scenario():
    raw = dict(load_scenario("triv").raw)
    raw.pop("momenta")
    raw["name"] = "triv_nomu"
    return scenario_from_dict(raw)


def test_momentum_stages_skip_without_momenta():
    report = run_checks(momenta_free_scenario())
    assert {stage for stage, _ in report.skipped} == {
        "premomentum",
        "averaged_form",
        "adiabatic",
        "dirac",
    }
    assert report.all_passed
    doc = json.loads(render_report(report, "json"))
    assert {entry["stage"] for entry in doc["skipped"]} == {
        "premomentum",
        "averaged_form",
        "adiabatic",
        "dirac",
    }


def test_explicit_momentum_stage_errors_without_momenta():
    with pytest.raises(SchemaError):
        run_checks(momenta_free_scenario(), ["premomentum"])


# ----------------------------------------------------------------------
# averaged emission


def test_averaged_emission_round_trip():
    out = averaged_scenario(load_scenario("hb4d"))
    assert out["name"] == "hb4d_averaged"
    assert out["connection"] == {"frame": {}}
    assert out["potential"] == {"x1": "-q*x2"}
    assert out["pairing_form"] == {}
    report = run_checks(scenario_from_dict(out))
    assert report.all_passed


@pytest.mark.parametrize("name", BUNDLED)
def test_every_averaged_emission_reloads(name):
    out = averaged_scenario(load_scenario(name))
    assert scenario_from_dict(out).potential is not None


def test_averaged_emission_carries_fixed_momenta():
    out = averaged_scenario(load_scenario("triv_shifted"))
    assert "primitives" not in out
    report = run_checks(scenario_from_dict(out))
    assert report.all_passed


@pytest.mark.parametrize("name", BUNDLED)
def test_averaging_is_idempotent_on_its_own_output(name):
    once = averaged_scenario(load_scenario(name))
    twice = averaged_scenario(scenario_from_dict(once))
    for key in ("connection", "pairing_form", "momenta"):
        assert twice[key] == once[key]
    assert twice["potential"] == {}


def test_averaging_does_not_depend_on_the_factor_order():
    raw = load_scenario("t2pairs").raw
    reversed_raw = dict(raw, action=raw["action"][::-1], momenta=raw["momenta"][::-1])
    forward = averaged_scenario(scenario_from_dict(raw))
    backward = averaged_scenario(scenario_from_dict(reversed_raw))
    for key in ("connection", "pairing_form", "potential"):
        assert backward[key] == forward[key]
    assert backward["momenta"] == forward["momenta"][::-1]


def test_averaged_emission_needs_momenta():
    with pytest.raises(SchemaError):
        averaged_scenario(momenta_free_scenario())


# ----------------------------------------------------------------------
# generator tables


def test_generator_table_on_trivial_scenario():
    table = generator_table(load_scenario("triv"))
    assert table["schema"] == 1
    assert table["scenario"] == "triv"
    assert table["generators"] == [
        {"field": {"x1": "1"}, "form": {}},
        {"field": {"x2": "1"}, "form": {}},
        {"field": {"p": "1"}, "form": {"q": "1"}},
        {"field": {"q": "-1"}, "form": {"p": "1"}},
    ]


def test_generator_table_counts_match_dimension():
    for name in BUNDLED:
        scenario = load_scenario(name)
        table = generator_table(scenario)
        assert len(table["generators"]) == scenario.chart.dim


# ----------------------------------------------------------------------
# loading


def test_load_from_path(tmp_path):
    raw = dict(load_scenario("triv").raw)
    raw["name"] = "copy"
    path = tmp_path / "copy.json"
    path.write_text(json.dumps(raw))
    assert load_scenario(str(path)).name == "copy"


def test_unknown_source_lists_bundled_names():
    with pytest.raises(SchemaError) as info:
        load_scenario("missing_scenario")
    assert "bundled" in str(info.value)


def test_malformed_json_is_a_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    with pytest.raises(ParseError):
        load_scenario(str(path))


# ----------------------------------------------------------------------
# schema validation


def test_unknown_top_level_key_rejected():
    bad = dict(load_scenario("triv").raw)
    bad["extra"] = 1
    with pytest.raises(SchemaError):
        scenario_from_dict(bad)


def test_schema_version_checked():
    bad = dict(load_scenario("triv").raw)
    bad["schema"] = 2
    with pytest.raises(SchemaError):
        scenario_from_dict(bad)


def test_schema_version_must_be_an_integer():
    bad = dict(load_scenario("triv").raw)
    bad["schema"] = True
    with pytest.raises(SchemaError):
        scenario_from_dict(bad)


def test_momenta_count_must_match_factors():
    bad = dict(load_scenario("t2pairs").raw)
    bad["momenta"] = bad["momenta"][:1]
    with pytest.raises(SchemaError):
        scenario_from_dict(bad)


def test_parse_errors_name_the_field():
    bad = dict(load_scenario("triv").raw)
    bad["poisson"] = {"q^p": "1 +* 2"}
    with pytest.raises(ParseError) as info:
        scenario_from_dict(bad)
    assert str(info.value).startswith("poisson.q^p")


@pytest.mark.parametrize(
    "projection, message",
    [
        pytest.param(
            {"q": {"q": "1"}, "p": {"p": "1"}, "x1": {"x1": "1"}},
            "projection takes values outside the vertical bundle",
            id="not-vertical",
        ),
        pytest.param(
            {"q": {"q": "1", "p": "q"}, "p": {"p": "1"}},
            "projection is not the identity on d/dq",
            id="not-identity",
        ),
    ],
)
def test_bad_projection_rejected(projection, message):
    bad = dict(load_scenario("triv").raw)
    bad["connection"] = {"projection": projection}
    with pytest.raises(InvariantViolation) as info:
        scenario_from_dict(bad)
    assert str(info.value) == f"connection.projection: {message}"


def test_projection_form_equals_frame_form():
    good = dict(load_scenario("hb4d").raw)
    good["connection"] = {
        "projection": {"q": {"q": "1"}, "p": {"p": "1"}, "x1": {"p": "-x2"}}
    }
    assert scenario_from_dict(good).conn == load_scenario("hb4d").conn
