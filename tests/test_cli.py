"""Command-line entry point: verbs, formats, exit codes."""

import argparse
import errno
import json
import os
import re
import sys
from pathlib import Path

import pytest

from foliavg.cli import _cmd_dirac, main
from foliavg.errors import (
    InvariantViolation,
    NotComplementary,
    NotHorizontal,
    NotVertical,
    ParseError,
    SchemaError,
    UnknownFormat,
    UnknownSymbol,
)
from foliavg.scenarios import load_scenario, run_checks, scenario_from_dict


# ----------------------------------------------------------------------
# check


def test_check_passes_on_clean_scenario(capsys):
    assert main(["check", "hb4d"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("scenario hb4d: 23 checks, all passed")
    assert "✓ dirac: g_invariant" in out


def test_check_fails_on_designed_negative(capsys):
    assert main(["check", "ext3"]) == 1
    out = capsys.readouterr().out
    assert "✗ curvature_form: admissible" in out
    assert "✗ dirac: involutive" in out


def test_expect_fail_inverts_the_exit_code():
    assert main(["check", "ext3", "--expect-fail"]) == 0
    assert main(["check", "hb4d", "--expect-fail"]) == 1


def test_check_json_format(capsys):
    assert main(["check", "triv", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["scenario"] == "triv"
    assert doc["failures"] == 0


def test_check_witness_flag(capsys):
    main(["check", "triv_shifted", "--witness"])
    out = capsys.readouterr().out
    assert "witness: th one-form has averaged base part" in out


def test_check_stage_selection(capsys):
    assert main(["check", "hb4d", "--stage", "poisson", "--stage", "dirac"]) == 0
    out = capsys.readouterr().out
    assert "6 checks" in out


def test_unknown_scenario_is_an_input_error(capsys):
    assert main(["check", "no_such_scenario"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("foliavg: error:")
    assert "bundled" in err


def test_a_file_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + json.dumps(load_scenario("triv").raw).encode())
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"foliavg: error: cannot read {path}: 'utf-8' codec")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "text",
    [
        # the decoder's recursion limit raises RecursionError
        pytest.param("[" * 200_000, id="nested-arrays"),
        # the integer digit limit raises a ValueError that is no JSONDecodeError
        pytest.param('{"schema": 1' + "0" * 5000 + "}", id="long-integer"),
    ],
)
def test_json_the_decoder_refuses_is_an_input_error(tmp_path, capsys, text):
    path = tmp_path / "hostile.json"
    path.write_text(text)
    for verb in ("check", "average", "dirac"):
        assert main([verb, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"foliavg: error: {path}: not valid JSON: ")
        assert err.count("\n") == 1


def test_explicit_momentum_stage_without_momenta(tmp_path, capsys):
    raw = dict(load_scenario("triv").raw)
    raw.pop("momenta")
    path = tmp_path / "nomu.json"
    path.write_text(json.dumps(raw))
    assert main(["check", str(path)]) == 0
    assert main(["check", str(path), "--stage", "dirac"]) == 2
    assert "needs momentum one-forms" in capsys.readouterr().err


def test_parse_error_is_an_input_error(tmp_path, capsys):
    raw = dict(load_scenario("triv").raw)
    raw["poisson"] = {"q^p": "1 +* 2"}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert main(["check", str(path)]) == 2
    assert "poisson.q^p" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("error", "key", "value", "message"),
    [
        (UnknownSymbol, "poisson", {"q^p": "zz*1"}, "poisson.q^p: 'zz' is not a symbol"),
        (UnknownSymbol, "poisson", {"q^zz": "1"}, "poisson.q^zz: 'zz' is not a coordinate"),
        (
            UnknownSymbol,
            "momenta",
            [{"q": "q*sin(ph)"}],
            "momenta[0].q: 'ph' is not an angle",
        ),
        (UnknownSymbol, "momenta", [{"zz": "q"}], "momenta[0].zz: 'zz' is not a coordinate"),
        (
            UnknownSymbol,
            "pairing_form",
            {"x1^zz": "1"},
            "pairing_form.x1^zz: 'zz' is not a coordinate",
        ),
        (
            NotVertical,
            "connection",
            {"frame": {"x1": {"x2": "q"}}},
            "connection.frame.x1.x2: 'x2' is not a fiber coordinate",
        ),
        (
            NotComplementary,
            "connection",
            {"frame": {"q": {"p": "1"}}},
            "connection.frame.q: 'q' is not a base coordinate",
        ),
        (
            UnknownSymbol,
            "connection",
            {"projection": {"zz": {"p": "1"}}},
            "connection.projection.zz: 'zz' is not a coordinate",
        ),
        (
            UnknownSymbol,
            "connection",
            {"projection": {"x1": {"zz": "1"}}},
            "connection.projection.x1.zz: 'zz' is not a coordinate",
        ),
        (
            UnknownSymbol,
            "action",
            [{"angle": "th", "flow": {"zz": "q"}}],
            "action[0].flow.zz: 'zz' is not a coordinate",
        ),
        (
            UnknownSymbol,
            "action",
            [{"angle": "ph", "flow": {"q": "q"}}],
            "action[0].angle: 'ph' is not an angle",
        ),
    ],
)
def test_load_errors_name_their_input(tmp_path, capsys, error, key, value, message):
    raw = dict(load_scenario("triv").raw)
    raw[key] = value
    with pytest.raises(error) as info:
        scenario_from_dict(raw)
    assert str(info.value).startswith(message)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"foliavg: error: {message}")


@pytest.mark.parametrize(
    ("error", "key", "value"),
    [
        pytest.param(UnknownSymbol, "poisson", {"q^p": "zz*1"}, id="UnknownSymbol"),
        pytest.param(
            NotComplementary, "connection", {"frame": {"q": {"p": "1"}}}, id="NotComplementary"
        ),
        pytest.param(NotVertical, "poisson", {"x1^p": "1"}, id="NotVertical"),
        pytest.param(NotHorizontal, "pairing_form", {"q^p": "1"}, id="NotHorizontal"),
        pytest.param(NotHorizontal, "potential", {"q": "x1"}, id="NotHorizontal-potential"),
        pytest.param(
            NotHorizontal, "casimir_form", {"q^p": "1"}, id="NotHorizontal-casimir_form"
        ),
        pytest.param(SchemaError, "pairing_form", {"x1^x1": "1"}, id="SchemaError-pairing_form"),
        pytest.param(SchemaError, "casimir_form", {"x1^x1": "1"}, id="SchemaError-casimir_form"),
        pytest.param(
            InvariantViolation, "casimir_form", {"x1^x2": "q"}, id="InvariantViolation-casimir_form"
        ),
        pytest.param(SchemaError, "poisson", {"q^q": "1"}, id="SchemaError-poisson"),
        pytest.param(SchemaError, "description", 5, id="SchemaError-description"),
        pytest.param(
            ParseError, "poisson", {"q^p": "(q+p+x1+x2+cos(th))^20"}, id="ParseError-power"
        ),
        pytest.param(
            ParseError,
            "poisson",
            {"q^p": "(q+p+x1+x2+cos(th))^10*(q+p+x1+x2+cos(th))^10"},
            id="ParseError-product",
        ),
        pytest.param(
            ParseError, "poisson", {"q^p": "cos(th)^400"}, id="ParseError-harmonic-power"
        ),
        pytest.param(
            ParseError,
            "poisson",
            {"q^p": "(cos(th)+q*sin(th))^50"},
            id="ParseError-multi-term-harmonic-power",
        ),
    ],
)
def test_every_library_error_is_an_input_error(tmp_path, capsys, error, key, value):
    raw = dict(load_scenario("triv").raw)
    raw[key] = value
    with pytest.raises(error):
        run_checks(scenario_from_dict(raw))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    for verb in ("check", "average", "dirac"):
        assert main([verb, str(path)]) == 2
        assert capsys.readouterr().err.startswith("foliavg: error:")


@pytest.mark.parametrize("key", ["pairing_form", "casimir_form"])
def test_a_vertical_two_form_is_rejected_at_load(tmp_path, capsys, key):
    raw = dict(load_scenario("hb4d").raw)
    raw[key] = {"q^p": "1"}
    path = tmp_path / "vertical.json"
    path.write_text(json.dumps(raw))
    for argv in (
        ["check", str(path)],
        ["check", str(path), "--stage", "connection", "--stage", "poisson"],
        ["average", str(path)],
        ["dirac", str(path)],
    ):
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"foliavg: error: {key}: expected a horizontal two-form\n"
        )


def test_a_literal_zero_denominator_is_an_input_error(capsys):
    # the tokenizer reads "1/0" as one rational; it must not end in a traceback
    path = Path(__file__).parent / "data" / "hb4d_zero_denominator.json"
    for verb in ("check", "average", "dirac"):
        assert main([verb, str(path)]) == 2
        assert capsys.readouterr().err == (
            "foliavg: error: pairing_form.x1^x2: "
            "division is only allowed by nonzero rationals\n"
        )


def test_a_casimir_form_off_the_casimirs_is_an_input_error(capsys):
    # q is paired with p by the bivector, so its Hamiltonian field is
    # nonzero; loading refuses it instead of failing the dirac checks
    path = Path(__file__).parent / "data" / "hb4d_noncasimir.json"
    for verb in ("check", "average", "dirac"):
        assert main([verb, str(path)]) == 2
        assert capsys.readouterr().err == (
            "foliavg: error: casimir_form.x1^x2: q is not a Casimir of the bivector\n"
        )


def test_the_first_non_casimir_coefficient_in_document_order_is_named(tmp_path, capsys):
    # both coefficients are paired by the bivector; x2^x3 sorts after x1^x2
    # but comes first in the document, and the error names it
    raw = dict(load_scenario("ext3").raw, casimir_form={"x2^x3": "q", "x1^x2": "p"})
    path = tmp_path / "noncasimir.json"
    path.write_text(json.dumps(raw))
    for verb in ("check", "average", "dirac"):
        assert main([verb, str(path)]) == 2
        assert capsys.readouterr().err == (
            "foliavg: error: casimir_form.x2^x3: q is not a Casimir of the bivector\n"
        )


@pytest.mark.parametrize(
    ("key", "value", "where"),
    [
        ("poisson", {"q^p": "cos(th)"}, "poisson.q^p"),
        (
            "connection",
            {"projection": {"q": {"q": "1"}, "p": {"p": "1"}, "x1": {"p": "sin(th)"}}},
            "connection.projection.x1.p",
        ),
        ("momenta", [{"q": "q", "p": "p*cos(th)"}], "momenta[0].p"),
        ("pairing_form", {"x1^x2": "q + th"}, "pairing_form.x1^x2"),
        ("casimir_form", {"x1^x2": "x1*sin(2*th)"}, "casimir_form.x1^x2"),
        ("potential", {"x1": "cos(th)"}, "potential.x1"),
        ("primitives", ["x1*cos(th)"], "primitives[0]"),
    ],
)
def test_an_angle_outside_the_flows_is_an_input_error(tmp_path, capsys, key, value, where):
    # averaging assumes inputs that do not depend on the action angles; the
    # loader refuses them, so no verb reads them
    raw = dict(load_scenario("hb4d").raw, **{key: value})
    path = tmp_path / "angle.json"
    path.write_text(json.dumps(raw))
    for verb in ("check", "average", "dirac"):
        assert main([verb, str(path)]) == 2
        assert capsys.readouterr().err == (
            f"foliavg: error: {where}: depends on the angle 'th'; "
            "angles may appear only in action flows\n"
        )


def test_an_angle_dependent_frame_is_an_input_error_for_every_verb(capsys):
    # the frame case of the test above, as a committed document; check and
    # average used to stop in the averaging, and dirac to pass
    path = Path(__file__).parent / "data" / "hb4d_angle_frame.json"
    for verb in ("check", "average", "dirac"):
        assert main([verb, str(path)]) == 2
        assert capsys.readouterr().err == (
            "foliavg: error: connection.frame.x1.p: depends on the angle 'th'; "
            "angles may appear only in action flows\n"
        )


def test_a_wrong_primitive_fails_check_and_stops_average(capsys):
    path = Path(__file__).parent / "data" / "triv_shifted_wrong_primitive.json"
    assert main(["check", str(path), "--witness"]) == 1
    out = capsys.readouterr().out
    assert "✗ adiabatic: primitive_fix\n    witness: primitive for th does not produce" in out
    assert main(["check", str(path), "--stage", "dirac"]) == 1
    assert capsys.readouterr().out.endswith("✗ dirac: hamiltonian_generators\n")
    # there are no repaired momenta to write
    assert main(["average", str(path)]) == 2
    assert capsys.readouterr().err == (
        "foliavg: error: primitive for th does not produce the defect\n"
    )
    assert main(["dirac", str(path)]) == 0


def test_a_power_too_costly_to_expand_is_an_input_error(capsys):
    # (q+p+cos(th))^60 passes the term bounds, but its last product alone
    # would form 2360 * 3417 term pairs; it is refused before the first
    # product over the budget instead of stalling
    path = Path(__file__).parent / "data" / "hb4d_large_power.json"
    for verb in ("check", "average", "dirac"):
        assert main([verb, str(path)]) == 2
        assert capsys.readouterr().err == (
            "foliavg: error: pairing_form.x1^x2: a 3-term expression to the power 60 "
            "needs a product of 252 and 525 terms, more than 100000 term pairs\n"
        )


@pytest.mark.parametrize("name", ["hb4d_long_literal", "hb4d_huge_coefficient"])
def test_a_number_past_the_digit_bound_is_an_input_error(capsys, name):
    # a 5000-digit literal cannot be read as an int, and 2^20000 (6021
    # digits) cannot be rendered; both are refused before they are formed
    path = Path(__file__).parent / "data" / f"{name}.json"
    for verb in ("check", "average", "dirac"):
        assert main([verb, str(path)]) == 2
        assert capsys.readouterr().err == (
            "foliavg: error: pairing_form.x1^x2: "
            "a number in the expression needs more than 1000 digits\n"
        )


@pytest.mark.parametrize(
    "text",
    [
        pytest.param("(" * 300 + "1" + ")" * 300, id="nested-parentheses"),
        pytest.param("-" * 3000 + "1", id="unary-minus-chain"),
    ],
)
def test_over_deep_nesting_is_an_input_error(tmp_path, capsys, text):
    raw = dict(load_scenario("triv").raw)
    raw["poisson"] = {"q^p": text}
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(raw))
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "foliavg: error: poisson.q^p: expression nests too deeply\n"


def test_non_periodic_flow_is_an_input_error(tmp_path, capsys):
    raw = dict(load_scenario("triv").raw)
    raw["action"] = [{"angle": "th", "flow": {"q": "q + th"}}]
    path = tmp_path / "drift.json"
    path.write_text(json.dumps(raw))
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("foliavg: error:")
    assert "not periodic" in err


T2_ROTATION = {
    "angle": "th1",
    "flow": {"q1": "q1*cos(th1) - p1*sin(th1)", "p1": "q1*sin(th1) + p1*cos(th1)"},
}
T2_CROSSING = {
    "angle": "th2",
    "flow": {"p1": "p1*cos(th2) - q2*sin(th2)", "q2": "p1*sin(th2) + q2*cos(th2)"},
}


@pytest.mark.parametrize(
    ("name", "action", "message"),
    [
        pytest.param(
            "triv", [{"angle": "th", "flow": {"q": "q + sin(th)"}}],
            "flow in 'th' breaks the group law on 'q'",
            id="group-law",
        ),
        pytest.param(
            "triv", [{"angle": "th", "flow": {"q": "2*q"}}],
            "flow in 'th' is not the identity at angle zero",
            id="identity",
        ),
        pytest.param(
            "t2pairs", [T2_ROTATION, T2_CROSSING],
            "factors 'th1' and 'th2' do not commute",
            id="commutation",
        ),
    ],
)
def test_a_flow_that_is_no_action_is_named_at_load(tmp_path, capsys, name, action, message):
    raw = dict(load_scenario(name).raw)
    raw["action"] = action
    path = tmp_path / "flow.json"
    path.write_text(json.dumps(raw))
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err == f"foliavg: error: {message}\n"


def test_a_flow_that_moves_the_base_gets_verdicts(tmp_path, capsys):
    # the flow integral's last piece is not vertical here; no frame is ever
    # shifted by it, so the routes disagree instead of the check stopping
    raw = dict(load_scenario("hb4d").raw)
    raw["action"] = [{
        "angle": "th",
        "flow": {"x1": "x1*cos(th) - x2*sin(th)", "x2": "x1*sin(th) + x2*cos(th)"},
    }]
    path = tmp_path / "base_rotation.json"
    path.write_text(json.dumps(raw))
    assert main(["check", str(path)]) == 1
    out = capsys.readouterr().out
    assert "✗ action: leaf_tangent" in out
    assert "✗ averaging: difference_two_routes" in out


@pytest.mark.parametrize("verb", ["check", "average"])
def test_a_flow_that_mixes_base_and_fiber_is_named(tmp_path, capsys, verb):
    # the averaged projection would leave the vertical bundle; the error
    # names the flow that breaks the foliation, not the connection
    raw = dict(load_scenario("hb4d").raw)
    raw["action"] = [{
        "angle": "th",
        "flow": {"x1": "x1*cos(th) - q*sin(th)", "q": "x1*sin(th) + q*cos(th)"},
    }]
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(raw))
    assert main([verb, str(path)]) == 2
    assert capsys.readouterr().err == (
        "foliavg: error: th flow does not preserve the foliation: it mixes fiber data into x1\n"
    )


# ----------------------------------------------------------------------
# average


def test_average_to_stdout(capsys):
    assert main(["average", "hb4d"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["name"] == "hb4d_averaged"
    assert doc["potential"] == {"x1": "-q*x2"}


def test_average_to_file_round_trips(tmp_path, capsys):
    out = tmp_path / "averaged.json"
    assert main(["average", "hb4d", "-o", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert main(["check", str(out)]) == 0


@pytest.mark.parametrize("target", ["missing/averaged.json", "."], ids=["missing-dir", "a-dir"])
def test_average_write_failure_is_an_input_error(tmp_path, capsys, target):
    out = tmp_path / target
    assert main(["average", "triv", "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"foliavg: error: cannot write {out}: ")
    assert err.count("\n") == 1


def test_average_needs_momenta(tmp_path, capsys):
    raw = dict(load_scenario("triv").raw)
    raw.pop("momenta")
    path = tmp_path / "nomu.json"
    path.write_text(json.dumps(raw))
    assert main(["average", str(path)]) == 2
    assert "momentum one-forms" in capsys.readouterr().err


# ----------------------------------------------------------------------
# dirac


def test_dirac_text_table(capsys):
    assert main(["dirac", "triv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "coupling generators for triv:"
    assert "  e0: field = (1) d/dx1" in out
    assert "      form  = (1) dq" in out


def test_dirac_text_table_keeps_powers_in_coefficients(capsys):
    path = Path(__file__).parent / "data" / "rot_3_1_12.json"
    assert main(["dirac", str(path)]) == 0
    out = capsys.readouterr().out
    assert "      form  = (3/65*q1^13) dx2" in out
    assert re.search(r" \^ d\d", out) is None


def test_dirac_json_table(capsys):
    assert main(["dirac", "hb4d_inv", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["generators"][1] == {
        "field": {"x2": "1"},
        "form": {"x1": "1/2*p^2 + 1/2*q^2"},
    }


def test_dirac_unknown_format_is_an_input_error():
    with pytest.raises(UnknownFormat):
        _cmd_dirac(argparse.Namespace(scenario="triv", format="xml"))


# ----------------------------------------------------------------------
# argparse behavior


def test_missing_subcommand_exits_two():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def test_bad_stage_name_exits_two():
    with pytest.raises(SystemExit) as info:
        main(["check", "triv", "--stage", "bogus"])
    assert info.value.code == 2


# ----------------------------------------------------------------------
# closed stdout


class _ClosedPipe:
    """A stdout whose reader has gone away; its descriptor is a real file."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


def test_closed_stdout_exits_141_without_traceback(tmp_path, capsys, monkeypatch):
    sink = tmp_path / "stdout"
    with open(sink, "wb") as handle:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(handle.fileno()))
        assert main(["check", "triv"]) == 141
        # the descriptor now points at devnull, so a late flush cannot fail
        os.write(handle.fileno(), b"late flush")
    assert sink.read_bytes() == b""
    assert "Traceback" not in capsys.readouterr().err


def test_average_to_closed_stdout_exits_141(tmp_path, capsys, monkeypatch):
    with open(tmp_path / "stdout", "wb") as handle:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(handle.fileno()))
        assert main(["average", "triv"]) == 141
    assert "Traceback" not in capsys.readouterr().err
