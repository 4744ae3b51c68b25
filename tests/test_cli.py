"""Command-line entry point: verbs, formats, exit codes."""

import argparse
import errno
import json
import os
import sys

import pytest

from foliavg.cli import _cmd_dirac, main
from foliavg.errors import (
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
        pytest.param(SchemaError, "poisson", {"q^q": "1"}, id="SchemaError-poisson"),
        pytest.param(SchemaError, "description", 5, id="SchemaError-description"),
        pytest.param(
            ParseError, "poisson", {"q^p": "(q+p+x1+x2+cos(th))^20"}, id="ParseError-power"
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
