"""Scenario files and the staged verification pipeline.

A scenario is a JSON document holding a chart, a vertical bivector, a
connection, circle flows, and optional momentum data, pairing forms and
primitives.  Loading validates eagerly; running produces a deterministic
report of exact verdicts, stage by stage.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources
from pathlib import Path
from typing import Callable, Sequence

from . import action as action_mod
from . import dirac as dirac_mod
from . import hamcurv
from .errors import (
    FoliavgError,
    InvariantViolation,
    NonClosedOrbitCoefficients,
    NotACocycle,
    NotComplementary,
    NotHorizontal,
    NotVertical,
    ParseError,
    PrimitiveMismatch,
    SchemaError,
    UnknownFormat,
    UnknownSymbol,
)
from .foliation import Connection, graded_derivative, is_horizontal_form, verify_connection
from .geom import DiffForm, VecValuedForm, VectorField
from .poisson import PoissonBivector, verify_jacobi, verify_poisson_connection
from .symcalc import Chart, Scalar, parse, render

SCHEMA_VERSION = 1

_TOP_KEYS = {
    "schema", "name", "description", "chart", "poisson", "connection",
    "action", "momenta", "pairing_form", "casimir_form", "primitives",
    "potential",
}
_REQUIRED = ("schema", "name", "chart", "poisson", "connection", "action")


@dataclass(frozen=True)
class Scenario:
    name: str
    description: str
    chart: Chart
    P: PoissonBivector
    conn: Connection
    action: action_mod.TorusAction
    momenta: tuple[DiffForm, ...] | None
    sigma: DiffForm | None
    casimir: DiffForm | None
    primitives: tuple[Scalar, ...] | None
    potential: DiffForm | None
    raw: dict = field(repr=False)


# ----------------------------------------------------------------------
# parsing


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise SchemaError(message)


def _parsed(chart: Chart, text, where: str) -> Scalar:
    _expect(isinstance(text, str), f"{where}: expected an expression string")
    try:
        return parse(chart, text)
    except (ParseError, UnknownSymbol) as exc:
        raise type(exc)(f"{where}: {exc}") from None


def _expr(chart: Chart, text, where: str) -> Scalar:
    """An expression free of the torus angles.  Averaging assumes that its
    inputs do not depend on the action angles, so angles may appear only in
    the action flows, which :func:`_torus_action` reads with :func:`_parsed`."""
    value = _parsed(chart, text, where)
    angles = value.free_symbols().intersection(chart.angles)
    if angles:
        raise NonClosedOrbitCoefficients(
            f"{where}: depends on the angle {min(angles)!r}; "
            "angles may appear only in action flows"
        )
    return value


def _require(require: Callable[[str], None], name: str, where: str) -> None:
    """Call a chart's ``require`` check, prefixing its error with ``where``."""
    try:
        require(name)
    except UnknownSymbol as exc:
        raise UnknownSymbol(f"{where}: {exc}") from None


def _wedge_key(chart: Chart, key: str, degree: int, where: str) -> tuple[str, ...]:
    names = tuple(key.split("^"))
    _expect(
        len(names) == degree,
        f"{where}: key {key!r} does not name {degree} coordinate(s)",
    )
    _expect(len(set(names)) == degree, f"{where}: key {key!r} repeats a coordinate")
    for name in names:
        _require(chart.require_coord, name, f"{where}.{key}")
    return names


def _form(chart: Chart, degree: int, obj, where: str) -> DiffForm:
    _expect(isinstance(obj, dict), f"{where}: expected a coefficient table")
    comps = {}
    for key, text in obj.items():
        comps[_wedge_key(chart, key, degree, where)] = _expr(chart, text, f"{where}.{key}")
    return DiffForm.from_dict(chart, degree, comps)


def _horizontal_form(chart: Chart, degree: int, raw: dict, key: str) -> DiffForm | None:
    if key not in raw:
        return None
    form = _form(chart, degree, raw[key], key)
    if not is_horizontal_form(form):
        raise NotHorizontal(f"{key}: expected a horizontal {('one', 'two')[degree - 1]}-form")
    return form


def _chart(obj) -> Chart:
    _expect(isinstance(obj, dict), "chart: expected an object")
    _expect(
        set(obj) == {"horizontal", "vertical", "angles"},
        "chart: needs exactly the keys horizontal, vertical, angles",
    )
    for key in ("horizontal", "vertical", "angles"):
        names = obj[key]
        _expect(
            isinstance(names, list) and all(isinstance(n, str) for n in names),
            f"chart.{key}: expected a list of names",
        )
    try:
        return Chart(obj["horizontal"], obj["vertical"], obj["angles"])
    except FoliavgError as exc:
        raise SchemaError(f"chart: {exc}") from None


def _connection(chart: Chart, obj) -> Connection:
    _expect(isinstance(obj, dict), "connection: expected an object")
    if set(obj) == {"frame"}:
        table = obj["frame"]
        _expect(isinstance(table, dict), "connection.frame: expected an object")
        coeffs = {}
        for base, row in table.items():
            where = f"connection.frame.{base}"
            _expect(isinstance(row, dict), f"{where}: expected an object")
            if base not in chart.horizontal:
                raise NotComplementary(f"{where}: {base!r} is not a base coordinate")
            for vert, text in row.items():
                if vert not in chart.vertical:
                    raise NotVertical(f"{where}.{vert}: {vert!r} is not a fiber coordinate")
                coeffs[(base, vert)] = _expr(chart, text, f"{where}.{vert}")
        return Connection(chart, coeffs)
    if set(obj) == {"projection"}:
        table = obj["projection"]
        _expect(isinstance(table, dict), "connection.projection: expected an object")
        items = {}
        for source, row in table.items():
            where = f"connection.projection.{source}"
            _expect(isinstance(row, dict), f"{where}: expected an object")
            _require(chart.require_coord, source, where)
            comps = {}
            for target, text in row.items():
                _require(chart.require_coord, target, f"{where}.{target}")
                comps[target] = _expr(chart, text, f"{where}.{target}")
            items[(source,)] = VectorField.from_dict(chart, comps)
        gamma = VecValuedForm.from_dict(chart, 1, items)
        try:
            return Connection.from_projection(gamma)
        except (NotVertical, NotComplementary) as exc:
            raise InvariantViolation(f"connection.projection: {exc}") from None
    raise SchemaError("connection: needs exactly one of the keys frame, projection")


def _torus_action(chart: Chart, obj) -> action_mod.TorusAction:
    _expect(isinstance(obj, list) and obj, "action: expected a nonempty list")
    factors = []
    for k, entry in enumerate(obj):
        where = f"action[{k}]"
        _expect(
            isinstance(entry, dict) and set(entry) == {"angle", "flow"},
            f"{where}: needs exactly the keys angle, flow",
        )
        angle = entry["angle"]
        _expect(isinstance(angle, str), f"{where}.angle: expected a name")
        _require(chart.require_angle, angle, f"{where}.angle")
        flow = entry["flow"]
        _expect(isinstance(flow, dict), f"{where}.flow: expected an object")
        mapping = {}
        for name, text in flow.items():
            _require(chart.require_coord, name, f"{where}.flow.{name}")
            mapping[name] = _parsed(chart, text, f"{where}.flow.{name}")
        factors.append(action_mod.FlowFactor(chart, angle, mapping))
    return action_mod.TorusAction(chart, tuple(factors))


def bundled_names() -> list[str]:
    """Names of the scenarios shipped inside the package."""
    root = resources.files(__package__).joinpath("data")
    return sorted(p.name[: -len(".json")] for p in root.iterdir() if p.name.endswith(".json"))


def load_scenario(source: str | Path) -> Scenario:
    """Load and eagerly validate a scenario from a path or a bundled name."""
    path = Path(source)
    if path.suffix == ".json" or path.exists():
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise SchemaError(f"cannot read {path}: {exc}") from None
    else:
        entry = resources.files(__package__).joinpath("data").joinpath(f"{source}.json")
        if not entry.is_file():
            raise SchemaError(
                f"{source!r} is neither a file nor a bundled scenario "
                f"(bundled: {', '.join(bundled_names())})"
            )
        text = entry.read_text(encoding="utf-8")
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and the decoder's own limits, as
        # on the digits of an integer; RecursionError, nesting too deep
        raise ParseError(f"{source}: not valid JSON: {exc}") from None
    return scenario_from_dict(raw)


def scenario_from_dict(raw) -> Scenario:
    _expect(isinstance(raw, dict), "scenario: expected a JSON object")
    unknown = set(raw) - _TOP_KEYS
    _expect(not unknown, f"scenario: unknown keys {sorted(unknown)}")
    for key in _REQUIRED:
        _expect(key in raw, f"scenario: missing required key {key!r}")
    _expect(
        type(raw["schema"]) is int and raw["schema"] == SCHEMA_VERSION,
        "scenario: unsupported schema version",
    )
    _expect(isinstance(raw["name"], str), "name: expected a string")
    _expect(isinstance(raw.get("description", ""), str), "description: expected a string")

    chart = _chart(raw["chart"])

    _expect(isinstance(raw["poisson"], dict), "poisson: expected an object")
    pair_comps = {}
    for key, text in raw["poisson"].items():
        pair_comps[_wedge_key(chart, key, 2, "poisson")] = _expr(chart, text, f"poisson.{key}")
    P = PoissonBivector.from_dict(chart, pair_comps)

    conn = _connection(chart, raw["connection"])
    action = _torus_action(chart, raw["action"])

    momenta = None
    if "momenta" in raw:
        entries = raw["momenta"]
        _expect(isinstance(entries, list), "momenta: expected a list")
        _expect(
            len(entries) == len(action.factors),
            "momenta: expected one one-form per action factor",
        )
        momenta = tuple(
            _form(chart, 1, entry, f"momenta[{k}]") for k, entry in enumerate(entries)
        )

    sigma = _horizontal_form(chart, 2, raw, "pairing_form")
    casimir = _horizontal_form(chart, 2, raw, "casimir_form")
    if casimir is not None:
        # the image keeps the document order of the coefficients; name its first
        for idx in P.hamiltonian_image(casimir).comps:
            key = "^".join(chart.coords[i] for i in idx)
            coef = render(casimir.comps[idx])
            raise InvariantViolation(
                f"casimir_form.{key}: {coef} is not a Casimir of the bivector"
            )
    potential = _horizontal_form(chart, 1, raw, "potential")

    primitives = None
    if "primitives" in raw:
        entries = raw["primitives"]
        _expect(isinstance(entries, list), "primitives: expected a list")
        _expect(
            len(entries) == len(action.factors),
            "primitives: expected one function per action factor",
        )
        primitives = tuple(
            _expr(chart, entry, f"primitives[{k}]") for k, entry in enumerate(entries)
        )

    return Scenario(
        name=raw["name"],
        description=raw.get("description", ""),
        chart=chart,
        P=P,
        conn=conn,
        action=action,
        momenta=momenta,
        sigma=sigma,
        casimir=casimir,
        primitives=primitives,
        potential=potential,
        raw=raw,
    )


# ----------------------------------------------------------------------
# the pipeline


class _Pipeline:
    """The objects that several stages share, each computed once per run.

    - ``walk``: the connection followed by its averages over the first k
      circle factors, one ``averaging_walk`` call;
    - ``averaged``: the averaged connection, the walk's last entry;
    - ``potential``: the Hamiltonian potential, read off the walk's earlier
      entries by ``potential_along``;
    - the pieces of the potential Q, which the ``averaging`` and
      ``averaged_form`` stages and ``sigma_bar`` all read:
      ``d_potential``, its base-degree derivative D^{1,0}Q;
      ``half_bracket``, its half self-bracket (1/2){Q, Q};
      ``correction``, their sum, the averaging correction; and
      ``difference``, the valued one-form ``difference_from_potential``;
    - ``sigma_bar``: the averaged pairing form, the pairing form minus the
      correction;
    - ``d_sigma``: the base-degree derivative of the pairing form, which
      the ``admissible`` witness and the identity residuals read;
    - ``admissible``: the admissibility witness of the pairing form;
    - ``adiabatic``: the adiabatic witness of the momenta, from ``averaged``;
    - ``momentum_fix``: the momenta repaired by the primitives when that
      witness fails, and None; or, when the repair fails, the momenta as
      given and its error.  The repair is attempted once per run, and
      without primitives the witness is never asked for;
    - ``coupling``: the coupling Dirac structure of the averaged data.

    Each is built on first use, so a run charges it to the first stage that
    needs it.
    """

    def __init__(self, s: Scenario) -> None:
        self.s = s

    @cached_property
    def sigma(self) -> DiffForm:
        return self.s.sigma if self.s.sigma is not None else DiffForm.zero(self.s.chart, 2)

    @cached_property
    def casimir(self) -> DiffForm:
        return self.s.casimir if self.s.casimir is not None else DiffForm.zero(self.s.chart, 2)

    @cached_property
    def walk(self) -> list[Connection]:
        return list(action_mod.averaging_walk(self.s.action, self.s.conn))

    @cached_property
    def averaged(self) -> Connection:
        return self.walk[-1]

    @cached_property
    def potential(self) -> DiffForm:
        return action_mod.potential_along(self.s.action, self.walk, self.s.momenta)

    @cached_property
    def d_potential(self) -> DiffForm:
        return graded_derivative(self.s.conn, self.potential, (1, 0))

    @cached_property
    def half_bracket(self) -> DiffForm:
        return hamcurv.half_self_bracket(self.s.P, self.potential)

    @cached_property
    def correction(self) -> DiffForm:
        return self.d_potential + self.half_bracket

    @cached_property
    def difference(self) -> VecValuedForm:
        return action_mod.difference_from_potential(self.s.P, self.potential)

    @cached_property
    def sigma_bar(self) -> DiffForm:
        # hamcurv.averaged_hamiltonian_form, on the shared correction; the
        # pairing form was checked horizontal when the scenario was loaded
        return self.sigma - self.correction

    @cached_property
    def d_sigma(self) -> DiffForm:
        # the pairing form was checked horizontal when the scenario was loaded
        return graded_derivative(self.s.conn, self.sigma, (1, 0))

    @cached_property
    def admissible(self) -> str | None:
        return hamcurv.admissible_witness(self.d_sigma)

    @cached_property
    def adiabatic(self) -> str | None:
        return hamcurv.adiabatic_witness(self.s.action, self.s.conn, self.averaged, self.s.momenta)

    @cached_property
    def momentum_fix(self) -> tuple[tuple[DiffForm, ...], FoliavgError | None]:
        s = self.s
        if s.momenta is None:
            raise SchemaError("scenario has no momentum one-forms")
        if s.primitives is None or self.adiabatic is None:
            return s.momenta, None
        try:
            fixed = hamcurv.adiabatic_fix(s.action, s.conn, s.P, s.momenta, s.primitives)
        except (NotACocycle, PrimitiveMismatch) as exc:
            return s.momenta, exc
        return tuple(fixed), None

    @cached_property
    def coupling(self) -> dirac_mod.DiracData:
        return dirac_mod.build_coupling_dirac(
            self.averaged, self.sigma_bar + self.casimir, self.s.P
        )


Check = tuple[str, str | None]


def _stage_connection(p: _Pipeline) -> list[Check]:
    return [("projection_shape", verify_connection(p.s.conn))]


def _stage_poisson(p: _Pipeline) -> list[Check]:
    return [
        ("jacobi", verify_jacobi(p.s.P)),
        ("frame_preserves_bivector", verify_poisson_connection(p.s.conn, p.s.P)),
    ]


def _stage_action(p: _Pipeline) -> list[Check]:
    return list(action_mod.verify_action(p.s.action, p.s.P).items())


def _stage_premomentum(p: _Pipeline) -> list[Check]:
    witness = action_mod.verify_premomentum(p.s.action, p.s.P, p.s.momenta)
    return [("sharp_and_leafwise_closed", witness)]


def _stage_averaging(p: _Pipeline) -> list[Check]:
    s = p.s
    # p.averaged and p.potential share the partial averages of p.walk, and
    # the routes stay independent: each telescoped step is still decided
    # twice, once by the Haar average of the pulled-back projection and once
    # by the running integral of the pairing followed by sharp-d.  The flow
    # integral runs on its own shifted frames.  Each factor reads the two
    # functionals off two separate tables, so no averaged value computed for
    # one route is reused by the other; recomputing a partial average with
    # the same function would prove nothing more.
    direct = s.conn.difference(p.averaged)
    via_flows = action_mod.difference_via_flow_integral(s.action, s.conn)
    checks = [(
        "difference_two_routes",
        None if via_flows == direct else "flow-integral route disagrees with direct averaging",
    )]
    if s.momenta is not None:
        checks.append((
            "difference_is_hamiltonian",
            None if direct == p.difference
            else "difference is not the sharp of the potential differential",
        ))
        checks.append((
            "averaged_curvature_transition",
            hamcurv.curvature_transition_witness(s.conn, s.P, p.averaged, p.correction),
        ))
    return checks


def _stage_curvature_form(p: _Pipeline) -> list[Check]:
    s = p.s
    return [
        ("hamiltonian_curvature", hamcurv.verify_hamiltonian_curvature(s.conn, s.P, p.sigma)),
        ("admissible", p.admissible),
    ]


def _stage_averaged_form(p: _Pipeline) -> list[Check]:
    s = p.s
    checks = [
        ("averaged_frame_poisson", verify_poisson_connection(p.averaged, s.P)),
        (
            "averaged_hamiltonian_curvature",
            hamcurv.verify_hamiltonian_curvature(p.averaged, s.P, p.sigma_bar),
        ),
    ]
    if p.admissible is None:
        checks.append((
            "admissibility_preserved",
            hamcurv.verify_admissible(p.averaged, p.sigma_bar),
        ))
    residuals = hamcurv.identity_residuals(
        s.conn, s.P, p.sigma, p.potential, p.d_sigma, p.d_potential, p.half_bracket, p.difference
    )
    for name, form in residuals.items():
        checks.append((
            name,
            None if form.is_zero else f"residual {_render_form(form)}",
        ))
    return checks


def _stage_adiabatic(p: _Pipeline) -> list[Check]:
    s = p.s
    witness = p.adiabatic
    checks = [("horizontal_momentum_average", witness)]
    if witness is not None and s.primitives is not None:
        fixed, error = p.momentum_fix
        checks.append((
            "primitive_fix",
            str(error) if error is not None
            else hamcurv.adiabatic_witness(s.action, s.conn, p.averaged, fixed),
        ))
    return checks


def _stage_dirac(p: _Pipeline) -> list[Check]:
    s = p.s
    D = p.coupling
    checks = [
        ("lagrangian", dirac_mod.verify_lagrangian(D)),
        ("involutive", dirac_mod.verify_involutive(D)),
        ("g_invariant", dirac_mod.verify_g_invariance(s.action, D)),
    ]
    if s.momenta is not None:
        checks.append((
            "hamiltonian_generators",
            # after a failed repair (primitive_fix), the momenta as given
            dirac_mod.hamiltonian_generator_check(s.action, p.momentum_fix[0], D),
        ))
    return checks


_STAGES: tuple[tuple[str, bool, Callable[[_Pipeline], list[Check]]], ...] = (
    ("connection", False, _stage_connection),
    ("poisson", False, _stage_poisson),
    ("action", False, _stage_action),
    ("premomentum", True, _stage_premomentum),
    ("averaging", False, _stage_averaging),
    ("curvature_form", False, _stage_curvature_form),
    ("averaged_form", True, _stage_averaged_form),
    ("adiabatic", True, _stage_adiabatic),
    ("dirac", True, _stage_dirac),
)

STAGE_NAMES = tuple(name for name, _, _ in _STAGES)


@dataclass(frozen=True)
class CheckResult:
    stage: str
    check: str
    passed: bool
    witness: str | None


@dataclass(frozen=True)
class Report:
    scenario: str
    stages: tuple[str, ...]
    skipped: tuple[tuple[str, str], ...]
    checks: tuple[CheckResult, ...]
    elapsed_s: float

    @property
    def failures(self) -> int:
        return sum(1 for c in self.checks if not c.passed)

    @property
    def all_passed(self) -> bool:
        return self.failures == 0


def run_checks(s: Scenario, stages: Sequence[str] | None = None) -> Report:
    """Run pipeline stages in dependency order and collect exact verdicts.

    With an explicit selection, a stage whose data is missing raises
    SchemaError; by default such stages are skipped and noted.
    """
    if stages is not None:
        unknown = set(stages) - set(STAGE_NAMES)
        if unknown:
            raise SchemaError(
                f"unknown stage(s) {sorted(unknown)}; known: {', '.join(STAGE_NAMES)}"
            )
    selected = set(STAGE_NAMES if stages is None else stages)
    pipeline = _Pipeline(s)
    started = time.perf_counter()
    ran: list[str] = []
    skipped: list[tuple[str, str]] = []
    results: list[CheckResult] = []
    for name, needs_momenta, runner in _STAGES:
        if name not in selected:
            continue
        if needs_momenta and s.momenta is None:
            if stages is not None:
                raise SchemaError(
                    f"stage {name!r} needs momentum one-forms, "
                    f"but scenario {s.name!r} has none"
                )
            skipped.append((name, "no momentum one-forms in the scenario"))
            continue
        ran.append(name)
        for check, witness in runner(pipeline):
            results.append(CheckResult(name, check, witness is None, witness))
    return Report(
        scenario=s.name,
        stages=tuple(ran),
        skipped=tuple(skipped),
        checks=tuple(results),
        elapsed_s=time.perf_counter() - started,
    )


# ----------------------------------------------------------------------
# rendering


def _render_form(form: DiffForm) -> str:
    chart = form.chart
    parts = []
    for idx, coef in sorted(form.comps.items()):
        wedge = "^".join("d" + chart.coords[i] for i in idx)
        parts.append(f"({render(coef)}) {wedge}" if wedge else render(coef))
    return " + ".join(parts) if parts else "0"


def render_report(report: Report, fmt: str = "text", witness: bool = False) -> str:
    if fmt == "json":
        checks = []
        for c in report.checks:
            entry: dict = {"stage": c.stage, "check": c.check, "pass": c.passed}
            if witness:
                entry["witness"] = c.witness
            checks.append(entry)
        doc = {
            "schema": SCHEMA_VERSION,
            "scenario": report.scenario,
            "stages": list(report.stages),
            "skipped": [{"stage": n, "reason": r} for n, r in report.skipped],
            "checks": checks,
            "failures": report.failures,
            "elapsed_ms": round(report.elapsed_s * 1000.0, 3),
        }
        return json.dumps(doc, indent=2)
    if fmt == "text":
        verdict = "all passed" if report.all_passed else f"{report.failures} failed"
        lines = [
            f"scenario {report.scenario}: {len(report.checks)} checks, "
            f"{verdict} ({report.elapsed_s * 1000.0:.0f} ms)"
        ]
        for c in report.checks:
            mark = "✓" if c.passed else "✗"
            lines.append(f"{mark} {c.stage}: {c.check}")
            if witness and c.witness is not None:
                lines.append(f"    witness: {c.witness}")
        for name, reason in report.skipped:
            lines.append(f"- {name}: skipped ({reason})")
        return "\n".join(lines)
    raise UnknownFormat(f"unknown report format {fmt!r}")


# ----------------------------------------------------------------------
# emission


def _form_table(form: DiffForm) -> dict[str, str]:
    chart = form.chart
    return {
        "^".join(chart.coords[i] for i in idx): render(coef)
        for idx, coef in sorted(form.comps.items())
    }


def _frame_table(conn: Connection) -> dict[str, dict[str, str]]:
    table: dict[str, dict[str, str]] = {}
    for (base, vert), coef in conn.coeffs.items():
        table.setdefault(base, {})[vert] = render(coef)
    return {base: table[base] for base in sorted(table)}


def averaged_scenario(s: Scenario) -> dict:
    """A new scenario document with the averaged connection, the potential,
    and the averaged pairing form; momentum fixes are applied when present.
    A failed fix leaves no repaired momenta to write, so its error is
    raised."""
    if s.momenta is None:
        raise SchemaError("averaging a scenario needs momentum one-forms")
    p = _Pipeline(s)
    out = dict(s.raw)
    out["name"] = s.name + "_averaged"
    out["description"] = (
        "averaged form of " + s.name + (": " + s.description if s.description else "")
    )
    out["connection"] = {"frame": _frame_table(p.averaged)}
    out["pairing_form"] = _form_table(p.sigma_bar)
    out["potential"] = _form_table(p.potential)
    momenta, error = p.momentum_fix
    if error is not None:
        raise error
    out["momenta"] = [_form_table(mu) for mu in momenta]
    out.pop("primitives", None)
    return out


def generator_table(s: Scenario) -> dict:
    """The coupling generators of the scenario data as given."""
    p = _Pipeline(s)
    D = dirac_mod.build_coupling_dirac(s.conn, p.sigma, s.P)
    rows = []
    for gen in D.generators:
        field_table = {
            s.chart.coords[i]: render(comp) for (i,), comp in sorted(gen.X.comps.items())
        }
        rows.append({"field": field_table, "form": _form_table(gen.alpha)})
    return {"schema": SCHEMA_VERSION, "scenario": s.name, "generators": rows}
