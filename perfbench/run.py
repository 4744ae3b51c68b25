"""foliavg benchmark: time to verdict and time to the averaged scenario.

    python3 perfbench/run.py --workload rot_wide --seed 1 --seconds 20 --trace 0

A single-process, single-threaded closed loop: each round loads the
workload's scenarios (setup), runs every check on each (`run_checks`),
averages each (`averaged_scenario`), and then, outside the timed region,
checks every verdict against the expected one and every averaged document
for idempotence.  Rounds repeat until --seconds have passed, after one
untimed warm-up round; each time is the mean over rounds.

Why the mean: on a shared 2-vCPU host the same round alternates between
speed levels up to 1.75x apart in phases of 5-60 s.  The median of a run
then jumps to whichever level held most of the run, while the mean moves
in proportion; over ten 30 s runs on `bundled` the spread between runs
(IQR/median) was 0.34 for per-run medians and 0.19 for per-run means.
The median, quartiles and each round's value are printed beside it.

With --trace 0 the last stdout line carries the end-to-end metrics.  With
--trace 1 it carries the per-layer metrics of one traced round (see
tracer.py and layers.json), and the kept spans are written to
.bench_out/trace-<workload>-<seed>.json.  The line before the result
holds the environment and the sample counts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())

if not (SRC / "foliavg" / "__init__.py").is_file():
    sys.exit(f"perfbench: no foliavg sources under {SRC}")
sys.path.insert(0, str(SRC))
# Calls go through the modules so that the traced run sees them.
from foliavg import action, scenarios  # noqa: E402
from workloads import WORKLOADS, expected_verdicts  # noqa: E402


class Gate:
    """Counts operations attempted and those whose output is wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def _fail(self, what: str) -> None:
        self.failed += 1
        print(f"perfbench: FAILED {what}", file=sys.stderr)

    def verify(self, outputs) -> None:
        for name, report, doc in outputs:
            self.checks(name, report)
            self.average(name, doc)

    def checks(self, name: str, report) -> None:
        expected = expected_verdicts(name)
        got = {} if report is None else {(c.stage, c.check): c.passed for c in report.checks}
        for key in expected.keys() | got.keys():
            self.attempted += 1
            if expected.get(key) != got.get(key):
                self._fail(f"{name} {key}: expected {expected.get(key)}, got {got.get(key)}")

    def average(self, name: str, doc) -> None:
        """Averaging is idempotent: the emitted connection is already averaged."""
        self.attempted += 1
        try:
            s = scenarios.scenario_from_dict(doc)
            ok = action.hannay_berry(s.action, s.conn) == s.conn
        except Exception:  # noqa: BLE001 - any error is a wrong output
            traceback.print_exc()
            ok = False
        if not ok:
            self._fail(f"{name}: averaged document is not a fixed point of averaging")


def _guarded(fn, *args):
    try:
        return fn(*args)
    except Exception:  # noqa: BLE001 - reported by the gate as a wrong output
        traceback.print_exc()
        return None


def _load(source):
    if isinstance(source, str):
        return scenarios.load_scenario(source)
    return scenarios.scenario_from_dict(source)


def run_round(sources, setup_repeats: int = SETUP_REPEATS, op=None) -> tuple[dict, list]:
    """One round: setup, check, average.  Returns the times and the outputs.

    op(kind, name, fn, *args) makes each call; the traced run passes one
    that opens a root span per operation.
    """
    op = op or (lambda kind, name, fn, *args: fn(*args))
    setup = []
    for _ in range(setup_repeats):
        start = perf_counter()
        loaded = [op("setup", "", _load, source) for source in sources]
        setup.append(perf_counter() - start)
    reports, docs = [], []
    start = perf_counter()
    for s in loaded:
        reports.append(op("check", s.name, _guarded, scenarios.run_checks, s))
    check_s = perf_counter() - start
    start = perf_counter()
    for s in loaded:
        docs.append(op("average", s.name, _guarded, scenarios.averaged_scenario, s))
    average_s = perf_counter() - start
    times = {"setup_s": statistics.fmean(setup), "check_s": check_s, "average_s": average_s}
    return times, [(s.name, r, d) for s, r, d in zip(loaded, reports, docs)]


def _rounds(sources, gate: Gate, seconds: float) -> list[dict]:
    rounds = []
    start = perf_counter()
    while not rounds or perf_counter() - start < seconds:
        times, outputs = run_round(sources)
        gate.verify(outputs)
        rounds.append(times)
    return rounds


def _summary(rounds: list[dict]) -> dict:
    out = {}
    for key in rounds[0]:
        values = sorted(r[key] for r in rounds)
        q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
        out[key] = {
            "mean": statistics.fmean(values), "median": statistics.median(values),
            "q1": q[0], "q3": q[2], "samples": len(values), "rounds": [r[key] for r in rounds],
        }
    return out


def end_to_end(sources, gate: Gate, seconds: float) -> tuple[dict, dict]:
    rounds = _rounds(sources, gate, seconds)
    summary = _summary(rounds)
    values = {key: summary[key]["mean"] for key in summary}
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return _report(values, "end_to_end"), summary


def per_layer(sources, gate: Gate, seconds: float, out: Path) -> tuple[dict, dict]:
    """Untraced rounds for half the time, then one traced round."""
    from tracer import LAYERS, STAGE_PREFIX, Tracer

    untraced = _summary(_rounds(sources, gate, seconds / 2))
    tracer = Tracer()
    runs = {"check": 0, "average": 0}
    per_run = {(fn, kind): 0 for fn in LAYERS["per_run"]["functions"] for kind in runs}

    def op(kind, name, fn, *args):
        if kind == "setup":
            return tracer.span("op.setup", fn, *args)
        before = {fn_name: tracer.calls[fn_name] for fn_name, _ in per_run}
        result = tracer.span(f"op.{kind}.{name}", fn, *args)
        runs[kind] += 1
        for fn_name, k in per_run:
            if k == kind:
                per_run[fn_name, k] += tracer.calls[fn_name] - before[fn_name]
        return result

    tracer.install()
    try:
        traced, outputs = run_round(sources, setup_repeats=1, op=op)
    finally:
        tracer.uninstall()
    gate.verify(outputs)

    values: dict[str, float] = {}
    for name, calls in tracer.calls.items():
        if name.startswith(STAGE_PREFIX):
            values[f"{name}.s"] = tracer.total_ns[name] / 1e9
        else:
            values[f"{name}.calls"] = calls
            if name in tracer.self_ns:
                values[f"{name}.self_s"] = tracer.self_ns[name] / 1e9
    values["symcalc.peak_terms"] = tracer.peak_terms
    for (fn_name, kind), calls in per_run.items():
        values[f"{fn_name}.per_run.{kind}"] = calls / runs[kind]
    values["trace_overhead_s"] = traced["check_s"] - untraced["check_s"]["mean"]

    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({
        "span_fields": ["name", "parent", "root", "start_ns", "end_ns"],
        "spans": tracer.spans,
        "metrics": values,
    }))
    return _report(values, "per_layer"), {
        "untraced": untraced, "traced_round": traced, "spans": len(tracer.spans),
    }


def _report(values: dict, kind: str) -> dict:
    """The BENCHMARK.json metrics of one kind, each with its unit."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in MANIFEST[kind]}


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def environment(workload: str, seed: int) -> dict:
    cpu = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        platform.processor(),
    )
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "commit": _git_commit(),
        "workload": workload,
        "seed": seed,
        "hash_seed": os.environ.get("PYTHONHASHSEED", "random"),
        "loadavg": _read("/proc/loadavg").split()[:3],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    env = environment(args.workload, args.seed)
    sources = WORKLOADS[args.workload][1](args.seed)
    gate = Gate()
    gate.verify(run_round(sources)[1])  # warm-up: fills lazy caches
    if args.trace:
        out = ROOT / ".bench_out" / f"trace-{args.workload}-{args.seed}.json"
        metrics, detail = per_layer(sources, gate, args.seconds, out)
    else:
        metrics, detail = end_to_end(sources, gate, args.seconds)
    print(json.dumps({"env": env, "ops": gate.attempted, "failed_ops": gate.failed, **detail}))
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
