"""Layered benchmark of the agentgauge CLI.

    python3 bench/run_bench.py --workload default-24 --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository; the CLI is imported from ``src/``.
Load is a closed loop: one command at a time from this process, each with at
most ``--workers 2``.

``--trace 0`` repeats the workload's command until ``--seconds`` have passed
and reports the median of each end-to-end metric over those commands.
``--trace 1`` runs the command at ``--workers 2`` (for the workloads that use
it), untraced at ``--workers 1`` (the serial wall time and the tracing-overhead
base) and traced at ``--workers 1`` (every call in one process, see
``tracing.py``), and reports per-layer metrics from the traced command.

Every command must exit 0 and its outputs must check out: ``report.json``
validates against the shipped schema, repeated commands and different worker
counts produce byte-identical reports, and the example study keeps its
documented phase orderings.  The sha256 of each report is compared with the
last one recorded for the same workload and seed in ``bench/out``.

The last line of standard output is one JSON object with ``correct``,
``attempted`` and ``failed`` (commands) and the metrics BENCHMARK.json names
for the chosen trace mode.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing
from workloads import EXTERNAL_AGENT, WORKLOADS, Workload, cli_args, config_text

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
RUN_DEADLINE_S = 170.0     # a run must end within 180 s, result line included


@dataclass
class Command:
    """One finished CLI command and what it cost."""

    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    setup_s: float
    output: Path
    log: str
    digest: str = ""
    problems: list[str] = field(default_factory=list)


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run_command(cli: list[str], work: Path, timeout_s: float,
                trace_path: Path | None = None) -> Command:
    """Run ``agentgauge <cli>`` through launch.py and measure it.

    Wall time runs from just before the spawn to the reaped exit.  CPU time
    and peak RSS come from ``wait4``, which covers the command and every
    worker process it waited for.
    """
    marks_path = work / "marks.json"
    marks_path.unlink(missing_ok=True)
    argv = [sys.executable, str(BENCH / "launch.py"), "--marks", str(marks_path)]
    if trace_path is not None:
        argv += ["--trace", str(trace_path)]
    argv += ["--", *cli]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    log_path = work / "command.log"
    with open(log_path, "w", encoding="utf-8") as log:
        spawned = time.monotonic()
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=log,
                                stderr=subprocess.STDOUT, start_new_session=True)
        timer = threading.Timer(timeout_s, _kill_group, [proc.pid])
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)   # nothing of the command may outlive it
    marks = json.loads(marks_path.read_text()) if marks_path.exists() else {}
    setup_end = marks.get("setup_end")
    return Command(
        code=proc.returncode, wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        setup_s=(setup_end - spawned) if setup_end is not None else float("nan"),
        output=work, log=log_path.read_text(errors="replace")[-2000:])


# ---------------------------------------------------------------- outputs


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_run_output(command: Command) -> dict:
    """Validate report.json; return it (empty when missing or invalid)."""
    import jsonschema

    path = command.output / "report.json"
    if not path.exists():
        command.problems.append("report.json missing")
        return {}
    command.digest = _sha256(path)
    report = json.loads(path.read_text())
    schema = json.loads((SRC / "agentgauge" / "schemas" / "report-v1.json").read_text())
    try:
        jsonschema.validate(report, schema)
    except jsonschema.ValidationError as exc:
        command.problems.append(f"report.json fails the shipped schema: {exc.message}")
    return report


def check_study_output(command: Command) -> dict:
    """Check the documented phase orderings of study.json; return it."""
    path = command.output / "study.json"
    if not path.exists():
        command.problems.append("study.json missing")
        return {}
    command.digest = _sha256(path)
    study = json.loads(path.read_text())
    order = study["phase_ordering"]
    short, medium = order["short_2_101"], order["medium_102_5001"]
    if not short.index("pi_1") < short.index("pi_2"):
        command.problems.append(f"short phase: pi_1 not above pi_2 ({short})")
    if not medium.index("pi_2") < medium.index("pi_1"):
        command.problems.append(f"medium phase: pi_2 not above pi_1 ({medium})")
    return study


def failed_share(report: dict) -> tuple[float, int]:
    """Failed rollouts over rollouts attempted, with the attempted count."""
    failed = attempted = 0
    for row in report.get("environments", []):
        for value in row["values"].values():
            failed += value["failed"]
            attempted += value["episodes"] + value["failed"]
    return (failed / attempted if attempted else 0.0), attempted


def timeout_share(report: dict, requested: int) -> float:
    """External timeout warnings over the actions requested from the agent."""
    warnings = report.get("external_timeout_warnings", {}).get(EXTERNAL_AGENT, 0)
    return warnings / requested if requested else 0.0


def score_ci(document: dict) -> float:
    """Mean per-agent score CI half-width (study: widest discounted-value one).

    The mean, not the widest, because each agent's width is driven by a few
    heavy-tailed classes: the widest moved by about 0.2 of its median from
    seed to seed on default-24, the mean by about 0.1.
    """
    if "agents" in document:
        widths = [a["ci_half_width"] for a in document["agents"].values()]
        return sum(widths) / len(widths)
    return max(v["ci_half_width"] for by_gamma in document["discounted_values"].values()
               for v in by_gamma.values())


def compare_ci(report: dict) -> float | None:
    widths = [c["ci_high"] - c["ci_low"] for c in report.get("comparisons", [])]
    return sum(widths) / len(widths) if widths else None


# ---------------------------------------------------------------- workload set-up


class Session:
    """One benchmark invocation: the workload's files under bench/out."""

    def __init__(self, workload: Workload, seed: int, tiny: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.tiny = tiny
        self.work = OUT / workload.name / f"seed-{seed}{'-tiny' if tiny else ''}"
        self.started = time.perf_counter()

    def remaining(self) -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - self.started)

    def prepare(self, label: str, workers: int) -> list[str]:
        """Fresh output directory (and config) for one variant; return CLI args."""
        variant = self.work / label
        shutil.rmtree(variant, ignore_errors=True)
        variant.mkdir(parents=True)
        config = variant / "config.cfg"
        if self.workload.command == "run":
            config.write_text(config_text(
                self.workload, self.seed, str(variant), str(BENCH / "responder.py"),
                str(variant / "responder.json"), self.tiny), encoding="utf-8")
        return cli_args(self.workload, self.seed, str(variant), str(config), workers,
                        self.tiny)

    def run(self, label: str, workers: int, trace_path: Path | None = None) -> tuple:
        cli = self.prepare(label, workers)
        command = run_command(cli, self.work / label, max(1.0, self.remaining()),
                              trace_path)
        if command.code != 0:
            command.problems.append(f"{label}: exit code {command.code}: {command.log}")
            return command, {}
        if self.workload.command == "run":
            return command, check_run_output(command)
        return command, check_study_output(command)

    def requested_actions(self, label: str) -> int:
        path = self.work / label / "responder.json"
        return json.loads(path.read_text())["percepts"] if path.exists() else 0


# ---------------------------------------------------------------- environment


def environment(seed: int) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = ""
    if (ROOT / ".git").exists():    # an exported checkout has no commit to name
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    lines = sum(len(p.read_text().splitlines())
                for p in (SRC / "agentgauge").glob("*.py"))
    return {"cpu_model": cpu, "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_commit": commit or "unknown", "seed": seed, "src_lines": lines}


def compare_with_record(key: str, digest: str, commit: str) -> str:
    """Compare a report hash with the last record for `key`, then record it."""
    path = OUT / "records.json"
    records = json.loads(path.read_text()) if path.exists() else {}
    previous = records.get(key)
    records[key] = {"sha256": digest, "commit": commit}
    OUT.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(records, indent=1, sort_keys=True), encoding="utf-8")
    tmp.replace(path)
    if previous is None:
        return "no previous record"
    if previous["sha256"] == digest:
        return f"matches previous record (commit {previous['commit']})"
    return f"DIFFERS from previous record {previous['sha256'][:12]} (commit {previous['commit']})"


# ---------------------------------------------------------------- the two modes


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, and its value."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def measure_end_to_end(session: Session, seconds: float) -> dict:
    """Repeat the command for `seconds`; medians of the end-to-end metrics."""
    workload = session.workload
    commands: list[Command] = []
    documents: list[dict] = []
    started = time.perf_counter()
    while not commands or time.perf_counter() - started < seconds:
        if commands and session.remaining() < 1.5 * max(c.wall_s for c in commands):
            break
        command, document = session.run("measured", workload.workers)
        commands.append(command)
        documents.append(document)
        if command.problems:
            break
    problems = [p for c in commands for p in c.problems]
    digests = {c.digest for c in commands if c.digest}
    if len(digests) > 1:
        problems.append(f"repeated commands wrote different reports: {sorted(digests)}")
    ok = [c for c in commands if c.code == 0]
    document = documents[-1]
    metrics: dict[str, tuple[float, str, int]] = {}
    if ok:
        n = len(ok)
        metrics["run_s"] = (statistics.median([c.wall_s for c in ok]), "s", n)
        metrics["setup_s"] = (statistics.median([c.setup_s for c in ok]), "s", n)
        metrics["cpu_s"] = (statistics.median([c.cpu_s for c in ok]), "s", n)
        metrics["peak_rss_mb"] = (statistics.median([c.peak_rss_mb for c in ok]), "MB", n)
    if document:
        metrics["score_ci"] = (score_ci(document), "reward", 1)
        if workload.command == "run":
            width = compare_ci(document)
            if width is not None:
                metrics["compare_ci"] = (width, "reward", 1)
            share, attempted = failed_share(document)
            metrics["failed_share"] = (share, "ratio", attempted)
            if EXTERNAL_AGENT in workload.sized(session.tiny).get("agents", ""):
                requested = session.requested_actions("measured")
                metrics["timeout_share"] = (timeout_share(document, requested), "ratio",
                                            requested)
    tail = tail_percentile([c.wall_s for c in ok])
    return {"metrics": metrics, "problems": problems, "attempted": len(commands),
            "failed": sum(1 for c in commands if c.code != 0),
            "digest": next(iter(digests), ""), "tail": tail,
            "samples": {"run_s": [c.wall_s for c in ok], "setup_s": [c.setup_s for c in ok],
                        "cpu_s": [c.cpu_s for c in ok],
                        "peak_rss_mb": [c.peak_rss_mb for c in ok]}}


def measure_layers(session: Session) -> dict:
    """Reference, serial and traced commands; per-layer metrics from the trace."""
    workload = session.workload
    commands = []
    if workload.workers > 1:
        commands.append(session.run("parallel", workload.workers)[0])
    serial = session.run("serial", 1)[0]
    commands.append(serial)
    trace_path = session.work / "trace.json"
    trace_path.unlink(missing_ok=True)
    traced = session.run("traced", 1, trace_path)[0]
    commands.append(traced)
    problems = [p for c in commands for p in c.problems]
    digests = {c.digest for c in commands}
    if not problems and len(digests) != 1:
        problems.append("reports differ between worker counts or with tracing: "
                        + ", ".join(c.digest[:12] for c in commands))
    layers: dict[str, tuple[float, str]] = {}
    extra = {}
    if traced.code == 0 and trace_path.exists():
        doc = json.loads(trace_path.read_text())
        layers = tracing.layer_metrics(doc)
        extra = {
            "parallel_wall_s": commands[0].wall_s if workload.workers > 1 else None,
            "serial_wall_s": serial.wall_s,
            "traced_wall_s": traced.wall_s,
            "tracing_overhead_s": traced.wall_s - serial.wall_s,
            "uncovered_s": tracing.uncovered_time(doc["spans"], traced.wall_s),
        }
    return {"metrics": layers, "problems": problems, "attempted": len(commands),
            "failed": sum(1 for c in commands if c.code != 0),
            "digest": serial.digest, "extra": extra}


# ---------------------------------------------------------------- main


def load_spec() -> dict:
    """BENCHMARK.json: the metric names and units each mode must report."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the workload (the benchmark's own tests use this)")
    args = parser.parse_args(argv)

    if not (SRC / "agentgauge" / "cli.py").exists():
        print(f"error: no agentgauge sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    declared = load_spec()
    # byte-compile once so no timed command pays for it
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "agentgauge")],
                   check=True, capture_output=True)

    session = Session(WORKLOADS[args.workload], args.seed, args.tiny)
    env = environment(args.seed)
    if args.trace:
        result = measure_layers(session)
        wanted = declared["per_layer"]
    else:
        result = measure_end_to_end(session, args.seconds)
        wanted = declared["end_to_end"]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}"
          f"{'  (tiny)' if args.tiny else ''}")
    for key, value in env.items():
        print(f"  {key}: {value}")
    print(f"  commands: {result['attempted']} attempted, {result['failed']} failed")
    for name, entry in sorted(result["metrics"].items()):
        value, unit = entry[0], entry[1]
        samples = f"  n={entry[2]}" if len(entry) > 2 else ""
        print(f"  {name:42s} {_fmt(value):>14s} {unit}{samples}")
    if result.get("tail"):
        pct, value = result["tail"]
        print(f"  run_s p{pct:.0f} (10 samples beyond): {_fmt(value)} s")
    for name, value in result.get("extra", {}).items():
        if value is not None:
            print(f"  {name:42s} {_fmt(value):>14s} s")

    problems = list(result["problems"])
    if result["digest"]:
        key = f"{args.workload} seed={args.seed}{' tiny' if args.tiny else ''}"
        status = compare_with_record(key, result["digest"], env["git_commit"])
        print(f"  output sha256 {result['digest']}: {status}")
    metrics = {}
    for spec in wanted:
        entry = result["metrics"].get(spec["name"])
        if entry is None:
            problems.append(f"metric {spec['name']} was not measured")
            continue
        if entry[1] != spec["unit"]:
            problems.append(f"metric {spec['name']} measured in {entry[1]}, "
                            f"BENCHMARK.json says {spec['unit']}")
        metrics[spec["name"]] = {"value": entry[0], "unit": spec["unit"]}
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")

    session.work.mkdir(parents=True, exist_ok=True)
    (session.work / f"result-trace{args.trace}.json").write_text(json.dumps(
        {"environment": env, **{k: v for k, v in result.items() if k != "metrics"},
         "metrics": {k: list(v) for k, v in result["metrics"].items()}},
        indent=1, sort_keys=True, default=str), encoding="utf-8")
    print(json.dumps({"correct": not problems, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
