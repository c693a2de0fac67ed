"""Span tracing of agentgauge's layers, installed from outside the package.

The traced run wraps public functions and methods of ``cli``, ``machine``,
``measure``, ``valuation``, ``agents``, ``external`` and ``reports`` by
rebinding them in every agentgauge module that holds a reference, so the
package itself is unchanged.  Two kinds of wrapper exist:

* layer-boundary calls (ensemble build, one environment's rollouts, report
  writing, ...) become stored spans with a name, start, end and parent;
* hot calls made millions of times (VM steps, clones, agent ``act`` and
  ``observe``) are aggregated per (name, enclosing span, agent) into count,
  total and self time, so memory stays bounded.  Their time is charged to the
  enclosing stored span as ``hot_s`` so that span's self time stays exact.
  The wrappers' own cost does land in the enclosing span's self time; the
  benchmark states it as the traced minus the untraced serial wall time.

Spans are kept in memory and written out once, when the traced command ends.
A span's self time is its duration minus the union of its stored children's
intervals minus ``hot_s``.  ``layer_metrics`` turns a trace document into the
per-layer metrics the benchmark prints.
"""

from __future__ import annotations

import functools
import math
import time
from collections import defaultdict

LAYERS = ("cli", "machine", "measure", "valuation", "agents", "external", "reports")
ROLLOUT_SPANS = ("valuation.summable_episode_values", "valuation.per_cycle_reward_profile",
                 "valuation.discounted_value")
KINDS = ("action_free", "action_reading", "random_bit")


class Tracer:
    """Single-threaded span recorder; one per traced process."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []     # [name, start, end, parent, hot_s]
        # open frames: [child_s, hot_child_s, span index or None]
        self.stack: list[list] = [[0.0, 0.0, None]]
        self.scope: tuple[str, str] = ("", "")   # enclosing stored span, agent
        self.hot: dict[tuple[str, str, str], list] = {}  # -> [count, total, self]
        self.counters: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.procs: list | None = None   # machine processes of the open rollouts

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished top-level span measured by the caller."""
        self.spans.append([name, start, end, None, 0.0])

    def _parent_index(self):
        for frame in reversed(self.stack):
            if frame[2] is not None:
                return frame[2]
        return None

    def span(self, name: str, fn, before=None, after=None, agent=None):
        """Wrap `fn` so each call is a stored span.

        `before(args, kwargs)` runs first and its value is handed to
        `after(tracer, duration, result, args, kwargs, token)` on success.
        `agent(args, kwargs)` names the agent whose work the span is.
        """
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = before(self, args, kwargs) if before else None
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._parent_index(), 0.0])
            frame = [0.0, 0.0, index]
            self.stack.append(frame)
            saved = self.scope
            self.scope = (name, agent(args, kwargs) if agent else saved[1])
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self.stack.pop()
                self.scope = saved
                self.stack[-1][0] += end - start
                self.spans[index][1:3] = [start, end]
                self.spans[index][4] = frame[1]
            if after:
                after(self, end - start, result, args, kwargs, token)
            return result

        return traced

    def hot_call(self, name: str, fn, after=None):
        """Wrap `fn` so its calls are aggregated rather than stored."""
        clock = self.clock
        stack = self.stack
        table = self.hot

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0, 0.0, None]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                parent = stack[-1]
                parent[0] += duration
                parent[1] += duration
                key = (name,) + self.scope
                entry = table.get(key)
                if entry is None:
                    entry = table[key] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[0]
            if after:
                after(self, duration, result, args, kwargs)
            return result

        return traced

    def document(self) -> dict:
        return {
            "spans": self.spans,
            "hot": [[*key, *value] for key, value in self.hot.items()],
            "counters": dict(self.counters),
            "samples": dict(self.samples),
        }


def self_times(spans: list[list]) -> list[float]:
    """Self time of each span: duration minus what its children cover.

    `spans` holds ``[name, start, end, parent, hot_s]`` rows; children are
    stored spans whose parent is the row's index, and their intervals are
    merged before subtracting so overlapping children are not counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for index, (_, start, end, _, hot_s) in enumerate(spans):
        covered = _union_length(children.get(index, ()), start, end)
        out.append(max(0.0, end - start - covered - hot_s))
    return out


def _union_length(intervals, low: float, high: float) -> float:
    total = 0.0
    reach = low
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total


def uncovered_time(spans: list[list], wall_s: float) -> float:
    """Process wall time that no top-level span covers (start-up, exit)."""
    tops = [(s, e) for _, s, e, parent, _ in spans if parent is None]
    if not tops:
        return wall_s
    low = min(s for s, _ in tops)
    return max(0.0, wall_s - _union_length(tops, low, max(e for _, e in tops)))


def program_kind(ops) -> str:
    """Class kind of a representative program, decided by its opcodes."""
    from agentgauge.machine import INSTRUCTION_NAMES

    if INSTRUCTION_NAMES.index("random_bit") in ops:
        return "random_bit"
    if INSTRUCTION_NAMES.index("read_action") in ops:
        return "action_reading"
    return "action_free"


def _rebind(modules, original, replacement) -> None:
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


def install(tracer: Tracer) -> None:
    """Wrap the layers' public functions and methods in every agentgauge module."""
    import agentgauge
    from agentgauge import (agents, cli, environments, external, machine, measure,
                            reports, valuation)

    modules = [agentgauge, agents, cli, environments, external, machine, measure,
               reports, valuation]

    def span(module, attr, name, **hooks):
        original = getattr(module, attr)
        _rebind(modules, original, tracer.span(name, original, **hooks))

    def hot(cls, attr, name, after=None):
        setattr(cls, attr, tracer.hot_call(name, getattr(cls, attr), after))

    def factory_name(args, kwargs):
        return args[0].name

    def count_programs(t, _, result, *rest):
        t.counters["machine.programs"] += len(result)

    def count_signature(t, _, result, *rest):
        t.counters["machine.signatures"] += 1
        t.counters["machine.signature_vm_steps"] += result[1]

    def ensemble_built(t, _, ensemble, *rest):
        c = t.counters
        c["measure.programs"] += ensemble.program_count
        c["measure.entries"] += len(ensemble.entries)
        for entry in ensemble.entries:
            kind = program_kind(entry.environment.program.ops)
            c[f"valuation.classes.{kind}"] += 1
            c[f"valuation.weight.{kind}"] += entry.weight

    def start_rollouts(t, args, kwargs):
        t.procs = []

    def rollouts_done(t, duration, result, args, kwargs, _):
        factory, env, params = args[:3]
        procs, t.procs = t.procs, None
        kind = program_kind(env.program.ops)
        c = t.counters
        c[f"valuation.rollout_s.{kind}"] += duration
        c[f"valuation.episodes.{kind}"] += len(procs)
        c["machine.rollout_vm_steps"] += sum(p.total_steps for p in procs)
        c["machine.rollout_episodes"] += len(procs)
        c["machine.frozen_episodes"] += sum(1 for p in procs if p.frozen)
        c["valuation.early_stops"] += sum(1 for p in procs if p.cycles < params.horizon)
        c[f"valuation.cycles.{factory.name}"] += sum(p.cycles for p in procs)
        c[f"valuation.agent_s.{factory.name}"] += duration

    def estimate_done(t, duration, result, args, kwargs, _):
        t.counters[f"measure.estimate_s.{args[0].name}"] += duration

    def compared(t, _, result, args, kwargs, __):
        measurements, ensemble = args[:2]
        samples = kwargs.get("bootstrap_samples", args[3] if len(args) > 3 else 2000)
        draws = 0
        for i, a in enumerate(measurements):
            for b in measurements[i + 1:]:
                for entry in ensemble.entries:
                    va = a.episode_values[entry.identifier]
                    vb = b.episode_values[entry.identifier]
                    if len(va) != len(vb) or (va != vb).any():
                        draws += samples * (len(va) + len(vb))
        t.counters["measure.bootstrap_draws"] += draws

    def profiled(t, duration, result, args, kwargs, _):
        factory = args[0]
        cycles = kwargs.get("cycles", args[2] if len(args) > 2 else None)
        episodes = kwargs.get("episodes", args[3] if len(args) > 3 else None)
        t.counters["valuation.batch_cells"] += cycles * episodes
        t.counters[f"valuation.cycles.{factory.name}"] += cycles * episodes
        t.counters[f"valuation.agent_s.{factory.name}"] += duration

    def discounted(t, duration, result, args, kwargs, _):
        factory, params = args[0], args[2]
        cycles = min(params.horizon, max(1, math.ceil(
            math.log(params.trunc_epsilon) / math.log(params.gamma))))
        t.counters["valuation.batch_cells"] += cycles * params.episodes
        t.counters[f"valuation.cycles.{factory.name}"] += cycles * params.episodes
        t.counters[f"valuation.agent_s.{factory.name}"] += duration

    def written(t, _, result, args, kwargs, __):
        import pathlib

        out = pathlib.Path(args[0])
        t.counters["reports.bytes"] += sum(
            (out / n).stat().st_size for n in ("report.json", "rows.csv", "manifest.json"))

    def closing(t, args, kwargs):
        t.counters["external.timeouts"] += args[0].timeout_warnings

    def requested(t, duration, *rest):
        t.counters["external.requests"] += 1
        t.samples["external.round_trip_s"].append(duration)

    def spawned(t, _, proc, *rest):
        if t.procs is not None:
            t.procs.append(proc)

    span(cli, "main", "cli.main")
    span(machine, "enumerate_programs", "machine.enumerate_programs", after=count_programs)
    span(machine, "load_program_file", "machine.load_program_file", after=count_programs)
    span(machine, "signature_and_steps", "machine.signature_and_steps",
         after=count_signature)
    span(measure, "build_ensemble", "measure.build_ensemble", after=ensemble_built)
    span(measure, "estimate_intelligence", "measure.estimate_intelligence",
         after=estimate_done, agent=factory_name)
    span(measure, "compare_agents", "measure.compare_agents", after=compared)
    span(valuation, "summable_episode_values", "valuation.summable_episode_values",
         before=start_rollouts, after=rollouts_done, agent=factory_name)
    span(valuation, "per_cycle_reward_profile", "valuation.per_cycle_reward_profile",
         after=profiled, agent=factory_name)
    span(valuation, "discounted_value", "valuation.discounted_value",
         after=discounted, agent=factory_name)
    for attr in ("build_report", "build_manifest", "validate_report", "dump_json",
                 "write_run_outputs"):
        span(reports, attr, f"reports.{attr}",
             after=written if attr == "write_run_outputs" else None)

    # methods are rebound on their classes; stored spans first, then hot calls
    host = external.ExternalAgentHost
    host.start = tracer.span("external.start", host.start)
    host.close = tracer.span("external.close", host.close, before=closing)
    hot(host, "request_action", "external.request_action", after=requested)
    hot(machine.EnvProcess, "step", "machine.step")
    hot(machine.EnvProcess, "clone", "machine.clone")
    hot(environments.ProgramEnvironment, "spawn", "machine.spawn", after=spawned)
    hot(agents.AgentFactory, "make", "agents.make")
    hot(agents.AgentFactory, "prob_action_one", "agents.prob_action_one")
    for cls in (agents._UniformPolicy, agents._ScriptedPolicy, agents._TablePolicy):
        hot(cls, "act", "agents.act")
        hot(cls, "observe", "agents.observe")
    hot(external._ExternalPolicy, "act", "external.policy_act")
    hot(external._ExternalPolicy, "observe", "external.policy_observe")


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def layer_metrics(doc: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced command, as name -> (value, unit)."""
    spans = doc["spans"]
    selfs = self_times(spans)
    counters = defaultdict(float, doc["counters"])
    dur = defaultdict(float)
    layer_self = defaultdict(float)
    for (name, start, end, _, _), own in zip(spans, selfs):
        dur[name] += end - start
        layer_self[name.split(".")[0]] += own
    hot_total = defaultdict(float)
    hot_count = defaultdict(int)
    policy = defaultdict(float)
    rollout_step_s = 0.0
    for name, parent, agent, count, total, own in doc["hot"]:
        hot_total[name] += total
        hot_count[name] += count
        layer_self[name.split(".")[0]] += own
        if name in ("agents.act", "agents.observe", "agents.prob_action_one",
                    "external.policy_act", "external.policy_observe"):
            policy[agent] += total
        if name == "machine.step" and parent in ROLLOUT_SPANS:
            rollout_step_s += total

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m: dict[str, tuple[float, str]] = {}
    m["cli.import_s"] = (dur["cli.import"], "s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self[layer], "s")

    m["machine.enumerate_s"] = (dur["machine.enumerate_programs"]
                                + dur["machine.load_program_file"], "s")
    m["machine.programs"] = (counters["machine.programs"], "count")
    m["machine.signature_s"] = (dur["machine.signature_and_steps"], "s")
    m["machine.signatures"] = (counters["machine.signatures"], "count")
    m["machine.signatures_per_s"] = (ratio(counters["machine.signatures"],
                                           dur["machine.signature_and_steps"]), "1/s")
    m["machine.signature_vm_steps"] = (counters["machine.signature_vm_steps"], "count")
    m["machine.clones"] = (hot_count["machine.clone"], "count")
    m["machine.clone_s"] = (hot_total["machine.clone"], "s")
    m["machine.rollout_vm_steps"] = (counters["machine.rollout_vm_steps"], "count")
    m["machine.vm_steps_per_s"] = (ratio(counters["machine.rollout_vm_steps"],
                                         rollout_step_s), "1/s")
    m["machine.frozen_episode_share"] = (ratio(counters["machine.frozen_episodes"],
                                               counters["machine.rollout_episodes"]), "ratio")

    m["measure.build_ensemble_s"] = (dur["measure.build_ensemble"], "s")
    m["measure.entries"] = (counters["measure.entries"], "count")
    m["measure.dedup_ratio"] = (ratio(counters["measure.entries"],
                                      counters["measure.programs"]), "ratio")
    m["measure.compare_s"] = (dur["measure.compare_agents"], "s")
    m["measure.bootstrap_draws"] = (counters["measure.bootstrap_draws"], "count")

    rollout_s = sum(dur[name] for name in ROLLOUT_SPANS)
    for kind in KINDS:
        m[f"valuation.rollout_s.{kind}"] = (counters[f"valuation.rollout_s.{kind}"], "s")
        m[f"valuation.weight.{kind}"] = (counters[f"valuation.weight.{kind}"], "ratio")
        m[f"valuation.episodes.{kind}"] = (counters[f"valuation.episodes.{kind}"], "count")
        m[f"valuation.classes.{kind}"] = (counters[f"valuation.classes.{kind}"], "count")
    cycles_total = 0.0
    for key in sorted(counters):
        agent = key.rpartition(".")[2]
        if key.startswith("valuation.cycles."):
            cycles_total += counters[key]
            m[key] = (counters[key], "count")
            m[f"valuation.cycles_per_s.{agent}"] = (
                ratio(counters[key], counters[f"valuation.agent_s.{agent}"]), "1/s")
        elif key.startswith("measure.estimate_s."):
            m[key] = (counters[key], "s")
    m["valuation.cycles"] = (cycles_total, "count")
    m["valuation.cycles_per_s"] = (ratio(cycles_total, rollout_s), "1/s")
    m["valuation.early_stop_share"] = (ratio(counters["valuation.early_stops"],
                                             counters["machine.rollout_episodes"]), "ratio")
    m["valuation.profile_s"] = (dur["valuation.per_cycle_reward_profile"], "s")
    m["valuation.discounted_s"] = (dur["valuation.discounted_value"], "s")
    m["valuation.batch_cells_per_s"] = (ratio(
        counters["valuation.batch_cells"],
        dur["valuation.per_cycle_reward_profile"] + dur["valuation.discounted_value"]), "1/s")

    m["agents.policy_s"] = (sum(policy.values()), "s")
    for agent in sorted(a for a in policy if a):
        m[f"agents.policy_s.{agent}"] = (policy[agent], "s")
        m[f"agents.policy_share.{agent}"] = (
            ratio(policy[agent], counters[f"valuation.agent_s.{agent}"]), "ratio")

    round_trips = doc["samples"].get("external.round_trip_s", [])
    m["external.requests"] = (counters["external.requests"], "count")
    m["external.round_trip_us.p50"] = (
        _percentile(round_trips, 50) * 1e6 if round_trips else 0.0, "us")
    m["external.round_trip_us.p99"] = (
        _percentile(round_trips, 99) * 1e6 if round_trips else 0.0, "us")
    m["external.timeouts"] = (counters["external.timeouts"], "count")
    m["external.handshake_s"] = (dur["external.start"], "s")

    m["reports.build_s"] = (dur["reports.build_report"] + dur["reports.build_manifest"], "s")
    m["reports.write_s"] = (dur["reports.write_run_outputs"], "s")
    m["reports.bytes"] = (counters["reports.bytes"], "B")
    return m
