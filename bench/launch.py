"""Run one agentgauge CLI command in this process and record when set-up ends.

    python3 bench/launch.py --marks FILE [--trace FILE] -- <agentgauge arguments>

The command is ``agentgauge.cli.main`` itself, the function behind the
``agentgauge`` console script.  Set-up ends when ``build_ensemble`` returns
(``run``) or when the first reward profile starts (``example-study``); the
launcher writes that instant, on the system-wide monotonic clock, to the
marks file so the parent can subtract its own spawn time.  With ``--trace``
every layer is wrapped by ``tracing.install`` and the span document is
written to the given file when the command returns.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def main(argv: list[str]) -> int:
    split = argv.index("--")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--marks", required=True)
    parser.add_argument("--trace", default=None)
    args = parser.parse_args(argv[:split])
    command = argv[split + 1:]

    import_start = time.perf_counter()
    from agentgauge import cli
    import_end = time.perf_counter()

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.record("cli.import", import_start, import_end)
        tracing.install(tracer)

    marks: dict[str, float] = {}

    def mark_setup() -> None:
        marks.setdefault("setup_end", time.monotonic())

    def ensemble_then_mark(*a, **k):
        ensemble = build_ensemble(*a, **k)
        mark_setup()
        return ensemble

    def mark_then_profile(*a, **k):
        mark_setup()
        return profile(*a, **k)

    build_ensemble = cli.build_ensemble
    profile = cli.per_cycle_reward_profile
    cli.build_ensemble = ensemble_then_mark
    cli.per_cycle_reward_profile = mark_then_profile

    code = cli.main(command)
    with open(args.marks, "w", encoding="utf-8") as handle:
        json.dump(marks, handle)
    if tracer is not None:
        with open(args.trace, "w", encoding="utf-8") as handle:
            json.dump(tracer.document(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
