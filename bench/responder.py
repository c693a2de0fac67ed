"""Seeded stdlib-only external agent for the ``external-17`` workload.

Speaks agentgauge's newline-delimited JSON protocol on stdin/stdout: answers
``hello`` with ``ready``, every ``percept`` with a uniformly random action
from its own seeded stream, ignores ``reset`` and exits on ``bye`` or end of
input.  On exit it writes how many percepts (action requests) it answered to
the ``--stats`` file, which the benchmark uses as the denominator of
``timeout_share``.

    python3 bench/responder.py --seed 7 --stats out/responder.json
"""

from __future__ import annotations

import argparse
import json
import random
import sys


def serve(lines, write, rng: random.Random) -> int:
    """Answer protocol messages from `lines`; return the percepts answered."""
    actions = 2
    percepts = 0
    for line in lines:
        message = json.loads(line)
        kind = message.get("type")
        if kind == "hello":
            actions = int(message["spaces"]["actions"])
            write({"type": "ready"})
        elif kind == "percept":
            percepts += 1
            write({"type": "action", "a": rng.randrange(actions)})
        elif kind == "bye":
            break
    return percepts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--stats", required=True)
    args = parser.parse_args()

    def write(message: dict) -> None:
        sys.stdout.write(json.dumps(message) + "\n")
        sys.stdout.flush()

    percepts = serve(sys.stdin, write, random.Random(args.seed))
    with open(args.stats, "w", encoding="utf-8") as handle:
        json.dump({"percepts": percepts}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
