"""Reference machine: decoding, enumeration, execution, priors, signatures."""

from __future__ import annotations

import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from agentgauge.errors import InvalidProgramError, ProtocolError
from agentgauge.interaction import SpaceConfig
from agentgauge.machine import (
    INSTRUCTION_NAMES,
    EnvProcess,
    MachineConfig,
    decode_program,
    encode_program,
    enumerate_programs,
    load_program_file,
    prior_weight,
    program_length_bits,
    proves_reward_free,
    save_program_file,
    signature_and_steps,
)
from agentgauge.measure import EnsembleSpec, build_ensemble

MACHINE = MachineConfig()
SPACE = SpaceConfig()


def make(*instructions):
    return encode_program(list(instructions), MACHINE)


def run(program, actions, machine=MACHINE, space=SPACE, seed=0, shortcuts=True):
    proc = EnvProcess(program, machine, space, rng=random.Random(seed),
                      enable_shortcuts=shortcuts)
    percepts = [proc.step(None)]
    for action in actions:
        percepts.append(proc.step(action))
    return proc, percepts


# ---------------------------------------------------------------- decoding

def test_decode_empty_program():
    program = decode_program("1", MACHINE)
    assert program.instructions == ()
    assert program.length_bits == 1
    proc, percepts = run(program, [0, 1, 0])
    assert all(p.observation == 0 and p.reward_numerator == 0 for p in percepts)
    assert proc.halted


def test_decode_single_emit():
    bits = "010" + format(INSTRUCTION_NAMES.index("emit"), "04b")
    program = decode_program(bits, MACHINE)
    assert program.instructions == ("emit",)
    _, percepts = run(program, [1])
    assert percepts[0].observation == 0
    assert percepts[0].reward_numerator == 0


def test_decode_rejects_unbalanced_brackets():
    bits = "010" + format(INSTRUCTION_NAMES.index("loop_open"), "04b")
    with pytest.raises(InvalidProgramError):
        decode_program(bits, MACHINE)
    bits = "010" + format(INSTRUCTION_NAMES.index("loop_close"), "04b")
    with pytest.raises(InvalidProgramError):
        decode_program(bits, MACHINE)


def test_decode_rejects_reserved_opcode():
    with pytest.raises(InvalidProgramError):
        decode_program("010" + "1111", MACHINE)


def test_decode_rejects_truncation_and_trailing():
    with pytest.raises(InvalidProgramError):
        decode_program("01000", MACHINE)  # declares one opcode, delivers 2 bits
    with pytest.raises(InvalidProgramError):
        decode_program("1" + "0000", MACHINE)  # empty program with trailing bits
    with pytest.raises(InvalidProgramError):
        decode_program("", MACHINE)
    with pytest.raises(InvalidProgramError):
        decode_program("012", MACHINE)


def test_encode_decode_round_trip_on_enumeration():
    for program in enumerate_programs(14, MACHINE):
        again = decode_program(program.bits, MACHINE)
        assert again.instructions == program.instructions
        assert encode_program(program.instructions, MACHINE).bits == program.bits


@st.composite
def balanced_instruction_lists(draw):
    body = draw(st.lists(st.sampled_from(
        [n for n in INSTRUCTION_NAMES if n not in ("loop_open", "loop_close")]),
        max_size=10))
    loops = draw(st.integers(0, 3))
    out = list(body)
    for _ in range(loops):
        at = draw(st.integers(0, len(out)))
        out[at:at] = ["loop_open", "loop_close"]
    return tuple(out)


@given(balanced_instruction_lists())
def test_encode_decode_round_trip_random_programs(instructions):
    program = encode_program(instructions, MACHINE)
    assert decode_program(program.bits, MACHINE).instructions == instructions


# ------------------------------------------------------------- enumeration

def test_enumerate_zero_cutoff_is_empty():
    assert enumerate_programs(0, MACHINE) == []


def test_enumeration_matches_brute_force_decoding():
    # Independent oracle: decode every bit string of length <= 14 and keep
    # the valid ones; enumeration must produce exactly that set.
    valid = set()
    for length in range(1, 15):
        for value in range(2 ** length):
            bits = format(value, f"0{length}b")
            try:
                decode_program(bits, MACHINE)
            except InvalidProgramError:
                continue
            valid.add(bits)
    enumerated = [p.bits for p in enumerate_programs(14, MACHINE)]
    assert set(enumerated) == valid
    assert len(enumerated) == len(set(enumerated))


def test_enumerated_set_is_prefix_free():
    bits = [p.bits for p in enumerate_programs(17, MACHINE)]
    pool = set(bits)
    for b in bits:
        for cut in range(1, len(b)):
            assert b[:cut] not in pool


def test_kraft_sum_is_exact_and_below_one():
    total = sum((prior_weight(p) for p in enumerate_programs(14, MACHINE)), Fraction(0))
    assert total <= 1
    # 1 empty + 7 singletons + 50 valid pairs
    assert total == Fraction(1, 2) + Fraction(7, 128) + Fraction(50, 2048)


def test_enumeration_is_shortlex_and_monotone():
    small = [p.bits for p in enumerate_programs(11, MACHINE)]
    large = [p.bits for p in enumerate_programs(17, MACHINE)]
    assert large[: len(small)] == small
    lengths = [len(b) for b in large]
    assert lengths == sorted(lengths)
    for length, group in itertools.groupby(large, key=len):
        group = list(group)
        assert group == sorted(group)


def test_program_length_bits_table():
    assert [program_length_bits(n) for n in range(6)] == [1, 7, 11, 17, 21, 25]


# --------------------------------------------------------------- execution

def test_inc_emit_trace():
    _, percepts = run(make("inc", "emit"), [1, 1])
    assert (percepts[0].observation, percepts[0].reward_numerator) == (1, 0)
    # the counter cell keeps incrementing across cycles: 2 mod 2 = 0, 3 mod 2 = 1
    assert [p.observation for p in percepts] == [1, 0, 1]


def test_copy_program_rewards_echo_last_action():
    program = make("read_action", "move_left", "emit")
    actions = [1, 1, 0, 1, 0, 0, 1]
    _, percepts = run(program, actions)
    assert [p.reward_numerator for p in percepts] == [0] + actions
    assert all(p.observation == 0 for p in percepts)


def test_full_budget_one_shot():
    proc, percepts = run(make("dec", "move_left", "emit"), [1, 0, 1])
    assert percepts[0].reward_numerator == 255
    assert [p.reward_numerator for p in percepts[1:]] == [0, 0, 0]
    assert proc.budget == 0
    assert proc.remaining_reward_bound == 0


def test_budget_never_exceeded_on_long_rollouts():
    rng = random.Random(3)
    for program in enumerate_programs(17, MACHINE):
        proc = EnvProcess(program, MACHINE, SPACE, rng=random.Random(11))
        total = proc.step(None).reward_numerator
        for _ in range(1000):
            if proc.remaining_reward_bound == 0:
                break
            total += proc.step(rng.randrange(2)).reward_numerator
        assert total <= SPACE.reward_denominator
        assert total == proc.emitted_total


def test_step_bound_instrumented():
    for instructions in [("inc", "loop_open", "loop_close", "emit"),
                         ("inc", "loop_open", "inc", "loop_close"),
                         ("read_action", "loop_open", "loop_close", "emit")]:
        proc = EnvProcess(make(*instructions), MACHINE, SPACE, rng=random.Random(5))
        proc.step(None)
        assert proc.steps_last_cycle <= MACHINE.step_budget_per_cycle
        for action in (1, 0, 1, 1):
            proc.step(action)
            assert proc.steps_last_cycle <= MACHINE.step_budget_per_cycle


def test_identical_seed_gives_identical_percepts():
    program = make("random_bit", "move_left", "emit")
    _, a = run(program, [1, 0, 1, 1, 0, 1], seed=9)
    _, b = run(program, [1, 0, 1, 1, 0, 1], seed=9)
    _, c = run(program, [1, 0, 1, 1, 0, 1], seed=10)
    assert a == b
    assert a != c


def test_shortcuts_preserve_behavior_exactly():
    # Oracle: the plain interpreter with every shortcut disabled.  Percepts
    # must agree bit for bit, including for programs that spin out a whole
    # step budget each cycle.
    rng = random.Random(123)
    programs = list(enumerate_programs(17, MACHINE))
    programs += [
        make("inc", "loop_open", "loop_close", "emit"),
        make("dec", "loop_open", "loop_close", "inc"),
        make("random_bit", "loop_open", "loop_close", "emit"),
        make("read_action", "loop_open", "loop_close", "emit"),
        make("inc", "loop_open", "inc", "loop_close"),
        make("inc", "loop_open", "move_left", "loop_close"),
        make("loop_open", "loop_open", "loop_close", "loop_close"),
        make("inc", "loop_open", "loop_open", "loop_close", "loop_close"),
        make("inc", "loop_open", "move_left", "move_right", "loop_close", "emit"),
        make("inc", "loop_open", "emit", "loop_close"),
    ]
    for program in programs:
        actions = [rng.randrange(2) for _ in range(30)]
        _, fast = run(program, actions, seed=77, shortcuts=True)
        _, slow = run(program, actions, seed=77, shortcuts=False)
        assert fast == slow, program.program_id


def test_protocol_discipline():
    proc = EnvProcess(make("emit"), MACHINE, SPACE)
    with pytest.raises(ProtocolError):
        proc.step(0)  # environment moves first
    proc.step(None)
    with pytest.raises(ProtocolError):
        proc.step(None)  # an action is required afterwards
    with pytest.raises(ValueError):
        proc.step(5)


def test_machine_config_validation():
    with pytest.raises(ValueError):
        MachineConfig(tape_length=1)
    with pytest.raises(ValueError):
        MachineConfig(step_budget_per_cycle=0)
    with pytest.raises(ValueError):
        MachineConfig(opcode_table=("emit",) * 9)


# ------------------------------------------------------- priors and kt cost

def test_prior_weight_is_exact_dyadic():
    assert prior_weight(decode_program("1", MACHINE)) == Fraction(1, 2)
    assert prior_weight(make("emit")) == Fraction(1, 128)
    for program in enumerate_programs(11, MACHINE):
        assert prior_weight(program) == Fraction(1, 2 ** program.length_bits)


def test_kt_cost_values_and_doubling_law():
    # build_ensemble's kt weighting charges |p| + log2(steps) bits, i.e. the
    # weight 2^-|p| / steps, so doubling the steps halves the weight.
    spec = EnsembleSpec(max_program_length_bits=17, weight_scheme="kt",
                        dedup_horizon=None, renormalize=False)
    emit = make("emit")  # 7 bits, 1 step
    (entry,) = build_ensemble(spec, MACHINE, SPACE, programs=[emit]).entries
    assert entry.raw_weight == Fraction(1, 128)
    # Without dedup every entry is one program weighted exactly.
    undeduped = build_ensemble(spec, MACHINE, SPACE)
    assert len(undeduped.entries) == undeduped.program_count
    for entry in undeduped.entries:
        program = entry.environment.program
        steps = signature_and_steps(program, 8, MACHINE, SPACE)[1]
        assert entry.raw_weight * steps == prior_weight(program)


# -------------------------------------------------------------- signatures

def test_signature_of_empty_program_is_all_zero():
    signature = signature_and_steps(decode_program("1", MACHINE), 3)[0]
    assert signature == b"\x00\x00\x00\x00\xff"  # one (0, 0) percept, then dead


def test_equal_behavior_programs_share_signatures():
    # The tail after the first emit never runs, so these are all the same
    # constant environment.
    base = signature_and_steps(make("emit"), 5)[0]
    assert signature_and_steps(make("emit", "emit"), 5)[0] == base
    assert signature_and_steps(make("emit", "inc"), 5)[0] == base
    assert signature_and_steps(decode_program("1", MACHINE), 5)[0] == base


def test_signatures_separate_distinct_behaviors():
    copy_program = make("read_action", "move_left", "emit")
    assert signature_and_steps(copy_program, 5)[0] != signature_and_steps(make("emit"), 5)[0]


def test_signature_counts_show_duplicates():
    programs = enumerate_programs(16, MACHINE)
    signatures = {signature_and_steps(p, 4)[0] for p in programs}
    assert len(signatures) < len(programs)


def test_signature_horizon_cap():
    with pytest.raises(ValueError):
        signature_and_steps(make("emit"), 13)
    with pytest.raises(ValueError):
        signature_and_steps(make("emit"), 0)


def test_signature_steps_are_deterministic():
    program = make("random_bit", "move_left", "emit")
    assert signature_and_steps(program, 6) == signature_and_steps(program, 6)


def _full_tree_walk(program, horizon, machine, space, seed):
    """Reference signature: replay every action sequence from a fresh process."""
    out = bytearray()
    steps = 0

    def visit(path):
        nonlocal steps
        proc = EnvProcess(program, machine, space, rng=seed)
        percept = proc.step(None)
        for action in path:
            percept = proc.step(action)
        steps += proc.steps_last_cycle
        out.extend(percept.observation.to_bytes(2, "little"))
        out.extend(percept.reward_numerator.to_bytes(2, "little"))
        if len(path) == horizon:
            return
        if proc.halted:
            out.append(0xFF)
            return
        for action in range(space.action_count):
            visit(path + (action,))

    visit(())
    return bytes(out), max(1, steps)


_SIGNATURE_EXTRAS = (
    ("read_action", "random_bit", "move_left", "emit"),
    ("random_bit", "move_right", "read_action", "emit"),
    ("read_action", "loop_open", "loop_close", "emit"),
    ("inc", "loop_open", "loop_close", "emit"),
    ("read_action", "loop_open", "random_bit", "loop_close", "emit"),
    ("read_action", "move_right", "inc", "emit"),
    ("move_right", "read_action", "move_right", "random_bit", "emit"),
    ("move_right", "read_action", "move_left", "emit"),
)


@pytest.mark.parametrize("machine, space, seed, horizon", [
    (MACHINE, SPACE, 0, 5),
    (MACHINE, SPACE, 7, 5),
    (MachineConfig(tape_length=4, cell_modulus=3), SPACE, 0, 5),
    (MACHINE, SpaceConfig(action_count=3, observation_count=3, reward_denominator=2), 7, 4),
], ids=["default", "seed7", "tape4-mod3", "three-actions-budget2"])
def test_signature_equals_full_tree_walk(machine, space, seed, horizon):
    programs = enumerate_programs(16, machine) + [
        encode_program(list(extra), machine) for extra in _SIGNATURE_EXTRAS]
    for program in programs:
        expected = _full_tree_walk(program, horizon, machine, space, seed)
        assert signature_and_steps(program, horizon, machine, space, seed) == expected, \
            program.instructions


@pytest.mark.parametrize("bits, digest", [
    (17, "86e9a17a83ceab49cd5204fb0ca5b4b0159bd9e5c5576b9298a71ab6512b7d05"),
    (24, "70582620f96b6c89d1344c1e9b95e42f492ff45b65cb2e84e3a6a43e54e24121"),
])
def test_signature_golden_hash(bits, digest):
    # Recorded from a walk that expanded every node of the action tree.
    h = hashlib.sha256()
    for program in enumerate_programs(bits, MACHINE):
        sig, steps = signature_and_steps(program, 8, MACHINE, SPACE, seed=0)
        h.update(len(sig).to_bytes(4, "little") + sig + steps.to_bytes(8, "little"))
    assert h.hexdigest() == digest


# ----------------------------------------------------- reward reachability

class _Script:
    """Random-bit source that plays fixed bits, then zeros, counting draws."""

    def __init__(self, bits):
        self.bits = bits
        self.drawn = 0

    def getrandbits(self, k):
        bit = self.bits[self.drawn] if self.drawn < len(self.bits) else 0
        self.drawn += 1
        return bit


def _replay(program, path, machine, space):
    """A fresh process stepped along `path`: one (action, bits) pair per cycle,
    the first action None.

    Returns the process, the last percept, and whether every cycle drew
    exactly its bits.
    """
    proc = EnvProcess(program, machine, space)
    percept, exact = None, True
    for action, bits in path:
        proc.rng = _Script(bits)
        percept = proc.step(action)
        exact = exact and proc.rng.drawn == len(bits)
    return proc, percept, exact


def _reward_on_some_path(program, depth, machine, space):
    """Reference walk: a path of at most `depth` cycles that ends in positive
    reward, or None.  Every action and every bit string is tried, and every
    node is replayed from a fresh process.  Only read_action reads the
    last-action register, so a program without it is walked with action 0."""
    reads = "read_action" in program.instructions

    def visit(path):
        if len(path) == depth:
            return None
        for action in ((None,) if not path else range(space.action_count if reads else 1)):
            pending = [()]
            while pending:
                bits = pending.pop()
                proc, percept, exact = _replay(program, path + [(action, bits)],
                                               machine, space)
                if not exact:
                    # the cycle draws more bits than `bits` holds: try both
                    pending += [bits + (0,), bits + (1,)]
                    continue
                if percept.reward_numerator > 0:
                    return path + [(action, bits)]
                if not proc.halted:
                    found = visit(path + [(action, bits)])
                    if found is not None:
                        return found
        return None

    return visit([])


_REACHABILITY_EXTRAS = (
    ("read_action", "move_left", "emit"),
    ("random_bit", "move_left", "emit"),
    ("read_action", "inc", "emit"),
    ("random_bit", "inc", "emit"),
    ("move_right", "read_action", "move_left", "emit"),
    ("random_bit", "move_left", "read_action", "emit"),
    ("inc", "loop_open", "loop_close", "emit"),
    ("read_action", "loop_open", "loop_close", "emit"),
    ("random_bit", "loop_open", "loop_close", "emit"),
    ("inc", "loop_open", "random_bit", "loop_close", "emit"),
    ("loop_open", "random_bit", "move_right", "loop_close", "inc", "emit"),
    ("read_action", "loop_open", "dec", "emit", "loop_close", "inc", "emit"),
)


# Ids of the programs proven reward-free, as recorded when the proof also
# reported reward-capable and undecided verdicts.  Both machines prove the
# same 64 of the 70 programs.
_REWARD_FREE_DIGEST = "aa161b476e383b624792fd447b45a7696ad00a0c494e97655af6f9526c9f4e16"


@pytest.mark.parametrize("machine, space", [
    (MACHINE, SPACE),
    (MachineConfig(tape_length=4, cell_modulus=3),
     SpaceConfig(action_count=3, observation_count=3, reward_denominator=2)),
], ids=["default", "tape4-mod3-three-actions"])
def test_reward_reachability_is_sound(machine, space):
    programs = enumerate_programs(16, machine) + [
        encode_program(list(extra), machine) for extra in _REACHABILITY_EXTRAS]
    proven = hashlib.sha256()
    for program in programs:
        if not proves_reward_free(program, machine, space):
            continue
        proven.update(program.program_id.encode() + b"\n")
        assert _reward_on_some_path(program, 8, machine, space) is None, \
            program.instructions
        for seed in range(3):
            rng = random.Random(seed)
            proc = EnvProcess(program, machine, space, rng=random.Random(seed))
            emitted = [proc.step(None)]
            emitted += [proc.step(rng.randrange(space.action_count))
                        for _ in range(999)]
            assert all(p.reward_numerator == 0 for p in emitted), program.instructions
    assert proven.hexdigest() == _REWARD_FREE_DIGEST


# ------------------------------------------------------------ fixture files

def test_program_file_round_trip(tmp_path):
    programs = enumerate_programs(11, MACHINE)
    path = tmp_path / "programs.txt"
    save_program_file(path, programs)
    loaded = load_program_file(path, MACHINE)
    assert [p.bits for p in loaded] == [p.bits for p in programs]
