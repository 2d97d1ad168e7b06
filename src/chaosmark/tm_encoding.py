"""Turing machine runs as orbits of a step map.

A machine configuration (tape, head, state) is a point; one transition
is one application of the step function; a full run is an orbit
segment.  Machines here carry explicit halting states, and a missing
transition also halts a run (with a distinct reason), so every run
terminates by halt or by step budget.

The tape is stored sparsely: a mapping from absolute cell index to
symbol, with every unwritten cell reading as the blank and at most
MAX_TAPE_CELLS cells written.  A run takes at most MAX_TM_STEPS steps.
It mutates one working tape and freezes it into a configuration only at
return, so it is linear in its steps; a one-step tm_run is one map
step.  A step never touches any cell other than the one under the head,
so run results compose: running a+b steps equals running a, then b from
the intermediate configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType

MOVES = ("L", "R")
MAX_TAPE_CELLS = 10**6
# Most steps one run may take.  A two-state machine bouncing between two
# cells runs 10^7 steps in 3.5 s (Python 3.11, shared 2-core x86 VM).
MAX_TM_STEPS = 10**7


class BudgetExceeded(ValueError):
    """A run or its input would exceed a fixed work or memory budget."""


class MachineParseError(ValueError):
    """The machine description text is malformed."""


@dataclass(frozen=True, eq=False)
class TuringMachine:
    """Deterministic single-tape machine.

    transitions maps (state, read_symbol) to (next_state, write_symbol,
    move) with move "L" or "R".  halting_states may be empty; a machine
    can also stop by running into an undefined transition.
    """

    states: frozenset[str]
    alphabet: frozenset[str]
    transitions: MappingProxyType
    initial_state: str
    halting_states: frozenset[str] = frozenset()
    blank: str = "#"

    def __post_init__(self) -> None:
        states = frozenset(self.states)
        alphabet = frozenset(self.alphabet)
        halting = frozenset(self.halting_states)
        if not states:
            raise ValueError("machine needs at least one state")
        if not alphabet:
            raise ValueError("machine needs at least one symbol")
        if self.blank not in alphabet:
            raise ValueError(f"blank {self.blank!r} is not in the alphabet")
        if self.initial_state not in states:
            raise ValueError(f"initial state {self.initial_state!r} unknown")
        if not halting <= states:
            raise ValueError("halting states must be a subset of the states")
        rules = {}
        for key, value in dict(self.transitions).items():
            try:
                state, symbol = key
                nxt, write, move = value
            except (TypeError, ValueError):
                raise ValueError(f"malformed transition {key!r}: {value!r}")
            if state not in states:
                raise ValueError(f"transition from unknown state {state!r}")
            if symbol not in alphabet:
                raise ValueError(f"transition on unknown symbol {symbol!r}")
            if nxt not in states:
                raise ValueError(f"transition into unknown state {nxt!r}")
            if write not in alphabet:
                raise ValueError(f"transition writes unknown symbol {write!r}")
            if move not in MOVES:
                raise ValueError(f"move must be 'L' or 'R', got {move!r}")
            rules[(state, symbol)] = (nxt, write, move)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "halting_states", halting)
        object.__setattr__(self, "transitions", MappingProxyType(rules))


@dataclass(frozen=True)
class TmConfiguration:
    """Immutable machine configuration: sparse tape, head index, state."""

    cells: MappingProxyType
    head: int
    state: str

    def __post_init__(self) -> None:
        if not isinstance(self.head, int):
            raise ValueError(f"head must be an integer, got {self.head!r}")
        object.__setattr__(self, "cells", MappingProxyType(dict(self.cells)))

    def window(self, blank: str) -> tuple[int, str]:
        """(first index, rendered tape) over the written cells and the head.

        Multi-character symbols are joined with spaces.
        """
        lo = min(min(self.cells, default=self.head), self.head)
        hi = max(max(self.cells, default=self.head), self.head)
        symbols = [self.cells.get(i, blank) for i in range(lo, hi + 1)]
        if all(len(s) == 1 for s in symbols):
            return lo, "".join(symbols)
        return lo, " ".join(symbols)


def initial_configuration(machine: TuringMachine, tape,
                          head: int = 0) -> TmConfiguration:
    """Configuration with `tape` laid out from cell 0, in the initial state.

    Args:
        machine: machine whose alphabet validates the tape.
        tape: iterable of symbols (a string works when symbols are
            single characters).
        head: starting head position.

    Raises:
        BudgetExceeded: a non-empty tape and the head span more than
            MAX_TAPE_CELLS cells.
    """
    cells = {}
    for i, symbol in enumerate(tape):
        if i >= MAX_TAPE_CELLS:
            raise BudgetExceeded(
                f"tape is longer than MAX_TAPE_CELLS={MAX_TAPE_CELLS} cells")
        if symbol not in machine.alphabet:
            raise ValueError(f"tape symbol {symbol!r} not in the alphabet")
        cells[i] = symbol
    if cells and max(len(cells) - 1, head) - min(0, head) >= MAX_TAPE_CELLS:
        raise BudgetExceeded(f"tape and head span more than "
                             f"MAX_TAPE_CELLS={MAX_TAPE_CELLS} cells")
    return TmConfiguration(cells, head, machine.initial_state)


@dataclass(frozen=True)
class TmRunResult:
    """Outcome of tm_run.

    reason is "halt_state" (entered a halting state), "no_transition"
    (rule lookup failed; distinct from a designed halt), or
    "step_limit" (budget exhausted; the only non-halted outcome).
    """

    config: TmConfiguration
    steps: int
    reason: str

    @property
    def halted(self) -> bool:
        return self.reason != "step_limit"

    def to_dict(self, machine: TuringMachine) -> dict:
        lo, tape = self.config.window(machine.blank)
        return {
            "state": self.config.state,
            "head": self.config.head,
            "steps": self.steps,
            "halted": self.halted,
            "reason": self.reason,
            "window_start": lo,
            "tape": tape,
        }


def tm_run(machine: TuringMachine, config: TmConfiguration,
           max_steps: int) -> TmRunResult:
    """Run up to max_steps transitions from config.

    Copies config's tape once, applies each rule to that working tape in
    place, and freezes it into one configuration at return.

    Returns:
        TmRunResult with the final configuration, the number of steps
        actually executed, and why the run stopped.

    Raises:
        BudgetExceeded: max_steps exceeds MAX_TM_STEPS (checked before
            any step), or the tape would exceed MAX_TAPE_CELLS cells.
    """
    if not isinstance(max_steps, int) or max_steps < 0:
        raise ValueError(
            f"max_steps must be a non-negative integer, got {max_steps!r}")
    if max_steps > MAX_TM_STEPS:
        raise BudgetExceeded(f"max_steps {max_steps} exceeds "
                             f"MAX_TM_STEPS={MAX_TM_STEPS}")
    cells, limit = dict(config.cells), MAX_TAPE_CELLS
    head, state, steps = config.head, config.state, 0
    halting, rules, blank = machine.halting_states, machine.transitions, machine.blank
    while True:
        if state in halting:
            reason = "halt_state"
            break
        if steps >= max_steps:
            reason = "step_limit"
            break
        rule = rules.get((state, cells.get(head, blank)))
        if rule is None:
            reason = "no_transition"
            break
        state, cells[head], move = rule
        if len(cells) > limit:
            raise BudgetExceeded(
                f"tape would exceed MAX_TAPE_CELLS={limit} cells "
                f"at step {steps + 1}")
        head += 1 if move == "R" else -1
        steps += 1
    return TmRunResult(TmConfiguration(cells, head, state), steps, reason)


# ---------- declarative machine format ----------

def parse_machine(text: str) -> TuringMachine:
    """Build a machine from its text description.

    The format is line based; ';' starts a comment.  Header lines
    declare the machine parts, transition lines fill the table:

        states:   scan accept
        alphabet: 1 #
        blank:    #
        initial:  scan
        halting:  accept
        scan 1 -> scan 1 R
        scan # -> accept 1 R

    `states`, `alphabet`, and `initial` are required; `blank` defaults
    to '#' and `halting` to the empty set.  Transition lines read
    "state symbol -> next_state write_symbol move".
    """
    headers: dict[str, list[str]] = {}
    rules = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split(";", 1)[0].strip()
        if not line:
            continue
        if "->" in line:
            left, _, right = line.partition("->")
            lhs = left.split()
            rhs = right.split()
            if len(lhs) != 2 or len(rhs) != 3:
                raise MachineParseError(
                    f"line {lineno}: expected 'state symbol -> state symbol move'")
            key = (lhs[0], lhs[1])
            if key in rules:
                raise MachineParseError(
                    f"line {lineno}: duplicate transition for {key}")
            rules[key] = (rhs[0], rhs[1], rhs[2])
            continue
        if ":" in line:
            name, _, rest = line.partition(":")
            name = name.strip().lower()
            if name in headers:
                raise MachineParseError(f"line {lineno}: duplicate '{name}:' header")
            headers[name] = rest.split()
            continue
        raise MachineParseError(f"line {lineno}: unrecognized line {raw.strip()!r}")

    for required in ("states", "alphabet", "initial"):
        if required not in headers:
            raise MachineParseError(f"missing required header '{required}:'")
    if len(headers["initial"]) != 1:
        raise MachineParseError("'initial:' must name exactly one state")
    blank = "#"
    if "blank" in headers:
        if len(headers["blank"]) != 1:
            raise MachineParseError("'blank:' must name exactly one symbol")
        blank = headers["blank"][0]
    try:
        return TuringMachine(
            states=frozenset(headers["states"]),
            alphabet=frozenset(headers["alphabet"]),
            transitions=rules,
            initial_state=headers["initial"][0],
            halting_states=frozenset(headers.get("halting", ())),
            blank=blank,
        )
    except ValueError as exc:
        raise MachineParseError(str(exc)) from exc


def load_machine(path) -> TuringMachine:
    """Parse a machine description file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise MachineParseError(f"{path}: not UTF-8 text: {exc}") from exc
    return parse_machine(text)
