"""Turing machine runs as orbits of a step map.

A machine configuration (tape, head, state) is a point; one transition
is one application of the step function; a full run is an orbit
segment.  Machines here carry explicit halting states, and a missing
transition also halts a run (with a distinct reason), so every run
terminates by halt or by step budget.

A configuration stores its tape sparsely: a mapping from absolute cell
index to symbol, with every unwritten cell reading as the blank and at
most MAX_TAPE_CELLS cells written.  A run takes at most MAX_TM_STEPS
steps.  It steps a coded window of the tape (int codes, one rule row
per state) and freezes it into a configuration only at return, so it
is linear in its steps, and its memory follows the written cells, not
the gaps between them; a one-step tm_run is one map step.  A step
never touches any cell other than the one under the head, so run
results compose: running a+b steps equals running a, then b from the
intermediate configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from types import MappingProxyType

from . import budget
from .budget import BudgetExceeded

MOVES = ("L", "R")


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

        Symbols are joined with spaces when any shown symbol is longer
        than one character, which the distinct symbols decide.

        Raises:
            BudgetExceeded: the window spans more than 2 * MAX_TAPE_CELLS
                cells (checked before rendering any).
        """
        lo = min(min(self.cells, default=self.head), self.head)
        hi = max(max(self.cells, default=self.head), self.head)
        limit = budget.MAX_TAPE_CELLS
        if hi - lo >= 2 * limit:
            raise BudgetExceeded(f"tape window spans {hi - lo + 1} cells, more "
                                 f"than 2*MAX_TAPE_CELLS={2 * limit}")
        symbols = [blank] * (hi - lo + 1)
        for i, s in self.cells.items():
            symbols[i - lo] = s
        return lo, ("" if all(len(s) == 1 for s in set(symbols)) else " ").join(symbols)


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
    limit = budget.MAX_TAPE_CELLS
    # one symbol past the budget is read, so a longer tape fails the span;
    # the list refuses it before the dict, which costs ten times as much
    symbols = list(islice(tape, limit + 1))
    if not machine.alphabet.issuperset(symbols):
        i, bad = next((i, s) for i, s in enumerate(symbols)
                      if s not in machine.alphabet)
        if i < limit:
            raise ValueError(f"tape symbol {bad!r} not in the alphabet")
    if symbols and max(len(symbols) - 1, head) - min(0, head) >= limit:
        raise BudgetExceeded(f"tape and head span more than "
                             f"MAX_TAPE_CELLS={limit} cells")
    return TmConfiguration(dict(enumerate(symbols)), head,
                           machine.initial_state)


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

    The run steps a coded window of the tape: a list of small int codes,
    one per symbol on the tape or in the alphabet, plus *unwritten* (a
    cell not in config.cells, read as the blank) and *edge* (a sentinel
    past each end).  Each state has one rule row indexed by code, whose
    entries hold (next state, next row, write code, +1/-1); halting
    states and the two extra codes have no rules.  The inner loop only
    indexes rows until a rule is missing.  Then the outer loop tells the
    cases apart: a halting state, the step limit, an edge (the window
    doubles on that side), an unwritten cell (written as the blank when
    the blank has a rule, which counts one more cell) or no transition.
    Given cells farther from the head than the window's first layout
    allows stay in a dict until the head lands on them, so memory does
    not depend on the gaps between them.  The window is frozen into one
    configuration at return.

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
    if max_steps > budget.MAX_TM_STEPS:
        raise BudgetExceeded(f"max_steps {max_steps} exceeds "
                             f"MAX_TM_STEPS={budget.MAX_TM_STEPS}")
    cells, head, state = config.cells, config.head, config.state
    limit = budget.MAX_TAPE_CELLS
    symbols = [*machine.alphabet, *(set(cells.values()) - machine.alphabet)]
    code = {s: c for c, s in enumerate(symbols)}
    unwritten, edge = len(symbols), len(symbols) + 1  # codes below are symbols
    blank = code[machine.blank]
    rows = {q: [None] * (edge + 1) for q in machine.states}
    for (q, symbol), (nxt, write, move) in machine.transitions.items():
        if q not in machine.halting_states:
            rows[q][code[symbol]] = (nxt, rows[nxt], code[write],
                                     1 if move == "R" else -1)
    row = rows.get(state) or [None] * (edge + 1)

    # One pass lays out the given cells within 2n + 64 of the head; the
    # rest wait in `far`.  tape[i] is cell off + i, and every written cell
    # in the window lies in [first, last].
    reach = 2 * len(cells) + 64
    lo = max(min(min(cells, default=head), head), head - reach)
    hi = min(max(max(cells, default=head), head), head + reach)
    tape = [unwritten] * (hi - lo + 3)
    tape[0] = tape[-1] = edge
    off, pos, far = lo - 1, head - lo + 1, {}
    for i, s in cells.items():
        if lo <= i <= hi:
            tape[i - off] = code[s]
        else:
            far[i] = s
    written, first, last = len(cells), lo, hi
    if written > limit and max_steps:  # any first step breaks the budget
        c = tape[pos]
        if row[blank if c == unwritten else c] is not None:
            raise BudgetExceeded(f"tape would exceed MAX_TAPE_CELLS={limit} "
                                 f"cells at step 1")

    steps = 0
    while True:
        room = max_steps - steps
        for done in range(room):
            rule = row[tape[pos]]
            if rule is None:
                break
            state, row, tape[pos], move = rule
            pos += move
        else:
            done = room
        steps += done
        if state in machine.halting_states:
            reason = "halt_state"
            break
        if steps == max_steps:
            reason = "step_limit"
            break
        c = tape[pos]
        if c == edge:  # double the window on this side
            grow = len(tape)
            ext = [unwritten] * grow
            if pos == 0:
                tape[1:1] = ext
                off -= grow
                pos += grow
            else:
                tape[-1:-1] = ext
        elif c == unwritten and off + pos in far:  # a given cell, reached
            tape[pos] = code[far.pop(off + pos)]
            first, last = min(first, off + pos), max(last, off + pos)
        elif c == unwritten and row[blank] is not None:
            written += 1
            if written > limit:
                raise BudgetExceeded(
                    f"tape would exceed MAX_TAPE_CELLS={limit} cells "
                    f"at step {steps + 1}")
            tape[pos] = blank
            first, last = min(first, off + pos), max(last, off + pos)
        else:
            reason = "no_transition"
            break
    final = {i: symbols[c] for i, c in zip(range(first, last + 1),
                                           tape[first - off:last - off + 1])
             if c < unwritten}
    final.update(far)
    return TmRunResult(TmConfiguration(final, off + pos, state), steps, reason)


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
