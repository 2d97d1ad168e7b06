"""Machine steps as map applications: runs, composition, and the text format."""

import collections
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chaosmark import (
    BudgetExceeded,
    MachineParseError,
    TmConfiguration,
    TuringMachine,
    initial_configuration,
    parse_machine,
    tm_run,
)
from chaosmark import budget
from window_oracle import window as window_oracle

UNARY_INCREMENT = TuringMachine(
    states=frozenset({"scan", "accept"}),
    alphabet=frozenset({"1", "#"}),
    transitions={
        ("scan", "1"): ("scan", "1", "R"),
        ("scan", "#"): ("accept", "1", "R"),
    },
    initial_state="scan",
    halting_states=frozenset({"accept"}),
)

UNARY_INCREMENT_TEXT = """\
; append one mark to a unary number
states:   scan accept
alphabet: 1 #
blank:    #
initial:  scan
halting:  accept

scan 1 -> scan 1 R
scan # -> accept 1 R
"""

RIGHT_MOVER = TuringMachine(
    states=frozenset({"go"}),
    alphabet=frozenset({"#"}),
    transitions={("go", "#"): ("go", "#", "R")},
    initial_state="go",
)

RIGHT_WRITER = TuringMachine(
    states=frozenset({"go"}),
    alphabet=frozenset({"1", "#"}),
    transitions={("go", "#"): ("go", "1", "R")},
    initial_state="go",
)

LEFT_WRITER = TuringMachine(
    states=frozenset({"go"}),
    alphabet=frozenset({"1", "#"}),
    transitions={("go", "#"): ("go", "1", "L")},
    initial_state="go",
)

# Five-state, two-symbol busy-beaver champion (Marxen and Buntrock):
# it runs 47,176,870 steps from a blank tape, so any shorter run ends
# at its step limit.
BUSY_BEAVER_TEXT = """\
states:   A B C D E H
alphabet: 0 1
blank:    0
initial:  A
halting:  H
A 0 -> B 1 R
A 1 -> C 1 L
B 0 -> C 1 R
B 1 -> B 1 R
C 0 -> D 1 R
C 1 -> E 0 L
D 0 -> A 1 L
D 1 -> D 1 L
E 0 -> H 1 R
E 1 -> A 0 L
"""


def reference_run(machine, config, max_steps, limit=None):
    """Plain stepper on one dict mutated in place: (cells, head, state, steps, reason).

    With a limit, a step that leaves more than limit cells written raises
    tm_run's BudgetExceeded text.
    """
    cells = dict(config.cells)
    head, state, steps = config.head, config.state, 0
    while True:
        if state in machine.halting_states:
            return cells, head, state, steps, "halt_state"
        if steps >= max_steps:
            return cells, head, state, steps, "step_limit"
        rule = machine.transitions.get((state, cells.get(head, machine.blank)))
        if rule is None:
            return cells, head, state, steps, "no_transition"
        state, cells[head], move = rule
        if limit is not None and len(cells) > limit:
            raise BudgetExceeded(f"tape would exceed MAX_TAPE_CELLS={limit} "
                                 f"cells at step {steps + 1}")
        head += 1 if move == "R" else -1
        steps += 1


def assert_matches_reference(machine, start, max_steps, limit=None):
    """tm_run gives the reference's result, or raises its exact text."""
    try:
        want = reference_run(machine, start, max_steps, limit)
    except BudgetExceeded as exc:
        with pytest.raises(BudgetExceeded) as got:
            tm_run(machine, start, max_steps)
        assert str(got.value) == str(exc)
        return None
    result = tm_run(machine, start, max_steps)
    cells, head, state, steps, reason = want
    assert dict(result.config.cells) == cells
    assert (result.config.head, result.config.state) == (head, state)
    assert (result.steps, result.reason) == (steps, reason)
    return result


def random_runs(seed, count):
    """Seeded (machine, start, max_steps) triples: 1-4 states, 1-3 symbols
    (one of them two characters long), missing rules, halting states,
    pre-written cells at negative indices, heads from -3 to 15."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        states = [f"q{i}" for i in range(int(rng.integers(1, 5)))]
        symbols = ["#", "1", "10"][:int(rng.integers(1, 4))]
        rules = {
            (q, a): (states[int(rng.integers(len(states)))],
                     symbols[int(rng.integers(len(symbols)))],
                     "LR"[int(rng.integers(2))])
            for q in states for a in symbols if rng.random() < 0.8
        }
        machine = TuringMachine(
            states=frozenset(states),
            alphabet=frozenset(symbols),
            transitions=rules,
            initial_state=states[0],
            halting_states=frozenset(q for q in states if rng.random() < 0.3),
        )
        cells = {int(i): symbols[int(rng.integers(len(symbols)))]
                 for i in rng.integers(-5, 20, size=int(rng.integers(0, 12)))}
        start = TmConfiguration(cells, int(rng.integers(-3, 16)),
                                states[int(rng.integers(len(states)))])
        yield machine, start, int(rng.integers(0, 301))


class TestRuns:
    def test_unary_increment_halts_with_expected_tape(self):
        config = initial_configuration(UNARY_INCREMENT, "11")
        result = tm_run(UNARY_INCREMENT, config, 100)
        assert result.halted
        assert result.reason == "halt_state"
        assert result.steps == 3
        assert result.config.state == "accept"
        assert result.config.head == 3
        assert dict(result.config.cells) == {0: "1", 1: "1", 2: "1"}
        assert result.config.window("#")[1] == "111#"

    def test_step_budget_stops_without_halting(self):
        config = initial_configuration(UNARY_INCREMENT, "11")
        result = tm_run(UNARY_INCREMENT, config, 2)
        assert not result.halted
        assert result.reason == "step_limit"
        assert result.steps == 2
        assert result.config.state == "scan"
        assert result.config.head == 2

    def test_zero_budget_returns_start(self):
        config = initial_configuration(UNARY_INCREMENT, "11")
        result = tm_run(UNARY_INCREMENT, config, 0)
        assert result.steps == 0
        assert result.config == config
        with pytest.raises(ValueError):
            tm_run(UNARY_INCREMENT, config, -1)

    def test_one_step_leaves_the_source_unchanged(self):
        config = initial_configuration(UNARY_INCREMENT, "1")
        after = tm_run(UNARY_INCREMENT, config, 1).config
        assert dict(config.cells) == {0: "1"}
        assert after is not config
        with pytest.raises(TypeError):
            config.cells[0] = "#"

    def test_runs_compose(self):
        config = initial_configuration(RIGHT_MOVER, "")
        whole = tm_run(RIGHT_MOVER, config, 1000)
        assert not whole.halted
        assert whole.steps == 1000
        for a in [0, 1, 7, 500, 999, 1000]:
            first = tm_run(RIGHT_MOVER, config, a)
            second = tm_run(RIGHT_MOVER, first.config, 1000 - a)
            assert first.steps + second.steps == 1000
            assert second.config == whole.config

    def test_undefined_transition_halts_with_reason(self):
        machine = TuringMachine(
            states=frozenset({"scan"}),
            alphabet=frozenset({"1", "#"}),
            transitions={("scan", "#"): ("scan", "#", "R")},
            initial_state="scan",
        )
        config = initial_configuration(machine, "1")
        result = tm_run(machine, config, 10)
        assert result.halted
        assert result.reason == "no_transition"
        assert result.steps == 0
        assert result.config == config

    def test_far_cells_stay_untouched(self):
        cells = {0: "1", 1: "1", 50: "1"}
        config = TmConfiguration(cells, 0, "scan")
        result = tm_run(UNARY_INCREMENT, config, 100)
        assert result.config.cells[50] == "1"
        assert (min(result.config.cells), max(result.config.cells)) == (0, 50)

    def test_left_moves_reach_negative_cells(self):
        machine = TuringMachine(
            states=frozenset({"a", "b", "halt"}),
            alphabet=frozenset({"1", "#"}),
            transitions={
                ("a", "#"): ("b", "1", "L"),
                ("b", "#"): ("halt", "1", "R"),
            },
            initial_state="a",
            halting_states=frozenset({"halt"}),
        )
        result = tm_run(machine, initial_configuration(machine, ""), 10)
        assert dict(result.config.cells) == {0: "1", -1: "1"}
        payload = result.to_dict(machine)
        assert payload["window_start"] == -1
        assert payload["tape"] == "11"

    def test_to_dict_fields(self):
        config = initial_configuration(UNARY_INCREMENT, "11")
        payload = tm_run(UNARY_INCREMENT, config, 100).to_dict(UNARY_INCREMENT)
        assert payload["state"] == "accept"
        assert payload["steps"] == 3
        assert payload["halted"] is True
        assert payload["reason"] == "halt_state"
        # the window extends to the final head position, one past the marks
        assert payload["tape"] == "111#"


class TestAgainstReference:
    def test_runs_match_the_reference_stepper(self):
        reasons = set()
        negative_heads = multichar = 0
        for machine, start, max_steps in random_runs(31, 600):
            before = dict(start.cells)
            result = tm_run(machine, start, max_steps)
            cells, head, state, steps, reason = reference_run(
                machine, start, max_steps)
            assert dict(result.config.cells) == cells
            assert (result.config.head, result.config.state) == (head, state)
            assert (result.steps, result.reason) == (steps, reason)
            assert result.halted == (reason != "step_limit")
            assert dict(start.cells) == before
            reasons.add(reason)
            negative_heads += head < 0
            multichar += "10" in cells.values()
        assert reasons == {"halt_state", "no_transition", "step_limit"}
        assert negative_heads and multichar

    def test_run_equals_successive_steps(self):
        for machine, start, max_steps in random_runs(32, 200):
            result = tm_run(machine, start, max_steps)
            config, steps = start, 0
            reason = tm_run(machine, start, 0).reason
            while steps < max_steps and reason == "step_limit":
                one = tm_run(machine, config, 1)
                config, steps, reason = one.config, steps + one.steps, one.reason
            assert (steps, reason) == (result.steps, result.reason)
            assert config == result.config

    def test_cells_far_apart_stay_out_of_memory(self):
        for cells, head in [({0: "1", 10**9: "1"}, 0),
                            ({-10**9: "1", 0: "1", 1: "1", 10**9: "1"}, 10**9),
                            ({-10**9: "#", 10**9: "1"}, 3)]:
            for machine, max_steps in [(UNARY_INCREMENT, 100),
                                       (RIGHT_WRITER, 2000), (LEFT_WRITER, 2000)]:
                start = TmConfiguration(cells, head, machine.initial_state)
                tracemalloc.start()
                try:
                    assert_matches_reference(machine, start, max_steps)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < 2 * 10**6, (cells, head, machine, peak)

    def test_symbols_outside_the_alphabet(self):
        foreign = {-2: "x", 0: "1", 1: "yy", 3: "#", 6: "x"}
        for machine in (UNARY_INCREMENT, RIGHT_MOVER, RIGHT_WRITER, LEFT_WRITER):
            for head in (-3, 0, 2, 5, 7):
                start = TmConfiguration(foreign, head, machine.initial_state)
                result = assert_matches_reference(machine, start, 50)
                assert {k: v for k, v in result.config.cells.items()
                        if v not in machine.alphabet} == \
                    {k: v for k, v in foreign.items() if v not in machine.alphabet}
        reached = 0
        for machine, start, max_steps in random_runs(33, 300):
            pool = [*sorted(machine.alphabet), "x", "zz"]
            cells = {i: pool[(i * 7 + len(machine.states)) % len(pool)]
                     for i in range(-4, 12, 2)}
            start = TmConfiguration(cells, start.head, start.state)
            result = assert_matches_reference(machine, start, max_steps)
            reached += result.config.cells.get(result.config.head) in ("x", "zz")
        assert reached

    def test_halting_initial_state(self):
        for cells in ({}, {0: "1", 1: "#"}, {5: "x"}):
            start = TmConfiguration(cells, 1, "accept")
            for max_steps in (0, 1, 100):
                result = assert_matches_reference(UNARY_INCREMENT, start, max_steps)
                assert (result.steps, result.reason) == (0, "halt_state")
                assert result.config == start

    def test_long_walks_grow_the_window_on_both_sides(self):
        # a walker that turns back at each end sweeps wider and wider
        bouncer = TuringMachine(
            states=frozenset({"r", "l"}),
            alphabet=frozenset({"#", "1"}),
            transitions={("r", "1"): ("r", "1", "R"), ("r", "#"): ("l", "1", "L"),
                         ("l", "1"): ("l", "1", "L"), ("l", "#"): ("r", "1", "R")},
            initial_state="r",
        )
        tapes = [{}, {i: "1" for i in range(-30, 40)},
                 {-2500: "1", -7: "#", 0: "1", 2600: "1", 4000: "#"}]
        for cells in tapes:
            for head in (-3, 0, 37):
                for machine in (RIGHT_WRITER, LEFT_WRITER, RIGHT_MOVER, bouncer):
                    start = TmConfiguration(cells, head, machine.initial_state)
                    for max_steps in (1, 63, 64, 65, 1000, 5000):
                        assert_matches_reference(machine, start, max_steps)
        spans = []
        for machine, start, max_steps in random_runs(34, 150):
            cells = {**start.cells, -3000: "#", 2900: "1"}
            start = TmConfiguration(cells, start.head, start.state)
            result = assert_matches_reference(machine, start, max_steps * 17)
            spans.append(result.config.head)
        assert min(spans) < -100 and max(spans) > 100

    @pytest.mark.parametrize("limit", [1, 2, 7, 50])
    def test_tape_budget_matches_the_reference(self, monkeypatch, limit):
        monkeypatch.setattr(budget, "MAX_TAPE_CELLS", limit)
        raised = 0
        for machine, start, max_steps in random_runs(35 + limit, 300):
            cells = dict(list(start.cells.items())[:limit])
            start = TmConfiguration(cells, start.head, start.state)
            raised += assert_matches_reference(
                machine, start, max_steps, limit) is None
        for machine in (RIGHT_WRITER, LEFT_WRITER, RIGHT_MOVER):
            start = initial_configuration(machine, "")
            raised += assert_matches_reference(machine, start, 100, limit) is None
        assert raised

    def test_start_over_the_budget(self, monkeypatch):
        monkeypatch.setattr(budget, "MAX_TAPE_CELLS", 3)
        cells = {i: "1" for i in range(5)}
        # any step raises at step 1, even one that rewrites a written cell
        for machine, head in [(UNARY_INCREMENT, 0), (UNARY_INCREMENT, 7),
                              (RIGHT_MOVER, 9), (LEFT_WRITER, -1)]:
            start = TmConfiguration(cells, head, machine.initial_state)
            with pytest.raises(BudgetExceeded,
                               match=r"MAX_TAPE_CELLS=3 cells at step 1$"):
                tm_run(machine, start, 10)
            assert assert_matches_reference(machine, start, 10, 3) is None
        # a run that takes no step does not raise
        for machine, state, head, max_steps, reason in [
                (UNARY_INCREMENT, "accept", 0, 10, "halt_state"),
                (UNARY_INCREMENT, "scan", 0, 0, "step_limit"),
                (RIGHT_MOVER, "go", 2, 10, "no_transition"),
                (LEFT_WRITER, "go", 3, 10, "no_transition")]:
            start = TmConfiguration(cells, head, state)
            result = assert_matches_reference(machine, start, max_steps, 3)
            assert (result.steps, result.reason) == (0, reason)

    def test_one_run_builds_one_configuration(self, monkeypatch):
        machine = parse_machine(BUSY_BEAVER_TEXT)
        start = initial_configuration(machine, "")
        built = []
        post_init = TmConfiguration.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(TmConfiguration, "__post_init__", counting)
        result = tm_run(machine, start, 5000)
        assert result.steps == 5000 and result.reason == "step_limit"
        assert len(built) == 1


class TestTapeBudget:
    def test_run_stops_at_the_budget(self, monkeypatch):
        monkeypatch.setattr(budget, "MAX_TAPE_CELLS", 50)
        start = initial_configuration(RIGHT_WRITER, "")
        assert len(tm_run(RIGHT_WRITER, start, 50).config.cells) == 50
        with pytest.raises(BudgetExceeded, match="MAX_TAPE_CELLS=50.*step 51"):
            tm_run(RIGHT_WRITER, start, 1000)
        # rewriting cells already on the tape costs nothing
        full = tm_run(RIGHT_MOVER, TmConfiguration(
            {i: "#" for i in range(50)}, 0, "go"), 50)
        assert full.steps == 50

    def test_step_stops_at_the_budget(self, monkeypatch):
        monkeypatch.setattr(budget, "MAX_TAPE_CELLS", 1)
        start = initial_configuration(RIGHT_WRITER, "")
        config = tm_run(RIGHT_WRITER, start, 1).config
        with pytest.raises(BudgetExceeded):
            tm_run(RIGHT_WRITER, config, 1)

    def test_initial_tape_over_the_budget_is_rejected(self, monkeypatch):
        monkeypatch.setattr(budget, "MAX_TAPE_CELLS", 5)
        assert len(initial_configuration(UNARY_INCREMENT, "11111").cells) == 5
        # the sixth symbol read puts the tape past the span rule
        with pytest.raises(BudgetExceeded, match="^tape and head span more "
                                                 "than MAX_TAPE_CELLS=5 cells$"):
            initial_configuration(UNARY_INCREMENT, "111111")
        # a bad symbol inside the budget is reported first, one past it
        # is never read
        with pytest.raises(ValueError, match="tape symbol 'x'"):
            initial_configuration(UNARY_INCREMENT, "1111x1")
        with pytest.raises(BudgetExceeded, match="MAX_TAPE_CELLS=5"):
            initial_configuration(UNARY_INCREMENT, "11111x")
        with pytest.raises(BudgetExceeded, match="MAX_TAPE_CELLS=5"):
            initial_configuration(UNARY_INCREMENT, iter("1" * 10**9))

    def test_head_far_from_the_tape_is_rejected(self, monkeypatch):
        monkeypatch.setattr(budget, "MAX_TAPE_CELLS", 5)
        for head in (4, -3):  # cells 0..4 and -3..1: five cells each
            assert initial_configuration(UNARY_INCREMENT, "11", head).head == head
        for head in (5, -4, 10**20, -10**20):
            with pytest.raises(BudgetExceeded, match="MAX_TAPE_CELLS=5"):
                initial_configuration(UNARY_INCREMENT, "11", head)
        # an empty tape spans only the head's cell
        assert initial_configuration(UNARY_INCREMENT, "", 10**20).head == 10**20

    def test_budget_is_a_value_error(self):
        assert issubclass(BudgetExceeded, ValueError)
        assert budget.MAX_TAPE_CELLS == 10**6
        assert budget.MAX_TM_STEPS == 10**7


class TestStepBudget:
    def test_run_over_the_budget_raises_before_stepping(self, monkeypatch):
        monkeypatch.setattr(budget, "MAX_TM_STEPS", 20)
        start = initial_configuration(RIGHT_WRITER, "")
        assert tm_run(RIGHT_WRITER, start, 20).steps == 20
        # a first step would write past an empty tape budget
        monkeypatch.setattr(budget, "MAX_TAPE_CELLS", 0)
        with pytest.raises(BudgetExceeded,
                           match="max_steps 21 exceeds MAX_TM_STEPS=20"):
            tm_run(RIGHT_WRITER, start, 21)


class TestConfigurations:
    def test_initial_configuration_validates_symbols(self):
        with pytest.raises(ValueError):
            initial_configuration(UNARY_INCREMENT, "1x1")

    def test_initial_configuration_head_offset(self):
        config = initial_configuration(UNARY_INCREMENT, "11", head=5)
        assert config.head == 5
        assert config.window(UNARY_INCREMENT.blank) == (0, "11####")

    def test_head_must_be_integer(self):
        with pytest.raises(ValueError):
            TmConfiguration({}, 1.5, "scan")

    def test_multicharacter_symbols_render_spaced(self):
        config = TmConfiguration({0: "10", 1: "#"}, 0, "s")
        assert config.window("#")[1] == "10 #"
        # the symbols shown decide, blanks in the window among them
        config = TmConfiguration({0: "1", 2: "1"}, 0, "s")
        assert config.window("BL") == (0, "1 BL 1")
        assert config.window("#") == (0, "1#1")
        assert TmConfiguration({0: "1"}, 0, "s").window("BL") == (0, "1")

    def test_empty_tape_window_defaults_to_head(self):
        config = TmConfiguration({}, 3, "s")
        assert config.window("#")[1] == "#"
        assert config.window("#") == (3, "#")

    def test_window_over_its_budget_is_refused(self, monkeypatch):
        far = TmConfiguration({0: "1", 10**12: "1"}, 0, "s")
        with pytest.raises(BudgetExceeded, match=r"2\*MAX_TAPE_CELLS=2000000"):
            far.window("#")
        monkeypatch.setattr(budget, "MAX_TAPE_CELLS", 5)
        assert TmConfiguration({0: "1"}, 9, "s").window("#") == (0, "1" + "#" * 9)
        assert TmConfiguration({-3: "1", 6: "1"}, 0, "s").window("#")[0] == -3
        for cells, head in [({0: "1"}, 10), ({0: "1", 10: "1"}, 5),
                            ({-11: "1"}, -1)]:
            config = TmConfiguration(cells, head, "scan")
            with pytest.raises(BudgetExceeded, match="11 cells, more than "
                                                     r"2\*MAX_TAPE_CELLS=10"):
                config.window("#")
            result = tm_run(UNARY_INCREMENT, config, 0)
            with pytest.raises(BudgetExceeded):
                result.to_dict(UNARY_INCREMENT)

    def test_window_matches_the_cell_by_cell_oracle(self):
        """Sparse cells on both sides of 0, multi-character and empty
        symbols, cells written with the blank, heads outside the cells
        and empty tapes render as the oracle renders them; at a small
        MAX_TAPE_CELLS the 2 * MAX_TAPE_CELLS refusal is the oracle's."""
        kinds = collections.Counter()
        far = st.sampled_from([None] * 4 + [-10**12, 10**12])
        symbol = st.sampled_from(["1", "#", "10", "BL", ""])

        def outcome(render):
            try:
                return "window", render()
            except BudgetExceeded as exc:
                return "refused", str(exc)

        @settings(max_examples=500, derandomize=True, deadline=None)
        @given(st.dictionaries(st.integers(-30, 30), symbol, max_size=12),
               st.integers(-70, 70), far, far, st.sampled_from(["#", "BL", "1"]),
               st.sampled_from([2, 30, budget.MAX_TAPE_CELLS]))
        def check(cells, head, far_cell, far_head, blank, limit):
            if far_cell is not None:
                cells = {**cells, far_cell: "1"}
            head = head if far_head is None else far_head
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(budget, "MAX_TAPE_CELLS", limit)
                got = outcome(lambda: TmConfiguration(cells, head, "s")
                              .window(blank))
            assert got == outcome(lambda: window_oracle(cells, head, blank,
                                                        limit))
            kinds[got[0] if got[0] == "refused"
                  else "spaced" if " " in got[1][1] else "joined"] += 1

        check()
        # windows joined with and without spaces, and refusals
        assert min(kinds.values()) >= 50 and len(kinds) == 3, kinds

    def test_window_spans_written_cells_and_head(self):
        config = TmConfiguration({2: "1", 4: "1"}, -1, "s")
        assert config.window("#") == (-1, "###1#1")
        config = TmConfiguration({-2: "1"}, 1, "s")
        assert config.window("#") == (-2, "1###")


class TestMachineValidation:
    def test_rejects_bad_definitions(self):
        good = dict(
            states=frozenset({"a"}),
            alphabet=frozenset({"#"}),
            transitions={},
            initial_state="a",
        )
        for override in [
            dict(states=frozenset()),
            dict(alphabet=frozenset({"x"})),
            dict(initial_state="zz"),
            dict(halting_states=frozenset({"zz"})),
            dict(transitions={("a", "#"): ("a", "#", "U")}),
            dict(transitions={("a", "#"): ("zz", "#", "R")}),
            dict(transitions={("a", "#"): ("a", "y", "R")}),
            dict(transitions={("zz", "#"): ("a", "#", "R")}),
            dict(transitions={("a", "y"): ("a", "#", "R")}),
        ]:
            with pytest.raises(ValueError):
                TuringMachine(**{**good, **override})

    def test_transitions_are_immutable(self):
        with pytest.raises(TypeError):
            UNARY_INCREMENT.transitions[("scan", "1")] = ("scan", "1", "L")


class TestParser:
    def test_parses_and_runs_like_the_coded_machine(self):
        machine = parse_machine(UNARY_INCREMENT_TEXT)
        assert machine.blank == "#"
        assert machine.halting_states == frozenset({"accept"})
        config = initial_configuration(machine, "11")
        result = tm_run(machine, config, 100)
        assert result.steps == 3
        assert result.config.window(machine.blank)[1] == "111#"

    def test_comments_and_blank_lines_ignored(self):
        text = "; nothing\n\nstates: a\nalphabet: #\ninitial: a ; trailing\n"
        machine = parse_machine(text)
        assert machine.states == frozenset({"a"})

    def test_custom_blank(self):
        text = "states: a\nalphabet: 0 _\nblank: _\ninitial: a\n"
        assert parse_machine(text).blank == "_"

    @pytest.mark.parametrize("text", [
        "alphabet: #\ninitial: a\n",                        # missing states
        "states: a\ninitial: a\n",                          # missing alphabet
        "states: a\nalphabet: #\n",                         # missing initial
        "states: a\nalphabet: #\ninitial: a b\n",           # two initials
        "states: a\nalphabet: #\ninitial: a\nblank: x y\n",
        "states: a\nalphabet: #\ninitial: a\nstates: a\n",  # duplicate header
        "states: a\nalphabet: #\ninitial: a\na # -> a #\n",
        "states: a\nalphabet: #\ninitial: a\na # -> a # R\na # -> a # L\n",
        "states: a\nalphabet: #\ninitial: a\nwhat is this\n",
        "states: a\nalphabet: #\ninitial: a\nb # -> a # R\n",  # unknown state
        "states: a\nalphabet: x\ninitial: a\n",             # blank not declared
    ])
    def test_rejects_malformed_text(self, text):
        with pytest.raises(MachineParseError):
            parse_machine(text)

    def test_parse_errors_cite_line_numbers(self):
        text = "states: a\nalphabet: #\ninitial: a\nbogus line\n"
        with pytest.raises(MachineParseError, match="line 4"):
            parse_machine(text)
