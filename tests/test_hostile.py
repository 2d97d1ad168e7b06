"""Hostile inputs on the CLI's file, text and orbit paths.

Each case runs ``cli.main`` in process on generated message text and
message files, embed hosts and decode inputs read from generated JSON,
CSV and PGM vector files, the scheme options of embed and decode,
machine files and tapes, or on the options of every ``analyze``
command (the orbit commands scan, trace, expansivity and continuity,
and the witnesses sensitivity, transitivity and regularity) and the
seeds they read from ``--seed`` or ``CHAOSMARK_SEED``, and must exit
with a documented code (0-3), print no traceback, and finish inside
WALL_S seconds.  A vector file that is well formed but holds a
non-finite value must exit 3 with one ``error:`` line.
``derandomize=True`` makes every run draw the same examples, so CI is
deterministic; EXAMPLES cases run per test.
"""

import contextlib
import io
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from chaosmark import budget
from chaosmark.cli import main

EXAMPLES = 150
WALL_S = 2.0
CASES = settings(max_examples=EXAMPLES, derandomize=True, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])

# Bit strings, hex, prefixed near-literals and free text.  Widths run
# to 10^20: parse_message_text lays out all nc bits (about 0.8 ms per
# 10^6) before nc meets the host's nv, and refuses widths over
# MAX_MESSAGE_BITS before any layout.
BIT_TEXT = st.text(alphabet="01", max_size=12)
HEX_TEXT = st.builds(lambda prefix, digits: prefix + digits,
                     st.sampled_from(["0x", "0X", " 0x"]),
                     st.text(alphabet="0123456789abcdefABCDEF", max_size=6))
PREFIXED = st.builds(
    lambda prefix, body: prefix + body,
    st.sampled_from(["0b", "0B", "0x", "0X", " 0b", "0x0", ""]),
    st.text(alphabet="0123456789abcdefxXbB \n\t", max_size=10))
MESSAGE_TEXT = st.one_of(BIT_TEXT, HEX_TEXT, PREFIXED, st.text(max_size=12))
MESSAGE_BYTES = st.one_of(MESSAGE_TEXT.map(str.encode),
                          st.binary(max_size=12))
NC = st.one_of(st.none(), st.integers(-3, 40), st.integers(10**3, 10**20))

# Machine files: a valid head or none, rules over its own states and
# symbols, and stray lines in and out of the grammar, in any order.  A
# valid machine runs to a halt, a missing rule or the step limit.
NAMES = st.sampled_from(["a", "b", "h", "1", "#", "0", "_", "aa", "->", ";"])
HEADER = st.builds(
    lambda name, words: f"{name}: {' '.join(words)}",
    st.sampled_from(["states", "alphabet", "blank", "initial", "halting",
                     "STATES", "other", ""]),
    st.lists(NAMES, max_size=3))
RULE = st.builds(
    lambda lhs, rhs: f"{' '.join(lhs)} -> {' '.join(rhs)}",
    st.lists(NAMES, min_size=1, max_size=3),
    st.lists(st.one_of(NAMES, st.sampled_from("LRS")), max_size=4))
LINE = st.one_of(HEADER, RULE, st.text(max_size=10))
GOOD_HEAD = ["states: a b h", "alphabet: 1 #", "initial: a", "halting: h"]
GOOD_RULE = st.builds(
    lambda state, read, nxt, write, move: f"{state} {read} -> {nxt} {write} {move}",
    *[st.sampled_from(options) for options in
      ("ab", "1#", "abh", "1#", "LR")])
MACHINE_LINES = st.builds(
    lambda head, rules, stray: (head, rules + stray),
    st.sampled_from([GOOD_HEAD, []]),
    st.lists(GOOD_RULE, max_size=6, unique_by=lambda r: r[:3]),
    st.lists(LINE, max_size=2),
).flatmap(lambda parts: st.permutations(parts[1]).map(
    lambda body: "\n".join(parts[0] + list(body)).encode()))
MACHINE_BYTES = st.one_of(MACHINE_LINES, st.binary(max_size=40))
TAPE = st.one_of(st.none(), st.text(alphabet="1#", max_size=12),
                 st.text(max_size=12))
TAPE_BYTES = st.one_of(TAPE.map(lambda t: (t or "").encode()),
                       st.binary(max_size=20))

HOST = '{"nv": 8, "data": [0.5, -1.0, 2.0, 0.25, -0.75, 1.5, -2.0, 1.0]}\n'

# Vector files as (suffix, bytes, non_finite): non_finite marks a file
# that is well formed apart from a value float64 cannot hold finitely.
# JSON reads NaN and Infinity, takes 1e400 as inf and 10**400 as an int
# past float64; its entries also mix in booleans, null, strings and
# nested lists, and "nv" may be wrong.  CSV lines mix numbers, nan, inf,
# text and blank lines.  PGM files may be truncated anywhere or hold
# samples past maxval.  The sizes stay small, so every host fits a
# one-bit message with orthonormal carriers.
FINITE = ["0", "-1", "2.5", "1e-300", "-0.0", "1e308"]
NON_FINITE = ["NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1" + "0" * 400]
NOT_NUMBERS = ["true", "false", "null", '"1"', "[1.0]", "[]", "{}"]


def _json_file(entries, nv):
    count = str(len(entries)) if nv is None else nv
    text = '{"nv": %s, "data": [%s]}\n' % (count, ", ".join(entries))
    non_finite = (nv is None and set(entries) <= {*FINITE, *NON_FINITE}
                  and bool(set(entries) & set(NON_FINITE)))
    return ".json", text.encode(), non_finite


def _entries(*pools):
    """Lists of 1-8 entries from each pool in turn, so valid, non-finite
    and malformed files are each drawn often."""
    return st.one_of([st.lists(st.sampled_from(pool), min_size=1, max_size=8)
                      for pool in pools])


JSON_FILES = st.builds(
    _json_file,
    st.one_of(_entries(FINITE, FINITE + NON_FINITE,
                       FINITE + NON_FINITE + NOT_NUMBERS), st.just([])),
    st.one_of(st.none(), st.sampled_from(["0", "9", "-1", '"2"', "true",
                                          "2.0"])))
CSV_NUMBERS = ["0", "-1", "2.5", "1e-300", " -0.0 "]
CSV_NON_FINITE = ["nan", "inf", "-inf", "NaN", "1e400", "-Infinity"]
CSV_BLANK = ["", "  ", "\t"]


def _csv_file(lines):
    non_finite = (set(lines) <= {*CSV_NUMBERS, *CSV_NON_FINITE, *CSV_BLANK}
                  and bool(set(lines) & set(CSV_NON_FINITE)))
    return ".csv", "\n".join(lines).encode(), non_finite


CSV_FILES = st.builds(_csv_file, st.one_of(_entries(
    CSV_NUMBERS + CSV_BLANK, CSV_NUMBERS + CSV_NON_FINITE + CSV_BLANK,
    CSV_NUMBERS + CSV_NON_FINITE + CSV_BLANK + ["x", "1,2", "0x10", "--"]),
    st.just([])))


def _pgm_file(magic, shape, maxval, values, damage):
    """A PGM file of the given header whose samples cycle through values
    (at most 16 are written), then damaged: the last sample raised past
    maxval where its width allows, or the file cut after `damage` bytes."""
    width, height = shape
    wide = maxval > 255
    samples = [v % (maxval + 1) for v in values * 16][:min(width * height, 16)]
    if damage == "over" and samples and maxval + 1 < (65536 if wide else 256):
        samples[-1] = maxval + 1
    if magic == b"P5":
        body = b"".join(v.to_bytes(2 if wide else 1, "big") for v in samples)
    else:
        body = " ".join(map(str, samples)).encode()
    blob = b"%s\n%d %d\n%d\n" % (magic, width, height, maxval) + body
    return ".pgm", blob[:damage] if isinstance(damage, int) else blob, False


PGM_FILES = st.builds(
    _pgm_file,
    st.sampled_from([b"P2", b"P5", b"P2", b"P5", b"P6"]),
    st.sampled_from([(1, 1), (2, 2), (3, 1), (4, 2), (0, 1),
                     (10**9, 10**9)]),
    st.sampled_from([1, 200, 255, 40000, 65535, 0, 65536]),
    st.lists(st.integers(0, 70000), min_size=1, max_size=4),
    st.one_of(st.none(), st.just("over"), st.integers(0, 30)))
VECTOR_FILES = st.one_of(
    JSON_FILES, CSV_FILES, PGM_FILES,
    st.tuples(st.sampled_from([".json", ".csv", ".pgm", ".txt"]),
              st.binary(max_size=40), st.just(False)))
SCHEMES = st.sampled_from(["ss", "iss", "nw"])

# Options of the analyze orbit commands: plain and extreme values, and
# in most cases one option set to a bad one.  The orbit budget is cut to
# ORBIT_WORK for these cases, so every run it lets through is short, and
# it refuses a huge --nv before a point is drawn; continuity's --nv meets
# MAX_MEDIA_COMPONENTS instead.  The cut still lets the scan's 20 trials
# of 21 steps at nv 8 through, setup weight included (5160).
ORBIT_WORK = 5200
BAD = st.sampled_from(["x", "", "1.5", "nan", "inf", "-inf", "-1", "0"])
COUNTS = st.sampled_from(["0", "1", "2", "3", "20", "1000000000",
                          "99999999999999999999999"])
NVS = st.sampled_from(["1", "2", "8", "64", "1000000000",
                       "99999999999999999999999"])
REALS = st.sampled_from(["5e-324", "1e-307", "1e-300", "0.01", "0.5", "1",
                         "20", "8e307", "1e308"])
SEEDS = st.sampled_from(["0", "7", "99999999999999999999999"])
TOLERANCES = st.sampled_from(["0", "1e-9", "1e308"])
SCALES = st.lists(st.sampled_from(["5e-324", "1e-300", "1e-3", "0.1", "0.5",
                                   "9.5", "1e308", "", "nan", "-1", "x"]),
                  max_size=5).map(",".join)
FORMATS = st.sampled_from(["json", "csv"])


def _argv(values: dict, bad) -> list:
    if bad is not None:
        values[bad[0]] = bad[1]
    return [f"--{name.replace('_', '-')}={value}"
            for name, value in values.items() if value is not None]


def hostile_options(**good):
    """argv options, each left out or drawn from its good values, then at
    most one of them replaced by a bad value."""
    return st.builds(
        _argv,
        st.fixed_dictionaries({name: st.one_of(st.none(), values)
                               for name, values in good.items()}),
        st.one_of(st.none(), st.tuples(st.sampled_from(sorted(good)), BAD)))


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    work = tmp_path_factory.mktemp("hostile")
    (work / "host.json").write_text(HOST, encoding="utf-8")
    return work


def run_cli(argv) -> tuple[int, str]:
    """main's exit code and stderr, checked against the shared bounds."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    took = time.perf_counter() - start
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
    assert took < WALL_S, (argv, took)
    return code, err.getvalue()


@CASES
@given(text=MESSAGE_TEXT, data=MESSAGE_BYTES, nc=NC,
       source=st.sampled_from(["text", "file", "both", "neither"]))
def test_embed_survives_hostile_messages(work, text, data, nc, source):
    (work / "message.txt").write_bytes(data)
    argv = ["embed", "--scheme", "iss", "--host", str(work / "host.json"),
            "--out", str(work / "stego.json")]
    if source in ("text", "both"):
        argv.append(f"--message={text}")
    if source in ("file", "both"):
        argv += ["--message-file", str(work / "message.txt")]
    if nc is not None:
        argv += ["--nc", str(nc)]
    code, err = run_cli(argv)
    if source in ("both", "neither"):
        assert code == 2 and err.count("\n") == 1


def _write_vector_file(work, name, vector_file) -> tuple[str, bool]:
    suffix, data, non_finite = vector_file
    path = work / (name + suffix)
    path.write_bytes(data)
    return str(path), non_finite


def _check_non_finite(non_finite, code, err):
    if non_finite:
        assert code == 3 and err.startswith("error: ") and err.count("\n") == 1, err


@CASES
@given(host=VECTOR_FILES, scheme=SCHEMES,
       message=st.sampled_from(["1", "0b0", "1", "0x1", ""]))
def test_embed_survives_hostile_host_files(work, host, scheme, message):
    path, non_finite = _write_vector_file(work, "host", host)
    code, err = run_cli(["embed", "--scheme", scheme, "--host", path,
                         f"--message={message}",
                         "--out", str(work / "stego.json")])
    _check_non_finite(non_finite, code, err)


@CASES
@given(stego=VECTOR_FILES, scheme=SCHEMES,
       nc=st.sampled_from([None, "1", "2", "8", "9", "0", "-1",
                           "99999999999999999999999"]),
       key=st.sampled_from(["0", "7", "-1", "18446744073709551616"]))
def test_decode_survives_hostile_vector_files(work, stego, scheme, nc, key):
    path, non_finite = _write_vector_file(work, "received", stego)
    argv = ["decode", "--scheme", scheme, "--stego", path, f"--key={key}"]
    if nc is not None:
        argv.append(f"--nc={nc}")
    code, err = run_cli(argv)
    _check_non_finite(non_finite, code, err)


@CASES
@given(machine=MACHINE_BYTES, tape=TAPE)
def test_tm_survives_hostile_machines_and_tapes(work, machine, tape):
    (work / "m.tm").write_bytes(machine)
    argv = ["tm", "--machine", str(work / "m.tm")]
    if tape is not None:
        argv.append(f"--tape={tape}")
    run_cli(argv)


@CASES
@given(tape=TAPE_BYTES)
def test_tm_survives_hostile_tape_files(work, tape):
    (work / "inc.tm").write_text(
        "states: a h\nalphabet: 1 #\ninitial: a\nhalting: h\n"
        "a 1 -> a 1 R\na # -> h 1 R\n", encoding="utf-8")
    (work / "tape.txt").write_bytes(tape)
    run_cli(["tm", "--machine", str(work / "inc.tm"),
             "--tape-file", str(work / "tape.txt")])


@pytest.fixture(scope="module")
def small_orbit_budget():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(budget, "MAX_ORBIT_WORK", ORBIT_WORK)
        yield


@CASES
@given(argv=hostile_options(r=REALS, trials=COUNTS, n_max=COUNTS, nv=NVS,
                            bound_n=REALS, seed=SEEDS))
def test_analyze_scan_survives_hostile_options(small_orbit_budget, argv):
    # the default 500 trials pass no budget this small; a later option wins
    run_cli(["analyze", "scan", "--r=0.01", "--trials=20", *argv])


@CASES
@given(argv=hostile_options(
    pair=st.sampled_from(["sensitivity", "expansivity", "random"]),
    r=REALS, eps=REALS, n_max=COUNTS, nv=NVS, bound_n=REALS, seed=SEEDS,
    format=FORMATS))
def test_analyze_trace_survives_hostile_options(small_orbit_budget, argv):
    run_cli(["analyze", "trace", *argv])


@CASES
@given(argv=hostile_options(eps=REALS, n_max=COUNTS, nv=NVS, bound_n=REALS,
                            tolerance=TOLERANCES))
def test_analyze_expansivity_survives_hostile_options(small_orbit_budget,
                                                      argv):
    run_cli(["analyze", "expansivity", *argv])


@CASES
@given(argv=hostile_options(scales=SCALES, nv=NVS, bound_n=REALS,
                            seed=SEEDS, tolerance=TOLERANCES, format=FORMATS))
def test_analyze_continuity_survives_hostile_options(argv):
    run_cli(["analyze", "continuity", *argv])


# The witnesses: radius or eps, tolerance, bound and seed, each plain,
# extreme or bad; MAX_MEDIA_COMPONENTS refuses a huge --nv before a
# point is drawn.  No budget needs a cut: the slowest case, a
# transitivity splice at nv 64 and r_a 1e-300, took 0.3 s on a shared
# 2-core x86 VM.
@CASES
@given(argv=hostile_options(r=REALS, nv=NVS, bound_n=REALS, seed=SEEDS,
                            tolerance=TOLERANCES, format=FORMATS))
def test_analyze_sensitivity_survives_hostile_options(argv):
    run_cli(["analyze", "sensitivity", "--r=0.1", *argv])


@CASES
@given(argv=hostile_options(r_a=REALS, nv=NVS, bound_n=REALS,
                            seed=SEEDS, tolerance=TOLERANCES, format=FORMATS))
def test_analyze_transitivity_survives_hostile_options(argv):
    run_cli(["analyze", "transitivity", "--r-a=0.1", *argv])


@CASES
@given(argv=hostile_options(eps=REALS, nv=NVS, bound_n=REALS,
                            seed=SEEDS, tolerance=TOLERANCES, format=FORMATS))
def test_analyze_regularity_survives_hostile_options(argv):
    run_cli(["analyze", "regularity", "--eps=0.1", *argv])


# Seeds on every analyze subcommand, from --seed or from CHAOSMARK_SEED:
# negative ones, 10^23 and its neighbours, and for the variable also
# blanks, signs and text int() refuses.  A negative or unreadable seed
# exits 2 with one stderr line, even for expansivity, which draws no
# point; any other seed runs to a verdict.
SEED_VALUES = ["0", "-1", "-100000000000000000000000", "99999999999999999999999",
               "100000000000000000000000", "100000000000000000000001"]
ENV_SEEDS = [*SEED_VALUES, "", "  ", " 7 ", "+3", "x", "1.5", "1e23", "0x10",
             "-0"]
SEEDED = {"sensitivity": ["--r=0.1"], "transitivity": ["--r-a=0.1"],
          "regularity": ["--eps=0.1"], "expansivity": ["--eps=0.5"],
          "continuity": [], "scan": ["--r=0.01", "--trials=20"], "trace": []}


def _check_seed(seed, code, err):
    text = seed.strip()
    try:
        refused = bool(text) and int(text) < 0
    except ValueError:
        refused = True
    if refused:
        assert code == 2 and err.count("\n") == 1, (seed, err)
    else:
        assert code in (0, 1), (seed, code, err)


@pytest.mark.parametrize("command", sorted(SEEDED))
@pytest.mark.parametrize("seed", SEED_VALUES)
def test_analyze_survives_hostile_seed_options(command, seed):
    code, err = run_cli(["analyze", command, *SEEDED[command], f"--seed={seed}"])
    _check_seed(seed, code, err)


@pytest.mark.parametrize("command", sorted(SEEDED))
@pytest.mark.parametrize("seed", ENV_SEEDS)
def test_analyze_survives_hostile_seed_variables(command, seed, monkeypatch):
    monkeypatch.setenv("CHAOSMARK_SEED", seed)
    code, err = run_cli(["analyze", command, *SEEDED[command]])
    _check_seed(seed, code, err)


# Scheme options on embed, for each scheme, and on decode: the
# amplitudes, the host-rejection factor and the bound each plain,
# extreme or bad, keys outside [0, 2^64), --nc from 0 to past every
# budget, with and without orthonormal carriers.  --nc stops at 10^4
# below the refusals: 10^6 raw carriers at nv 8 are inside the budgets
# but take about 1 s, too near WALL_S.
KEYS = st.sampled_from(["-1", "0", "7", str(2**64)])
WIDTHS = st.sampled_from(["0", "-1", "1", "4", "8", "9", "10000",
                          "99999999999999999999999"])
SCHEME_OPTIONS = {"gamma": REALS, "alpha": REALS, "lambda": REALS,
                  "eta": REALS, "bound_n": REALS, "key": KEYS, "nc": WIDTHS}
RAW = st.sampled_from([[], ["--no-orthonormalize"]])


@CASES
@given(scheme=SCHEMES, argv=hostile_options(**SCHEME_OPTIONS), raw=RAW,
       message=st.sampled_from(["1011", "0x1"]))
def test_embed_survives_hostile_scheme_options(work, scheme, argv, raw,
                                               message):
    run_cli(["embed", "--scheme", scheme, "--host", str(work / "host.json"),
             f"--message={message}", "--out", str(work / "stego.json"),
             *argv, *raw])


@CASES
@given(scheme=SCHEMES, argv=hostile_options(**SCHEME_OPTIONS), raw=RAW)
def test_decode_survives_hostile_scheme_options(work, scheme, argv, raw):
    run_cli(["decode", "--scheme", scheme, "--stego", str(work / "host.json"),
             *argv, *raw])
