"""One ownership rule for the library's arrays.

Every array the library hands out is read-only for good: numpy refuses
``setflags(write=True)`` on it, so a value checked once (finite, in
bounds, of the right shape) stays as it was checked.  A constructor
shares a view of read-only memory, such as another strategy's block,
and copies any other array, a read-only one that owns its memory too.
A source scan checks that ``phase_space._frozen`` is the one place that
sets array flags.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import chaosmark
from chaosmark import (
    CarrierSet,
    DecodeResult,
    OrbitTrace,
    PhasePoint,
    SchemeConfig,
    SpaceConfig,
    Strategy,
    as_message,
    as_vector,
    divergence_trace,
    embed,
    fileio,
    generate_carriers,
    iterate_g,
    shift,
    watermark_strategy,
    witness_continuity,
)


def assert_sealed(arr):
    """arr is read-only, and numpy refuses to make it writable again."""
    assert isinstance(arr, np.ndarray)
    assert not arr.flags.writeable
    with pytest.raises(ValueError):
        arr.setflags(write=True)


def _strategies():
    rows = [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
    lists = Strategy(2, rows, [[7.0, 8.0], [9.0, 0.0]])
    arrays = Strategy(2, np.array(rows), np.array([[7.0, 8.0], [9.0, 0.0]]))
    return {
        "lists": lists,
        "arrays": arrays,
        "shift": shift(arrays),
        "with_term": arrays.with_term(1, np.array([0.5, 0.5])),
        "rotation": chaosmark.phase_space._dropped(arrays, 4),
        "zero": Strategy(2),
    }


@pytest.mark.parametrize("name", sorted(_strategies()))
def test_strategy_blocks_are_sealed(name):
    s = _strategies()[name]
    assert_sealed(s.prefix)
    assert_sealed(s.tail)


@pytest.mark.parametrize("k", [0, 2, 3, 4, 10**6])
def test_terms_are_sealed(k):
    periodic = _strategies()["arrays"]
    zero_tail = Strategy(2, [[1.0, 2.0]])
    assert_sealed(periodic.term(k))
    assert_sealed(zero_tail.term(k))


def test_media_and_orbit_results_are_sealed():
    x = PhasePoint(Strategy(2, [[1.0, 2.0]], [[0.5, 0.5]]), np.array([0.0, 1.0]))
    assert_sealed(x.media)
    for n in (1, 3):
        y = iterate_g(x, n)
        assert_sealed(y.media)
        assert_sealed(y.strategy.prefix)
        assert_sealed(y.strategy.tail)


@pytest.mark.parametrize("values", [
    [1.0, 2.0],
    np.array([1.0, 2.0]),
    np.array([1, 2]),
    np.array([1.0, 2.0]).view(),
])
def test_as_vector_is_sealed(values):
    assert_sealed(as_vector(values))


def test_as_vector_copies_writable_memory_and_read_only_owners():
    owner = np.array([1.0, 2.0])
    for values in (owner, owner[:]):
        vec = as_vector(values)
        assert not np.shares_memory(vec, owner)
    owner.setflags(write=False)
    vec = as_vector(owner)
    owner.setflags(write=True)
    owner[0] = np.nan
    assert vec.tolist() == [1.0, 2.0]


def test_as_vector_shares_a_sealed_vector():
    vec = as_vector([1.0, 2.0])
    assert as_vector(vec) is vec
    assert np.shares_memory(as_vector(vec[1:]), vec)


@pytest.mark.parametrize("bits", [[0, 1, 1], np.array([0, 1, 1], np.uint8),
                                  "011", [False, True, True]])
def test_messages_are_sealed(bits):
    assert_sealed(as_message(bits))
    assert_sealed(DecodeResult(bits=bits, ties=()).bits)


def test_carrier_matrices_are_sealed():
    owner = np.eye(3)
    owner.setflags(write=False)
    for matrix in (np.eye(3), owner):
        c = CarrierSet(matrix)
        assert_sealed(c.matrix)
        assert not np.shares_memory(c.matrix, matrix)
    drawn = generate_carriers(SchemeConfig(nv=8, nc=3, key=11))
    assert_sealed(drawn.matrix)
    assert CarrierSet(drawn.matrix).matrix is drawn.matrix


def test_the_drawn_carriers_are_c_ordered():
    # projections round by layout, so the layout is part of the family
    c = generate_carriers(SchemeConfig(nv=16, nc=4, key=3))
    assert c.matrix.flags.c_contiguous and not c.matrix.flags.f_contiguous
    raw = generate_carriers(SchemeConfig(nv=16, nc=4, key=3,
                                         orthonormalize=False))
    assert raw.matrix.flags.c_contiguous


def test_copied_term_blocks_are_c_ordered():
    # projections and orbit sums round by layout, and row reads are
    # fastest on C-ordered blocks
    assert Strategy(3, np.asfortranarray(np.ones((4, 3)))).prefix.flags.c_contiguous
    cfg = SchemeConfig(nv=16, nc=4, key=3)
    s = watermark_strategy("iss", np.ones(16), [0, 1, 0, 1],
                           generate_carriers(cfg), cfg)
    assert s.prefix.flags.c_contiguous


def test_embed_returns_a_sealed_stego_vector():
    cfg = SchemeConfig(nv=8, nc=3, key=5)
    host = np.linspace(-1.0, 1.0, 8)
    for scheme in ("ss", "iss", "nw"):
        assert_sealed(embed(host, [1, 0, 1], generate_carriers(cfg), cfg,
                            scheme))


@pytest.mark.parametrize("name, text", [
    ("v.json", '{"nv": 3, "data": [0.5, -1, 2.0]}\n'),
    ("v.csv", "0.5\n-1\n2.0\n"),
    ("v.pgm", "P2\n3 1\n255\n0 64 255\n"),
])
def test_read_vector_is_sealed(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    assert_sealed(fileio.read_vector(path))


def _traces():
    space = SpaceConfig(nv=2)
    x = PhasePoint(Strategy(2, [[1.0, 2.0]], [[0.5, 0.5]]), [0.0, 1.0])
    y = PhasePoint(Strategy(2, [[1.0, 2.5]]), [0.0, 1.5])
    return {
        "divergence": divergence_trace(x, y, 3, space),
        "continuity": witness_continuity(x, [0.1, 0.01], space)[1],
    }


@pytest.mark.parametrize("name", ["divergence", "continuity"])
def test_trace_points_are_sealed(name):
    trace = _traces()[name]
    assert_sealed(trace.points)
    assert OrbitTrace(trace.points).points is trace.points


def test_a_callers_trace_points_are_copied():
    owner = np.zeros((2, 3))
    for points in (owner, owner[:], owner.tolist()):
        trace = OrbitTrace(points)
        assert_sealed(trace.points)
        assert not np.shares_memory(trace.points, owner)
    owner.setflags(write=False)
    trace = OrbitTrace(owner)
    owner.setflags(write=True)
    owner[0, 1] = np.nan
    assert trace.points.tolist() == [[0.0, 0.0, 0.0]] * 2


@pytest.mark.parametrize("text, nc", [("0110", 4), ("0b0110", None),
                                      ("0x6", 4), ("0x6", 12)])
def test_parsed_messages_are_sealed(text, nc):
    bits = fileio.parse_message_text(text, nc)
    assert_sealed(bits)
    assert bits.tolist()[-3:] == [1, 1, 0]


def _flag_setters(tree):
    """setflags calls and assignments to a .flags attribute under tree."""
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "setflags"
            or isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Attribute)
                and target.value.attr == "flags" for target in node.targets)]


def test_setflags_is_called_only_in_frozen():
    found, frozen = {}, None
    for path in Path(chaosmark.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if _flag_setters(tree):
            found[path.stem] = len(_flag_setters(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "_frozen":
                frozen = (path.stem, len(_flag_setters(node)))
    assert found == {"phase_space": 1}
    assert frozen == ("phase_space", 1)
