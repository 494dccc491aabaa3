import random
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pgstar.graphio import (
    MAX_EDGES,
    MAX_VERTICES,
    ParseError,
    check_size,
    load_graph,
    parse_edge_list,
    parse_graph6,
    serialize_edge_list,
)
from pgstar.graphs import (
    EnumerationLimitError,
    Graph,
    complete_multipartite,
    cycle_graph,
    path_graph,
)

from .strategies import graphs

# encodings frozen from the reference implementation of the format
GRAPH6_FIXTURES = [
    ("Ch", path_graph(4)),
    ("EhEG", cycle_graph(6)),
    ("D]o", complete_multipartite([2, 3])),
    ("B?", Graph(3)),
    ("@", Graph(1)),
]


def test_parse_triangle():
    assert parse_edge_list("3 3\n1 2\n2 3\n1 3\n") == cycle_graph(3)


def test_parse_skips_comments_and_blank_lines():
    text = "# a triangle\n\n3 3\n1 2\n# middle\n2 3\n\n1 3\n"
    assert parse_edge_list(text) == cycle_graph(3)


def test_parse_empty_graph():
    assert parse_edge_list("0 0\n") == Graph(0)


@pytest.mark.parametrize(
    "text,fragment,line",
    [
        ("", "missing", None),
        ("nope\n", "header", 1),
        ("3\n", "header", 1),
        ("-1 0\n", "nonnegative", 1),
        ("2 1\n1 1\n", "self-loop", 2),
        ("2 1\n1 3\n", "outside", 2),
        ("2 1\n1 x\n", "edge", 2),
        ("3 2\n1 2\n2 1\n", "duplicate", 3),
        ("3 2\n1 2\n1 2\n", "duplicate", 3),
        ("3 1\n1 2\n2 3\n", "extra", 3),
        ("3 2\n1 2\n", "found 1", 2),
    ],
)
def test_parse_errors_carry_line_numbers(text, fragment, line):
    with pytest.raises(ParseError) as exc:
        parse_edge_list(text)
    assert fragment in str(exc.value)
    assert exc.value.line == line


def test_serialize_round_trip_examples():
    for g in (cycle_graph(6), Graph(4), path_graph(1)):
        assert parse_edge_list(serialize_edge_list(g)) == g


def test_serialize_format():
    assert serialize_edge_list(path_graph(3)) == "3 2\n1 2\n2 3\n"


def test_round_trip_random_graphs_up_to_20():
    rng = random.Random(2)
    for _ in range(150):
        n = rng.randint(0, 20)
        edges = [e for e in combinations(range(1, n + 1), 2) if rng.random() < 0.3]
        g = Graph(n, edges)
        assert parse_edge_list(serialize_edge_list(g)) == g


@given(graphs(max_n=8))
def test_round_trip_property(g):
    assert parse_edge_list(serialize_edge_list(g)) == g


@given(graphs(max_n=12), st.randoms(use_true_random=False))
def test_shuffled_and_reversed_edge_lines_parse_back(g, rng):
    lines = [f"{v} {u}" if rng.random() < 0.5 else f"{u} {v}" for u, v in g.edges()]
    rng.shuffle(lines)
    assert parse_edge_list("\n".join([f"{g.n} {len(lines)}", *lines]) + "\n") == g


def test_check_size_refuses_past_either_limit_and_names_the_graph():
    check_size(MAX_VERTICES, MAX_EDGES)
    with pytest.raises(EnumerationLimitError, match=f"^{MAX_VERTICES + 1} vertices exceed"):
        check_size(MAX_VERTICES + 1)
    with pytest.raises(EnumerationLimitError, match=f"^P_3: {MAX_EDGES + 1} edges exceed"):
        check_size(3, MAX_EDGES + 1, "P_3")


# -- reading a file line by line ----------------------------------------------


@pytest.mark.parametrize("header", ["20001 1", "2 1000001"])
def test_a_refused_header_is_the_last_line_read(header):
    def lines():
        yield header + "\n"
        raise AssertionError("a line after the refused header was read")

    with pytest.raises(EnumerationLimitError, match="exceed the limit"):
        parse_edge_list(lines())


def test_load_graph_stops_reading_at_a_refused_header(tmp_path):
    path = tmp_path / "huge.txt"
    path.write_text("20001 1000000\n" + "1 2\n" * 300_000)
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationLimitError, match="20001 vertices"):
            load_graph(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_lines_ended_by_a_bare_carriage_return_are_read_one_at_a_time(tmp_path):
    # the text layer breaks lines at \r as well as \n, so a refused header
    # is still the last line read
    path = tmp_path / "huge.txt"
    path.write_bytes(b"20001 1000000\r" + b"1 2\r" * 300_000)
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationLimitError, match="20001 vertices"):
            load_graph(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def path_file_with_a_bad_byte(tmp_path, first_edge="1 2"):
    """P_3000 as an edge list, with the byte 0xff (never valid UTF-8) put 20
    bytes before the end, at the start of line 2999."""
    lines = [f"{i} {i + 1}\n" for i in range(1, 3000)]
    lines[0] = first_edge + "\n"
    data = ("3000 2999\n" + "".join(lines)).encode()
    path = tmp_path / "p3000.txt"
    path.write_bytes(data[:-20] + b"\xff" + data[-20:])
    return path


def test_an_undecodable_byte_is_reported_at_its_line(tmp_path):
    # past the first 8 KB, which a text reader decodes as one chunk
    with pytest.raises(ParseError, match="^line 2999: undecodable byte 0xff$"):
        load_graph(path_file_with_a_bad_byte(tmp_path))


def test_an_earlier_error_is_reported_before_an_undecodable_byte(tmp_path):
    with pytest.raises(ParseError, match="^line 2: self-loop at vertex 1$"):
        load_graph(path_file_with_a_bad_byte(tmp_path, first_edge="1 1"))


# every line boundary of str.splitlines(); reading a file line by line breaks
# only at the first three
SEPARATORS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
              "\u2029"]


@st.composite
def separated_edge_lists(draw):
    """Edge-list text of up to 5 vertices, some lines blank or comments, each
    line but perhaps the last ended by any separator."""
    n = draw(st.integers(0, 5))
    ends = st.integers(0, n + 1).map(str)
    lines = [f"{n} {draw(st.integers(0, 4))}"]
    lines += [f"{draw(ends)} {draw(ends)}" for _ in range(draw(st.integers(0, 5)))]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", " ", "# c"])))
    separator = st.sampled_from(SEPARATORS)
    last = draw(separator | st.just(""))
    return "".join(line + draw(separator) for line in lines[:-1]) + lines[-1] + last


def _graph_or_message(parse, source):
    try:
        return parse(source)
    except ParseError as exc:
        return str(exc)


@given(text=separated_edge_lists())
@example(text="3 2\n1 2\x0c2 3\n")
def test_a_file_is_split_into_lines_as_its_text_is(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("lines") / "g.txt"
    path.write_text(text)
    assert _graph_or_message(load_graph, path) == _graph_or_message(
        parse_edge_list, path.read_text()
    )


# -- graph6 -------------------------------------------------------------------


def test_graph6_triangle():
    # 'B' encodes n=3; 'w' = 111000, giving all three upper-triangle bits
    assert parse_graph6("Bw") == cycle_graph(3)


def test_graph6_optional_header():
    assert parse_graph6(">>graph6<<Bw") == cycle_graph(3)
    assert parse_graph6("Bw\n") == cycle_graph(3)


@pytest.mark.parametrize("encoded,expected", GRAPH6_FIXTURES)
def test_graph6_fixtures(encoded, expected):
    assert parse_graph6(encoded) == expected


def test_graph6_errors():
    with pytest.raises(ParseError):
        parse_graph6("")
    with pytest.raises(ParseError, match="multi-byte"):
        parse_graph6("~??")
    with pytest.raises(ParseError, match="size byte"):
        parse_graph6("\x3e")
    with pytest.raises(ParseError, match="needs"):
        parse_graph6("B")
    with pytest.raises(ParseError, match="invalid graph6 byte"):
        parse_graph6("B!")
    with pytest.raises(ParseError, match="single line"):
        parse_graph6("Bw\nBw")


def test_graph6_errors_name_the_line_as_the_text_numbers_it():
    with pytest.raises(ParseError, match="^line 4: graph6 input must be a single line$"):
        parse_graph6("A_\n\n\nA_\n")
    with pytest.raises(ParseError, match="^line 3: invalid graph6 byte '!'$"):
        parse_graph6("\n \nB!\n")
    assert parse_graph6("\n\nBw\n\n") == cycle_graph(3)


def test_a_graph6_file_reports_an_undecodable_byte_at_its_line(tmp_path):
    path = tmp_path / "bad.g6"
    path.write_bytes(b"\nB\xff\n")
    with pytest.raises(ParseError, match="^line 2: undecodable byte 0xff$"):
        load_graph(path)


def test_load_graph_auto_format(tmp_path):
    el = tmp_path / "c3.txt"
    el.write_text("3 3\n1 2\n2 3\n1 3\n")
    assert load_graph(el) == cycle_graph(3)
    g6 = tmp_path / "c3.g6"
    g6.write_text("Bw\n")
    assert load_graph(g6) == cycle_graph(3)
    assert load_graph(el, fmt="edge-list") == cycle_graph(3)
    with pytest.raises(ValueError):
        load_graph(el, fmt="dot")
