"""Text formats for graphs: commented edge lists and graph6.

Edge list: ``#`` comment lines and blank lines are ignored; the first
data line is ``n m`` and is followed by exactly m lines ``u v`` with
1-based labels; a header with more than ``MAX_VERTICES`` vertices or
``MAX_EDGES`` edges is refused before anything is built.  graph6 is the
standard 6-bit encoding, restricted here to the single-byte size field
(n <= 62).
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from .graphs import EnumerationLimitError, Graph, _from_masks

# Largest edge-list vertex count.  A Graph holds one adjacency int per
# vertex before any work starts; P_n and C_n for n = 10^4 stay legal.
MAX_VERTICES = 20_000
# Largest edge-list edge count.  Edges go straight into the adjacency masks, so
# this bounds parse time: K_1200 (719 400 edges) parses in 1.0 s on a 2-core Xeon.
MAX_EDGES = 1_000_000
GRAPH6_MAX_N = 62
GRAPH6_HEADER = ">>graph6<<"


def check_size(n: int, m: int = 0, what: str = "") -> None:
    """Refuse a graph of n vertices and m edges past ``MAX_VERTICES`` or
    ``MAX_EDGES``, before anything is built; ``what`` names it in the
    message.  Every graph the program builds from user input is checked
    here: an edge list, a family member, a suspension and the largest
    member of a range sweep."""
    prefix = f"{what}: " if what else ""
    if n > MAX_VERTICES:
        raise EnumerationLimitError(f"{prefix}{n} vertices exceed the limit of {MAX_VERTICES}")
    if m > MAX_EDGES:
        raise EnumerationLimitError(f"{prefix}{m} edges exceed the limit of {MAX_EDGES}")


class ParseError(ValueError):
    """Malformed graph input, annotated with the offending line."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


def _numbered_lines(text: str | Iterable[str]):
    # a str is one chunk and an open file one chunk per line read; each chunk
    # is split as str.splitlines() splits, which also breaks lines at \x0c,
    # \x85 and the like, where reading a file line by line does not.  A file
    # is decoded with errors="surrogateescape", which turns an undecodable
    # byte into a lone surrogate, the one kind of character UTF-8 cannot
    # encode, so the byte is reported at its own line
    chunks = [text] if isinstance(text, str) else text
    number = 0
    for chunk in chunks:
        for raw in chunk.splitlines():
            number += 1
            if not raw.isascii():
                try:
                    raw.encode()
                except UnicodeEncodeError as exc:
                    byte = ord(raw[exc.start]) & 0xFF
                    raise ParseError(f"undecodable byte 0x{byte:02x}", number) from None
            yield number, raw.strip()


def _data_lines(text: str | Iterable[str]):
    """The stripped edge-list lines that are neither blank nor comments."""
    for number, line in _numbered_lines(text):
        if line and not line.startswith("#"):
            yield number, line


def parse_edge_list(text: str | Iterable[str]) -> Graph:
    lines = _data_lines(text)
    try:
        header_no, header = next(lines)
    except StopIteration:
        raise ParseError("missing 'n m' header") from None
    fields = header.split()
    if len(fields) != 2:
        raise ParseError(f"expected header 'n m', got {header!r}", header_no)
    try:
        n, m = int(fields[0]), int(fields[1])
    except ValueError:
        raise ParseError(f"expected header 'n m', got {header!r}", header_no) from None
    if n < 0 or m < 0:
        raise ParseError("vertex and edge counts must be nonnegative", header_no)
    check_size(n, m, f"line {header_no}")

    adj = [0] * n
    count = 0
    last_no = header_no
    for number, line in lines:
        last_no = number
        if count == m:
            raise ParseError(f"unexpected extra line after {m} edges", number)
        fields = line.split()
        if len(fields) != 2:
            raise ParseError(f"expected edge 'u v', got {line!r}", number)
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise ParseError(f"expected edge 'u v', got {line!r}", number) from None
        if not (1 <= u <= n and 1 <= v <= n):
            raise ParseError(f"edge ({u},{v}) has a label outside 1..{n}", number)
        if u == v:
            raise ParseError(f"self-loop at vertex {u}", number)
        # the masks are symmetric, so one bit tells a repeat in either orientation
        if adj[u - 1] >> (v - 1) & 1:
            raise ParseError(f"duplicate edge ({u},{v})", number)
        adj[u - 1] |= 1 << (v - 1)
        adj[v - 1] |= 1 << (u - 1)
        count += 1
    if count != m:
        raise ParseError(f"expected {m} edge lines, found {count}", last_no)
    return _from_masks(adj)


def serialize_edge_list(g: Graph) -> str:
    """Inverse of parse_edge_list up to edge order."""
    edges = g.edges()
    lines = [f"{g.n} {len(edges)}"]
    lines.extend(f"{u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"


def parse_graph6(text: str | Iterable[str]) -> Graph:
    """One graph6 line, blank lines around it ignored; errors name the
    line as the text numbers it."""
    lines = ((number, line) for number, line in _numbered_lines(text) if line)
    line_no, data = next(lines, (1, ""))
    extra = next(lines, None)
    if extra is not None:
        raise ParseError("graph6 input must be a single line", extra[0])
    if data.startswith(GRAPH6_HEADER):
        data = data[len(GRAPH6_HEADER):]
    if not data:
        raise ParseError("empty graph6 input", line_no)
    first = ord(data[0])
    if first == 126:
        raise ParseError(
            f"multi-byte graph6 size fields are not supported (n > {GRAPH6_MAX_N})", line_no
        )
    if not 63 <= first <= 125:
        raise ParseError(f"invalid graph6 size byte {data[0]!r}", line_no)
    n = first - 63
    body = data[1:]
    needed_bits = n * (n - 1) // 2
    needed_bytes = (needed_bits + 5) // 6
    if len(body) != needed_bytes:
        raise ParseError(
            f"graph6 body for n = {n} needs {needed_bytes} bytes, got {len(body)}", line_no
        )
    bits = []
    for ch in body:
        val = ord(ch) - 63
        if not 0 <= val <= 63:
            raise ParseError(f"invalid graph6 byte {ch!r}", line_no)
        bits.extend((val >> k) & 1 for k in range(5, -1, -1))
    # upper triangle, column by column
    pairs = ((u, v) for v in range(2, n + 1) for u in range(1, v))
    return Graph(n, [pair for pair, bit in zip(pairs, bits) if bit])


def load_graph(path: str | Path, fmt: str = "auto") -> Graph:
    """Read a graph file; ``auto`` picks graph6 for .g6/.graph6 suffixes.

    Either format is parsed from the open file line by line, so a refused
    edge-list header ends the read at its own line, and an undecodable
    byte is reported at its line.
    """
    path = Path(path)
    if fmt == "auto":
        fmt = "graph6" if path.suffix in (".g6", ".graph6") else "edge-list"
    parse = {"graph6": parse_graph6, "edge-list": parse_edge_list}.get(fmt)
    if parse is None:
        raise ValueError(f"unknown format {fmt!r}")
    with path.open(errors="surrogateescape") as lines:
        return parse(lines)
