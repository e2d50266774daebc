"""Graph readers and writers: graph6, plain edge-list text, adjacency JSON.

graph6 follows the standard 6-bit encoding: a size prefix N(n) followed by
the upper triangle of the adjacency matrix taken column by column (pairs
(0,1), (0,2), (1,2), (0,3), ...), packed big-endian into 6-bit groups and
offset by 63. Round-trips are bit exact.

Files are read through `graph_records`, which gives each graph its id and a
function that reads it, so a parse error is named by the file, or for
graph6 by the record, and the other graphs still load.
"""

from __future__ import annotations

import json
from functools import partial
from pathlib import Path
from typing import Callable, Iterable

from .core import Graph

GRAPH6_HEADER = ">>graph6<<"


def _encode_size(n: int) -> str:
    if n < 0:
        raise ValueError("negative size")
    if n <= 62:
        return chr(63 + n)
    if n <= 258047:
        return chr(126) + "".join(chr(63 + ((n >> s) & 63)) for s in (12, 6, 0))
    if n <= 68719476735:
        return chr(126) + chr(126) + "".join(
            chr(63 + ((n >> s) & 63)) for s in (30, 24, 18, 12, 6, 0))
    raise ValueError("size too large for graph6")


def _sextet(ch: str) -> int:
    """The 6-bit value of a graph6 character, 63..126; error outside."""
    val = ord(ch) - 63
    if not (0 <= val <= 63):
        raise ValueError(f"character {ch!r} out of graph6 range")
    return val


def _decode_size(s: str) -> tuple[int, int]:
    """Return (n, number of characters consumed)."""
    if not s:
        raise ValueError("empty graph6 data")
    if s[0] != chr(126):
        return _sextet(s[0]), 1
    if len(s) >= 2 and s[1] == chr(126):
        chunk, used = s[2:8], 8
    else:
        chunk, used = s[1:4], 4
    if len(s) < used:
        raise ValueError("truncated graph6 size")
    n = 0
    for ch in chunk:
        n = (n << 6) | _sextet(ch)
    return n, used


def to_graph6(g: Graph, header: bool = False) -> str:
    bits = []
    for j in range(1, g.n):
        for i in range(j):
            bits.append(1 if g.has_edge(i, j) else 0)
    while len(bits) % 6:
        bits.append(0)
    chars = []
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k:k + 6]:
            val = (val << 1) | b
        chars.append(chr(63 + val))
    text = _encode_size(g.n) + "".join(chars)
    return GRAPH6_HEADER + text if header else text


def from_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER):]
    n, used = _decode_size(s)
    body = s[used:]
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise ValueError(f"graph6 body has {len(body)} characters, expected {need}")
    bits = []
    for ch in body:
        val = _sextet(ch)
        bits.extend((val >> s6) & 1 for s6 in (5, 4, 3, 2, 1, 0))
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    return Graph(n, edges)


def write_graph6_file(path: str | Path, graphs: Iterable[Graph], header: bool = False) -> int:
    count = 0
    with open(path, "w", encoding="ascii") as fh:
        for g in graphs:
            fh.write(to_graph6(g, header=header) + "\n")
            count += 1
    return count


# ---------------------------------------------------------------------------
# Edge-list text: one "u v" pair per line, '#' starts a comment. The writer
# emits a "# n=<count>" comment so graphs with trailing isolated vertices
# survive a round trip; the reader honors it when present.

def to_edge_list(g: Graph) -> str:
    lines = [f"# n={g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def from_edge_list(text: str) -> Graph:
    n_decl = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            comment = line[1:].strip()
            if comment.startswith("n="):
                value = comment[2:].split()
                if not (value and value[0].isdecimal()):
                    raise ValueError(f"line {lineno}: 'n=' needs an integer, got {raw!r}")
                n_decl = int(value[0])
            continue
        parts = line.split()
        if len(parts) != 2 or not all(p.isdecimal() for p in parts):
            raise ValueError(f"line {lineno}: expected 'u v' with integer ids >= 0, got {raw!r}")
        edges.append((int(parts[0]), int(parts[1])))
    n_seen = 1 + max((max(u, v) for u, v in edges), default=-1)
    n = n_decl if n_decl is not None else n_seen
    if n < n_seen:
        raise ValueError(f"declared n={n} but edges mention vertex {n_seen - 1}")
    return Graph(n, edges)


def read_edge_list_file(path: str | Path) -> Graph:
    return from_edge_list(Path(path).read_text(encoding="ascii"))


def write_edge_list_file(path: str | Path, g: Graph) -> None:
    Path(path).write_text(to_edge_list(g), encoding="ascii")


# ---------------------------------------------------------------------------
# Adjacency JSON.

def to_adjacency_json(g: Graph) -> dict:
    return {"n": g.n, "adjacency": [list(g.neighbors(v)) for v in g.vertices]}


def from_adjacency_json(obj: dict) -> Graph:
    """The graph of an object with keys "n" and "adjacency"; other keys are
    ignored."""
    if not isinstance(obj, dict):
        raise ValueError(f"adjacency JSON must be an object, got {type(obj).__name__}")
    n = obj.get("n")
    if type(n) is not int:
        raise ValueError(f"'n' must be an integer, got {n!r}")
    adjacency = obj.get("adjacency")
    if not (isinstance(adjacency, list) and all(
            isinstance(row, list) and all(type(v) is int for v in row) for row in adjacency)):
        raise ValueError("'adjacency' must be a list of integer lists")
    if len(adjacency) != n:
        raise ValueError("adjacency length does not match n")
    return Graph.from_adjacency(adjacency)


def read_adjacency_json_file(path: str | Path) -> Graph:
    return from_adjacency_json(json.loads(Path(path).read_text(encoding="utf-8")))


def write_adjacency_json_file(path: str | Path, g: Graph) -> None:
    Path(path).write_text(
        json.dumps(to_adjacency_json(g), sort_keys=True) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Format dispatch: graph6 files hold one graph per line, the others one graph.

_SUFFIX_FORMATS = {".g6": "graph6", ".graph6": "graph6", ".json": "json"}
_FILE_READERS = {"edgelist": read_edge_list_file, "json": read_adjacency_json_file}


def graph_records(path: str | Path,
                  fmt: str = "auto") -> list[tuple[str, Callable[[], Graph]]]:
    """Each graph of a file with its stable id and a function that reads
    it: the file name, and for graph6 the record's index among the
    non-blank lines. Only the graph6 lines are read here; each record is
    parsed, and an edge-list or JSON file read, by its own function, so a
    malformed record raises there and the records around it still load."""
    path = Path(path)
    if fmt == "auto":
        fmt = _SUFFIX_FORMATS.get(path.suffix.lower(), "edgelist")
    if fmt == "graph6":
        with open(path, "r", encoding="ascii") as fh:
            records = [line for line in map(str.strip, fh) if line]
        return [(f"{path.name}:{i}", partial(from_graph6, record))
                for i, record in enumerate(records)]
    if fmt not in _FILE_READERS:
        raise ValueError(f"unknown format {fmt!r}")
    return [(path.name, partial(_FILE_READERS[fmt], path))]


def load_graphs(path: str | Path, fmt: str = "auto") -> list[tuple[str, Graph]]:
    """The graphs of `graph_records`, each with its id. A malformed record
    raises ValueError named by the id its graph would have had."""
    graphs = []
    for graph_id, read in graph_records(path, fmt):
        try:
            graphs.append((graph_id, read()))
        except ValueError as exc:
            raise ValueError(f"{graph_id}: {exc}") from exc
    return graphs
