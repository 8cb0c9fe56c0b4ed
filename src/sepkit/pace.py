"""PACE-style .gr / .td readers and writers.

Graph files: optional "c" comment lines, a "p tw <n> <m>" header, then
exactly m edge lines "<u> <v>" with 1-based ids. Decomposition files:
"s td <#bags> <max_bag_size> <n>", bag lines "b <id> <v...>", then
tree-edge lines. Emitters are canonical (bags sorted and renumbered,
edges sorted), so emit -> parse -> emit is byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParseError, ValidationError
from .graph import Graph, canon
from .treewidth import TreeDecomposition, validate_td

# The compiled kernel numbers the split nodes 0..2n+1 with C ints. A
# header declaring more vertices is refused before Graph allocates its
# adjacency (a pointer a vertex, even for isolated ones).
MAX_VERTICES = (1 << 30) - 2


@dataclass(frozen=True)
class ParseStats:
    dropped_duplicates: int = 0
    dropped_self_loops: int = 0

    @property
    def warnings(self) -> int:
        return self.dropped_duplicates + self.dropped_self_loops


def _decode(data) -> list[str]:
    if isinstance(data, bytes):
        try:
            data = data.decode("ascii")
        except UnicodeDecodeError as exc:
            raise ParseError(f"non-ASCII byte at offset {exc.start}") from None
    return data.splitlines()


def parse_graph(data, directed: bool = False) -> tuple[Graph, ParseStats]:
    """Parse a .gr byte string into a normalized simple Graph.

    Duplicate edges and self-loops are tolerated, dropped, and counted.
    """
    n = m = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    dup = loops = 0
    edge_lines = 0
    for lineno, raw in enumerate(_decode(data), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise ParseError("second header line", lineno)
            if len(parts) != 4 or parts[1] != "tw":
                raise ParseError(f"bad header {line!r}", lineno)
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError(f"non-integer header fields in {line!r}", lineno)
            if n < 0 or m < 0:
                raise ParseError("negative header fields", lineno)
            if n > MAX_VERTICES:
                raise ParseError(f"{n} vertices exceed the limit of {MAX_VERTICES}", lineno)
            continue
        if n is None:
            raise ParseError("edge line before header", lineno)
        if len(parts) != 2:
            raise ParseError(f"expected '<u> <v>', got {line!r}", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"non-integer endpoints in {line!r}", lineno)
        if not (1 <= u <= n and 1 <= v <= n):
            raise ParseError(f"endpoint out of range in {line!r}", lineno)
        edge_lines += 1
        if edge_lines > m:
            raise ParseError(f"more than the declared {m} edges", lineno)
        if u == v:
            loops += 1
            continue
        key = (u, v) if directed else (min(u, v), max(u, v))
        if key in seen:
            dup += 1
            continue
        seen.add(key)
        edges.append((u, v))
    if n is None:
        raise ParseError("missing 'p tw' header")
    if edge_lines != m:
        raise ParseError(f"declared {m} edges but found {edge_lines}")
    return Graph(n, edges, directed=directed), ParseStats(dup, loops)


def emit_graph(g: Graph) -> bytes:
    """Canonical .gr serialization (edges sorted)."""
    lines = [f"p tw {g.n} {g.m}"]
    lines += [f"{u} {v}" for u, v in sorted(g.edges())]
    return ("\n".join(lines) + "\n").encode("ascii")


def emit_td(td: TreeDecomposition, g: Graph) -> bytes:
    """Canonical .td serialization.

    Bags are sorted by content and renumbered contiguously; a parsed and
    re-emitted file is byte-identical. Raises ValidationError if the
    decomposition does not validate against g.
    """
    problems = validate_td(g, td)
    if problems:
        raise ValidationError("; ".join(str(p) for p in problems))
    order = sorted(td.nodes, key=lambda x: (canon(td.bags[x]), x))
    renum = {old: i + 1 for i, old in enumerate(order)}
    width = max((len(td.bags[x]) for x in td.nodes), default=0)
    lines = [f"s td {len(td.nodes)} {width} {g.n}"]
    for old in order:
        members = " ".join(str(v) for v in canon(td.bags[old]))
        lines.append(f"b {renum[old]} {members}".rstrip())
    edges = sorted(tuple(sorted((renum[a], renum[b]))) for a, b in td.tree_edges)
    lines += [f"{a} {b}" for a, b in edges]
    return ("\n".join(lines) + "\n").encode("ascii")


def parse_td(data, g: Graph | None = None) -> TreeDecomposition:
    """Parse a .td byte string; validates against g when provided."""
    header = None
    bags: dict[int, frozenset] = {}
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(_decode(data), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "s":
            if header is not None:
                raise ParseError("second solution line", lineno)
            if len(parts) != 5 or parts[1] != "td":
                raise ParseError(f"bad solution line {line!r}", lineno)
            try:
                header = (int(parts[2]), int(parts[3]), int(parts[4]))
            except ValueError:
                raise ParseError(f"non-integer solution fields in {line!r}", lineno)
            continue
        if header is None:
            raise ParseError("content before 's td' line", lineno)
        if parts[0] == "b":
            try:
                bag_id = int(parts[1])
                members = frozenset(int(v) for v in parts[2:])
            except (ValueError, IndexError):
                raise ParseError(f"bad bag line {line!r}", lineno)
            if bag_id in bags:
                raise ParseError(f"duplicate bag id {bag_id}", lineno)
            if not (1 <= bag_id <= header[0]):
                raise ParseError(f"bag id {bag_id} out of range", lineno)
            bad = [v for v in members if not (1 <= v <= header[2])]
            if bad:
                raise ParseError(f"bag references non-vertices {canon(bad)}", lineno)
            bags[bag_id] = members
            continue
        if len(parts) != 2:
            raise ParseError(f"bad tree-edge line {line!r}", lineno)
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"non-integer tree edge {line!r}", lineno)
        if a not in bags or b not in bags:
            raise ParseError(f"tree edge ({a},{b}) references unknown bag", lineno)
        edges.append((a, b))
    if header is None:
        raise ParseError("missing 's td' line")
    n_bags, width, n = header
    if len(bags) != n_bags:
        raise ParseError(f"declared {n_bags} bags but found {len(bags)}")
    actual_width = max((len(b) for b in bags.values()), default=0)
    if bags and actual_width != width:
        raise ParseError(f"declared width {width} but bags reach {actual_width}")
    td = TreeDecomposition(
        nodes=tuple(sorted(bags)),
        bags=bags,
        tree_edges=tuple(edges),
        root=min(bags) if bags else None,
    )
    if g is not None:
        problems = validate_td(g, td)
        if problems:
            raise ValidationError("; ".join(str(p) for p in problems))
    return td
