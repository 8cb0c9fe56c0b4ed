"""Command-line front end.

Results go to stdout as canonical JSON (sorted keys, sorted vertex
lists), diagnostics to stderr. Exit codes: 0 success/accept, 1
usage/parse/validation error, 2 treewidth rejection.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import pace
from .errors import SepkitError, TooLarge
from .flow import CutConstraints, backend_name, leftmost_min_separator
from .graph import canon
from .leftmost import count_bounds, enumerate_important, enumerate_leftmost
from .oracle import (
    BT_ROOT,
    TREEWIDTH_N_LIMIT,
    brute_minimal_separators,
    bt_leaves,
    exact_treewidth,
    fixtures,
)
from .treewidth import Rejection, decompose, td_width, validate_td


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; the contract is 1
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def _load_graph(path: str, directed: bool = False):
    data = Path(path).read_bytes()
    g, stats = pace.parse_graph(data, directed=directed)
    if stats.warnings:
        print(
            f"warning: dropped {stats.dropped_duplicates} duplicate edges, "
            f"{stats.dropped_self_loops} self-loops",
            file=sys.stderr,
        )
    return g


def _terminals(spec: str, graph_path: str) -> frozenset:
    """Comma-separated ids, or the BT magic tokens 'leaves'/'root'
    resolved via the generator's sidecar metadata."""
    if spec in ("leaves", "root"):
        meta_path = Path(graph_path + ".meta.json")
        if not meta_path.exists():
            raise SepkitError(
                f"token {spec!r} needs the sidecar {meta_path.name} written by 'gen'"
            )
        meta = json.loads(meta_path.read_text())
        if spec not in meta:
            raise SepkitError(f"sidecar has no {spec!r} entry")
        value = meta[spec]
        return frozenset(value if isinstance(value, list) else [value])
    try:
        return frozenset(int(tok) for tok in spec.split(",") if tok)
    except ValueError:
        raise SepkitError(f"bad vertex list {spec!r}")


def _cmd_minsep(args) -> int:
    g = _load_graph(args.graph, args.directed)
    x = _terminals(args.source, args.graph)
    y = _terminals(args.target, args.graph)
    forced = _terminals(args.forced_out, args.graph) if args.forced_out else frozenset()
    try:
        sep, paths = leftmost_min_separator(g, x, y, args.k, CutConstraints(forced_out=forced))
    except TooLarge as exc:
        _emit({"status": "too_large", "k": args.k, "flow_witness": exc.witness.flow_value})
        return 0
    _emit(
        {
            "status": "ok",
            "separator": canon(sep.members),
            "size": sep.size,
            "flow": paths.flow_value,
            "paths": [list(p) for p in paths.paths],
        }
    )
    return 0


def _cmd_enum(args) -> int:
    g = _load_graph(args.graph, args.directed)
    x = _terminals(args.source, args.graph)
    y = _terminals(args.target, args.graph)
    kind = "important" if args.important else "leftmost"
    fn = enumerate_important if args.important else enumerate_leftmost
    res = fn(g, x, y, args.k)
    left_bound, important_bound = count_bounds(max(args.k, 1))
    _emit(
        {
            "kind": kind,
            "k": args.k,
            "count": res.count,
            "separators": res.member_lists(),
            "bound_leftmost": left_bound,
            "bound_important": important_bound,
            "explored_nodes": res.explored_nodes,
            "too_large": res.too_large,
        }
    )
    return 0


def _cmd_tw(args) -> int:
    g = _load_graph(args.graph)
    result = decompose(
        g, args.k, epsilon=args.epsilon, volume_splits=not args.no_volume_splits
    )
    if isinstance(result, Rejection):
        _emit({"status": "reject", "k": args.k, "witness_w": canon(result.witness_w)})
        return 2
    width = td_width(result)
    if args.output:
        Path(args.output).write_bytes(pace.emit_td(result, g))
    reported = width - 1 if args.classic_width else width
    _emit(
        {
            "status": "accept",
            "k": args.k,
            "width": reported,
            "width_convention": "classic" if args.classic_width else "bag-size",
            "bags": len(result.nodes),
            "output": args.output or None,
        }
    )
    return 0


def _cmd_validate(args) -> int:
    g = _load_graph(args.graph)
    td = pace.parse_td(Path(args.td).read_bytes())
    problems = validate_td(g, td)
    if problems:
        _emit({"status": "invalid", "violations": [str(p) for p in problems]})
        return 1
    _emit({"status": "valid", "width": td_width(td), "bags": len(td.nodes)})
    return 0


def _cmd_gen(args) -> int:
    params = list(args.params)
    if args.fixture.upper() in ("GNM", "TREE"):
        params.append(args.seed)
    g = fixtures(args.fixture, *params)
    Path(args.output).write_bytes(pace.emit_graph(g))
    meta = {"fixture": args.fixture.upper(), "params": params, "n": g.n, "m": g.m}
    if args.fixture.upper() == "BT":
        meta["leaves"] = canon(bt_leaves(params[0]))
        meta["root"] = BT_ROOT
    Path(args.output + ".meta.json").write_text(
        json.dumps(meta, sort_keys=True, separators=(",", ":")) + "\n"
    )
    _emit({"status": "ok", "output": args.output, "n": g.n, "m": g.m})
    return 0


def _cmd_oracle(args) -> int:
    if args.which == "tw-exact":
        g = _load_graph(args.graph)
        t = exact_treewidth(g)
        _emit({"treewidth": t, "classic_treewidth": t - 1, "n": g.n})
        return 0
    g = _load_graph(args.graph, args.directed)
    x = _terminals(args.source, args.graph)
    y = _terminals(args.target, args.graph)
    seps = brute_minimal_separators(g, x, y, args.k)
    _emit(
        {
            "k": args.k,
            "count": len(seps),
            "separators": sorted(canon(s.members) for s in seps),
        }
    )
    return 0


def _build_parser() -> _Parser:
    p = _Parser(prog="sepkit", description=__doc__)
    p.add_argument("--version", action="version", version=f"sepkit (backend: {backend_name()})")
    sub = p.add_subparsers(dest="command", required=True)

    def graph_opt(sp, directed=False):
        sp.add_argument("--graph", required=True, help=".gr input file")
        if directed:
            sp.add_argument("--directed", action="store_true", help="read edges as ordered pairs")

    sp = sub.add_parser("minsep", help="leftmost minimum (X,Y,<=k)-separator")
    graph_opt(sp, directed=True)
    sp.add_argument("--source", required=True, help="comma list, or 'leaves'")
    sp.add_argument("--target", required=True, help="comma list, or 'root'")
    sp.add_argument("-k", type=int, required=True)
    sp.add_argument("--forced-out", default="", help="vertices barred from the cut")
    sp.set_defaults(fn=_cmd_minsep)

    sp = sub.add_parser("enum", help="all leftmost or important separators")
    graph_opt(sp, directed=True)
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--leftmost", action="store_true")
    group.add_argument("--important", action="store_true")
    sp.add_argument("--source", required=True)
    sp.add_argument("--target", required=True)
    sp.add_argument("-k", type=int, required=True)
    sp.set_defaults(fn=_cmd_enum)

    sp = sub.add_parser("tw", help="5-approximate tree decomposition")
    graph_opt(sp)
    sp.add_argument("-k", type=int, required=True)
    sp.add_argument("-o", "--output", help="write the decomposition here (.td)")
    sp.add_argument("--no-volume-splits", action="store_true")
    sp.add_argument("--epsilon", type=float, default=None)
    sp.add_argument(
        "--classic-width", action="store_true", help="report bag size minus one"
    )
    sp.set_defaults(fn=_cmd_tw)

    sp = sub.add_parser("validate", help="check a .td against its graph")
    graph_opt(sp)
    sp.add_argument("--td", required=True)
    sp.set_defaults(fn=_cmd_validate)

    sp = sub.add_parser("gen", help="write a fixture graph as .gr (+ sidecar)")
    sp.add_argument("fixture", help="BT|PATH|CYCLE|COMPLETE|GRID|STAR4|DIAMOND|TREE|GNM")
    sp.add_argument("params", nargs="*", type=int)
    sp.add_argument("--seed", type=int, default=1)
    sp.add_argument("-o", "--output", required=True)
    sp.set_defaults(fn=_cmd_gen)

    sp = sub.add_parser("oracle", help=f"brute-force checks (guarded, n <= {TREEWIDTH_N_LIMIT})")
    osub = sp.add_subparsers(dest="which", required=True)
    so = osub.add_parser("tw-exact")
    graph_opt(so)
    so.set_defaults(fn=_cmd_oracle)
    so = osub.add_parser("seps")
    graph_opt(so, directed=True)
    so.add_argument("--source", required=True)
    so.add_argument("--target", required=True)
    so.add_argument("-k", type=int, required=True)
    so.set_defaults(fn=_cmd_oracle)

    return p


def cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except SystemExit as exc:  # argparse help/usage paths
        return int(exc.code or 0)
    except SepkitError as exc:
        print(f"sepkit: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"sepkit: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli())
