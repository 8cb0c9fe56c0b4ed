from __future__ import annotations

import json
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sepkit import decompose
from sepkit.cli import cli
from sepkit.errors import ParseError, ValidationError
from sepkit.oracle import fixtures
from sepkit.pace import emit_graph, emit_td, parse_graph, parse_td
from sepkit.treewidth import TreeDecomposition


class TestParseGraph:
    def test_p3(self):
        g, stats = parse_graph(b"p tw 3 2\n1 2\n2 3\n")
        assert g == fixtures("PATH", 3)
        assert stats.warnings == 0

    def test_edge_count_mismatch(self):
        with pytest.raises(ParseError):
            parse_graph(b"p tw 3 2\n1 2\n2 3\n1 3\n")
        with pytest.raises(ParseError):
            parse_graph(b"p tw 3 2\n1 2\n")

    def test_comments_and_empty_graph(self):
        g, _ = parse_graph(b"c x\np tw 2 0\n")
        assert g.n == 2 and g.m == 0

    def test_duplicates_dropped_with_count(self):
        g, stats = parse_graph(b"p tw 3 4\n1 2\n2 1\n2 2\n2 3\n")
        assert g.m == 2
        assert stats.dropped_duplicates == 1 and stats.dropped_self_loops == 1

    def test_range_and_format_errors(self):
        with pytest.raises(ParseError) as e:
            parse_graph(b"p tw 3 1\n1 9\n")
        assert e.value.line == 2
        with pytest.raises(ParseError):
            parse_graph(b"1 2\np tw 3 1\n")
        with pytest.raises(ParseError):
            parse_graph(b"p tw 3 one\n")

    def test_non_ascii_byte(self):
        with pytest.raises(ParseError):
            parse_graph(b"p tw 3 2\n1 2\n2 \xff\n")

    def test_vertex_count_beyond_the_kernel(self):
        with pytest.raises(ParseError):
            parse_graph(b"p tw 99999999999999999999 0\n")
        with pytest.raises(ParseError):
            parse_graph(f"p tw {1 << 30} 0\n".encode())

    def test_large_header_few_edges(self):
        tracemalloc.start()
        try:
            g, _ = parse_graph(b"p tw 1000000 0\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert g.n == 1_000_000 and g.adj[5] == () and g.radj is g.adj

    def test_directed(self):
        g, _ = parse_graph(b"p tw 2 1\n2 1\n", directed=True)
        assert g.adj[2] == (1,) and g.adj[1] == ()
        assert g.radj[1] == (2,) and g.radj[2] == () and g.radj is not g.adj


class TestGraphRoundTrip:
    @pytest.mark.parametrize(
        "name,params",
        [("PATH", (7,)), ("BT", (4,)), ("GRID", (3, 3)), ("GNM", (9, 14, 5)), ("STAR4", ())],
    )
    def test_emit_parse_emit(self, name, params):
        g = fixtures(name, *params)
        data = emit_graph(g)
        g2, _ = parse_graph(data)
        assert g2 == g
        assert emit_graph(g2) == data


class TestTdFormat:
    def test_single_bag_k3(self):
        g = fixtures("COMPLETE", 3)
        td = TreeDecomposition((1,), {1: frozenset({1, 2, 3})}, (), root=1)
        assert emit_td(td, g) == b"s td 1 3 3\nb 1 1 2 3\n"

    def test_round_trip_of_decomposition(self):
        g = fixtures("PATH", 10)
        td = decompose(g, 3)
        data = emit_td(td, g)
        td2 = parse_td(data, g)
        assert emit_td(td2, g) == data

    def test_non_ascii_byte(self):
        with pytest.raises(ParseError):
            parse_td(b"s td 1 1 1\nb 1 \xff\n")

    def test_bag_vertex_out_of_range(self):
        with pytest.raises(ParseError):
            parse_td(b"s td 1 1 10\nb 1 99\n")

    def test_validation_against_graph(self):
        g = fixtures("PATH", 3)
        with pytest.raises(ValidationError):
            parse_td(b"s td 2 2 3\nb 1 1 2\nb 2 3\n1 2\n", g)

    def test_header_consistency(self):
        with pytest.raises(ParseError):
            parse_td(b"s td 2 2 3\nb 1 1 2\n")
        with pytest.raises(ParseError):
            parse_td(b"s td 1 3 3\nb 1 1 2\n")

    def test_empty_bags_allowed(self):
        td = parse_td(b"s td 2 1 2\nb 1\nb 2 1\n1 2\n")
        assert td.bags[1] == frozenset()


@pytest.fixture
def bt4_file(tmp_path):
    out = tmp_path / "bt4.gr"
    assert cli(["gen", "BT", "4", "-o", str(out)]) == 0
    return out


class TestCli:
    def test_gen_writes_sidecar(self, bt4_file):
        meta = json.loads((str(bt4_file) + ".meta.json") and open(str(bt4_file) + ".meta.json").read())
        assert meta["root"] == 1 and len(meta["leaves"]) == 8

    def test_gen_round_trip(self, tmp_path):
        out = tmp_path / "g.gr"
        assert cli(["gen", "GNM", "8", "12", "--seed", "1", "-o", str(out)]) == 0
        g, _ = parse_graph(out.read_bytes())
        assert g == fixtures("GNM", 8, 12, 1)

    def test_minsep(self, tmp_path, capsys):
        p = tmp_path / "p3.gr"
        p.write_bytes(b"p tw 3 2\n1 2\n2 3\n")
        assert cli(["minsep", "--graph", str(p), "--source", "1", "--target", "3", "-k", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["separator"] == [1] and out["flow"] == 1

    def test_minsep_forced_out(self, bt4_file, capsys):
        rc = cli(
            ["minsep", "--graph", str(bt4_file), "--source", "leaves", "--target", "root",
             "-k", "3", "--forced-out", "1"]
        )
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["separator"] == [2, 3]

    def test_enum_leftmost_magic_tokens(self, bt4_file, capsys):
        rc = cli(["enum", "--leftmost", "--graph", str(bt4_file), "--source", "leaves",
                  "--target", "root", "-k", "3"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["count"] == 2 and out["bound_leftmost"] == 2
        assert out["separators"] == [[2, 6, 7], [3, 4, 5]]

    def test_enum_bt8_catalan_count(self, tmp_path, capsys):
        out = tmp_path / "bt8.gr"
        assert cli(["gen", "BT", "8", "-o", str(out)]) == 0
        capsys.readouterr()
        rc = cli(["enum", "--leftmost", "--graph", str(out), "--source", "leaves",
                  "--target", "root", "-k", "6"])
        assert rc == 0
        got = json.loads(capsys.readouterr().out)
        assert got["count"] == 42 and got["bound_leftmost"] == 42

    def test_enum_deterministic_bytes(self, bt4_file, capsys):
        args = ["enum", "--important", "--graph", str(bt4_file), "--source", "leaves",
                "--target", "root", "-k", "3"]
        assert cli(args) == 0
        first = capsys.readouterr().out
        assert cli(args) == 0
        assert capsys.readouterr().out == first

    def test_tw_accept_validate_flow(self, tmp_path, capsys):
        g = tmp_path / "p10.gr"
        g.write_bytes(emit_graph(fixtures("PATH", 10)))
        td = tmp_path / "out.td"
        assert cli(["tw", "--graph", str(g), "-k", "3", "-o", str(td)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["status"] == "accept" and summary["width"] <= 10
        assert cli(["validate", "--graph", str(g), "--td", str(td)]) == 0

    def test_tw_reject_exit_2(self, tmp_path, capsys):
        g = tmp_path / "k12.gr"
        g.write_bytes(emit_graph(fixtures("COMPLETE", 12)))
        assert cli(["tw", "--graph", str(g), "-k", "3"]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "reject" and len(out["witness_w"]) == 7

    def test_tw_classic_width(self, tmp_path, capsys):
        g = tmp_path / "p10.gr"
        g.write_bytes(emit_graph(fixtures("PATH", 10)))
        assert cli(["tw", "--graph", str(g), "-k", "3", "--classic-width"]) == 0
        a = json.loads(capsys.readouterr().out)
        assert cli(["tw", "--graph", str(g), "-k", "3"]) == 0
        b = json.loads(capsys.readouterr().out)
        assert a["width"] == b["width"] - 1

    def test_oracle_subcommands(self, tmp_path, capsys):
        g = tmp_path / "d.gr"
        g.write_bytes(emit_graph(fixtures("DIAMOND")))
        assert cli(["oracle", "tw-exact", "--graph", str(g)]) == 0
        assert json.loads(capsys.readouterr().out)["treewidth"] == 3
        assert cli(["oracle", "seps", "--graph", str(g), "--source", "1", "--target", "4", "-k", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["separators"] == [[1], [2, 3], [4]]

    def test_directed_minsep(self, tmp_path, capsys):
        g = tmp_path / "d.gr"
        g.write_bytes(b"p tw 3 2\n3 2\n2 1\n")  # arcs point away from Y
        rc = cli(["minsep", "--graph", str(g), "--directed", "--source", "1",
                  "--target", "3", "-k", "2"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["separator"] == [] and out["flow"] == 0

    def test_usage_error_exit_1(self, capsys):
        assert cli(["enum", "--leftmost"]) == 1
        capsys.readouterr()

    def test_parse_error_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.gr"
        bad.write_bytes(b"p tw 3 1\n")
        assert cli(["minsep", "--graph", str(bad), "--source", "1", "--target", "3", "-k", "1"]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["minsep", "--source", "0", "--target", "3", "-k", "2"],
            ["minsep", "--source", "9", "--target", "3", "-k", "2"],
            ["enum", "--leftmost", "--source", "7", "--target", "3", "-k", "2"],
            ["enum", "--leftmost", "--source", "7", "--target", "3", "-k", "0"],
            ["enum", "--important", "--source", "7", "--target", "3", "-k", "0"],
        ],
    )
    def test_out_of_range_id_exit_1(self, tmp_path, capsys, argv):
        p = tmp_path / "p3.gr"
        p.write_bytes(b"p tw 3 2\n1 2\n2 3\n")
        assert cli(argv + ["--graph", str(p)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "outside 1..3" in captured.err and "Traceback" not in captured.err

    def test_non_ascii_graph_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.gr"
        bad.write_bytes(b"p tw 3 2\n1 2\n2 \xff\n")
        assert cli(["tw", "--graph", str(bad), "-k", "2"]) == 1
        assert "error" in capsys.readouterr().err

    def test_validate_invalid_exit_1(self, tmp_path, capsys):
        g = tmp_path / "p3.gr"
        g.write_bytes(b"p tw 3 2\n1 2\n2 3\n")
        td = tmp_path / "bad.td"
        td.write_bytes(b"s td 2 2 3\nb 1 1 2\nb 2 3\n1 2\n")
        assert cli(["validate", "--graph", str(g), "--td", str(td)]) == 1
        assert json.loads(capsys.readouterr().out)["status"] == "invalid"


# -- fuzzing ------------------------------------------------------------------

# Numbers: mostly small ids (negative ones too); one in six is an int
# too large for any graph (the last beyond Python's int() digit limit)
# or not an int at all. Non-ASCII bytes come in through the token soup
# and st.binary.
_ODD_NUMBER = st.sampled_from([
    b"+2", b"07", b"1.5", b"1e3", b"0x10", b"\x00", b"",
    str(1 << 31).encode(), str(1 << 64).encode(), b"9" * 5000,
])
_NUMBER = st.integers(-1, 14).flatmap(
    lambda i: _ODD_NUMBER if i < 0 else st.integers(-1, 9).map(lambda v: str(v).encode())
)
_TOKEN = st.one_of(_NUMBER, st.sampled_from([b"p", b"tw", b"s", b"td", b"b", b"c", b"\xff\xfe"]))
# Lines shaped like each PACE line kind, then free token soup; the
# first line is more often a header, so that the body gets parsed too.
_HEADER = st.one_of(
    st.tuples(st.just(b"p tw"), _NUMBER, _NUMBER),
    st.tuples(st.just(b"s td"), _NUMBER, _NUMBER, _NUMBER),
).map(b" ".join)
_LINE = st.one_of(
    _HEADER,
    st.tuples(st.just(b"b"), *[_NUMBER] * 3).map(b" ".join),
    st.tuples(_NUMBER, _NUMBER).map(b" ".join),
    st.lists(_TOKEN, max_size=6).map(b" ".join),
)
_FILE = st.tuples(
    st.lists(_HEADER, max_size=1),
    st.lists(_LINE, max_size=8),
    st.sampled_from([b"\n", b"\r\n", b"\r", b"\t\n"]),
).map(lambda parts: parts[2].join(parts[0] + parts[1]))


@settings(max_examples=500, deadline=None)
@given(st.one_of(_FILE, st.binary(max_size=40)), st.booleans())
@example(b"s td 1 1 1\nb 1 1\n0 1\n", False)  # a tree edge naming bag 0
@example(b"s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 2\n", False)  # 2-vertex bags
def test_parsers_raise_only_parse_error(data, directed):
    for parse in (lambda: parse_graph(data, directed=directed), lambda: parse_td(data)):
        try:
            parse()
        except ParseError:
            pass
