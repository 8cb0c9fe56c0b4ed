from __future__ import annotations

import hashlib
import types
from pathlib import Path

import pytest

from sepkit import _flowpure, backend_name, decompose, enumerate_leftmost, flow
from sepkit.flow import _csr
from sepkit.oracle import fixtures, named_separator_corpus, random_separator_corpus

try:
    from sepkit import _flowcore as compiled
except ImportError:
    compiled = None

# SHA-256 of the _flowcore.pyx that the shipped _flowcore.c was generated from.
PYX_SHA256 = "bd7ad1afe79436715098d9eed3d342843286ef47a072caae364f0f71a3d99128"


def _run_all(kernel, inst, trial):
    g = inst.graph()
    flat, off = _csr(g)
    n = g.n
    forced = [0] * n
    active = [1] * n
    if trial >= 1:
        forced[(inst.k + trial) % n] = 1
    if trial == 2:
        active[(inst.k * 5 + 2) % n] = 0
    xs = sorted(v - 1 for v in inst.x if active[v - 1])
    ys = sorted(v - 1 for v in inst.y if active[v - 1])
    flow, paths, rin, rout = kernel.solve(n, flat, off, xs, ys, forced, active, inst.k + 1, [])
    return flow, paths, bytes(rin), bytes(rout)


@pytest.mark.skipif(compiled is None, reason="compiled kernel not built")
def test_backends_bit_identical():
    insts = random_separator_corpus(150, seed=23) + named_separator_corpus()
    for inst in insts:
        for trial in range(3):
            assert _run_all(_flowpure, inst, trial) == _run_all(compiled, inst, trial)


@pytest.mark.skipif(compiled is None, reason="compiled kernel not built")
def test_warm_start_identical():
    insts = random_separator_corpus(60, seed=31)
    for inst in insts:
        g = inst.graph()
        flat, off = _csr(g)
        n = g.n
        xs = sorted(v - 1 for v in inst.x)
        ys = sorted(v - 1 for v in inst.y)
        base = _flowpure.solve(n, flat, off, xs, ys, [0] * n, [1] * n, inst.k + 1, [])
        if not base[1]:
            continue
        warm = base[1][: (len(base[1]) + 1) // 2]
        a = _flowpure.solve(n, flat, off, xs, ys, [0] * n, [1] * n, inst.k + 1, warm)
        b = compiled.solve(n, flat, off, xs, ys, [0] * n, [1] * n, inst.k + 1, warm)
        assert (a[0], a[1], bytes(a[2]), bytes(a[3])) == (b[0], b[1], bytes(b[2]), bytes(b[3]))


def _kernel_inputs_from_run():
    """The kernel input that ``flow._run`` builds on region-local calls
    (decompositions of long thin graphs, enumerations inside a region of
    half the graph), with the vertex count of the graph each came from."""
    seen = []
    kernel = flow.kernel
    graph_n = 0

    def record(*args):
        seen.append((graph_n, args))
        return kernel.solve(*args)

    flow.kernel = types.SimpleNamespace(solve=record)
    try:
        for g, k in ((fixtures("PATH", 150), 3), (fixtures("GRID", 3, 30), 4), (fixtures("CYCLE", 80), 3)):
            graph_n = g.n
            decompose(g, k)
        for inst in random_separator_corpus(150, seed=41, n_max=16, m_max=40, k_max=6):
            g = inst.graph()
            graph_n = g.n
            half = frozenset(sorted(set(inst.x) | set(inst.y) | set(g.vertices[::2]))[: g.n // 2])
            enumerate_leftmost(g, inst.x, inst.y, inst.k, within=half)
    finally:
        flow.kernel = kernel
    return seen


@pytest.mark.skipif(compiled is None, reason="compiled kernel not built")
def test_relabelled_inputs_identical():
    inputs = _kernel_inputs_from_run()
    assert sum(1 for n, args in inputs if args[0] < n) > 100
    for _, args in inputs:
        a = _flowpure.solve(*args)
        b = compiled.solve(*args)
        assert (a[0], a[1], bytes(a[2]), bytes(a[3])) == (b[0], b[1], bytes(b[2]), bytes(b[3]))


def test_backend_selection_reports():
    assert backend_name() == ("pure" if compiled is None else "compiled")


def test_shipped_c_matches_pyx():
    pyx = Path(__file__).resolve().parents[1] / "src" / "sepkit" / "_flowcore.pyx"
    digest = hashlib.sha256(pyx.read_bytes()).hexdigest()
    assert digest == PYX_SHA256, (
        "_flowcore.pyx changed: regenerate _flowcore.c from it with Cython "
        f"and set PYX_SHA256 to {digest}"
    )
