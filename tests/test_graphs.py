"""`PathGraph.shortest_paths` across the process's CPUs: forked workers give
bitwise the rows of one scipy call, leave no child behind, and raise a
worker's failure."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.csgraph
from scipy.sparse.csgraph import dijkstra

import catmin
from catmin import graphs
from catmin.graphs import PathGraph
from catmin.majorize import SurfaceGraph, cone_disc
from catmin.pipeline import run_key_lemma

from oracles import all_pairs_dijkstra_oracle, dijkstra_oracle
from test_pipeline import keylemma_grid_instance

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="forked Dijkstra workers need os.fork")


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def random_graph(seed, n=60, m=150):
    """A weighted graph with parallel edges, loops and an unreachable part
    (nodes n-5 .. n-1 join only each other)."""
    rng = np.random.default_rng(seed)
    a, b = rng.integers(0, n - 5, size=(2, m))
    a, b = np.append(a, [n - 5, n - 4, n - 3]), np.append(b, [n - 4, n - 3, n - 3])
    return PathGraph(n, a, b, rng.uniform(0.1, 2.0, a.size))


def edge_list(g):
    coo = g.matrix.tocoo()
    return list(zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist()))


@pytest.fixture
def forks(monkeypatch):
    """The pids of the workers forked during the test."""
    made = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            made.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return made


@pytest.fixture
def eager(monkeypatch, forks):
    """Every call of two sources or more forks; the forked pids."""
    monkeypatch.setattr(graphs, "FORK_WORK", 1)
    return forks


@pytest.mark.parametrize("cpus", [2, 5])
@pytest.mark.parametrize("graph", [
    pytest.param(lambda: random_graph(0), id="random"),
    pytest.param(lambda: SurfaceGraph(cone_disc(5 * np.pi / 2, 5), 6), id="cone"),
])
def test_forked_rows_bitwise_equal_one_scipy_call(monkeypatch, eager, cpus, graph):
    # more workers than this host may have CPUs: blocks of uneven size
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    g = graph()
    n = g.n_nodes
    want_dist, want_pred = dijkstra(g.matrix, directed=True, return_predecessors=True)
    dist, pred = g.shortest_paths(None, return_predecessors=True)
    no_child_left()
    assert len(eager) == cpus - 1
    assert (dist.dtype, pred.dtype) == (want_dist.dtype, want_pred.dtype)
    assert np.array_equal(dist, want_dist) and np.array_equal(pred, want_pred)
    assert np.allclose(dist, all_pairs_dijkstra_oracle(n, edge_list(g)), rtol=0.0, atol=1e-12)
    # a list of sources, with repeats, in any order; distances only
    sources = [n - 1, 0, n // 2, 0, 3, n - 2, 1]
    got = g.shortest_paths(sources)
    no_child_left()
    assert len(eager) == 2 * (cpus - 1)
    assert got.shape == (len(sources), n)
    assert np.array_equal(got, want_dist[sources])


def test_rows_read_the_same_before_and_after_all_pairs(eager):
    g = random_graph(1)
    n = g.n_nodes
    picks = [[n - 1, 0, n // 2], [n // 2, 5, n // 3, 5], list(range(0, n, 7)), [4], []]
    before = [g.rows(s) for s in picks]
    no_child_left()
    assert eager and g._dist is None
    dist, _ = g.all_pairs()
    no_child_left()
    for s, got in zip(picks, before):
        assert got.shape == (len(s), n)
        assert np.array_equal(got, dist[s])
        assert np.array_equal(g.rows(s), got)
    # a scalar source gives one row, a list of one source a 1 x n table
    assert g.shortest_paths(3).shape == (n,)
    assert g.shortest_paths([3]).shape == (1, n)
    assert np.array_equal(g.shortest_paths(3), dist[3])
    no_child_left()


@pytest.fixture(scope="module")
def grid12_w():
    """W of the 12 x 12 ``keylemma_grid`` disc; at subdiv 8 its chord graph
    has 865 nodes, enough Dijkstra work to split on any host with two CPUs."""
    res = run_key_lemma(*keylemma_grid_instance(12))
    assert res.ok, res.verification
    return res.disc


def test_all_pairs_on_the_grid_w_with_the_shipped_constant(forks, grid12_w):
    sg = SurfaceGraph(grid12_w, 8)
    n = sg.n_nodes
    assert n == 865
    dist, pred = sg.all_pairs()
    no_child_left()
    workers = min(len(os.sched_getaffinity(0)), n * sg.matrix.nnz // graphs.FORK_WORK)
    assert workers >= 2 or len(os.sched_getaffinity(0)) == 1
    assert len(forks) == max(workers, 1) - 1
    want_dist, want_pred = dijkstra(sg.matrix, directed=True, return_predecessors=True)
    assert np.array_equal(dist, want_dist) and np.array_equal(pred, want_pred)
    edges = edge_list(sg)
    for s in (0, n // 2, n - 1):
        assert np.allclose(dist[s], dijkstra_oracle(n, edges, s), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("where", ["worker", "parent"])
def test_a_failed_block_raises_and_leaves_no_child(monkeypatch, eager, capfd, where):
    parent = os.getpid()
    real = scipy.sparse.csgraph.dijkstra

    def failing(*args, **kwargs):
        if (os.getpid() != parent) == (where == "worker"):
            raise MemoryError(f"no room in the {where}")
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.csgraph, "dijkstra", failing)
    g = random_graph(2)
    with pytest.raises(RuntimeError if where == "worker" else MemoryError):
        g.all_pairs()
    no_child_left()
    assert eager and g._dist is None
    if where == "worker":
        assert "no room in the worker" in capfd.readouterr().err


# pinned to one CPU, with forking made to fail: the rows come from one scipy call
PINNED = """import hashlib, os, sys
import numpy as np
sys.path.insert(0, sys.argv[1])
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
def no_fork():
    raise AssertionError("forked")
os.fork = no_fork
from catmin import graphs
from test_graphs import random_graph
graphs.FORK_WORK = 1
dist, pred = random_graph(3).shortest_paths(None, return_predecessors=True)
print(hashlib.sha256(dist.tobytes() + pred.tobytes()).hexdigest())"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
def test_a_process_pinned_to_one_cpu_never_forks(eager):
    tests = str(Path(__file__).resolve().parent)
    src = str(Path(catmin.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    pinned = subprocess.run([sys.executable, "-c", PINNED, tests], env=env, capture_output=True, text=True,
                            check=True, timeout=120).stdout.strip()
    dist, pred = random_graph(3).shortest_paths(None, return_predecessors=True)
    no_child_left()
    assert eager
    assert pinned == hashlib.sha256(dist.tobytes() + pred.tobytes()).hexdigest()
