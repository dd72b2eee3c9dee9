"""The graph module against networkx, the independent reference."""

import os
import random
import subprocess
import sys

import networkx as nx

from conftest import FIXTURES, SCALED, icfa_of, load
from lockhound.generator import generate, random_config
from lockhound.graphs import cycles, idoms, sccs
from lockhound.nonconc import GraphFacts


def random_graphs(seed=13, count=1000):
    """Seeded digraphs of 0-12 nodes, with self-loops, nodes nothing
    reaches and several components: (succ, pred, nx.DiGraph)."""
    rng = random.Random(seed)
    for _ in range(count):
        nodes = rng.sample(range(40), rng.randint(0, 12))
        # edges inside a block are likelier than edges between blocks
        block = {v: rng.randrange(3) for v in nodes}
        inside = rng.choice((0.1, 0.25, 0.45))
        succ = {v: [w for w in nodes if rng.random() <
                    (inside if block[v] == block[w] else inside / 5)]
                for v in nodes}
        pred = {v: [u for u in nodes if v in succ[u]] for v in nodes}
        g = nx.DiGraph()
        g.add_nodes_from(nodes)
        g.add_edges_from((v, w) for v in nodes for w in succ[v])
        yield succ, pred, g


def partition(comps):
    return sorted(sorted(c) for c in comps)


def test_sccs_partition_matches_networkx():
    seen_self_loops = seen_several = 0
    for succ, _, g in random_graphs():
        comps = sccs(succ)
        want = nx.strongly_connected_components(g)
        assert partition(comps) == partition(want)
        seen_self_loops += nx.number_of_selfloops(g) > 0
        seen_several += sum(len(c) > 1 for c in comps) > 1
    assert seen_self_loops > 50 and seen_several > 20


def test_idoms_match_networkx_from_every_root():
    unreached = 0
    for succ, pred, g in random_graphs():
        for root in succ:
            want = nx.immediate_dominators(g, root)
            assert idoms(succ, pred, root) == want, (succ, root)
            unreached += len(want) + 1 < len(succ)
    assert unreached > 100


def test_cycles_of_each_length_match_networkx():
    lengths = set()
    for succ, pred, g in random_graphs():
        comp = {v: i for i, c in enumerate(sccs(succ)) for v in c}
        want = []
        for c in nx.simple_cycles(g):
            i = c.index(min(c))
            want.append(tuple(c[i:] + c[:i]))
        for k in range(len(succ) + 2):
            got = list(cycles(succ, pred, comp, k))
            assert got == sorted(c for c in want if len(c) == k), (succ, k)
            if got:
                lengths.add(k)
    assert {1, 2, 3, 4, 5} <= lengths


def automata():
    sources = [load(f.name) for f in sorted(FIXTURES.glob("*.mc"))]
    sources += [generate(k, random_config(k)) for k in range(40)]
    sources += [generate(seed, SCALED) for seed in (200, 201)]
    return [icfa_of(src) for src in sources]


def test_local_dominators_match_networkx_on_real_automata():
    roots = 0
    for icfa in automata():
        facts = GraphFacts(icfa)
        for f, fi in icfa.functions.items():
            succ, pred = facts._graph(f)
            g = nx.DiGraph()
            g.add_nodes_from(succ)
            g.add_edges_from((v, w) for v in succ for w in succ[v])
            assert all(set(pred[w]) == set(g.pred[w]) for w in succ)
            for a in range(fi.entry, fi.exit + 1):
                assert facts._dominators(a) == nx.immediate_dominators(g, a)
                roots += 1
    assert roots > 2500


def test_the_analyzer_never_loads_networkx():
    run = ("import sys\n"
           "import lockhound, lockhound.cli, lockhound.oracle\n"
           "from lockhound.pipeline import analyze_source, report_text\n"
           "a = analyze_source(open(sys.argv[1]).read())\n"
           "assert 'reported' in report_text(a) and a.reported_cycles()\n"
           "print('networkx' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", run,
                          str(FIXTURES / "mutant_ring.mc")], env=env,
                         capture_output=True, text=True)
    assert out.stdout == "False\n", out.stderr
