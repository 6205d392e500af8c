"""Node multiway cut through the hub reduction."""

import random

import pytest

from subsetfvs.dp import SolveResult
from subsetfvs.graphs import CheckError, Graph, bits
from subsetfvs.layouts import layout_from_order, width
from subsetfvs.multiway import (
    NmcInstance,
    NmcResult,
    brute_force_nmc,
    extend_layout,
    reduce_to_sfvs,
    separates,
    solve_nmc,
)


def caterpillar(n):
    return layout_from_order(list(range(n)))


def test_instance_validation():
    g = Graph(3, [(0, 1)])
    with pytest.raises(ValueError):
        NmcInstance(g, (0,), (1, 1, 1))
    with pytest.raises(ValueError):
        NmcInstance(g, (0, 0), (1, 1, 1))
    with pytest.raises(ValueError):
        NmcInstance(g, (0, 3), (1, 1, 1))
    with pytest.raises(ValueError):
        NmcInstance(g, (0, 2), (1, 1))


def test_reduction_shape():
    g = Graph(3, [(0, 1), (1, 2)])
    nmc = NmcInstance(g, (0, 2), (1, -2, 3))
    inst, hub = reduce_to_sfvs(nmc)
    assert hub == 3
    assert inst.n == 4
    assert inst.s_set == 1 << hub
    assert inst.graph.has_edge(0, hub) and inst.graph.has_edge(2, hub)
    assert not inst.graph.has_edge(1, hub)
    big = 1 + (1 + 2 + 3)
    # hub and terminals priced out of every deletion
    assert inst.weights == (big, -2, big, big)
    kept, _ = reduce_to_sfvs(nmc, deletable_terminals=True)
    assert kept.weights == (1, -2, 3, big)


def test_extend_layout_adds_hub_leaf():
    lay = caterpillar(3)
    ext = extend_layout(lay, 3)
    assert ext.n == 4
    assert ext.node_count == lay.node_count + 2
    assert ext.below[ext.root] == 0b1111
    assert ext.leaf_vertex[lay.node_count] == 3


def test_extend_layout_mim_grows_by_at_most_one():
    rng = random.Random(13)
    for _ in range(50):
        n = rng.randint(3, 7)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.45])
        nmc = NmcInstance(g, tuple(rng.sample(range(n), rng.choice((2, 3)))), (1,) * n)
        inst, hub = reduce_to_sfvs(nmc)
        order = list(range(n))
        rng.shuffle(order)
        lay = layout_from_order(order)
        assert (
            width(inst.graph, extend_layout(lay, hub), "mim")[0] <= width(g, lay, "mim")[0] + 1
        )


def test_separates_examples():
    path = Graph(3, [(0, 1), (1, 2)])
    assert separates(path, 0b010, (0, 2))
    assert not separates(path, 0, (0, 2))
    # deleting a terminal counts as separating it away
    assert separates(path, 0b001, (0, 2))
    # random graphs with n <= 8, 2-4 terminals and every cut, deleted
    # terminals included, against a pairwise search; both answers appear
    rng = random.Random(41)
    seen = set()
    for _ in range(60):
        n = rng.randint(2, 8)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4])
        ts = tuple(rng.sample(range(n), rng.randint(2, min(4, n))))
        for cut in range(1 << n):
            want = _separates_pairwise(g, cut, ts)
            assert separates(g, cut, ts) == want, (n, list(g.edges()), ts, cut)
            seen.add(want)
    assert seen == {False, True}


def _separates_pairwise(g, cut, terminals):
    """Reference: a search from each surviving terminal reaches no other."""
    inside = g.vertices & ~cut
    alive = [t for t in terminals if inside >> t & 1]
    for i, t in enumerate(alive):
        seen, todo = {t}, [t]
        while todo:
            for w in bits(g.adj[todo.pop()] & inside):
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        if any(u in seen for u in alive[i + 1 :]):
            return False
    return True


@pytest.mark.parametrize(
    "kept, message",
    [(0b0111, "hub"), (0b1110, "deletes a terminal"), (0b1111, "does not separate")],
    ids=["hub-dropped", "terminal-deleted", "not-separated"],
)
def test_post_checks_raise_runtime_error(monkeypatch, kept, message):
    """Each check of the reduced solve's answer raises CheckError, a
    RuntimeError, so it still runs under `python -O`.  `kept` is the
    reduced instance's kept set; its hub is vertex 3."""
    fake = SolveResult(0, kept, 0b1111 & ~kept)
    monkeypatch.setattr("subsetfvs.multiway.solve", lambda inst, layout: fake)
    path = Graph(3, [(0, 1), (1, 2)])
    with pytest.raises(CheckError, match=message):
        solve_nmc(NmcInstance(path, (0, 2), (1, 1, 1)), caterpillar(3))


def test_path_cut():
    path = Graph(3, [(0, 1), (1, 2)])
    res = solve_nmc(NmcInstance(path, (0, 2), (1, 1, 1)), caterpillar(3))
    assert res == NmcResult(1, 0b010)


def test_parallel_paths_need_both_cut():
    g = Graph(4, [(0, 1), (1, 2), (0, 3), (3, 2)])
    res = solve_nmc(NmcInstance(g, (0, 2), (1, 1, 1, 5)), caterpillar(4))
    assert res == NmcResult(6, 0b1010)


def test_star_center_is_the_cut():
    g = Graph(4, [(0, 1), (0, 2), (0, 3)])
    res = solve_nmc(NmcInstance(g, (1, 2, 3), (4, 1, 1, 1)), caterpillar(4))
    assert res == NmcResult(4, 0b0001)


def test_already_separated_needs_nothing():
    g = Graph(4, [(0, 1), (2, 3)])
    res = solve_nmc(NmcInstance(g, (0, 2), (1, 1, 1, 1)), caterpillar(4))
    assert res == NmcResult(0, 0)


def test_adjacent_terminals_rejected():
    k4 = Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    nmc = NmcInstance(k4, (0, 1), (2, 3, 9, 9))
    with pytest.raises(ValueError):
        solve_nmc(nmc, caterpillar(4))
    assert brute_force_nmc(nmc) is None


def test_deletable_terminals_pay_for_themselves():
    k4 = Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    nmc = NmcInstance(k4, (0, 1), (2, 3, 9, 9))
    res = solve_nmc(nmc, caterpillar(4), deletable_terminals=True)
    assert res == NmcResult(2, 0b0001)
    assert res == brute_force_nmc(nmc, deletable_terminals=True)


def test_random_instances_match_brute_force():
    rng = random.Random(71)
    done = 0
    while done < 40:
        n = rng.randint(3, 7)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4])
        ts = tuple(sorted(rng.sample(range(n), rng.choice((2, 3)))))
        if any(g.has_edge(t, u) for t in ts for u in ts if u > t):
            continue
        done += 1
        weights = tuple(rng.randint(0, 9) for _ in range(n))
        nmc = NmcInstance(g, ts, weights)
        order = list(range(n))
        rng.shuffle(order)
        res = solve_nmc(nmc, layout_from_order(order))
        ref = brute_force_nmc(nmc)
        assert ref is not None
        assert res.weight == ref.weight
        assert separates(g, res.cut, ts)
        assert sum(weights[v] for v in bits(res.cut)) == res.weight


def test_random_deletable_instances_match_brute_force():
    rng = random.Random(73)
    for _ in range(25):
        n = rng.randint(3, 6)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5])
        ts = tuple(sorted(rng.sample(range(n), 2)))
        weights = tuple(rng.randint(0, 9) for _ in range(n))
        nmc = NmcInstance(g, ts, weights)
        res = solve_nmc(nmc, caterpillar(n), deletable_terminals=True)
        ref = brute_force_nmc(nmc, deletable_terminals=True)
        assert ref is not None and res.weight == ref.weight
        assert separates(g, res.cut, ts)
