"""Acceptance suite: every criterion prints one summary line.

Sizes, seeds and time budgets are fixed; the heavy solver suites are
re-driven by the representativity audit so it sees the same instances.
"""

import itertools
import json
import math
import random
import time

from subsetfvs.cli import main
from subsetfvs.graphs import Graph, Instance, bits, is_forest, is_s_forest, mask_of
from subsetfvs.layouts import cut_rank, layout_from_order, mim_bipartite, mim_cut
from subsetfvs.multiway import NmcInstance, separates, solve_nmc
from subsetfvs.nec import compute_reps
from subsetfvs.dp import solve
from subsetfvs.oracles import (
    brute_force_fvs,
    brute_force_nmc,
    brute_force_sfvs,
    build_index_from_cover,
    check_represents,
    check_x2plus,
    extract_vertex_cover,
    find_scontraction,
    index_count,
    is_complement_solution,
    is_partial_solution,
    node_context,
    s_forest_by_cycles,
    scontraction_conditions,
)


def report(capsys, num, ok, detail):
    # capture suspended so the line shows for passes too
    with capsys.disabled():
        print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"criterion {num}: {detail}"


def random_graph(rng, n, p):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


# Shared samplers.  The exhaustive suite walks all 1024 edge sets on five
# vertices with three trackings each; the randomized suite draws 300
# weighted instances on shuffled caterpillars.


def suite_one():
    pairs = list(itertools.combinations(range(5), 2))
    rng = random.Random(101)
    layout = layout_from_order([0, 1, 2, 3, 4])
    for emask in range(1 << len(pairs)):
        g = Graph(5, [e for i, e in enumerate(pairs) if (emask >> i) & 1])
        single = 1 << rng.randrange(5)
        for s in (0, single, 0b11111):
            yield Instance(g, s, (1, 1, 1, 1, 1)), layout


def suite_two():
    rng = random.Random(202)
    for _ in range(300):
        n = rng.randint(6, 9)
        g = random_graph(rng, n, rng.choice((0.2, 0.5)))
        s = rng.randrange(1 << n)
        weights = tuple(rng.randint(-3, 10) for _ in range(n))
        order = list(range(n))
        rng.shuffle(order)
        yield Instance(g, s, weights), layout_from_order(order)


def test_criterion_1_exhaustive_five_vertex_graphs(capsys):
    started = time.perf_counter()
    count = 0
    for inst, layout in suite_one():
        res = solve(inst, layout)
        ref_w, _ = brute_force_sfvs(inst)
        assert res.weight == ref_w, f"edge set {sorted(inst.graph.edges())}, s={inst.s_set:05b}"
        assert s_forest_by_cycles(inst.graph, res.sforest, inst.s_set)
        assert inst.weight_of(res.sforest) == res.weight
        count += 1
    elapsed = time.perf_counter() - started
    report(capsys, 1, elapsed <= 600, f"{count} instances, {elapsed:.1f}s of 600s")


def test_criterion_2_randomized_instances(capsys):
    started = time.perf_counter()
    count = 0
    for inst, layout in suite_two():
        res = solve(inst, layout)
        ref_w, _ = brute_force_sfvs(inst)
        assert res.weight == ref_w
        assert s_forest_by_cycles(inst.graph, res.sforest, inst.s_set)
        assert inst.weight_of(res.sforest) == res.weight
        count += 1
    elapsed = time.perf_counter() - started
    report(capsys, 2, elapsed <= 900, f"{count} instances, {elapsed:.1f}s of 900s")


def test_criterion_3_fvs_special_case(capsys):
    rng = random.Random(303)
    for _ in range(100):
        n = rng.randint(4, 9)
        g = random_graph(rng, n, rng.choice((0.2, 0.5)))
        weights = tuple(rng.randint(-3, 10) for _ in range(n))
        inst = Instance(g, g.vertices, weights)
        order = list(range(n))
        rng.shuffle(order)
        res = solve(inst, layout_from_order(order))
        ref_w, _ = brute_force_fvs(g, weights)
        assert res.weight == ref_w
        assert is_forest(g, res.sforest)
    report(capsys, 3, True, "100 instances against the independent forest oracle")


def test_criterion_4_multiway_cut(capsys):
    rng = random.Random(404)
    done = 0
    while done < 100:
        n = rng.randint(4, 8)
        g = random_graph(rng, n, rng.choice((0.3, 0.5)))
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
        assert ref is not None and res.weight == ref.weight
        assert separates(g, res.cut, ts)
        assert not any((res.cut >> t) & 1 for t in ts)
    report(capsys, 4, True, "100 instances, cuts verified separating and terminal-free")


def test_criterion_5_width_inequalities(capsys):
    rng = random.Random(505)
    for _ in range(200):
        n = rng.randint(4, 10)
        g = random_graph(rng, n, rng.choice((0.3, 0.5)))
        a = rng.randrange(1 << n)
        ca = g.vertices & ~a
        rw, rwq, m = cut_rank(g, a, "gf2"), cut_rank(g, a, "rational"), mim_cut(g, a)
        assert m <= rw
        assert m <= rwq
        assert rw == cut_rank(g, ca, "gf2")
        assert rwq == cut_rank(g, ca, "rational")
        assert m == mim_cut(g, ca)
    report(capsys, 5, True, "200 cuts, zero violations")


def test_criterion_6_class_count_bounds(capsys):
    """Class counts against the three width bounds.

    Every class has a representative of at most d*mim vertices, so the mim
    bound checked is the counting bound: classes <= sum of C(side, i) for
    i <= d*mim.  For side >= 2 and d*mim >= 2 that sum is at most
    side**(d*mim), so the classic statement is asserted there too.  At
    d*mim == 1 the sum is side + 1 and the classic side**1 runs one short
    whenever the crossing neighborhoods form a full chain; random cuts hit
    that case regularly.  Those cuts are listed, and each must have
    d*mim == 1 and exactly side + 1 classes.
    """
    rng = random.Random(606)
    failures = []
    excess = []
    checked = 0
    for trial in range(100):
        n = rng.randint(4, 10)
        g = random_graph(rng, n, rng.choice((0.3, 0.5)))
        a = rng.randrange(1, 1 << n)
        if a == g.vertices:
            continue
        size = a.bit_count()
        rw = cut_rank(g, a, "gf2")
        rwq = cut_rank(g, a, "rational")
        m = mim_cut(g, a)
        assert compute_reps(g, a, 1).class_count == compute_reps(g, g.vertices & ~a, 1).class_count
        if m == 0 or size <= 1:
            continue
        checked += 1
        for d in (1, 2):
            cnt = compute_reps(g, a, d).class_count
            k = d * m
            ok = (
                cnt <= 2 ** (d * rw * rw)
                and cnt <= (d * rwq + 1) ** rwq
                and cnt <= sum(math.comb(size, i) for i in range(k + 1))
            )
            if cnt > size**k:
                excess.append((trial, size, d, m, cnt))
                ok = ok and k == 1 and cnt == size + 1
            if not ok:
                failures.append((trial, size, d, m, cnt))
    detail = (
        f"{checked} non-degenerate cuts; violations as (trial, side, d, mim, classes): "
        f"{failures or 'none'}; classic side**(d*mim) exceeded at "
        f"{excess or 'none'}"
    )
    report(capsys, 6, not failures, detail)


def test_criterion_7_representativity_and_table_sizes(capsys):
    audited = 0

    def run(sampler):
        nonlocal audited
        for inst, layout in sampler:
            far_limit = 12

            def audit(node, ctx, merged, reduced):
                nonlocal audited
                m = ctx.mim
                assert len(reduced) <= index_count(ctx) * (4 * m) ** (4 * m)
                if ctx.cvx.bit_count() <= far_limit:
                    assert check_represents(inst, ctx.vx, merged, reduced)
                    audited += 1

            solve(inst, layout, trace=audit)

    run(suite_one())
    run(suite_two())
    report(capsys, 7, True, f"{audited} node tables audited for representativity and size")


def test_criterion_8_structural_lemmas(capsys):
    rng = random.Random(808)

    # degree bound on forest bipartitions (every forest is an S-forest)
    for _ in range(200):
        n = rng.randint(2, 9)
        pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(pool)
        edges = []
        for e in pool:
            cand = Graph(n, edges + [e])
            if is_forest(cand, cand.vertices):
                edges.append(e)
        g = Graph(n, edges)
        x = rng.randrange(1 << n)
        assert check_x2plus(g, x, g.vertices & ~x)

    # contraction conditions, cover bound and index existence on random
    # tracked-forest splits
    done = 0
    while done < 200:
        n = rng.randint(3, 8)
        g = random_graph(rng, n, 0.4)
        s = rng.randrange(1 << n)
        inst = Instance(g, s, (1,) * n)
        kept = 0
        order = list(range(n))
        rng.shuffle(order)
        for v in order:
            if is_s_forest(g, kept | (1 << v), s):
                kept |= 1 << v
        x = kept & rng.randrange(1 << n)
        y = kept & ~x
        spare = [v for v in bits(g.vertices & ~(x | y))]
        rng.shuffle(spare)
        vx = x | mask_of(spare[: rng.randint(0, len(spare))])
        if vx == 0 or vx == g.vertices:
            continue
        done += 1
        p = find_scontraction(g, s, x, y)
        assert scontraction_conditions(g, s, x, y, p)
        cover = extract_vertex_cover(g, s, x, y, p)
        assert len(cover) <= 4 * mim_bipartite(g, x, y)
        lay = layout_from_order(sorted(bits(vx)) + sorted(bits(g.vertices & ~vx)))
        node = next(z for z in lay.postorder() if lay.below[z] == vx)
        ctx = node_context(inst, lay, node)
        i = build_index_from_cover(ctx, x, cover)
        assert is_partial_solution(inst, ctx, x, i)
        assert is_complement_solution(inst, ctx, y, p, i)
    report(capsys, 8, True, "200 degree-bound splits, 200 contractions with shared indices")


def test_criterion_9_interval_scaling(tmp_path, capsys):
    started = time.perf_counter()
    prefix = tmp_path / "iv30"
    assert main(["generate", "interval", "--n", "30", "--seed", "7", "--out", str(prefix)]) == 0
    out = tmp_path / "report.json"
    argv = ["solve", "--graph", str(prefix) + ".gr", "--layout", str(prefix) + ".layout",
            "--json", str(out)]
    assert main(argv) == 0
    elapsed = time.perf_counter() - started
    payload = json.loads(out.read_text())
    assert payload["n"] == 30
    ok = elapsed <= 300 and payload["width"]["mim"] <= 1
    report(capsys, 9, ok, f"n=30 end-to-end {elapsed:.1f}s of 300s, mim width {payload['width']['mim']}")


def test_criterion_10_thread_count_determinism(tmp_path, capsys):
    prefix = tmp_path / "det"
    assert main(["generate", "random", "--n", "10", "--p", "0.35", "--seed", "1",
                 "--out", str(prefix)]) == 0
    reports = []
    for threads, tag in [("1", "a"), ("8", "b"), ("1", "c")]:
        out = tmp_path / f"{tag}.json"
        argv = ["solve", "--graph", str(prefix) + ".gr", "--layout", str(prefix) + ".layout",
                "--threads", threads, "--oracle", "--json", str(out)]
        assert main(argv) == 0
        payload = json.loads(out.read_text())
        payload.pop("elapsed_ms")
        reports.append(payload)
    ok = reports[0] == reports[1] == reports[2]
    report(capsys, 10, ok, "three runs (threads 1/8/1) identical up to elapsed_ms")
