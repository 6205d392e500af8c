"""Command line front end: file formats, exit codes, reports, generation."""

import importlib
import importlib.util
import json
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from subsetfvs import cli, dp, layouts, multiway
from subsetfvs.cli import CliError, main, parse_graph_file, write_graph_file
from subsetfvs.graphs import Graph
from subsetfvs.layouts import layout_from_order, parse_layout, serialize_layout, width

TRIANGLE = """\
c a triangle with one tracked vertex
p sfvs 3 3
v v1 1 1
v v2 1 0
v v3 1 0
e v1 v2
e v2 v3
e v3 v1
"""

PATH_T = """\
p sfvs 3 2
v t1 1 0
v a 1 0
v t2 1 0
e t1 a
e a t2
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_json(tmp_path, capsys, argv):
    code = main(argv + ["--json", "-"])
    out = capsys.readouterr().out
    return code, json.loads(out)


# ----------------------------------------------------------------- parsing


def test_parse_round_trip():
    g, weights, s_mask, names = parse_graph_file(TRIANGLE)
    assert g.n == 3 and g.edge_count == 3
    assert weights == (1, 1, 1)
    assert s_mask == 0b001
    assert names == ["v1", "v2", "v3"]
    again = parse_graph_file(write_graph_file(g, weights, s_mask, names))
    assert again[0].n == g.n and sorted(again[0].edges()) == sorted(g.edges())
    assert again[1:] == (weights, s_mask, names)


@pytest.mark.parametrize(
    "text",
    [
        "v a 1 0\n",  # no header
        "p sfvs 1 0\np sfvs 1 0\nv a 1 0\n",
        "p wrong 1 0\nv a 1 0\n",
        "p sfvs 2 0\nv a 1 0\n",  # count mismatch
        "p sfvs 1 1\nv a 1 0\n",
        "p sfvs 1 0\nv a 1 2\n",  # bad flag
        "p sfvs 2 1\nv a 1 0\nv a 1 0\ne a a\n",  # duplicate name
        "p sfvs 2 1\nv a 1 0\nv b 1 0\ne a c\n",  # unknown endpoint
        "p sfvs 1 0\nx what\nv a 1 0\n",
        # names a layout file or a comma-separated list could not refer to
        "p sfvs 1 0\nv a(b 1 0\n",
        "p sfvs 1 0\nv a) 1 0\n",
        "p sfvs 2 0\nv a 1 0\nv b,c 1 0\n",
        "p sfvs 0 0\n",  # no vertex: no layout exists
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(CliError):
        parse_graph_file(text)


@pytest.mark.parametrize("header", ["p sfvs -1 0", "p sfvs 0 -1", "p sfvs -2 -3"])
def test_parse_rejects_negative_header_counts(header):
    with pytest.raises(CliError, match="line 1: header counts must be >= 0"):
        parse_graph_file(header + "\n")


# ------------------------------------------------------------------ solve


def test_solve_triangle_with_s_flag_override(tmp_path, capsys):
    gr = write(tmp_path, "tri.gr", TRIANGLE)
    code, report = run_json(tmp_path, capsys, ["solve", "--graph", gr, "--s", "v1"])
    assert code == 0
    assert report["problem"] == "sfvs"
    assert report["n"] == 3 and report["m"] == 3
    assert report["objective_weight"] == 2
    assert report["sforest_weight"] == 2
    assert len(report["deletion_set"]) == 1
    assert report["oracle_checked"] is False
    assert set(report["width"]) == {"gf2", "rational", "mim"}
    assert report["elapsed_ms"] >= 0


def test_solve_fvs_tracks_everything(tmp_path, capsys):
    ring = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    gr = write(tmp_path, "c4.gr", write_graph_file(ring, [1] * 4, 0, ["a", "b", "c", "d"]))
    code, report = run_json(tmp_path, capsys, ["solve", "--graph", gr, "--problem", "fvs"])
    assert code == 0
    assert report["objective_weight"] == 3
    assert len(report["deletion_set"]) == 1


def test_solve_nmc_path(tmp_path, capsys):
    gr = write(tmp_path, "path.gr", PATH_T)
    code, report = run_json(
        tmp_path, capsys, ["solve", "--graph", gr, "--problem", "nmc", "--terminals", "t1,t2"]
    )
    assert code == 0
    assert report["problem"] == "nmc"
    assert report["objective_weight"] == 1
    assert report["deletion_set"] == ["a"]
    # the kept side still reports its own weight
    assert report["sforest_weight"] == 2


def test_mim_is_searched_once_per_layout_node_and_key_route_node(tmp_path, capsys, monkeypatch):
    """On every problem the reported mim width is `width(..., "mim")`: the
    width pass searches each layout node's cut once, through
    `layouts.mim_bipartite`.  The solve searches a cut only where the key
    route reads its mim, once per such node, through `dp.mim_bipartite`.
    Every mim computation, `mim_cut` included, goes through one of the two,
    so counting those counts each one once."""
    calls = {dp: 0, layouts: 0, "key nodes": 0}
    for mod in (dp, layouts):
        orig = mod.mim_bipartite

        def counted(g, a, b, mod=mod, orig=orig):
            calls[mod] += 1
            return orig(g, a, b)

        monkeypatch.setattr(mod, "mim_bipartite", counted)
    keep_by_keys = dp._keep_by_keys

    def key_route(*args):
        calls["key nodes"] += 1
        return keep_by_keys(*args)

    monkeypatch.setattr(dp, "_keep_by_keys", key_route)
    rng = random.Random(41)
    graphs = [Graph(1, []), Graph(2, []), Graph(2, [(0, 1)])]
    for n in (5, 7, 9):
        graphs.append(Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]))
    graphs.append(Graph(10, rng.sample([(u, v) for u in range(10) for v in range(u + 1, 10)], 40)))
    key_nodes = 0
    for g in graphs:
        names = [f"v{i}" for i in range(g.n)]
        gr = write(tmp_path, "g.gr", write_graph_file(g, [1] * g.n, 1, names))
        order = list(range(g.n))
        rng.shuffle(order)
        lay = layout_from_order(order)
        lf = write(tmp_path, "g.layout", serialize_layout(lay, names) + "\n")
        want = width(g, lay, "mim")[0]
        runs = [["--problem", "sfvs"], ["--problem", "fvs"]]
        apart = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)]
        if apart:
            runs.append(["--problem", "nmc", "--terminals", ",".join(names[v] for v in apart[0])])
        for extra in runs:
            calls.update({dp: 0, layouts: 0, "key nodes": 0})
            code, report = run_json(tmp_path, capsys, ["solve", "--graph", gr, "--layout", lf] + extra)
            assert code == 0
            assert report["width"]["mim"] == want, (g.n, extra)
            assert calls[layouts] == lay.node_count, (g.n, extra)
            assert calls[dp] == calls["key nodes"], (g.n, extra)
            key_nodes += calls["key nodes"]
    assert key_nodes > 0


def test_solve_with_oracle_and_layout_file(tmp_path, capsys):
    gr = write(tmp_path, "tri.gr", TRIANGLE)
    lay = layout_from_order([2, 0, 1])
    lf = write(tmp_path, "tri.layout", serialize_layout(lay, ["v1", "v2", "v3"]) + "\n")
    code, report = run_json(
        tmp_path, capsys, ["solve", "--graph", gr, "--layout", lf, "--s", "v1", "--oracle"]
    )
    assert code == 0
    assert report["objective_weight"] == 2
    assert report["oracle_checked"] is True


def test_solve_human_summary_and_json_file(tmp_path, capsys):
    gr = write(tmp_path, "tri.gr", TRIANGLE)
    out = tmp_path / "report.json"
    code = main(["solve", "--graph", gr, "--s", "v1", "--json", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "objective 2" in printed
    assert json.loads(out.read_text())["objective_weight"] == 2


def test_exit_codes_for_bad_input(tmp_path, capsys):
    assert main(["solve", "--graph", str(tmp_path / "missing.gr")]) == 1
    gr = write(tmp_path, "bad.gr", "p sfvs 1 2\nv a 1 0\n")
    assert main(["solve", "--graph", gr]) == 1
    tri = write(tmp_path, "tri.gr", TRIANGLE)
    assert main(["solve", "--graph", tri, "--s", "nope"]) == 1
    assert main(["solve", "--graph", tri, "--threads", "-2"]) == 1
    capsys.readouterr()
    comma = write(tmp_path, "comma.gr", "p sfvs 2 0\nv a 1 0\nv b,c 1 0\n")
    assert main(["solve", "--graph", comma]) == 1
    assert "line 3: vertex name 'b,c'" in capsys.readouterr().err
    # --s and --terminals exit 1 when they cannot take effect: an empty list,
    # or a problem that does not read them
    for argv, message in (
        (["--s", ""], "empty vertex list"),
        (["--s", " , "], "empty vertex list"),
        (["--problem", "nmc", "--terminals", ""], "empty vertex list"),
        (["--problem", "fvs", "--s", "v1"], "--s applies to --problem sfvs only"),
        (["--problem", "nmc", "--s", "v1"], "--s applies to --problem sfvs only"),
        (["--terminals", "v1,v3"], "--terminals applies to --problem nmc only"),
        (["--problem", "fvs", "--terminals", "v1,v3"], "--terminals applies to --problem nmc only"),
    ):
        assert main(["solve", "--graph", tri, *argv]) == 1, argv
        assert message in capsys.readouterr().err, argv
    # argparse usage errors exit 1 as well, with the usage line on stderr;
    # 2 is kept for an oracle mismatch
    for argv in (
        ["solve", "--graph", tri, "--threads", "x"],
        ["solve", "--graph", tri, "--problem", "bogus"],
        ["solve"],
        ["generate", "random", "--n", "abc"],
    ):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("usage: sfvs"), argv
        assert "error: " in err, argv


def test_exit_code_on_oracle_mismatch(tmp_path, capsys, monkeypatch):
    gr = write(tmp_path, "tri.gr", TRIANGLE)
    monkeypatch.setattr("subsetfvs.oracles.brute_force_sfvs", lambda inst: (99, 0))
    assert main(["solve", "--graph", gr, "--s", "v1", "--oracle"]) == 2
    assert "oracle" in capsys.readouterr().err


def test_exit_code_on_fvs_oracle_mismatch(tmp_path, capsys, monkeypatch):
    gr = write(tmp_path, "tri.gr", TRIANGLE)
    monkeypatch.setattr("subsetfvs.oracles.brute_force_fvs", lambda g, weights: (99, 0))
    assert main(["solve", "--graph", gr, "--problem", "fvs", "--oracle"]) == 2
    assert "oracle" in capsys.readouterr().err


@pytest.mark.parametrize(
    "problem, oracle", [("sfvs", "brute_force_sfvs"), ("fvs", "brute_force_fvs"), ("nmc", "brute_force_nmc")]
)
def test_elapsed_ms_leaves_out_the_oracle(tmp_path, capsys, monkeypatch, problem, oracle):
    """The reported time covers the solve, not the brute-force check: here
    the oracle moves the clock on by 1000 s and still agrees."""
    from subsetfvs import oracles

    clock = [0.0]
    real = getattr(oracles, oracle)

    def slow_oracle(*args):
        clock[0] += 1000.0
        return real(*args)

    monkeypatch.setattr(cli.time, "perf_counter", lambda: clock[0])
    monkeypatch.setattr(oracles, oracle, slow_oracle)
    argv = ["solve", "--graph", write(tmp_path, "path.gr", PATH_T), "--problem", problem, "--oracle"]
    if problem == "nmc":
        argv += ["--terminals", "t1,t2"]
    code, report = run_json(tmp_path, capsys, argv)
    assert code == 0 and report["oracle_checked"] is True
    assert report["elapsed_ms"] < 1000.0


def test_exit_code_on_nmc_oracle_mismatch(tmp_path, capsys, monkeypatch):
    gr = write(tmp_path, "path.gr", PATH_T)
    monkeypatch.setattr("subsetfvs.oracles.brute_force_nmc", lambda nmc: multiway.NmcResult(99, 0))
    argv = ["solve", "--graph", gr, "--problem", "nmc", "--terminals", "t1,t2", "--oracle"]
    assert main(argv) == 2
    assert "oracle" in capsys.readouterr().err


def test_exit_codes_for_failed_checks_and_memory(tmp_path, capsys, monkeypatch):
    tri = write(tmp_path, "tri.gr", TRIANGLE)
    path = write(tmp_path, "path.gr", PATH_T)
    # dead rows reach the root, so dp.solve's root check fails: exit 2
    with monkeypatch.context() as patch:
        patch.setattr(dp, "reduce_table", lambda table, ctx, inst: table)
        assert main(["solve", "--graph", tri, "--problem", "fvs"]) == 2
        assert "failed a check: the best root row" in capsys.readouterr().err
    # an nmc answer that drops the hub fails solve_nmc's post-check: exit 2
    with monkeypatch.context() as patch:
        patch.setattr(multiway, "solve", lambda inst, layout: dp.SolveResult(0, 0, 0b1111))
        assert main(["solve", "--graph", path, "--problem", "nmc", "--terminals", "t1,t2"]) == 2
        assert "failed a check: the hub" in capsys.readouterr().err

    def raising(exc):
        def run(*args, **kwargs):
            raise exc
        return run

    # out of memory: exit 3, with a message and no traceback
    monkeypatch.setattr(cli, "solve", raising(MemoryError()))
    assert main(["solve", "--graph", tri]) == 3
    assert "out of memory" in capsys.readouterr().err
    # a plain RuntimeError, RecursionError among them, is not mapped
    for exc in (RecursionError("deep"), RuntimeError("plain")):
        monkeypatch.setattr(cli, "solve", raising(exc))
        with pytest.raises(type(exc)):
            main(["solve", "--graph", tri])


def test_oracle_checks_fvs_and_nmc(tmp_path, capsys):
    tri = write(tmp_path, "tri.gr", TRIANGLE)
    code, report = run_json(tmp_path, capsys, ["solve", "--graph", tri, "--problem", "fvs", "--oracle"])
    assert code == 0
    assert report["objective_weight"] == 2
    assert report["oracle_checked"] is True
    path = write(tmp_path, "path.gr", PATH_T)
    code, report = run_json(
        tmp_path,
        capsys,
        ["solve", "--graph", path, "--problem", "nmc", "--terminals", "t1,t2", "--oracle"],
    )
    assert code == 0
    assert report["objective_weight"] == 1
    assert report["oracle_checked"] is True


@pytest.mark.parametrize(
    "problem_args",
    [["--problem", "sfvs"], ["--problem", "fvs"], ["--problem", "nmc", "--terminals", "v0,v1"]],
    ids=["sfvs", "fvs", "nmc"],
)
def test_exit_code_on_oracle_size_guard(tmp_path, capsys, problem_args):
    big = Graph(21, [])
    gr = write(tmp_path, "big.gr", write_graph_file(big, [1] * 21, 0, [f"v{i}" for i in range(21)]))
    assert main(["solve", "--graph", gr, "--oracle"] + problem_args) == 3
    capsys.readouterr()


def test_solve_and_oracle_run_without_numpy(tmp_path):
    """The package and --oracle need only the standard library: with numpy
    unimportable, a solve exits 0 with and without its oracle check."""
    gr = write(tmp_path, "tri.gr", TRIANGLE)
    probe = (
        "import sys; sys.modules['numpy'] = None; "  # makes `import numpy` raise ImportError
        f"sys.path.insert(0, {str(ROOT / 'src')!r}); "
        "from subsetfvs.cli import main; "
        "sys.exit(main(sys.argv[1:]))"
    )
    for flags in (["--oracle"], []):
        argv = ["solve", "--graph", gr, "--json", "-", *flags]
        res = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True, text=True)
        assert res.returncode == 0, (flags, res.stderr)
        assert json.loads(res.stdout)["oracle_checked"] is bool(flags)


def test_threads_help_promises_no_parallelism(capsys):
    with pytest.raises(SystemExit):
        main(["solve", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "auto" not in text
    assert "one thread" in text


@pytest.mark.parametrize("kind", ["edgeless", "path"])
def test_large_forest_without_layout_deletes_nothing(tmp_path, capsys, kind):
    """A forest on n = 600 vertices, solved on the default id-order layout,
    keeps every vertex: the per-row work of a solve depends on the cut
    boundary, which stays at most one vertex here."""
    n = 600
    edges = [(i, i + 1) for i in range(n - 1)] if kind == "path" else []
    names = [f"v{i}" for i in range(n)]
    s_mask = sum(1 << v for v in range(0, n, 3))
    gr = write(tmp_path, f"{kind}.gr", write_graph_file(Graph(n, edges), [1] * n, s_mask, names))
    code, report = run_json(tmp_path, capsys, ["solve", "--graph", gr])
    assert code == 0
    assert report["deletion_set"] == []
    assert report["sforest_weight"] == n == report["objective_weight"]


# ---------------------------------------------------------- module surface


ROOT = Path(__file__).resolve().parents[1]


def test_plain_import_leaves_oracles_and_numpy_unloaded():
    probe = (
        "import sys; import subsetfvs.cli; from subsetfvs import *; "
        "print(sorted({'numpy', 'subsetfvs.oracles'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); {probe}"],
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


def test_workflow_names_existing_tests():
    """Every `tests/<file>.py::<name>` the CI workflow runs by node id is a
    test function of that file; a renamed test would otherwise show up only
    when the workflow runs."""
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    node_ids = re.findall(r"\btests/(\w+)\.py::(\w+)", workflow)
    assert node_ids
    for module, name in node_ids:
        source = (ROOT / "tests" / f"{module}.py").read_text()
        assert re.search(rf"^def {name}\(", source, re.M), f"tests/{module}.py::{name}"


def test_benchmark_tracer_targets_exist():
    """perfbench/tracing.py wraps module attributes by name; each one must
    still exist, or a traced benchmark run breaks."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.WRAPPED
    for mod_name, attr, _, _ in tracing.WRAPPED:
        assert callable(getattr(importlib.import_module(mod_name), attr, None)), (mod_name, attr)


def test_benchmark_tracer_runs_traced_solves(tmp_path, capsys):
    """perfbench/tracing.py counts from the values the wrapped calls
    return: the class counts of the families `build_context` puts on its
    context, and the table sizes.  A traced sfvs and nmc solve must give
    every such span an int count."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    graph = write(tmp_path, "t.gr", TRIANGLE)
    path_t = write(tmp_path, "p.gr", PATH_T)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert main(["solve", "--graph", graph]) == 0
        assert main(["solve", "--graph", path_t, "--problem", "nmc", "--terminals", "t1,t2"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    counted = ("dp.build_context", "dp.merge_tables", "dp.reduce_table")
    spans = [sp for sp in tracer.spans if sp[0] in counted]
    assert {sp[0] for sp in spans} == set(counted)
    for name, _, _, _, count in spans:
        assert isinstance(count, int), (name, count)
    assert tracing.layer_metrics(tracer.spans)["nec.classes"] > 0


# --------------------------------------------------------------- generate


def test_generate_is_deterministic(tmp_path, capsys):
    a = tmp_path / "one"
    b = tmp_path / "two"
    for prefix in (a, b):
        assert main(["generate", "random", "--n", "8", "--seed", "5", "--out", str(prefix)]) == 0
    capsys.readouterr()
    assert (tmp_path / "one.gr").read_bytes() == (tmp_path / "two.gr").read_bytes()
    assert (tmp_path / "one.layout").read_bytes() == (tmp_path / "two.layout").read_bytes()


def test_generate_round_trips_and_solves(tmp_path, capsys):
    prefix = tmp_path / "inst"
    assert main(["generate", "random", "--n", "7", "--seed", "3", "--out", str(prefix)]) == 0
    capsys.readouterr()
    g, weights, s_mask, names = parse_graph_file((tmp_path / "inst.gr").read_text())
    assert g.n == 7 and weights == (1,) * 7
    layout = parse_layout((tmp_path / "inst.layout").read_text(), names)
    assert layout.n == 7
    code, report = run_json(
        tmp_path,
        capsys,
        ["solve", "--graph", str(tmp_path / "inst.gr"), "--layout", str(tmp_path / "inst.layout"),
         "--oracle"],
    )
    assert code == 0
    assert report["oracle_checked"] is True
    assert len(report["deletion_set"]) + report["sforest_weight"] == 7


def test_generate_interval_has_unit_mim(tmp_path, capsys):
    prefix = tmp_path / "iv"
    assert main(["generate", "interval", "--n", "20", "--seed", "7", "--out", str(prefix)]) == 0
    capsys.readouterr()
    g, _, _, names = parse_graph_file((tmp_path / "iv.gr").read_text())
    layout = parse_layout((tmp_path / "iv.layout").read_text(), names)
    assert width(g, layout, "mim")[0] <= 1
    intervals = (tmp_path / "iv.intervals").read_text().splitlines()
    assert len(intervals) == 20


def test_generate_rejects_bad_size(tmp_path, capsys):
    assert main(["generate", "random", "--n", "0", "--out", str(tmp_path / "x")]) == 1
    capsys.readouterr()


def test_generate_permutation_has_unit_mim(tmp_path, capsys):
    """The written layout is the caterpillar in position order, and every
    prefix cut passes the chain criterion."""
    prefix = tmp_path / "perm"
    assert main(["generate", "permutation", "--n", "30", "--seed", "7", "--out", str(prefix)]) == 0
    assert capsys.readouterr().out == f"wrote {prefix}.gr and {prefix}.layout\n"
    g, weights, _, names = parse_graph_file((tmp_path / "perm.gr").read_text())
    layout = parse_layout((tmp_path / "perm.layout").read_text(), names)
    assert weights == (1,) * 30 and len(list(g.edges())) > 30
    assert [layout.leaf_vertex[x] for x in layout.postorder() if layout.is_leaf(x)] == list(range(30))
    bnd = layouts.boundaries(g, layout)
    for x in layout.postorder():
        assert layouts.mim_bipartite_at_most_one(g, bnd[x], g.vertices & ~layout.below[x])
    assert width(g, layout, "mim")[0] == 1


@pytest.mark.parametrize("n", [1, 5, 9, 12])
def test_generate_permutation_solves_to_brute_force(tmp_path, capsys, n):
    for seed in (1, 2, 3):
        prefix = tmp_path / f"perm{seed}"
        assert main(["generate", "permutation", "--n", str(n), "--seed", str(seed), "--out", str(prefix)]) == 0
        capsys.readouterr()
        code, report = run_json(
            tmp_path,
            capsys,
            ["solve", "--graph", f"{prefix}.gr", "--layout", f"{prefix}.layout", "--oracle"],
        )
        assert code == 0 and report["oracle_checked"] is True, (n, seed)


@pytest.mark.parametrize("kind", ["random", "interval", "permutation"])
def test_generate_rejects_size_above_limit(tmp_path, capsys, kind):
    prefix = tmp_path / "x"
    assert main(["generate", kind, "--n", "5001", "--out", str(prefix)]) == 1
    assert "--n must be at most 5000" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_generate_interval_n400_finishes(tmp_path, capsys):
    """The interval layout's width-1 check reads each cut's crossing
    neighborhoods once, so a few hundred vertices take well under a
    second."""
    prefix = tmp_path / "iv"
    assert main(["generate", "interval", "--n", "400", "--seed", "1", "--out", str(prefix)]) == 0
    capsys.readouterr()
    g = parse_graph_file((tmp_path / "iv.gr").read_text())[0]
    assert g.n == 400


def test_generate_interval_n200_solve_reaches_the_ilp_optimum(tmp_path, capsys, monkeypatch):
    """At a size the DP is used for: a dense `generate interval` instance
    solved through the CLI matches the optimum of perfbench's integer
    program, which shares no code with the package."""
    pytest.importorskip("scipy")
    pytest.importorskip("networkx")
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location("perfbench_reference", ROOT / "perfbench" / "reference.py")
    reference = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reference)
    prefix = str(tmp_path / "iv")
    assert main(["generate", "interval", "--n", "200", "--seed", "1", "--out", prefix]) == 0
    capsys.readouterr()
    code, report = run_json(tmp_path, capsys, ["solve", "--graph", prefix + ".gr", "--layout", prefix + ".layout"])
    assert code == 0
    g, weights, s_mask, names = parse_graph_file((tmp_path / "iv.gr").read_text())
    s_flags = tuple(s_mask >> v & 1 for v in range(g.n))
    case = reference.Case("generate-interval-200", "interval", "sfvs", tuple(names), weights, s_flags,
                          tuple(g.edges()), ())
    optimum = reference.reference_optimum(case)
    assert reference.check_report(case, report, optimum) == []
    assert report["objective_weight"] == optimum


def test_generate_permutation_n28_solve_reaches_the_ilp_optimum(tmp_path, capsys, monkeypatch):
    """Past brute force, on an input the key route carries: `generate
    permutation --n 28` solved through the CLI matches the optimum of
    perfbench's integer program with lazy cycle rows (its "random"
    family), which shares no code with the package."""
    pytest.importorskip("scipy")
    pytest.importorskip("networkx")
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location("perfbench_reference", ROOT / "perfbench" / "reference.py")
    reference = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reference)
    prefix = str(tmp_path / "perm")
    assert main(["generate", "permutation", "--n", "28", "--seed", "1", "--out", prefix]) == 0
    capsys.readouterr()
    code, report = run_json(tmp_path, capsys, ["solve", "--graph", prefix + ".gr", "--layout", prefix + ".layout"])
    assert code == 0
    g, weights, s_mask, names = parse_graph_file((tmp_path / "perm.gr").read_text())
    s_flags = tuple(s_mask >> v & 1 for v in range(g.n))
    case = reference.Case("generate-permutation-28", "random", "sfvs", tuple(names), weights, s_flags,
                          tuple(g.edges()), ())
    optimum = reference.reference_optimum(case)
    assert reference.check_report(case, report, optimum) == []
    assert report["objective_weight"] == optimum == 24


@pytest.mark.parametrize("p", ["5", "-1", "1.0001", "nan"])
def test_generate_rejects_edge_probability_outside_unit_interval(tmp_path, capsys, p):
    prefix = tmp_path / "x"
    assert main(["generate", "random", "--n", "4", "--p", p, "--out", str(prefix)]) == 1
    assert "--p must be a probability in [0, 1]" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("p, edges", [("0", 0), ("1", 6)])
def test_generate_accepts_edge_probability_bounds(tmp_path, capsys, p, edges):
    prefix = tmp_path / "x"
    assert main(["generate", "random", "--n", "4", "--p", p, "--out", str(prefix)]) == 0
    capsys.readouterr()
    g = parse_graph_file((tmp_path / "x.gr").read_text())[0]
    assert g.edge_count == edges
