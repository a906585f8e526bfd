import ast
import json
from pathlib import Path

import numpy as np
import pytest

from ipstable import cli

from conftest import planted


def _write_csv(path, arr, header=None):
    arr = np.asarray(arr, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    with open(path, "w") as fh:
        if header:
            fh.write(header + "\n")
        for row in arr:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _write_lines(path, lines):
    with open(path, "w") as fh:
        fh.write("".join(f"{x}\n" for x in lines))


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


REPORT_KEYS = ("num_unstable", "max_violation", "mean_violation", "cost", "obj")


# ---------------------------------------------------------------------------
# audit


def test_audit_stable_line_exits_zero(tmp_path, capsys):
    inp = tmp_path / "pts.csv"
    _write_csv(inp, [0.0, 1.0, 7.0, 8.0])
    assign = tmp_path / "a.txt"
    _write_lines(assign, [0, 0, 1, 1])
    rc = cli.main(["audit", "--input", str(inp), "--assignment", str(assign)])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["num_unstable"] == 0
    assert out["max_violation"] <= 1.0
    assert out["obj"] is None
    assert set(out) == set(REPORT_KEYS)


def test_audit_unstable_exits_two_and_reports_vi(tmp_path, capsys):
    inp = tmp_path / "pts.csv"
    _write_csv(inp, [0.0, 1.0, 7.0, 8.0])
    assign = tmp_path / "a.txt"
    _write_lines(assign, [0, 1, 0, 1])
    rc = cli.main(
        ["audit", "--input", str(inp), "--assignment", str(assign), "--vi"]
    )
    out = json.loads(capsys.readouterr().out)
    assert rc == 2
    assert out["num_unstable"] > 0
    assert len(out["vi"]) == 4
    assert max(out["vi"]) == out["max_violation"]


def test_audit_csv_format_matches_json(tmp_path):
    inp = tmp_path / "pts.csv"
    _write_csv(inp, [[0.0, 0.0], [1.0, 0.0], [7.0, 1.0], [8.0, 1.0]])
    assign = tmp_path / "a.txt"
    _write_lines(assign, [0, 0, 1, 1])
    jpath, cpath = tmp_path / "r.json", tmp_path / "r.csv"
    assert (
        cli.main(
            ["audit", "--input", str(inp), "--assignment", str(assign),
             "--targets", "2,2", "--p", "1", "--out", str(jpath)]
        )
        == 0
    )
    assert (
        cli.main(
            ["audit", "--input", str(inp), "--assignment", str(assign),
             "--targets", "2,2", "--p", "1", "--out", str(cpath), "--format", "csv"]
        )
        == 0
    )
    ref = _read_json(jpath)
    header, row = cpath.read_text().strip().split("\n")
    got = dict(zip(header.split(","), row.split(",")))
    assert int(got["num_unstable"]) == ref["num_unstable"]
    assert float(got["max_violation"]) == pytest.approx(ref["max_violation"])
    assert float(got["cost"]) == pytest.approx(ref["cost"])
    assert float(got["obj"]) == pytest.approx(ref["obj"]) == 0.0


def test_audit_matrix_and_header_and_negatives(tmp_path, capsys):
    inp = tmp_path / "m.csv"
    m = np.array(
        [[0.0, 1.0, 9.0], [1.0, 0.0, 9.0], [9.0, 9.0, 0.0]]
    )
    _write_csv(inp, m)
    assign = tmp_path / "a.txt"
    _write_lines(assign, [0, 0, -1])  # drop the third point entirely
    rc = cli.main(
        ["audit", "--input", str(inp), "--metric", "matrix",
         "--assignment", str(assign), "--vi"]
    )
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert len(out["vi"]) == 2  # excluded rows never reach the report

    hdr = tmp_path / "h.csv"
    _write_csv(hdr, [0.0, 1.0, 7.0, 8.0], header="value")
    assign4 = tmp_path / "a4.txt"
    _write_lines(assign4, [0, 0, 1, 1])
    assert cli.main(["audit", "--input", str(hdr), "--assignment", str(assign4)]) == 0


def test_audit_error_paths(tmp_path, capsys):
    inp = tmp_path / "pts.csv"
    _write_csv(inp, [0.0, 1.0, 7.0, 8.0])
    assign = tmp_path / "a.txt"
    _write_lines(assign, [0, 0, 1, 1])

    short = tmp_path / "short.txt"
    _write_lines(short, [0, 1])
    assert cli.main(["audit", "--input", str(inp), "--assignment", str(short)]) == 1

    assert (
        cli.main(
            ["audit", "--input", str(inp), "--assignment", str(assign),
             "--targets", "1,1,2"]
        )
        == 1
    )
    assert (
        cli.main(
            ["audit", "--input", str(inp), "--assignment", str(assign), "--p", "0.5"]
        )
        == 1
    )
    rect = tmp_path / "rect.csv"
    _write_csv(rect, [[0.0, 1.0], [1.0, 0.0], [2.0, 3.0]])
    assert (
        cli.main(
            ["audit", "--input", str(rect), "--metric", "matrix",
             "--assignment", str(assign)]
        )
        == 1
    )
    assert (
        cli.main(
            ["audit", "--input", str(rect), "--metric", "matrix",
             "--standardize", "--assignment", str(assign)]
        )
        == 1
    )
    capsys.readouterr()


def test_missing_input_file_is_an_error(tmp_path, capsys):
    assign = tmp_path / "a.txt"
    _write_lines(assign, [0, 0])
    rc = cli.main(
        ["audit", "--input", str(tmp_path / "nope.csv"), "--assignment", str(assign)]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def _write_tree(path, edges):
    _write_lines(path, [f"{u} {v} {w}" for u, v, w in edges])


NON_FINITE_INPUTS = {
    # name: (metric, writer, input rows, solve algorithm and its flags)
    "nan-point": ("euclidean", _write_lines, ["0,0", "1,1", "nan,2", "5,5"],
                  ["--algo", "embed", "--k", "2"]),
    "inf-point": ("euclidean", _write_lines, ["0,0", "1,1", "inf,2", "5,5"],
                  ["--algo", "embed", "--k", "2"]),
    "overflowing-points": ("euclidean", _write_lines,
                           ["1e300,1e300", "-1e300,-1e300", "0,0", "1,1"],
                           ["--algo", "embed", "--k", "2"]),
    "inf-tree-weight": ("tree", _write_tree, [(0, 1, 1.0), (1, 2, "inf"), (2, 3, 1.0)],
                        ["--algo", "solve-tree2"]),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_INPUTS))
def test_non_finite_input_is_an_error_not_a_certificate(tmp_path, capsys, case):
    metric, write, rows, solve_flags = NON_FINITE_INPUTS[case]
    inp = tmp_path / "input.txt"
    write(inp, rows)
    assign = tmp_path / "a.txt"
    _write_lines(assign, [0, 0, 1, 1])
    common = ["--input", str(inp), "--metric", metric]
    assert cli.main(["audit", *common, "--assignment", str(assign)]) == 1
    assert "error:" in capsys.readouterr().err
    assert cli.main(["solve", *common, *solve_flags]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("algo", ["solve-1d", "solve-dp"])
def test_line_values_whose_sums_overflow_are_an_error(tmp_path, capsys, algo):
    inp = tmp_path / "v.csv"
    _write_csv(inp, np.tile([1e307, -1e307], 65))
    flags = ["--k", "2"] if algo == "solve-1d" else ["--targets", "65,65"]
    assert cli.main(["solve", "--input", str(inp), "--algo", algo, *flags]) == 1
    assert "overflow" in capsys.readouterr().err


def test_embed_of_a_diameter_past_the_float_range_is_an_error(tmp_path, capsys):
    inp = tmp_path / "v.csv"
    _write_csv(inp, [0.0, 5e307])
    assert cli.main(["solve", "--input", str(inp), "--algo", "embed", "--k", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "diameter 5e+307" in err


@pytest.mark.parametrize("algo", ["separated-exact", "separated-pipeline"])
@pytest.mark.parametrize("alpha", ["0", "-0.5"])
def test_alpha_outside_unit_interval_is_an_error(tmp_path, capsys, algo, alpha):
    inp = tmp_path / "pts.csv"
    _write_csv(inp, [[0.0, 0.0], [1.0, 0.0], [9.0, 9.0]])
    rc = cli.main(["solve", "--input", str(inp), "--algo", algo, "--k", "2",
                   "--alpha", alpha])
    assert rc == 1
    assert "alpha" in capsys.readouterr().err


@pytest.mark.parametrize("gamma", ["nan", "inf", "1e200"])
def test_gamma_must_be_finite_with_finite_bounds(tmp_path, capsys, gamma):
    inp = tmp_path / "pts.csv"
    _write_csv(inp, [[0.0, 0.0], [1.0, 0.0], [9.0, 9.0], [10.0, 9.0]])
    rc = cli.main(["solve", "--input", str(inp), "--algo", "separated-pipeline",
                   "--k", "2", "--alpha", "0.5", "--gamma", gamma])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "gamma" in err


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


@pytest.mark.parametrize("exc", [OverflowError("math range error"),
                                 ZeroDivisionError("float division by zero")])
def test_arithmetic_errors_exit_one_with_a_message(tmp_path, capsys, monkeypatch, exc):
    inp = tmp_path / "pts.csv"
    _write_csv(inp, [0.0, 1.0, 7.0, 8.0])
    assign = tmp_path / "a.txt"
    _write_lines(assign, [0, 0, 1, 1])
    monkeypatch.setattr(cli, "audit", _raise(exc))
    monkeypatch.setattr(cli, "solve_1d", _raise(exc))
    monkeypatch.setattr(cli.baselines, "random_clustering", _raise(exc))
    monkeypatch.setattr(cli.hardgen, "gen_kcenter_hard", _raise(exc))
    common = ["--input", str(inp)]
    for argv in (["audit", *common, "--assignment", str(assign)],
                 ["solve", *common, "--algo", "solve-1d", "--k", "2"],
                 ["bench", *common, "--algo", "random", "--k", "2"],
                 ["gen", "--family", "kcenter-balls", "--n", "5", "--epsilon", "0.1",
                  "--out", str(tmp_path / "g")]):
        assert cli.main(argv) == 1, argv
        assert f"error: {exc}" in capsys.readouterr().err, argv


# ---------------------------------------------------------------------------
# solve + round trips


def _roundtrip(tmp_path, capsys, solve_argv, audit_argv):
    """Solve, then re-audit the emitted assignment; reports must agree."""
    rc_solve = cli.main(solve_argv)
    solved = _read_json(str(tmp_path / "r.json"))
    rc_audit = cli.main(audit_argv)
    audited = json.loads(capsys.readouterr().out)
    for key in REPORT_KEYS:
        if solved[key] is None:
            assert audited[key] is None
        else:
            assert audited[key] == pytest.approx(solved[key], abs=1e-12), key
    return rc_solve, rc_audit, solved


def test_solve_1d_roundtrip(tmp_path, capsys):
    inp = tmp_path / "v.csv"
    rng = np.random.default_rng(0)
    _write_csv(inp, np.sort(rng.normal(size=60)) * 10)
    out, rep = str(tmp_path / "a.txt"), str(tmp_path / "r.json")
    rc_solve, rc_audit, solved = _roundtrip(
        tmp_path,
        capsys,
        ["solve", "--input", str(inp), "--algo", "solve-1d", "--k", "5",
         "--out", out, "--report", rep],
        ["audit", "--input", str(inp), "--assignment", out],
    )
    assert rc_solve == rc_audit == 0
    assert solved["num_unstable"] == 0
    assert solved["algorithm"] == "solve-1d"


def test_line_jobs_never_build_the_matrix(tmp_path, capsys, monkeypatch):
    """solve-1d, solve-dp and audit on one value column stay off n x n arrays."""
    inp = tmp_path / "v.csv"
    _write_csv(inp, np.random.default_rng(1).normal(size=40) * 10)
    assign = tmp_path / "a.txt"
    _write_lines(assign, [-1] + [i % 3 for i in range(39)])   # one excluded row

    def no_matrix(*args, **kwargs):
        raise AssertionError("a one-column job built an n x n matrix")

    monkeypatch.setattr(cli.DistanceOracle, "matrix", no_matrix)
    monkeypatch.setattr("ipstable.core.cdist", no_matrix)
    common = ["--input", str(inp), "--report", str(tmp_path / "r.json")]
    for argv in (["solve", *common, "--algo", "solve-1d", "--k", "4"],
                 ["solve", *common, "--algo", "solve-dp", "--targets", "10,10,20"],
                 ["audit", "--input", str(inp), "--assignment", str(assign)]):
        assert cli.main(argv) in (0, 2), argv
    assert "error" not in capsys.readouterr().err


@pytest.mark.parametrize("algo", ["solve-1d", "solve-dp"])
def test_line_solvers_reject_several_columns_before_any_matrix(tmp_path, capsys, monkeypatch,
                                                                algo):
    wide = tmp_path / "wide.csv"
    _write_csv(wide, [[0.0, 0.0], [1.0, 1.0], [1e300, -1e300], [-1e300, 1e300]])

    def no_matrix(*args, **kwargs):
        raise AssertionError("a rejected input built an n x n matrix")

    with monkeypatch.context() as m:
        m.setattr(cli.DistanceOracle, "matrix", no_matrix)
        m.setattr("ipstable.core.cdist", no_matrix)
        flags = ["--k", "2"] if algo == "solve-1d" else ["--targets", "2,2"]
        assert cli.main(["solve", "--input", str(wide), "--algo", algo, *flags]) == 1
        err = capsys.readouterr().err
        assert f"{wide}: this solver needs a single value column, got 2" in err
    # every other solver still range-checks the matrix, naming the input
    assert cli.main(["solve", "--input", str(wide), "--algo", "embed", "--k", "2"]) == 1
    err = capsys.readouterr().err
    assert f"error: {wide}: " in err and "overflow" in err


def test_solve_dp_roundtrip_and_obj(tmp_path, capsys):
    inp = tmp_path / "v.csv"
    _write_csv(inp, [0.0, 8.0, 9.0, 9.0 + 1.0 / 3.0, 17.0 + 1.0 / 3.0])
    out, rep = str(tmp_path / "a.txt"), str(tmp_path / "r.json")
    rc_solve, rc_audit, solved = _roundtrip(
        tmp_path,
        capsys,
        ["solve", "--input", str(inp), "--algo", "solve-dp",
         "--targets", "2,3", "--p", "inf", "--out", out, "--report", rep],
        ["audit", "--input", str(inp), "--assignment", out,
         "--targets", "2,3", "--p", "inf"],
    )
    assert rc_solve == rc_audit == 0
    assert solved["dp_obj"] == pytest.approx(1.0)
    assert solved["obj"] == pytest.approx(1.0)


def test_solve_tree2_roundtrip(tmp_path, capsys):
    tree = tmp_path / "t.txt"
    tree.write_text("0 1 1.0\n1 2 2.0\n2 3 1.0\n1 4 0.5\n")
    out, rep = str(tmp_path / "a.txt"), str(tmp_path / "r.json")
    rc_solve, rc_audit, solved = _roundtrip(
        tmp_path,
        capsys,
        ["solve", "--input", str(tree), "--metric", "tree", "--algo", "solve-tree2",
         "--out", out, "--report", rep],
        ["audit", "--input", str(tree), "--metric", "tree", "--assignment", out],
    )
    assert rc_solve == rc_audit == 0
    assert solved["num_unstable"] == 0


def test_solve_embed_roundtrip_with_exclusion(tmp_path, capsys):
    feats, _ = planted(50, 3, 4.0, seed=7)
    inp = tmp_path / "p.csv"
    _write_csv(inp, feats)
    out, rep = str(tmp_path / "a.txt"), str(tmp_path / "r.json")
    rc_solve, rc_audit, solved = _roundtrip(
        tmp_path,
        capsys,
        ["solve", "--input", str(inp), "--algo", "embed", "--k", "3",
         "--epsilon", "0.1", "--seed", "2", "--out", out, "--report", rep],
        ["audit", "--input", str(inp), "--assignment", out],
    )
    assert rc_solve == rc_audit == 0  # embedding clusters are stable under audit
    assert solved["num_unstable"] == 0
    assert len(solved["excluded"]) == 5  # ceil(0.1 * 50)
    assert solved["certificate"] == solved["stretch"] >= 1.0
    labels = [int(s) for s in Path(out).read_text().split()]
    assert sorted(i for i, l in enumerate(labels) if l < 0) == sorted(solved["excluded"])


def test_solve_separated_exact_and_pipeline(tmp_path, capsys):
    feats, _ = planted(40, 2, 4.0, seed=5)
    inp = tmp_path / "p.csv"
    _write_csv(inp, feats)
    out, rep = str(tmp_path / "a.txt"), str(tmp_path / "r.json")
    rc_solve, rc_audit, solved = _roundtrip(
        tmp_path,
        capsys,
        ["solve", "--input", str(inp), "--algo", "separated-exact", "--k", "2",
         "--alpha", "0.3", "--out", out, "--report", rep],
        ["audit", "--input", str(inp), "--assignment", out],
    )
    assert rc_solve == rc_audit == 0
    assert solved["num_unstable"] == 0

    rc_solve, rc_audit, solved = _roundtrip(
        tmp_path,
        capsys,
        ["solve", "--input", str(inp), "--algo", "separated-pipeline", "--k", "2",
         "--alpha", "0.3", "--gamma", "4.0", "--out", out, "--report", rep],
        ["audit", "--input", str(inp), "--assignment", out],
    )
    assert rc_solve in (0, 2)
    assert solved["certificate"] >= solved["stretch"] >= 1.0
    assert solved["uniformity"] >= 1.0


def test_solve_writes_default_report_next_to_out(tmp_path):
    inp = tmp_path / "v.csv"
    _write_csv(inp, [0.0, 1.0, 7.0, 8.0])
    out = tmp_path / "a.txt"
    assert (
        cli.main(
            ["solve", "--input", str(inp), "--algo", "solve-1d", "--k", "2",
             "--out", str(out)]
        )
        == 0
    )
    assert _read_json(str(out) + ".report.json")["num_unstable"] == 0


def test_nan_norm_order_is_an_error(tmp_path, capsys):
    inp = tmp_path / "v.csv"
    _write_csv(inp, [0.0, 1.0, 7.0, 8.0])
    assign = tmp_path / "a.txt"
    _write_lines(assign, [0, 0, 1, 1])
    for argv in (
        ["solve", "--input", str(inp), "--algo", "solve-dp", "--targets", "2,2", "--p", "nan"],
        ["audit", "--input", str(inp), "--assignment", str(assign),
         "--targets", "2,2", "--p", "nan"],
    ):
        assert cli.main(argv) == 1, argv
        assert "error: --p must be >= 1" in capsys.readouterr().err, argv


def test_zero_target_is_an_error(tmp_path, capsys):
    inp = tmp_path / "v.csv"
    _write_csv(inp, [0.0, 1.0, 7.0, 8.0])
    assign = tmp_path / "a.txt"
    _write_lines(assign, [0, 0, 1, 1])
    for argv in (
        ["solve", "--input", str(inp), "--algo", "solve-dp", "--targets", "4,0"],
        ["audit", "--input", str(inp), "--assignment", str(assign), "--targets", "0,4"],
    ):
        assert cli.main(argv) == 1, argv
        err = capsys.readouterr().err
        assert "error: --targets entries must be positive" in err, argv
        assert "Traceback" not in err, argv


def test_solve_error_paths(tmp_path, capsys):
    inp = tmp_path / "v.csv"
    _write_csv(inp, [0.0, 1.0, 7.0, 8.0])
    wide = tmp_path / "wide.csv"
    _write_csv(wide, [[0.0, 1.0], [2.0, 3.0]])

    cases = [
        ["solve", "--input", str(inp), "--algo", "solve-1d"],  # no --k
        ["solve", "--input", str(inp), "--algo", "solve-dp"],  # no --targets
        ["solve", "--input", str(inp), "--algo", "solve-dp", "--targets", "1,1"],
        ["solve", "--input", str(wide), "--algo", "solve-1d", "--k", "2"],
        ["solve", "--input", str(inp), "--algo", "solve-tree2"],  # wrong metric
        ["solve", "--input", str(inp), "--algo", "embed", "--k", "2",
         "--epsilon", "0.4"],
        ["solve", "--input", str(inp), "--algo", "separated-exact", "--k", "2"],
        ["solve", "--input", str(inp), "--algo", "separated-pipeline", "--k", "2",
         "--alpha", "0.3", "--gamma", "2.0"],  # gamma below threshold
    ]
    for argv in cases:
        assert cli.main(argv) == 1, argv
    capsys.readouterr()
    with pytest.raises(SystemExit):
        cli.main(["solve", "--input", str(inp), "--algo", "mystery"])


# ---------------------------------------------------------------------------
# bench


def test_bench_rows_and_determinism(tmp_path):
    feats, _ = planted(30, 3, 4.0, seed=9)
    inp = tmp_path / "p.csv"
    _write_csv(inp, feats)
    argv = [
        "bench", "--input", str(inp),
        "--algo", "kmeans++,kcenter,random,single-linkage,average-linkage-prune",
        "--k", "2,3", "--repeat", "2", "--seed", "11",
    ]
    out1, out2 = tmp_path / "b1.csv", tmp_path / "b2.csv"
    assert cli.main(argv + ["--out", str(out1)]) == 0
    assert cli.main(argv + ["--out", str(out2)]) == 0

    lines1 = out1.read_text().strip().split("\n")
    lines2 = out2.read_text().strip().split("\n")
    assert len(lines1) == 1 + 5 * 2
    assert lines1[0] == "algorithm,k,num_unstable,max_violation,mean_violation,cost,wall_time_s"
    # identical modulo the wall-time column, which cannot be pinned
    strip = lambda line: line.split(",")[:-1]
    assert [strip(l) for l in lines1] == [strip(l) for l in lines2]


def test_bench_works_on_matrix_input(tmp_path):
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(12, 2))
    m = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
    inp = tmp_path / "m.csv"
    _write_csv(inp, m)
    out = tmp_path / "b.csv"
    rc = cli.main(
        ["bench", "--input", str(inp), "--metric", "matrix",
         "--algo", "kcenter,complete-linkage", "--k", "3", "--out", str(out)]
    )
    assert rc == 0
    assert len(out.read_text().strip().split("\n")) == 3


def test_bench_error_paths(tmp_path, capsys):
    inp = tmp_path / "p.csv"
    _write_csv(inp, np.arange(8.0))
    m = tmp_path / "m.csv"
    _write_csv(m, np.zeros((4, 4)))
    cases = [
        ["bench", "--input", str(inp), "--algo", "kmeans++", "--k", "9"],  # k > n
        ["bench", "--input", str(inp), "--algo", "quantum", "--k", "2"],
        ["bench", "--input", str(inp), "--algo", "random", "--k", "2", "--repeat", "0"],
        ["bench", "--input", str(m), "--metric", "matrix",
         "--algo", "kmeans++", "--k", "2"],  # kmeans++ needs coordinates
    ]
    for argv in cases:
        assert cli.main(argv) == 1, argv
    capsys.readouterr()


def test_bench_library_errors_exit_one_with_a_message(tmp_path, capsys):
    inp = tmp_path / "v.csv"
    _write_csv(inp, [0.0, 1.0, 5.0, 6.0])
    common = ["bench", "--input", str(inp)]
    for argv, message in (
        ([*common, "--algo", "kcenter", "--k", "2", "--first", "99"], "first out of range"),
        ([*common, "--algo", "average-linkage-prune", "--k", "1"], "need 2 <= k <= n"),
    ):
        assert cli.main(argv) == 1, argv
        assert f"error: {message}" in capsys.readouterr().err, argv


# ---------------------------------------------------------------------------
# gen


def test_gen_all_families(tmp_path, capsys):
    specs = [
        (["--family", "kmeanspp-blocks", "--alpha", "3.0", "--n-blocks", "4"], True),
        (["--family", "kcenter-balls", "--n", "16", "--epsilon", "0.03125"], True),
        (["--family", "single-linkage-path", "--n", "21", "--epsilon", "0.5"], True),
        (["--family", "fig1-no-stable"], False),
        (["--family", "fig2-two-stable"], False),
    ]
    for extra, has_assignment in specs:
        prefix = tmp_path / extra[1]
        rc = cli.main(["gen"] + extra + ["--out", str(prefix)])
        assert rc == 0
        assert (tmp_path / (extra[1] + ".csv")).exists()
        meta = _read_json(str(prefix) + "-meta.json")
        assert meta["family"] == extra[1]
        assert (tmp_path / (extra[1] + "-assignment.txt")).exists() == has_assignment
    capsys.readouterr()


def test_gen_output_audits_to_claimed_violation(tmp_path, capsys):
    prefix = tmp_path / "blocks"
    assert (
        cli.main(
            ["gen", "--family", "kmeanspp-blocks", "--alpha", "3.0",
             "--n-blocks", "4", "--out", str(prefix)]
        )
        == 0
    )
    capsys.readouterr()
    rc = cli.main(
        ["audit", "--input", str(prefix) + ".csv",
         "--assignment", str(prefix) + "-assignment.txt"]
    )
    out = json.loads(capsys.readouterr().out)
    meta = _read_json(str(prefix) + "-meta.json")
    assert rc == 2
    assert out["max_violation"] == pytest.approx(meta["claimed_max_violation"], abs=1e-9)


def test_gen_error_paths(tmp_path, capsys):
    assert cli.main(["gen", "--family", "kmeanspp-blocks",
                     "--out", str(tmp_path / "x")]) == 1
    assert cli.main(["gen", "--family", "kcenter-balls", "--n", "16",
                     "--epsilon", "0.5", "--out", str(tmp_path / "y")]) == 1
    capsys.readouterr()


# ---------------------------------------------------------------------------
# the file and instance boundary


def _argv_with_out(tmp_path, command, out):
    """One valid argv per subcommand, writing its output to out."""
    inp = tmp_path / "v.csv"
    _write_csv(inp, [0.0, 1.0, 7.0, 8.0])
    assign = tmp_path / "a.txt"
    _write_lines(assign, [0, 0, 1, 1])
    return {
        "audit": ["audit", "--input", str(inp), "--assignment", str(assign), "--out", out],
        "solve": ["solve", "--input", str(inp), "--algo", "solve-1d", "--k", "2", "--out", out],
        "bench": ["bench", "--input", str(inp), "--algo", "random", "--k", "2", "--out", out],
        "gen": ["gen", "--family", "fig2-two-stable", "--out", out],
    }[command]


@pytest.mark.parametrize("command", ["audit", "solve", "bench", "gen"])
def test_output_in_a_missing_directory_is_an_error(tmp_path, capsys, command):
    out = str(tmp_path / "no-such-dir" / "out")
    assert cli.main(_argv_with_out(tmp_path, command, out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_solve_tree2_rejects_standardize(tmp_path, capsys):
    tree = tmp_path / "t.txt"
    _write_tree(tree, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0)])
    rc = cli.main(["solve", "--input", str(tree), "--metric", "tree",
                   "--algo", "solve-tree2", "--standardize"])
    assert rc == 1
    assert "error: --standardize only applies to point inputs" in capsys.readouterr().err


@pytest.mark.parametrize("metric", ["matrix", "tree"])
@pytest.mark.parametrize("algo", ["solve-1d", "solve-dp"])
def test_line_solvers_need_a_point_metric(tmp_path, capsys, algo, metric):
    inp = tmp_path / "in.txt"
    # a valid one-point matrix, or a valid two-node tree
    _write_lines(inp, ["0"] if metric == "matrix" else ["0 1 1.0"])
    flags = ["--k", "1"] if algo == "solve-1d" else ["--targets", "1"]
    assert cli.main(["solve", "--input", str(inp), "--metric", metric, "--algo", algo,
                     *flags]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("lines, metric, message", [
    (["0 1"], "tree", "expected 'u v weight'"),
    (["0 1 1.0 2"], "tree", "expected 'u v weight'"),
    (["1 2"], None, "expected one integer per line"),
])
def test_malformed_lines_are_an_error(tmp_path, capsys, lines, metric, message):
    bad = tmp_path / "bad.txt"
    _write_lines(bad, lines)
    if metric == "tree":
        argv = ["solve", "--input", str(bad), "--metric", "tree", "--algo", "solve-tree2"]
    else:
        inp = tmp_path / "v.csv"
        _write_csv(inp, [0.0])
        argv = ["audit", "--input", str(inp), "--assignment", str(bad)]
    assert cli.main(argv) == 1
    assert f"error: {bad}:1: {message}" in capsys.readouterr().err


def test_bench_checks_every_k_before_running(tmp_path, capsys, monkeypatch):
    inp = tmp_path / "p.csv"
    _write_csv(inp, np.arange(8.0))
    calls = []
    runner = cli.baselines.random_clustering

    def counted(*args, **kwargs):
        calls.append(args)
        return runner(*args, **kwargs)

    monkeypatch.setattr(cli.baselines, "random_clustering", counted)
    assert cli.main(["bench", "--input", str(inp), "--algo", "random", "--k", "2,99"]) == 1
    assert "error: k=99 exceeds the 8-point instance" in capsys.readouterr().err
    assert calls == []


def test_files_are_opened_only_by_the_reader_and_the_writer():
    """Every open() in cli.py sits in _records or _write_text."""
    def opens(node):
        return [call for call in ast.walk(node) if isinstance(call, ast.Call) and (
            getattr(call.func, "id", None) == "open" or getattr(call.func, "attr", None) == "open")]

    module = ast.parse(Path(cli.__file__).read_text())
    openers = [f.name for f in module.body if isinstance(f, ast.FunctionDef) for _ in opens(f)]
    assert sorted(openers) == ["_records", "_write_text"]
    assert len(opens(module)) == 2
