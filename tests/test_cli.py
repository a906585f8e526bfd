import json

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
    labels = [int(s) for s in open(out).read().split()]
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
