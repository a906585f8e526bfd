import ast
import gc
import json
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipstable import baselines, cli
from ipstable.core import DistanceOracle, audit

from conftest import claims_hold, per_record_load, planted


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


def test_audit_targets_follow_ascending_label_order(tmp_path):
    # label 5 is the first in the file and 2 the smallest: --targets lists
    # label 2's size first, whatever order the labels appear in
    inp = tmp_path / "pts.csv"
    _write_csv(inp, [0.0, 1.0, 2.0, 9.0])
    assign = tmp_path / "a.txt"
    _write_lines(assign, [5, 5, 5, 2])
    for targets, obj in (("1,3", 0.0), ("3,1", 2.0)):
        out = tmp_path / f"{targets}.json"
        assert cli.main(["audit", "--input", str(inp), "--assignment", str(assign),
                         "--targets", targets, "--out", str(out)]) == 0
        assert _read_json(out)["obj"] == obj


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


def test_separated_exact_with_a_tiny_alpha_is_the_guard_error(tmp_path, capsys):
    inp = tmp_path / "pts.csv"
    _write_csv(inp, [[0.0, 0.0], [1.0, 0.0], [9.0, 9.0]])
    rc = cli.main(["solve", "--input", str(inp), "--algo", "separated-exact", "--k", "2",
                   "--alpha", "1e-300"])
    assert rc == 1
    assert "enumeration too large" in capsys.readouterr().err


def test_separated_exact_with_too_many_superclusters_is_the_guard_error(tmp_path, capsys):
    inp = tmp_path / "pts.csv"
    _write_csv(inp, np.random.default_rng(7).normal(size=(80, 2)))
    rc = cli.main(["solve", "--input", str(inp), "--algo", "separated-exact", "--k", "2",
                   "--alpha", "0.005"])
    assert rc == 1
    assert "error: enumeration too large" in capsys.readouterr().err


_EXIT_PROBE = """
import json, sys
from ipstable import cli
json.dump([cli.main(argv) for argv in json.loads(sys.argv[1])], sys.stdout)
"""


def test_embed_of_twins_that_differ_elsewhere_exits_one_without_hanging(tmp_path):
    """Points at distance 0 with different distances to a third point.

    No radius splits such twins from the third point, so a regression would
    loop forever: the jobs run in a child process under a timeout and fail
    here instead of hanging the suite.
    """
    matrix = tmp_path / "m.csv"
    _write_lines(matrix, ["0,0,0", "0,0,1", "0,1,0"])
    tiny = tmp_path / "tiny.csv"        # euclidean cdist flushes two of the tiny distances to 0
    _write_lines(tiny, ["0,0", "1e-163,0", "1.6e-162,0", "5,5"])
    out = ["--out", str(tmp_path / "a.txt")]
    jobs = [["solve", "--input", str(matrix), "--metric", "matrix", "--algo", "embed",
             "--k", "2", "--seed", str(seed), *out] for seed in range(8)]
    jobs += [["solve", "--input", str(tiny), "--algo", "embed", "--k", "2",
              "--seed", str(seed), *out] for seed in range(8)]
    jobs += [["solve", "--input", str(tiny), "--algo", "separated-pipeline", "--k", "2",
              "--alpha", "0.01", "--gamma", "4", "--seed", str(seed), *out] for seed in range(8)]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", _EXIT_PROBE, json.dumps(jobs)],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    assert json.loads(done.stdout) == [1] * len(jobs)
    errors = done.stderr.splitlines()
    assert len(errors) == len(jobs)
    assert all(e.startswith("error:") and "distance 0" in e for e in errors)


_OOM_PROBE = """
import json, resource, sys
import scipy.spatial.distance  # the oracle loads it lazily; map it before the cap
from ipstable import cli
with open("/proc/self/statm") as fh:
    used = int(fh.read().split()[0]) * resource.getpagesize()
cap = used + int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
sys.exit(cli.main(json.loads(sys.argv[2])))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="RLIMIT_AS and /proc/self/statm as on Linux")
def test_out_of_memory_exits_one_with_the_size_asked_for(tmp_path):
    """A child process caps its own address space 48 MiB above what it
    uses, so the 3000 x 3000 distance matrix (68.7 MiB) cannot be allocated:
    the CLI exits 1 with one line naming the size, not with a traceback."""
    inp = tmp_path / "pts.csv"
    _write_csv(inp, np.random.default_rng(0).normal(size=(3000, 2)))
    argv = ["solve", "--input", str(inp), "--algo", "separated-pipeline", "--alpha", "0.1",
            "--gamma", "4", "--k", "2", "--out", str(tmp_path / "a.txt")]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", _OOM_PROBE, str(48 << 20), json.dumps(argv)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1, done.stderr
    [line] = done.stderr.splitlines()
    assert line.startswith("error: out of memory in solve: Unable to allocate 68.7 MiB")
    assert "(3000, 3000)" in line


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


_SCIPY_PROBE = """
import json, sys
from ipstable import cli
loaded = []
for argv in json.loads(sys.argv[1]):
    assert cli.main(argv) in (0, 2), argv
    loaded.append(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
with open(sys.argv[2], "w") as fh:
    json.dump(loaded, fh)
"""


def test_line_and_tree_jobs_never_import_scipy(tmp_path):
    """A fresh interpreter runs the exact line and tree jobs with no scipy module loaded."""
    line = tmp_path / "v.csv"
    _write_csv(line, [0.0, 1.0, 1.5, 7.0, 8.0, 8.5])
    assign = tmp_path / "a.txt"
    _write_lines(assign, [0, 0, 0, 1, 1, 1])
    tree = tmp_path / "t.txt"
    _write_lines(tree, ["0 1 1.0", "1 2 1.0", "2 3 5.0", "3 4 1.0", "4 5 1.0"])
    wide = tmp_path / "w.csv"
    _write_csv(wide, [[0.0, 0.0], [0.0, 1.0], [9.0, 9.0], [9.0, 10.0]])
    report = ["--report", str(tmp_path / "r.json")]
    jobs = [
        ["solve", "--input", str(line), "--algo", "solve-1d", "--k", "2", *report],
        ["solve", "--input", str(line), "--algo", "solve-dp", "--targets", "3,3", *report],
        ["solve", "--input", str(tree), "--metric", "tree", "--algo", "solve-tree2", *report],
        ["audit", "--input", str(line), "--assignment", str(assign)],
        # the control: a point matrix does load scipy, so the probe can see it
        ["solve", "--input", str(wide), "--algo", "embed", "--k", "2", *report],
    ]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    loaded = tmp_path / "loaded.json"
    subprocess.run([sys.executable, "-c", _SCIPY_PROBE, json.dumps(jobs), str(loaded)],
                   env=env, capture_output=True, check=True)
    *exact, control = _read_json(loaded)
    assert exact == [[]] * 4
    assert "scipy.spatial" in control


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


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("algo", [
    ["separated-pipeline", "--alpha", "0.01", "--gamma", "4"],
    ["embed"],
])
def test_infinite_certificate_is_strict_json(tmp_path, algo):
    # the coincident pair has distance 0 and a positive tree distance
    inp, out = tmp_path / "v.csv", tmp_path / "a.txt"
    _write_csv(inp, [0.0, 0.0, 5.0, 5.1])
    assert cli.main(["solve", "--input", str(inp), "--algo", *algo, "--k", "2",
                     "--out", str(out)]) == 0
    text = Path(str(out) + ".report.json").read_text()
    report = json.loads(text, parse_constant=_reject_constant)
    assert report["certificate"] == report["stretch"] == "inf"


def test_solve_dp_at_large_p(tmp_path, capsys):
    rng = np.random.default_rng(5)
    inp = tmp_path / "v.csv"
    _write_csv(inp, np.concatenate([rng.uniform(0, 1, 20), rng.uniform(100, 101, 20)]))
    rep = tmp_path / "r.json"
    argv = ["solve", "--input", str(inp), "--algo", "solve-dp", "--targets", "20,20"]
    assert cli.main([*argv, "--p", "240", "--report", str(rep)]) == 0
    assert _read_json(rep)["dp_obj"] == 0.0
    _write_csv(inp, np.append(rng.uniform(0, 1, 39), 100.0))
    assert cli.main([*argv, "--p", "260"]) == 1
    assert "overflow" in capsys.readouterr().err


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


def test_bench_audits_a_repeated_assignment_once(tmp_path, monkeypatch):
    rng = np.random.default_rng(17)
    inp = tmp_path / "p.csv"
    _write_csv(inp, rng.normal(size=(40, 2)))
    argv = ["bench", "--input", str(inp), "--algo", "kcenter,kmeans++,average-linkage",
            "--k", "2,3", "--repeat", "3"]

    # the algorithm each audit serves
    current, audited = [None], []
    real_runner, real_audit = cli._bench_runner, cli.audit

    def runner(token, *args):
        run = real_runner(token, *args)

        def tagged(k, seed):
            current[0] = token
            return run(k, seed)

        return tagged

    def counted_audit(oracle, clustering):
        audited.append(current[0])
        return real_audit(oracle, clustering)

    monkeypatch.setattr(cli, "_bench_runner", runner)
    monkeypatch.setattr(cli, "audit", counted_audit)
    reused = tmp_path / "reused.csv"
    assert cli.main(argv + ["--out", str(reused)]) == 0
    assert [audited.count(t) for t in ("kcenter", "kmeans++", "average-linkage")] == [2, 6, 2]

    monkeypatch.setattr(cli, "_audit_unless_repeated",
                        lambda oracle, clustering, last: (clustering, cli.audit(oracle, clustering)))
    del audited[:]
    fresh = tmp_path / "fresh.csv"
    assert cli.main(argv + ["--out", str(fresh)]) == 0
    assert len(audited) == 3 * 2 * 3
    strip = lambda path: [line.split(",")[:-1] for line in path.read_text().splitlines()]
    assert strip(reused) == strip(fresh)
    assert len(strip(fresh)) == 1 + 3 * 2


def test_bench_builds_each_dendrograms_leaf_slices_once(tmp_path, monkeypatch):
    rng = np.random.default_rng(19)
    inp = tmp_path / "p.csv"
    _write_csv(inp, rng.normal(size=(40, 2)))
    argv = ["bench", "--input", str(inp), "--algo", "single-linkage,average-linkage-prune",
            "--k", "2,3,5", "--repeat", "2"]
    cached = tmp_path / "cached.csv"
    built = []

    class Counted(baselines.Dendrogram):
        def __init__(self, z):
            built.append(len(z))
            super().__init__(z)

    monkeypatch.setattr(baselines, "Dendrogram", Counted)
    assert cli.main(argv + ["--out", str(cached)]) == 0
    assert built == [39, 39]

    # each cut and the pruning on a fresh Dendrogram of the same z write the same rows
    real_cut, real_prune = baselines.cut_dendrogram, baselines.prune_frontiers
    monkeypatch.setattr(baselines, "cut_dendrogram", lambda tree, k: real_cut(Counted(tree.z), k))
    monkeypatch.setattr(baselines, "prune_frontiers",
                        lambda tree, oracle, measure: real_prune(Counted(tree.z), oracle, measure))
    del built[:]
    fresh = tmp_path / "fresh.csv"
    assert cli.main(argv + ["--out", str(fresh)]) == 0
    assert built == [39] * (2 + 3 * 2 + 1)      # the runners' two, one per cut, one pruning
    strip = lambda path: [line.split(",")[:-1] for line in path.read_text().splitlines()]
    assert strip(cached) == strip(fresh)
    assert len(strip(fresh)) == 1 + 2 * 3


def test_bench_frees_its_instance_without_the_cycle_collector(tmp_path, monkeypatch):
    """No reference cycle holds the oracle after bench: a pruning's rounds
    read the tree, so a tree that kept them would keep the oracle's matrix
    alive until the cycle collector ran."""
    inp = tmp_path / "p.csv"
    _write_csv(inp, np.random.default_rng(41).normal(size=(30, 2)))
    refs, real_build = [], cli.build_oracle

    def build(args):
        built = real_build(args)
        refs.append(weakref.ref(built[0]))
        return built

    monkeypatch.setattr(cli, "build_oracle", build)
    gc.collect()
    gc.disable()
    try:
        assert cli.main(["bench", "--input", str(inp), "--algo",
                         "average-linkage-prune,single-linkage", "--k", "2,3",
                         "--out", str(tmp_path / "b.csv")]) == 0
        assert len(refs) == 1
        assert refs[0]() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("measure", ["num-unstable", "max-violation"])
def test_bench_prunes_once_for_every_k_in_any_order(tmp_path, monkeypatch, measure):
    """One pruning pass serves a --k list: 10,20 and 20,10 write the rows of
    two single-k runs, apart from wall_time_s, and the rounds are not redone."""
    rng = np.random.default_rng(29)
    inp = tmp_path / "p.csv"
    _write_csv(inp, rng.normal(size=(60, 3)))
    rows = {}
    for ks in ("10", "20", "10,20", "20,10"):
        out = tmp_path / f"{ks}.csv"
        assert cli.main(["bench", "--input", str(inp), "--algo", "average-linkage-prune",
                         "--k", ks, "--measure", measure, "--repeat", "2",
                         "--out", str(out)]) == 0
        body = [line.split(",")[:-1] for line in out.read_text().splitlines()[1:]]
        rows[ks] = {int(row[1]): row for row in body}
        assert len(body) == len(rows[ks]) == len(ks.split(","))
    assert rows["10,20"] == rows["20,10"] == {**rows["10"], **rows["20"]}
    splits, real_score = [], baselines._split_score
    monkeypatch.setattr(baselines, "_split_score",
                        lambda *args: splits.append(1) or real_score(*args))
    assert cli.main(["bench", "--input", str(inp), "--algo", "average-linkage-prune",
                     "--k", "20,10", "--measure", measure,
                     "--out", str(tmp_path / "count.csv")]) == 0
    once = len(splits)
    del splits[:]
    assert cli.main(["bench", "--input", str(inp), "--algo", "average-linkage-prune",
                     "--k", "20", "--measure", measure,
                     "--out", str(tmp_path / "count.csv")]) == 0
    assert once == len(splits) > 0


def test_bench_measure_max_violation_prunes_by_it(tmp_path):
    """--measure max-violation reaches greedy_prune: every row is the audit
    of its pruning, formatted as bench formats it, and on this instance
    that pruning differs from the default num-unstable one at every k."""
    pts = np.random.default_rng(0).normal(size=(30, 2))
    inp, out = tmp_path / "p.csv", tmp_path / "b.csv"
    _write_csv(inp, pts)
    argv = ["bench", "--input", str(inp), "--algo", "average-linkage-prune",
            "--k", "3,4,5", "--measure", "max-violation", "--out", str(out)]
    assert cli.main(argv) == 0
    oracle = DistanceOracle.from_points(pts)
    tree = baselines.linkage(oracle, "average")
    expected = []
    for k in (3, 4, 5):
        c = baselines.greedy_prune(tree, oracle, k, measure="max-violation")
        assert not np.array_equal(c.assignment, baselines.greedy_prune(tree, oracle, k).assignment)
        r = audit(oracle, c)
        stats = (r.num_unstable, r.max_violation, r.mean_violation, r.cost)
        expected.append(["average-linkage-prune", str(k), *(f"{np.mean([x]):.10g}" for x in stats)])
    assert [line.split(",")[:-1] for line in out.read_text().splitlines()[1:]] == expected


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


@pytest.mark.parametrize("flags, message", [
    (["kmeanspp-blocks", "--alpha", "1e15", "--r", "0.7"], None),
    (["kmeanspp-blocks", "--alpha", "3", "--r", "1e-200"], "Vi[2] = 0.0, claimed 3.0"),
    (["single-linkage-path", "--n", "21", "--epsilon", "1e-3"], None),
    (["single-linkage-path", "--n", "21", "--epsilon", "1e-300"], "Vi[1] = 0.0, claimed 1e-299"),
], ids=["blocks-huge-alpha", "blocks-flushed", "path-small-epsilon", "path-flushed"])
def test_gen_writes_only_claims_that_hold(tmp_path, capsys, flags, message):
    prefix = tmp_path / "g"
    rc = cli.main(["gen", "--family", *flags, "--out", str(prefix)])
    err = capsys.readouterr().err
    if message is not None:
        assert rc == 1
        assert err == f"error: the construction does not realize its claim: {message}\n"
        assert list(tmp_path.iterdir()) == []
        return
    assert rc == 0 and err == ""
    # at epsilon = 1e-3 the path's claim is a violation below 1: every point is stable
    assert cli.main(["audit", "--input", f"{prefix}.csv", "--vi",
                     "--assignment", f"{prefix}-assignment.txt"]) in (0, 2)
    report = json.loads(capsys.readouterr().out)
    assert claims_hold(_read_json(f"{prefix}-meta.json"), report["vi"], report["max_violation"])


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
    ([], "tree", "{bad}: no edges"),
    ([], None, "{bad}: empty assignment"),
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
    # a fault on a line names the line; a fault of the whole file only the file
    where = message.format(bad=bad) if "{bad}" in message else f"{bad}:1: {message}"
    assert f"error: {where}" in capsys.readouterr().err


BOM = "\ufeff"
LOADER_CASES = {
    # name: (loader, file text, the loaded value or the error after "{path}")
    "header": ("points", "x,y\n1,2\n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
    "blank-lines": ("points", "\n1\n\n  \n2\n3\n\n", [[1.0], [2.0], [3.0]]),
    "crlf": ("points", "1,2\r\n3,4\r\n", [[1.0, 2.0], [3.0, 4.0]]),
    "comma-and-blank-rows": ("points", "1 2\n3,4\n5\t6\n", [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
    "spaces-around-commas": ("points", " 1 , 2 \n3 ,4\n", [[1.0, 2.0], [3.0, 4.0]]),
    "float-syntax": ("points", "1e3\n+2\n-0.5\n1_0\n", [[1000.0], [2.0], [-0.5], [10.0]]),
    "bad-middle-row": ("points", "1\n2\n\nx\n4\n", ":4: non-numeric row"),
    "bad-row-after-header": ("points", "v\n1\n2,x\n3\n", ":3: non-numeric row"),
    "non-numeric-before-ragged": ("points", "1,2\n3\n4,y\n", ":3: non-numeric row"),
    "ragged-row": ("points", "a,b\n1,2\n\n3,4\n5\n", ": row 3 has 1 columns, expected 2"),
    "header-only": ("points", "a,b\n", ": no data rows"),
    "bom-points": ("points", BOM + "1\n2\n3\n", [[1.0], [2.0], [3.0]]),
    "tree": ("tree", "0 1 1.5\n\n1,2,2\n", [(0, 1, 1.5), (1, 2, 2.0)]),
    "tree-two-fields": ("tree", "0 1 1.0\n1 2\n", ":2: expected 'u v weight'"),
    "tree-four-fields": ("tree", "0 1 1.0\n1 2 1.0 7\n", ":2: expected 'u v weight'"),
    "tree-all-two-fields": ("tree", "0 1\n1 2\n", ":1: expected 'u v weight'"),
    "tree-float-id": ("tree", "0 1 1.0\n1 2.0 1.0\n2 3\n", ":2: expected 'u v weight'"),
    "bom-tree": ("tree", BOM + "0 1 1.0\n1 2 2.0\n", [(0, 1, 1.0), (1, 2, 2.0)]),
    "labels": ("assignment", "+1\n 1 \n0\n-1\n", [1, 1, 0, -1]),
    "label-two-fields": ("assignment", "0\n1 2\n", ":2: expected one integer per line"),
    "label-float": ("assignment", "0\n\n1.0\n", ":3: expected one integer per line"),
    "bom-assignment": ("assignment", BOM + "1\n0\n", [1, 0]),
    "hash-field": ("points", "1\n#2\n3\n", ":2: non-numeric row"),
    "quoted-field": ("points", '1,2\n"3",4\n', ":2: non-numeric row"),
    "nbsp-separator": ("points", "1\xa02\n3 4\n", [[1.0, 2.0], [3.0, 4.0]]),
    "overflow-to-inf": ("points", "1e400\n-1e400\n", [[math.inf], [-math.inf]]),
    "label-20-digits": ("assignment", "0\n12345678901234567890\n",
                        ":2: label out of the 64-bit integer range"),
    "tree-negative-id": ("tree", "0 1 1.0\n1 -2 1.0\n", ":2: tree node ids must be non-negative"),
}


@pytest.mark.parametrize("name", sorted(LOADER_CASES))
def test_loaders_read_whole_files_and_name_the_line_at_fault(tmp_path, name):
    kind, text, want = LOADER_CASES[name]
    path = tmp_path / "input.txt"
    path.write_bytes(text.encode("utf-8"))
    load = {"points": cli.load_points, "tree": cli.load_tree,
            "assignment": cli.load_assignment}[kind]
    if isinstance(want, str):
        with pytest.raises(cli.CliError) as err:
            load(str(path))
        assert str(err.value) == f"{path}{want}"
        return
    got = load(str(path))
    if kind == "tree":
        assert got.edges == want and got.n == len(want) + 1
    else:
        assert got.tolist() == want and got.dtype == (float if kind == "points" else int)


# pieces of the files the loaders are checked on: numbers as Python writes
# them, spellings only one parser accepts, and stray characters
_SPELLINGS = ["1_0", "\u0661", "1e400", "5e-324", "+2", "-0", ".5", "1.", "inf", "nan",
              "-nan", "12345678901234567890", "#1", '"1"', "1e", "_", ".", ""]
_PIECES = [*"0123456789.e+-_", "inf", "nan", "\u0661", "#", '"', "\xa0"]
_BLANKS = [" ", "\t", "\xa0", "  "]


@st.composite
def _field(draw, numbers):
    roll = draw(st.integers(0, 19))
    if roll < 16:
        number = draw(numbers)
        text = repr(number) if isinstance(number, int) else draw(st.sampled_from(
            ["{!r}", "{:.18e}", "{:.25g}", "{:.3g}"])).format(number)
    elif roll < 18:
        text = draw(st.sampled_from(_SPELLINGS))
    else:
        text = "".join(draw(st.lists(st.sampled_from(_PIECES), min_size=1, max_size=4)))
    pad = st.sampled_from(["", "", " ", "\t", "\xa0"])
    return draw(pad) + text + draw(pad)


@st.composite
def _input_file(draw, kind):
    """The text of a small input file of one kind, mostly well formed."""
    rows = draw(st.integers(1, 4))
    width = {"tree": 3, "assignment": 1, "matrix": rows}.get(kind) or draw(st.integers(1, 3))
    comma = draw(st.booleans())
    lines = []
    for i in range(rows):
        numbers = [st.integers(-30, 30) if kind == "assignment" else st.floats()] * width
        if kind == "tree":      # mostly a tree: node i + 1 hangs from a node before it
            numbers = [st.integers(0, i), st.just(i + 1), st.floats(0, 1e300, exclude_min=True)]
        fields = [draw(_field(number)) for number in numbers]
        fields = draw(st.sampled_from([fields] * 5 + [fields[1:], fields + ["1"]]))
        seps = [",", ", ", " ,"] if comma else _BLANKS
        if not draw(st.integers(0, 5)):         # now and then a row split the other way
            seps = [",", *_BLANKS]
        lines.append(draw(st.sampled_from(seps)).join(fields))
        if not draw(st.integers(0, 5)):
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
    if not draw(st.integers(0, 4)):
        lines.insert(0, draw(st.sampled_from(["x", "value", "a,b", "u v w"])))
    text = draw(st.sampled_from(["\n", "\r\n"])).join(lines) + draw(st.sampled_from(["", "\n"]))
    return (BOM if draw(st.integers(0, 5)) == 0 else "") + text


def _loaded(load, path):
    """(kind of outcome, comparable value): the bytes of an array, a tree's
    edges with their weights' exact hex, or an error's type and text."""
    try:
        got = load(path)
    except (cli.CliError, ValueError) as exc:
        return "error", (type(exc), str(exc))
    if isinstance(got, np.ndarray):
        return "array", (got.dtype, got.shape, got.tobytes())
    return "tree", (got.n, [(u, v, float.hex(w)) for u, v, w in got.edges])


LOADERS = {"points": cli.load_points, "matrix": cli.load_matrix, "tree": cli.load_tree,
           "assignment": cli.load_assignment}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(LOADERS)).flatmap(lambda kind: st.tuples(
    st.just(kind), _input_file(kind))))
def test_the_numpy_path_reads_what_the_per_record_path_reads_or_defers_to_it(
        tmp_path_factory, case):
    kind, text = case
    path = tmp_path_factory.mktemp("loader") / "input.txt"
    path.write_bytes(text.encode("utf-8"))
    assert _loaded(LOADERS[kind], str(path)) == _loaded(
        lambda p: per_record_load(kind, p), str(path))


@pytest.mark.parametrize("kind, text, per_record", [
    ("points", "x,y\n1,2\n\n3,4\n", False),
    ("points", "1e3 2\n-inf nan\n", False),
    ("assignment", "0\n-1\n+2\n", False),
    ("tree", "0 1 1.5\n1 2 2\n", False),
    ("points", "1_0\n2\n", True),
    ("points", "1,2\n3 4\n", True),
    ("assignment", "0\n1 2\n", True),
    ("tree", "0 1 1.0\n1 -2 1.0\n", True),
    ("points", "", True),
])
def test_plain_files_are_read_in_one_numpy_call(tmp_path, monkeypatch, kind, text, per_record):
    """Only a file numpy declines reaches the per-record path."""
    path = tmp_path / "input.txt"
    path.write_text(text)
    calls = []
    fields = cli._fields
    monkeypatch.setattr(cli, "_fields", lambda lines: calls.append(1) or fields(lines))
    want = _loaded(lambda p: per_record_load(kind, p), str(path))
    assert _loaded(LOADERS[kind], str(path)) == want
    assert bool(calls) == per_record


def test_a_byte_order_mark_keeps_the_first_row(tmp_path):
    inp, out = tmp_path / "bom.csv", tmp_path / "labels.txt"
    inp.write_bytes(b"\xef\xbb\xbf1\n2\n3\n10\n11\n")
    assert cli.main(["solve", "--input", str(inp), "--algo", "solve-1d", "--k", "2",
                     "--out", str(out)]) == 0
    assert out.read_text() == "0\n0\n0\n1\n1\n"


@pytest.mark.parametrize("text, labels, flags, message", [
    ("0\nx\n", [0, 1], ["audit"], "{inp}:2: non-numeric row"),
    ("value\nx\n", [0, 1], ["audit"], "{inp}:2: non-numeric row"),
    ("value\n", [0, 1], ["audit"], "{inp}: no data rows"),
    ("0,1\n2\n", [0, 1], ["audit"], "{inp}: row 2 has 1 columns, expected 2"),
    ("0\n1\n", [0, 1], ["audit", "--p", "x"], "--p must be a number or 'inf', got 'x'"),
    ("0\n1\n", [0, 1], ["audit", "--targets", "1,a"],
     "--targets must be comma-separated integers, got '1,a'"),
    ("0\n1\n", [-1, -1], ["audit"], "assignment excludes every point"),
    ("0 1 1.0\n", None, ["solve", "--metric", "tree", "--algo", "solve-tree2", "--k", "3"],
     "solve-tree2 only produces k=2"),
    ("0\n1\n", None, ["bench", "--algo", ",", "--k", "2"],
     "--algo must list at least one algorithm"),
], ids=["after-data", "after-header", "no-data", "ragged", "p", "targets", "all-excluded",
        "tree2-k3", "no-algo"])
def test_input_and_flag_errors_are_one_line(tmp_path, capsys, text, labels, flags, message):
    inp = tmp_path / "in.txt"
    inp.write_text(text)
    command, *flags = flags
    if labels is not None:
        assign = tmp_path / "a.txt"
        _write_lines(assign, labels)
        flags += ["--assignment", str(assign)]
    assert cli.main([command, "--input", str(inp), *flags]) == 1
    assert capsys.readouterr().err == f"error: {message.format(inp=inp)}\n"


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


def test_the_shared_parser_keeps_no_state_between_calls(tmp_path, monkeypatch, capsys):
    """main parses with one parser built at import; each call's Namespace is
    the one a fresh parser gives, so no flag leaks into the next call."""
    values, labels = tmp_path / "v.csv", tmp_path / "a.txt"
    _write_csv(values, [0.0, 1.0, 1.5, 7.0, 8.0, 8.5])
    _write_lines(labels, [0, 0, 0, 1, 1, 1])
    out = str(tmp_path / "out")
    calls = [
        ["solve", "--input", str(values), "--algo", "solve-1d", "--k", "2", "--vi",
         "--seed", "5", "--out", out, "--report", out + ".json"],
        ["solve", "--input", str(values), "--algo", "solve-1d", "--k", "2", "--out", out],
        ["audit", "--input", str(values), "--assignment", str(labels), "--vi", "--p", "2",
         "--format", "csv", "--out", out],
        ["audit", "--input", str(values), "--assignment", str(labels), "--out", out],
        ["bench", "--input", str(values), "--algo", "random", "--k", "2", "--seed", "3",
         "--repeat", "2", "--out", out],
        ["bench", "--input", str(values), "--algo", "kcenter", "--k", "2", "--out", out],
        ["solve", "--input", str(values), "--algo", "solve-1d", "--k", "2", "--out", out],
    ]
    seen = []
    parse = cli.PARSER.parse_args
    monkeypatch.setattr(cli.PARSER, "parse_args", lambda argv: seen.append(parse(argv)) or seen[-1])
    for argv in calls:
        assert cli.main(argv) == 0
    assert seen == [cli.build_parser().parse_args(argv) for argv in calls]
    assert (seen[1].vi, seen[1].seed, seen[1].report) == (False, 0, None)
    for argv in (["-h"], ["solve", "-h"], ["solve", "--algo", "nope"]):
        with pytest.raises(SystemExit) as exit_:
            cli.main(argv)
        assert exit_.value.code == (2 if "nope" in argv else 0)
    capsys.readouterr()
    assert cli.main(calls[1]) == 0 and seen[-1] == seen[1]
