import json
from pathlib import Path

import numpy as np
import pytest

import wpmm.linalg
from bruteforce import write_gset
from wpmm.cli import (
    CME_DEFAULTS,
    COMMANDS,
    CSV_HEADER,
    EXIT_CERT,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    EXIT_SOLVER,
    _cme_plan,
    _load_problem,
    _merge_params,
    main,
)
from wpmm.certify import Certificate
from wpmm.harness import gen_er_graph
from wpmm.linalg import ConvergenceError
from wpmm.solver import step_constants


DATA = Path(__file__).parent / "data"


def read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0], [ln.split(",") for ln in lines[1:]]


def strip_elapsed(rows):
    return [r[:6] + r[7:] for r in rows]


# ---------------------------------------------------------------------------
# covariance-estimation command


def test_cme_row_count_and_header(tmp_path):
    out = tmp_path / "run"
    code = main(["cme", "--d", "16", "--r", "2", "--iters", "50",
                 "--trials", "1", "--outdir", str(out)])
    assert code == EXIT_OK
    header, rows = read_csv(out / "trace.csv")
    assert header == CSV_HEADER
    # 50 iterations x two variants
    assert len(rows) == 100
    variants = {r[-1] for r in rows}
    assert variants == {"mean", "last"}


def test_cme_deterministic_output(tmp_path):
    args = ["cme", "--d", "14", "--r", "2", "--iters", "30", "--trials", "2",
            "--seed", "9"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--outdir", str(out1)]) == EXIT_OK
    assert main(args + ["--outdir", str(out2)]) == EXIT_OK
    h1, r1 = read_csv(out1 / "trace.csv")
    h2, r2 = read_csv(out2 / "trace.csv")
    assert strip_elapsed(r1) == strip_elapsed(r2)


def test_cme_summary_averages_match_recomputation(tmp_path):
    out = tmp_path / "run"
    assert main(["cme", "--d", "12", "--r", "2", "--iters", "25",
                 "--trials", "3", "--outdir", str(out)]) == EXIT_OK
    _, rows = read_csv(out / "trace.csv")
    summary = json.loads((out / "summary.json").read_text())
    by_vt = {}
    for r in rows:
        key = (r[-1], int(r[1]))
        by_vt.setdefault(key, []).append(
            (float(r[2]), float(r[3]), float(r[4])))
    for variant, curves in summary["curves"].items():
        for i, t in enumerate(curves["t"]):
            vals = by_vt[(variant, t)]
            assert curves["objective"][i] == pytest.approx(
                float(np.mean([v[0] for v in vals])), abs=1e-12)
            assert curves["feasibility"][i] == pytest.approx(
                float(np.mean([v[1] for v in vals])), abs=1e-12)


def test_cme_parallel_trials_match_serial(tmp_path):
    base = ["cme", "--d", "12", "--r", "2", "--iters", "20", "--trials", "2",
            "--seed", "4"]
    out1, out2 = tmp_path / "serial", tmp_path / "par"
    assert main(base + ["--jobs", "1", "--outdir", str(out1)]) == EXIT_OK
    assert main(base + ["--jobs", "2", "--outdir", str(out2)]) == EXIT_OK
    _, r1 = read_csv(out1 / "trace.csv")
    _, r2 = read_csv(out2 / "trace.csv")
    assert strip_elapsed(r1) == strip_elapsed(r2)


def test_cme_paper_preset_parameters():
    params = _merge_params(CME_DEFAULTS, "paper-cme", None, {})
    assert params["d"] == 400
    assert params["iters"] == 2000
    assert params["trials"] == 20
    assert params["mu"] == 0.2
    assert params["svd_tol"] == 0.01
    assert _cme_plan(params) == {5.0: ["mean"], 25.0: ["last"]}
    # per-variant penalties by block count; variants sharing one share a run
    params["r"] = 20
    assert _cme_plan(params) == {1.0: ["mean", "last"]}
    # explicit rho overrides the table
    params = _merge_params(CME_DEFAULTS, "paper-cme", None, {"rho": 2.0})
    assert _cme_plan(params) == {2.0: ["mean", "last"]}


def test_cme_rank_flag_overrides_default(tmp_path):
    out = tmp_path / "run"
    assert main(["cme", "--d", "12", "--r", "2", "--rank", "4", "--iters",
                 "10", "--outdir", str(out)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["rank"] == 4


def test_cme_config_file_merge_and_unknown_keys(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"d": 12, "r": 2, "iters": 15}))
    out = tmp_path / "run"
    assert main(["cme", "--config", str(cfg), "--iters", "10",
                 "--outdir", str(out)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["d"] == 12
    assert summary["config"]["iters"] == 10  # flag wins over file

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dd": 5}))
    assert main(["cme", "--config", str(bad), "--outdir", str(out)]) == EXIT_CONFIG


@pytest.mark.parametrize("threshold, message", [
    ("1.5", "entry_threshold must be below 1"),
    # below 1, but every draw of 100 attempts is thresholded away
    ("0.9999999999", "degenerate block"),
])
def test_cme_unreachable_entry_threshold_is_config_error(tmp_path, capsys,
                                                         threshold, message):
    out = tmp_path / "run"
    assert main(["cme", "--d", "8", "--r", "2", "--iters", "3",
                 "--entry-threshold", threshold, "--outdir", str(out)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--svd-tol", "-1", "svd_tol must be positive and finite"),
    ("--svd-tol", "nan", "svd_tol must be positive and finite"),
    ("--rho", "inf", "rho must be positive and finite"),
    ("--noise-sigma", "inf", "noise_sigma must be nonnegative and finite"),
    ("--noise-sigma", "nan", "noise_sigma must be nonnegative and finite"),
    ("--entry-threshold", "nan", "entry_threshold must be finite"),
    ("--entry-threshold", "inf", "entry_threshold must be finite"),
])
def test_cme_bad_number_flag_is_config_error(tmp_path, capsys, flag, value,
                                             message):
    out = tmp_path / "run"
    assert main(["cme", "--d", "8", "--r", "2", "--iters", "2", flag, value,
                 "--outdir", str(out)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cme_unknown_preset_is_config_error(tmp_path):
    assert main(["cme", "--preset", "nope",
                 "--outdir", str(tmp_path)]) == EXIT_CONFIG


def test_preset_of_another_command_or_in_a_file_is_config_error(tmp_path,
                                                                 capsys):
    out = tmp_path / "out"
    for args in (["maxcut", "--random-n", "10", "--preset", "paper-cme"],
                 ["cme", "--d", "8", "--r", "2", "--preset", "paper-maxcut"]):
        assert main(args + ["--iters", "3", "--outdir", str(out)]) == EXIT_CONFIG
        assert "invalid choice" in capsys.readouterr().err
    # a preset is chosen on the command line only
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"preset": "paper-maxcut"}))
    prob = json.loads((DATA / "polytope2.json").read_text())
    prob["solver"]["preset"] = "paper-maxcut"
    bad_prob = tmp_path / "prob.json"
    bad_prob.write_text(json.dumps(prob))
    for args in (["cme", "--d", "8", "--r", "2", "--config", str(cfg)],
                 ["maxcut", "--random-n", "10", "--config", str(cfg)],
                 ["generic", str(bad_prob)]):
        assert main(args + ["--iters", "3", "--outdir", str(out)]) == EXIT_CONFIG
        assert "'preset'" in capsys.readouterr().err
    assert not out.exists()


def test_solving_commands_flag_sets():
    import argparse

    from wpmm.cli import build_parser

    solver = {"--config": None, "--iters": int, "--rho": float, "--mu": float,
              "--eta": float, "--step-policy": None, "--variant": None,
              "--outdir": None}
    experiment = {**solver, "--seed": int, "--trials": int, "--rank": int,
                  "--svd-tol": float, "--jobs": int, "--preset": None}
    expected = {
        "cme": {**experiment, "--d": int, "--r": int, "--noise-sigma": float,
                "--entry-threshold": float},
        "maxcut": {**experiment, "--graph": None, "--random-n": int,
                   "--random-p": float},
        "generic": solver,
    }
    subs = next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    for command, flags in expected.items():
        got = {s: a.type for a in subs.choices[command]._actions
               for s in a.option_strings if s not in ("-h", "--help")}
        assert got == flags, command


# ---------------------------------------------------------------------------
# max-cut command


def test_maxcut_random_graph_trace(tmp_path):
    out = tmp_path / "run"
    assert main(["maxcut", "--random-n", "12", "--random-p", "0.3",
                 "--iters", "40", "--variant", "last",
                 "--outdir", str(out)]) == EXIT_OK
    header, rows = read_csv(out / "trace.csv")
    assert header == CSV_HEADER
    assert len(rows) == 40
    summary = json.loads((out / "summary.json").read_text())
    assert "last" in summary["final_metrics"]
    assert (out / "plot_stub.py").exists()


def test_maxcut_preset_parameters():
    from wpmm.cli import MAXCUT_DEFAULTS

    params = _merge_params(MAXCUT_DEFAULTS, "paper-maxcut", None, {})
    assert params["mu"] == 0.2 and params["eta"] == 0.2
    assert params["rho"] == 1.0 and params["iters"] == 2000
    assert params["step_policy"] == "fixed"


def test_maxcut_gset_file_and_data_dir(tmp_path, monkeypatch):
    g = gen_er_graph(10, 0.4, seed=2)
    data = tmp_path / "data"
    data.mkdir()
    write_gset(g, data / "g10.txt")
    monkeypatch.setenv("WPMM_DATA_DIR", str(data))
    out = tmp_path / "run"
    assert main(["maxcut", "--graph", "g10.txt", "--iters", "10",
                 "--rank", "3", "--outdir", str(out)]) == EXIT_OK


def test_maxcut_malformed_graph_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("3 1\n1 4 1\n")
    assert main(["maxcut", "--graph", str(path), "--iters", "3",
                 "--outdir", str(tmp_path / "run")]) == EXIT_IO
    assert f"input error: {path}:2: vertex out of range" in capsys.readouterr().err


def test_oracle_convergence_failure_is_solver_error(tmp_path, capsys,
                                                    monkeypatch):
    def stalled(*args, **kwargs):
        raise ConvergenceError("stalled")

    monkeypatch.setattr(wpmm.linalg, "truncated_eigh", stalled)
    assert main(["cme", "--d", "8", "--r", "2", "--iters", "2",
                 "--outdir", str(tmp_path / "run")]) == EXIT_SOLVER
    err = capsys.readouterr().err
    assert "solver error: oracle failure at iteration 0: stalled" in err


@pytest.mark.parametrize("p", ["1.5", "-0.1"])
def test_maxcut_edge_probability_outside_unit_interval(tmp_path, capsys, p):
    out = tmp_path / "run"
    assert main(["maxcut", "--random-n", "20", "--random-p", p, "--iters", "3",
                 "--outdir", str(out)]) == EXIT_CONFIG
    assert "outside [0, 1]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (["maxcut", "--random-n", "0"], "random_n must be at least 2, got 0"),
    (["maxcut", "--random-n", "1"], "random_n must be at least 2, got 1"),
    (["maxcut", "--random-n", "20", "--rank", "30"],
     "rank must be between 1 and 20 (the node count), got 30"),
    (["maxcut", "--random-n", "20", "--rank", "0"],
     "rank must be between 1 and 20 (the node count), got 0"),
    (["cme", "--d", "8", "--r", "2", "--rank", "9"],
     "rank must be between 1 and 8 (d), got 9"),
    (["cme", "--d", "8", "--r", "2", "--seed", "-1"],
     "seed must be non-negative, got -1"),
    (["maxcut", "--random-n", "20", "--seed", "-1"],
     "seed must be non-negative, got -1"),
    # the theoretical step is the curvature-based one: an eta would go unused
    (["cme", "--d", "8", "--r", "2", "--step-policy", "theoretical",
      "--eta", "0.3"], "eta must be unset under the theoretical policy"),
])
def test_size_rank_and_seed_are_checked_by_name(tmp_path, capsys, args,
                                                message):
    # numpy's own messages ("zero-size array ...", "k=5 out of range ...",
    # "expected non-negative integer") name no parameter
    out = tmp_path / "run"
    assert main(args + ["--iters", "3", "--outdir", str(out)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_maxcut_missing_graph_is_io_error(tmp_path, monkeypatch):
    monkeypatch.delenv("WPMM_DATA_DIR", raising=False)
    assert main(["maxcut", "--graph", "no-such-file.txt",
                 "--outdir", str(tmp_path)]) == EXIT_IO


def test_maxcut_malformed_graph_is_io_error(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("3 1\n1 2\n")
    assert main(["maxcut", "--graph", str(bad),
                 "--outdir", str(tmp_path)]) == EXIT_IO


def test_maxcut_rank_override(tmp_path):
    out = tmp_path / "run"
    assert main(["maxcut", "--random-n", "10", "--iters", "10", "--rank", "7",
                 "--outdir", str(out)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["rank"] == 7


@pytest.mark.parametrize("args, n", [
    (["maxcut", "--random-n", "60", "--preset", "paper-maxcut"], 60),
    # both variants: the traced mean is audited too
    (["cme", "--d", "20", "--r", "2"], 20),
])
def test_desk_solve_makes_no_dense_eigendecomposition(tmp_path, monkeypatch,
                                                      args, n):
    # the start check and the final audits certify the spectrahedron block
    # without eigenvalues; the only eigendecompositions of a solve are the
    # Rayleigh-Ritz steps of the rank-k kernel
    import wpmm.cli as cli
    import wpmm.linalg as linalg

    dense, in_kernel = [], []

    def recorded(decompose):
        def wrapped(a, *rest, **kw):
            if not in_kernel and np.shape(a) == (n, n):
                dense.append(decompose.__name__)
            return decompose(a, *rest, **kw)
        return wrapped

    def kernel_marked(kernel):
        def wrapped(*a, **kw):
            in_kernel.append(True)
            try:
                return kernel(*a, **kw)
            finally:
                in_kernel.pop()
        return wrapped

    solve = cli.run

    def recorded_run(*a, **kw):
        with monkeypatch.context() as m:
            for name in ("eigh", "eigvalsh"):
                m.setattr(np.linalg, name, recorded(getattr(np.linalg, name)))
            m.setattr(linalg, "truncated_eigh",
                      kernel_marked(linalg.truncated_eigh))
            return solve(*a, **kw)

    monkeypatch.setattr(cli, "run", recorded_run)
    assert main(args + ["--iters", "30", "--outdir", str(tmp_path)]) == EXIT_OK
    assert dense == []


# ---------------------------------------------------------------------------
# generic command


def test_generic_identity_problem_converges_immediately(tmp_path):
    prob = tmp_path / "prob.json"
    prob.write_text(json.dumps({
        "f": {"kind": "linear", "g": [0.0, 0.0]},
        "A": {"kind": "identity", "dim": 2},
        "rx": {"kind": "zero", "dim": 2},
        "ry": {"kind": "zero", "dim": 2},
        "solver": {"iters": 5, "rho": 1.0, "mu": 0.2, "step_policy": "fixed",
                   "eta": 0.5},
    }))
    out = tmp_path / "run"
    assert main(["generic", str(prob), "--outdir", str(out)]) == EXIT_OK
    _, rows = read_csv(out / "trace.csv")
    assert all(float(r[3]) == 0.0 for r in rows)  # feasible from t = 0


def test_generic_polytope_intersection(tmp_path):
    rng = np.random.default_rng(0)
    M = rng.standard_normal((5, 3))
    b = rng.standard_normal(5)
    prob = tmp_path / "prob.json"
    prob.write_text(json.dumps({
        "f": {"kind": "least_squares", "M": M.tolist(), "b": b.tolist()},
        "A": {"kind": "identity", "dim": 3},
        "rx": {"kind": "hypercube_polytope", "dim": 3, "lo": 0.0, "hi": 1.0,
               "lambda": 4.0},
        "ry": {"kind": "hypercube_polytope", "dim": 3, "lo": 0.0, "hi": 1.0,
               "lambda": 4.0},
        "pqg_alpha": 0.05,
        "solver": {"iters": 200, "rho": 1.0, "mu": 0.05,
                   "step_policy": "line_search", "eta": 0.1},
    }))
    out = tmp_path / "run"
    assert main(["generic", str(prob), "--outdir", str(out)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    final = summary["final_metrics"]["last"]["per_trial"][0]
    assert final["feasibility"] <= 1e-4


def test_generic_spectrahedron_and_l1_ball_file(tmp_path):
    # matrix and vector indicators together; the y-block starts at the l1
    # ball's prox of A x0
    out = tmp_path / "run"
    assert main(["generic", str(DATA / "spectrahedron5.json"),
                 "--outdir", str(out)]) == EXIT_OK
    _, rows = read_csv(out / "trace.csv")
    summary = json.loads((out / "summary.json").read_text())
    final = summary["final_metrics"]["last"]["per_trial"][0]
    assert final["feasibility"] <= 0.1 * float(rows[0][3])


def test_generic_three_polytope_intersection(tmp_path):
    # least squares over three boxes: the first is the x-block, the other
    # two ride on the y-block of a stacked-identity coupling as a product
    rng = np.random.default_rng(1)
    M = rng.standard_normal((6, 3))
    b = rng.standard_normal(6)
    prob = tmp_path / "prob.json"
    prob.write_text(json.dumps({
        "f": {"kind": "least_squares", "M": M.tolist(), "b": b.tolist()},
        "A": {"kind": "stacked_identity", "dim": 3, "copies": 2},
        "rx": {"kind": "hypercube_polytope", "dim": 3, "lambda": 4.0},
        "ry": {"kind": "product", "parts": [
            {"kind": "hypercube_polytope", "dim": 3, "lambda": 4.0},
            {"kind": "box", "dim": 3, "lo": 0.0, "hi": 0.8},
        ]},
        "pqg_alpha": 0.05,
        "solver": {"iters": 250, "rho": 1.0, "mu": 0.05,
                   "step_policy": "line_search", "eta": 0.1},
    }))
    out = tmp_path / "run"
    assert main(["generic", str(prob), "--outdir", str(out)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    final = summary["final_metrics"]["last"]["per_trial"][0]
    assert final["feasibility"] <= 1e-3


def test_cme_preset_plan_end_to_end(tmp_path):
    # tiny override of the full-size preset: per-variant penalties still
    # drive two separate runs per trial
    out = tmp_path / "run"
    assert main(["cme", "--preset", "paper-cme", "--d", "12", "--iters", "10",
                 "--trials", "1", "--svd-tol", "1e-9",
                 "--outdir", str(out)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert {p["variant"]: p["rho"] for p in summary["plan"]} == \
        {"mean": 5.0, "last": 25.0}
    _, rows = read_csv(out / "trace.csv")
    assert len(rows) == 20  # 10 iterations x 2 per-variant runs


def test_generic_default_mu_is_the_theoretical_cap(tmp_path):
    # both problems carry curvature, so the default policy is theoretical
    # and the default mu its cap, far below 0.2
    polytope = json.loads((DATA / "polytope2.json").read_text())
    del polytope["solver"]
    box = {"f": {"kind": "half_sq_distance", "target": [0.3, -0.2, 1.4]},
           "A": {"kind": "identity", "dim": 3},
           "rx": {"kind": "box", "dim": 3, "lo": 0.0, "hi": 1.0},
           "ry": {"kind": "box", "dim": 3, "lo": 0.0, "hi": 1.0}}
    for name, doc in (("polytope", polytope), ("box", box)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / name
        assert main(["generic", str(path), "--iters", "5",
                     "--outdir", str(out)]) == EXIT_OK
        config = json.loads((out / "summary.json").read_text())["config"]
        cap = step_constants(_load_problem(path)[0][0], 1.0).mu_cap()
        assert config["step_policy"] == "theoretical"
        assert config["mu"] == cap < 1e-3


def test_generic_default_steps_without_curvature_are_fixed(tmp_path):
    # a linear objective and no pqg_alpha: fixed steps, eta = mu = 0.2
    path = tmp_path / "prob.json"
    path.write_text(json.dumps({
        "f": {"kind": "linear", "g": [1.0, -1.0]},
        "A": {"kind": "identity", "dim": 2},
        "rx": {"kind": "box", "dim": 2}, "ry": {"kind": "box", "dim": 2}}))
    out = tmp_path / "out"
    assert main(["generic", str(path), "--iters", "5",
                 "--outdir", str(out)]) == EXIT_OK
    config = json.loads((out / "summary.json").read_text())["config"]
    assert (config["step_policy"], config["mu"], config["eta"]) == \
        ("fixed", 0.2, 0.2)


_TARGET4 = {"kind": "half_sq_distance", "target": [0.3, -0.2, 1.4, 0.5]}


def _rank5_nuclear_ball(rows, cols, radius, seed, **extra):
    """The nearest point of a rank-5 nuclear ball to a Gaussian target."""
    n = rows * cols
    target = np.random.default_rng(seed).standard_normal(n)
    return {"f": {"kind": "half_sq_distance", "target": target.tolist()},
            "A": {"kind": "identity", "dim": n},
            "rx": {"kind": "nuclear_ball", "rows": rows, "cols": cols,
                   "radius": radius, "rank": 5, **extra},
            "ry": {"kind": "zero", "dim": n}}


@pytest.mark.parametrize("doc, iters", [
    pytest.param({"f": {"kind": "half_sq_distance", "target": [0.3, 1.4]},
                  "A": {"kind": "diagonal", "entries": [1.0, 2.0]},
                  "rx": {"kind": "box", "dim": 2},
                  "ry": {"kind": "box", "dim": 2, "hi": 2.0}}, 5,
                 id="diagonal-map"),
    pytest.param({"f": {"kind": "half_sq_distance", "target": [0.3, -0.2, 1.4]},
                  "A": {"kind": "identity", "dim": 3},
                  "rx": {"kind": "simplex", "dim": 3, "radius": 1.0},
                  "ry": {"kind": "zero", "dim": 3}}, 5,
                 id="simplex"),
    pytest.param({"f": _TARGET4, "A": {"kind": "identity", "dim": 4},
                  "rx": {"kind": "diag_ones", "n": 2},
                  "ry": {"kind": "zero", "dim": 4}}, 5,
                 id="diag-ones"),
    pytest.param({"f": _TARGET4, "A": {"kind": "identity", "dim": 4},
                  "rx": {"kind": "nuclear_reg", "rows": 2, "cols": 2,
                         "nu": 0.1, "rank": 1},
                  "ry": {"kind": "zero", "dim": 4}}, 5,
                 id="nuclear-reg"),
    pytest.param({"f": _TARGET4, "A": {"kind": "identity", "dim": 4},
                  "rx": {"kind": "nuclear_ball", "rows": 2, "cols": 2,
                         "radius": 1.0, "rank": 1},
                  "ry": {"kind": "zero", "dim": 4}}, 5,
                 id="nuclear-ball"),
    # a dense 2 x 3 map and a nonzero w0: the mean's residual comes from
    # the multiplier and its y-block from A xbar
    pytest.param({"f": {"kind": "linear", "g": [1.0, 0.0, -1.0]},
                  "A": {"kind": "dense", "entries": [[1.0, 0.0, 1.0],
                                                     [0.0, 1.0, 0.0]]},
                  "rx": {"kind": "box", "dim": 3},
                  "ry": {"kind": "l1_ball", "dim": 2, "radius": 1.0},
                  "w0": [0.5, -1.0]}, 20,
                 id="dense-map-w0"),
    # at the default svd_tol the truncated SVD converges at the first call
    pytest.param(_rank5_nuclear_ball(200, 200, 50.0, seed=5), 2,
                 id="nuclear-ball-200"),
    # a wide ball: the kernel's basis lies on M.T's side and the factors are
    # swapped back
    pytest.param(_rank5_nuclear_ball(120, 200, 30.0, seed=6, svd_tol=1e-2), 5,
                 id="nuclear-ball-wide"),
])
def test_generic_builds_each_kind_from_its_default_start(tmp_path, doc, iters):
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["generic", str(path), "--iters", str(iters),
                 "--outdir", str(out)]) == EXIT_OK
    _, rows = read_csv(out / "trace.csv")
    # the mean and the last point at every iteration, all finite
    assert sorted(r[-1] for r in rows) == ["last"] * iters + ["mean"] * iters
    assert all(np.isfinite(float(x)) for r in rows for x in r[2:6])


@pytest.mark.parametrize("rho", ["nan", "inf", "-1", "0"])
def test_generic_bad_rho_is_config_error(tmp_path, capsys, rho):
    doc = json.loads((DATA / "polytope2.json").read_text())
    del doc["solver"]
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "run"
    assert main(["generic", str(path), "--iters", "5", f"--rho={rho}",
                 "--outdir", str(out)]) == EXIT_CONFIG
    assert "rho must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["hypercube_polytope", "simplex_polytope"])
def test_generic_polytope_without_lambda_warns(tmp_path, kind):
    prob = json.loads((DATA / "polytope2.json").read_text())
    prob["rx"] = {"kind": kind, "dim": 3}
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(prob))
    with pytest.warns(UserWarning, match="without a configured lam"):
        assert main(["generic", str(path), "--iters", "2",
                     "--outdir", str(tmp_path / "out")]) == EXIT_OK


def test_load_problem_leaves_start_point_unchanged(tmp_path):
    # under the identity map the y-start is projected from x0 itself
    x0 = np.arange(9.0)
    path = tmp_path / "prob.json"
    path.write_text(json.dumps({
        "f": {"kind": "linear", "g": [0.0] * 9},
        "A": {"kind": "identity", "dim": 9},
        "rx": {"kind": "zero", "dim": 9},
        "ry": {"kind": "diag_ones", "n": 3},
        "x0": x0.tolist(),
    }))
    (_spec, q0, _w0), _ = _load_problem(str(path))
    assert np.array_equal(q0.x, x0)
    assert np.array_equal(q0.y.reshape(3, 3).diagonal(), np.ones(3))


def test_generic_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"f": [1,')
    assert main(["generic", str(bad), "--outdir", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_generic_unsupported_regularizer(tmp_path, capsys):
    prob = tmp_path / "prob.json"
    prob.write_text(json.dumps({
        "f": {"kind": "linear", "g": [0.0]},
        "A": {"kind": "identity", "dim": 1},
        "rx": {"kind": "mystery", "dim": 1},
        "ry": {"kind": "zero", "dim": 1},
    }))
    assert main(["generic", str(prob), "--outdir", str(tmp_path)]) == EXIT_CONFIG
    assert "mystery" in capsys.readouterr().err


@pytest.mark.parametrize("section", ["f", "A", "rx", "ry", "solver"])
def test_generic_section_not_object_is_config_error(tmp_path, capsys, section):
    prob = json.loads((DATA / "polytope2.json").read_text())
    prob[section] = "x"
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(prob))
    out = tmp_path / "out"
    assert main(["generic", str(path), "--outdir", str(out)]) == EXIT_CONFIG
    assert f"section '{section}' must be a JSON object" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("section, value, message", [
    ("f", {"kind": "quadratic"}, "section 'f' is missing required key 'Q'"),
    ("A", {"kind": "identity"}, "section 'A' is missing required key 'dim'"),
    ("ry", {"kind": "product"}, "section 'ry' is missing required key 'parts'"),
    ("rx", {"kind": "product", "parts": ["x"]},
     "section 'rx.parts[0]' must be a JSON object"),
    ("rx", {"kind": "product", "parts": [{"kind": "l1_ball", "dim": 3}]},
     "section 'rx.parts[0]' is missing required key 'radius'"),
    ("rx", {"kind": "product", "parts": "x"}, "'parts' must be a JSON array"),
    # JSON NaN and Infinity, which Python's reader accepts, are no numbers
    ("f", {"kind": "quadratic", "Q": [[float("nan"), 0.0], [0.0, 1.0]]},
     "'Q' must be a number or an array of numbers, got [[NaN"),
    ("f", {"kind": "linear", "g": float("inf")},
     "'g' must be a number or an array of numbers, got Infinity"),
    ("rx", {"kind": "l1_ball", "dim": 3, "radius": float("inf")},
     "'radius' must be a number, got Infinity"),
    ("rx", {"kind": "spectrahedron", "n": 2, "radius": 1.0, "rank": 1,
            "svd_tol": 0}, "svd_tol must be positive and finite"),
    # pqg_alpha gives a curvature, so the default policy is theoretical
    ("solver", {"eta": 0.1}, "eta must be unset under the theoretical policy"),
])
def test_generic_missing_key_is_config_error(tmp_path, capsys, section, value,
                                             message):
    prob = json.loads((DATA / "polytope2.json").read_text())
    prob[section] = value
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(prob))
    out = tmp_path / "out"
    assert main(["generic", str(path), "--outdir", str(out)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("section, key, value, message", [
    ("A", "dim", [3], "section 'A': 'dim' must be int, got [3]"),
    ("rx", "lo", None, "section 'rx': 'lo' must be a number, got null"),
    (None, "pqg_alpha", "0.05", "'pqg_alpha' must be a number, got \"0.05\""),
])
def test_generic_wrongly_typed_value_is_config_error(tmp_path, capsys, section,
                                                     key, value, message):
    prob = json.loads((DATA / "polytope2.json").read_text())
    (prob if section is None else prob[section])[key] = value
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(prob))
    out = tmp_path / "out"
    assert main(["generic", str(path), "--outdir", str(out)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("section, key, value, message", [
    (None, "f", {"kind": "linear", "g": [1.0, 2.0]},
     "f's linear term has 2 entries != A.dim_in 3"),
    (None, "x0", [0.0, 0.0], "x has shape (2,), but the x-block has dimension 3"),
    ("rx", "dim", -3, "section 'rx': block dimension -3 is below 1"),
])
def test_generic_wrong_size_is_config_error(tmp_path, capsys, section, key,
                                            value, message):
    prob = json.loads((DATA / "polytope2.json").read_text())
    (prob if section is None else prob[section])[key] = value
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(prob))
    out = tmp_path / "out"
    assert main(["generic", str(path), "--outdir", str(out)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value, message", [
    ("x0", [0.0, 0.0], "x has shape (2,), but the x-block has dimension 3"),
    ("y0", [0.0], "y has shape (1,), but the y-block has dimension 2"),
    ("w0", [0.0] * 3, "w has shape (3,), but the constraint has dimension 2"),
])
def test_generic_start_length_checked_before_default_y0(tmp_path, capsys, key,
                                                        value, message):
    # a dense map and an l1-ball y-block, whose default y0 is prox(A x0)
    prob = {"f": {"kind": "linear", "g": [1.0, 0.0, -1.0]},
            "A": {"kind": "dense", "entries": [[1.0, 0.0, 1.0],
                                               [0.0, 1.0, 0.0]]},
            "rx": {"kind": "box", "dim": 3, "lo": 0.0, "hi": 1.0},
            "ry": {"kind": "l1_ball", "dim": 2, "radius": 1.0},
            key: value}
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(prob))
    out = tmp_path / "out"
    assert main(["generic", str(path), "--outdir", str(out)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_generic_start_outside_spectrahedron_is_config_error(tmp_path, capsys):
    # x0 = 0.4 I has trace 2, one more than the radius: the exact distance
    # names it
    prob = json.loads((DATA / "spectrahedron5.json").read_text())
    prob["x0"] = (0.4 * np.eye(5)).ravel().tolist()
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(prob))
    assert main(["generic", str(path), "--iters", "5",
                 "--outdir", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "x0 lies outside the regularizer domain (distance 0.447214)" in err


def test_generic_huge_start_is_outside_the_spectrahedron(tmp_path, capsys):
    # its squared norm overflows; the tolerance from it must not
    prob = json.loads((DATA / "spectrahedron5.json").read_text())
    x0 = 0.2 * np.eye(5)
    x0[0, 1] = x0[1, 0] = 1e300
    prob["x0"] = x0.ravel().tolist()
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(prob))
    status = main(["generic", str(path), "--iters", "5",
                   "--outdir", str(tmp_path / "out")])
    assert status == EXIT_CONFIG
    assert "x0 lies outside the regularizer domain" in capsys.readouterr().err


_POLYTOPE2 = json.loads((DATA / "polytope2.json").read_text())


@pytest.mark.parametrize("args, doc, message", [
    (["cme", "--config", "{file}"], None, "cannot read config file"),
    (["cme", "--config", "{file}"], [1, 2], "expected a JSON object"),
    (["cme", "--preset", "paper-cme", "--r", "4"], None,
     "no tabulated rho for r=4"),
    (["generic", "{file}"], {**_POLYTOPE2, "f": {"kind": "cubic"}},
     "unsupported smooth-term kind 'cubic'"),
    (["generic", "{file}"], {**_POLYTOPE2, "A": {"kind": "sparse"}},
     "unsupported linear-map kind 'sparse'"),
    (["generic", "{file}"],
     {k: v for k, v in _POLYTOPE2.items() if k != "rx"},
     "missing required section 'rx'"),
    (["generic", "{file}"], {**_POLYTOPE2, "x0": [[0.0], [0.0, 1.0]]},
     "'x0' must be a number or an array of numbers"),
], ids=["unreadable-config", "config-not-object", "untabulated-r",
        "f-kind", "A-kind", "no-rx", "ragged-x0"])
def test_unusable_input_is_config_error(tmp_path, capsys, args, doc, message):
    # "{file}" names a file holding doc, or no file when doc is None
    path = tmp_path / "input.json"
    if doc is not None:
        path.write_text(json.dumps(doc))
    args = [str(path) if a == "{file}" else a for a in args]
    out = tmp_path / "out"
    assert main(args + ["--iters", "3", "--outdir", str(out)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_generic_problem_not_object_is_config_error(tmp_path, capsys):
    path = tmp_path / "prob.json"
    path.write_text("[1, 2]")
    assert main(["generic", str(path), "--outdir", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "expected a JSON object" in capsys.readouterr().err


def test_iters_below_one_is_config_error(tmp_path, capsys):
    for args in (["cme", "--d", "8", "--r", "2"],
                 ["maxcut", "--random-n", "10"],
                 ["generic", str(DATA / "polytope2.json")]):
        out = tmp_path / args[0]
        assert main(args + ["--iters", "0", "--variant", "last",
                            "--outdir", str(out)]) == EXIT_CONFIG
        assert "iters must be at least 1" in capsys.readouterr().err
        assert not out.exists()


def test_trials_below_one_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "trials.json"
    cfg.write_text(json.dumps({"trials": 0}))
    for args in (["cme", "--d", "8", "--r", "2", "--trials", "0"],
                 ["maxcut", "--random-n", "10", "--trials", "-1"],
                 ["cme", "--d", "8", "--r", "2", "--config", str(cfg)]):
        out = tmp_path / "out"
        assert main(args + ["--iters", "5", "--outdir", str(out)]) == EXIT_CONFIG
        assert "trials must be at least 1" in capsys.readouterr().err
        assert not out.exists()


def test_jobs_below_one_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "jobs.json"
    cfg.write_text(json.dumps({"jobs": 0}))
    for args in (["cme", "--d", "8", "--r", "2", "--jobs", "-3"],
                 ["maxcut", "--random-n", "10", "--jobs", "0"],
                 ["cme", "--d", "8", "--r", "2", "--config", str(cfg)]):
        out = tmp_path / "out"
        assert main(args + ["--iters", "3", "--outdir", str(out)]) == EXIT_CONFIG
        assert "jobs must be at least 1" in capsys.readouterr().err
        assert not out.exists()


def test_config_values_typed_like_their_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"iters": "5"}))
    prob = json.loads((DATA / "polytope2.json").read_text())
    prob["solver"]["iters"] = "5"
    bad_prob = tmp_path / "prob.json"
    bad_prob.write_text(json.dumps(prob))
    out = tmp_path / "out"
    for args in (["cme", "--d", "8", "--r", "2", "--config", str(cfg)],
                 ["maxcut", "--random-n", "10", "--config", str(cfg)],
                 ["generic", str(DATA / "polytope2.json"), "--config", str(cfg)],
                 ["generic", str(bad_prob)]):
        assert main(args + ["--outdir", str(out)]) == EXIT_CONFIG
        assert "'iters' must be int" in capsys.readouterr().err
        assert not out.exists()
    # a value outside the flag's choices, where it would reach a lookup table
    cfg.write_text(json.dumps({"variant": "median"}))
    assert main(["cme", "--preset", "paper-cme", "--d", "8", "--config",
                 str(cfg), "--outdir", str(out)]) == EXIT_CONFIG
    assert "'variant' must be ['mean', 'last', 'both']" in capsys.readouterr().err
    # an integer is taken for a float flag
    cfg.write_text(json.dumps({"iters": 3, "rho": 2}))
    assert main(["cme", "--d", "8", "--r", "2", "--config", str(cfg),
                 "--outdir", str(out)]) == EXIT_OK
    assert json.loads((out / "summary.json").read_text())["config"]["rho"] == 2.0
    # and logged as the float it stands for: a fixed eta of 1 reads 1
    cfg.write_text(json.dumps({"iters": 3, "eta": 1}))
    assert main(["maxcut", "--random-n", "10", "--config", str(cfg),
                 "--outdir", str(out)]) == EXIT_OK
    _, rows = read_csv(out / "trace.csv")
    assert [r[5] for r in rows] == ["1"] * 6


def test_generic_unknown_solver_key_is_config_error(tmp_path, capsys):
    for key in ("itres", "lam"):
        prob = json.loads((DATA / "polytope2.json").read_text())
        prob["solver"][key] = 5
        path = tmp_path / "prob.json"
        path.write_text(json.dumps(prob))
        out = tmp_path / "out"
        assert main(["generic", str(path), "--outdir", str(out)]) == EXIT_CONFIG
        assert f"unknown keys ['{key}']" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command", ["cme", "maxcut", "generic"])
def test_help_names_the_flags_of_the_command(capsys, command):
    assert main([command, "--help"]) == EXIT_OK
    out = capsys.readouterr().out
    _, defaults, _, _ = COMMANDS[command]
    for key in ["config", *defaults]:
        assert f"--{key.replace('_', '-')} " in out


# ---------------------------------------------------------------------------
# certify command


def test_certify_oracles_passes(capsys):
    assert main(["certify", "oracles"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_certify_negative_seed_is_config_error(capsys):
    assert main(["certify", "oracles", "--seed", "-1"]) == EXIT_CONFIG
    assert "seed must be non-negative, got -1" in capsys.readouterr().err


def test_certify_all_suites_pass(capsys):
    assert main(["certify", "all"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "linear_decay" in out and "ergodic_rate" in out


def test_certify_all_solves_the_toy_once(monkeypatch):
    # one reference solve and one 300-step run, whose traced mean the
    # ergodic suite reads instead of replaying the steps
    import wpmm.certify as certify
    import wpmm.solver as solver

    refs, steps = [], []
    solve, step = certify.reference_solution, solver._step
    monkeypatch.setattr(certify, "reference_solution",
                        lambda *a, **k: refs.append(solve(*a, **k)) or refs[-1])
    monkeypatch.setattr(solver, "_step",
                        lambda *a, **k: steps.append(a) or step(*a, **k))
    ok, _ = certify.run_suites("all")
    assert ok and len(refs) == 1
    assert len(steps) == refs[0].iterations + 300


def test_certify_failure_exit_code(monkeypatch, capsys):
    import wpmm.cli as cli

    monkeypatch.setattr(
        cli, "run_suites",
        lambda suite, seed=0: (False, [Certificate("stub", False)]))
    assert main(["certify", "all"]) == EXIT_CERT
    assert "FAIL" in capsys.readouterr().out


def test_certify_rejects_unknown_suite():
    assert main(["certify", "everything"]) == EXIT_CONFIG


def test_certify_single_toy_suite_prints_its_lines_of_all(capsys):
    def lines(suite):
        assert main(["certify", suite]) == EXIT_OK
        # the name column is padded to the longest name printed
        return [" ".join(ln.split())
                for ln in capsys.readouterr().out.splitlines()]

    everything = lines("all")
    for suite, names in (("decay", {"linear_decay"}),
                         ("ergodic", {"ergodic_rate", "obj_feas_split"})):
        expected = [ln for ln in everything if ln.split()[0] in names]
        assert len(expected) == len(names)
        assert lines(suite) == expected + ["all PASS"]


def test_csv_floats_roundtrip(tmp_path):
    out = tmp_path / "run"
    assert main(["cme", "--d", "12", "--r", "2", "--iters", "5",
                 "--outdir", str(out)]) == EXIT_OK
    _, rows = read_csv(out / "trace.csv")
    for r in rows:
        # 17 significant digits survive a float round trip exactly
        val = float(r[2])
        assert f"{val:.17g}" == r[2]


# ---------------------------------------------------------------------------
# golden traces: recorded runs that every later change must reproduce


GOLDEN = {
    "cme": ("golden_cme_d12.csv", ["cme", "--d", "12", "--iters", "10"]),
    "maxcut": ("golden_maxcut_n20.csv",
               ["maxcut", "--random-n", "20", "--iters", "10"]),
    # the test_generic_polytope_intersection problem
    "polytope": ("golden_polytope2.csv",
                 ["generic", str(DATA / "polytope2.json")]),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_trace_matches_golden(tmp_path, case):
    name, args = GOLDEN[case]
    out = tmp_path / "run"
    assert main(args + ["--outdir", str(out)]) == EXIT_OK
    header, rows = read_csv(out / "trace.csv")
    gold_header, gold = read_csv(DATA / name)
    assert header == gold_header
    assert len(rows) == len(gold)
    for got, want in zip(strip_elapsed(rows), strip_elapsed(gold)):
        # trial, t and variant exactly; the logged floats to rtol 1e-9
        assert got[:2] + got[-1:] == want[:2] + want[-1:]
        np.testing.assert_allclose([float(v) for v in got[2:-1]],
                                   [float(v) for v in want[2:-1]],
                                   rtol=1e-9, atol=0.0)
