import numpy as np
import pytest

from graphdistill.cli import main
from graphdistill.dataio import load_condensed, load_dataset, load_flat_toml

FAST_FLAGS = [
    "--T", "2", "--E1", "20", "--hidden", "16", "--depth", "2",
    "--E2", "40", "--kmeans_n_init", "2", "--rho", "0.5", "--T_prime", "1",
    "--E3", "10", "--num_synthetic", "6", "--eval_epochs", "40",
    "--eval_hidden", "16", "--eval_repeats", "2", "--seed", "0",
]


def _gen(tmp_path, name="data", seed=0):
    out = tmp_path / name
    rc = main([
        "gen-sbm", "--out-dir", str(out), "--nodes", "60", "--classes", "3",
        "--p", "0.25", "--q", "0.02", "--dim", "8", "--separation", "2.0",
        "--noise", "0.5", "--seed", str(seed),
    ])
    assert rc == 0
    return out


def test_gen_sbm_writes_loadable_dataset(tmp_path, capsys):
    data_dir = _gen(tmp_path)
    out = capsys.readouterr().out
    assert "nodes = 60" in out
    assert "homophily = " in out
    ds = load_dataset(data_dir)
    assert ds.num_nodes == 60
    assert ds.num_classes == 3


def test_distill_writes_condensed_and_report(tmp_path, capsys):
    data_dir = _gen(tmp_path)
    cond_dir = tmp_path / "cond"
    rc = main(
        ["distill", "--dataset-dir", str(data_dir), "--out-dir", str(cond_dir)]
        + FAST_FLAGS
    )
    assert rc == 0
    out = capsys.readouterr().out
    for key in ("fid = ", "theorem1_bound = ", "accuracy_mean = ", "runtime_per_stage = "):
        assert key in out
    cond = load_condensed(cond_dir)
    assert cond.num_nodes == 6
    assert cond.meta["dataset"].startswith("sbm-")


def test_distill_runs_are_byte_identical(tmp_path):
    data_dir = _gen(tmp_path)
    for name in ("c1", "c2"):
        rc = main(
            ["distill", "--dataset-dir", str(data_dir), "--out-dir", str(tmp_path / name)]
            + FAST_FLAGS
        )
        assert rc == 0
    for fname in ("x_prime.csv", "a_prime.csv", "y_prime.txt", "meta.toml"):
        a = (tmp_path / "c1" / fname).read_bytes()
        b = (tmp_path / "c2" / fname).read_bytes()
        assert a == b, fname


def test_report_matches_distill_metrics(tmp_path, capsys):
    data_dir = _gen(tmp_path)
    capsys.readouterr()
    rc = main(["distill", "--dataset-dir", str(data_dir)] + FAST_FLAGS)
    assert rc == 0
    distill_out = capsys.readouterr().out
    rc = main(["report", "--dataset-dir", str(data_dir)] + FAST_FLAGS)
    assert rc == 0
    report_out = capsys.readouterr().out

    def metric_lines(text):
        return [
            line for line in text.strip().splitlines()
            if not line.startswith("runtime")
        ]

    assert metric_lines(distill_out) == metric_lines(report_out)


def test_evaluate_and_fid_on_saved_condensed(tmp_path, capsys):
    data_dir = _gen(tmp_path)
    for selection in ("final", "best_val"):
        flags = FAST_FLAGS + ["--model_selection", selection]
        cond_dir = tmp_path / f"cond-{selection}"
        rc = main(
            ["distill", "--dataset-dir", str(data_dir), "--out-dir", str(cond_dir)]
            + flags
        )
        assert rc == 0
        capsys.readouterr()
        stored = load_flat_toml(cond_dir / "meta.toml")

        rc = main(
            ["evaluate", "--dataset-dir", str(data_dir), "--condensed-dir", str(cond_dir)]
            + flags
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "accuracy_mean = " in out and "accuracy_std = " in out
        assert f"accuracy_mean = {stored['accuracy_mean']:.6g}\n" in out

        rc = main(
            ["fid", "--dataset-dir", str(data_dir), "--condensed-dir", str(cond_dir)]
            + flags
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("fid = ")
        assert float(out.split(" = ")[1]) >= 0.0
        assert out == f"fid = {stored['fid']:.6g}\n"


def test_baseline_selectors(tmp_path, capsys):
    data_dir = _gen(tmp_path)
    for method in ("random", "kcenter", "herding"):
        rc = main(
            ["baseline", method, "--dataset-dir", str(data_dir), "--out-dir",
             str(tmp_path / f"core-{method}")] + FAST_FLAGS
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert f"method = {method}" in out
        cond = load_condensed(tmp_path / f"core-{method}")
        assert cond.num_nodes == 6
        assert cond.meta["method"] == method


def test_config_file_and_flag_precedence(tmp_path, capsys):
    data_dir = _gen(tmp_path)
    config = tmp_path / "run.toml"
    config.write_text(
        "\n".join(
            [
                "T = 2", "E1 = 20", "hidden = 16", "depth = 2", "E2 = 40",
                "kmeans_n_init = 2", "rho = 0.5", "T_prime = 1", "E3 = 10",
                "num_synthetic = 4", "eval_epochs = 40", "eval_hidden = 16",
                "eval_repeats = 2", "seed = 0", 'class_graph_weighting = "adjacency"',
            ]
        )
        + "\n"
    )
    cond_dir = tmp_path / "cond"
    # --num_synthetic overrides the config file's 4
    rc = main([
        "distill", "--dataset-dir", str(data_dir), "--out-dir", str(cond_dir),
        "--config", str(config), "--num_synthetic", "6",
    ])
    assert rc == 0
    capsys.readouterr()
    assert load_condensed(cond_dir).num_nodes == 6


def test_lambda_flag_spelling(tmp_path, capsys):
    data_dir = _gen(tmp_path)
    rc = main(
        ["report", "--dataset-dir", str(data_dir), "--lambda", "0.2"] + FAST_FLAGS
    )
    assert rc == 0
    assert "accuracy_mean = " in capsys.readouterr().out


def test_errors_exit_nonzero(tmp_path, capsys):
    rc = main(["distill", "--dataset-dir", str(tmp_path / "missing")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err

    data_dir = _gen(tmp_path)
    capsys.readouterr()
    rc = main(
        ["distill", "--dataset-dir", str(data_dir), "--num_synthetic", "60"]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert "stage 'cluster' failed" in err


def test_invalid_bool_flag_rejected(tmp_path):
    data_dir = _gen(tmp_path)
    with pytest.raises(SystemExit):
        main(["report", "--dataset-dir", str(data_dir), "--inductive", "maybe"])


def test_gen_sbm_determinism(tmp_path):
    a = _gen(tmp_path, "a", seed=5)
    b = _gen(tmp_path, "b", seed=5)
    for fname in ("edges.tsv", "features.csv", "labels.txt", "masks.txt"):
        assert (a / fname).read_bytes() == (b / fname).read_bytes()
    da = load_dataset(a)
    db = load_dataset(b)
    assert np.array_equal(da.features, db.features)
