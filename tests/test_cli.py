import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from graphdistill.cli import main
from graphdistill.condense import CondensedGraph
from graphdistill.dataio import (
    load_condensed,
    load_dataset,
    load_flat_toml,
    save_condensed,
    save_dataset,
)
from graphdistill.pipeline import SbmSpec, generate_sbm

SRC = Path(__file__).resolve().parent.parent / "src"

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


@pytest.mark.parametrize("dim", ["0", "-3"])
def test_gen_sbm_without_features_exits_with_one_line(tmp_path, capsys, dim):
    out = tmp_path / "data"
    rc = main(["gen-sbm", "--out-dir", str(out), "--nodes", "60", "--dim", dim])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: feature_dim {dim} is below 1\n"
    assert not out.exists()


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
    # the inductive FID needs a full-graph forward of its own
    for flag, value in (
        ("--model_selection", "final"),
        ("--model_selection", "best_val"),
        ("--inductive", "true"),
    ):
        flags = FAST_FLAGS + [flag, value]
        cond_dir = tmp_path / f"cond-{flag[2:]}-{value}"
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


def test_config_file_with_a_removed_key_exits_with_one_line(tmp_path, capsys):
    config = tmp_path / "old.toml"
    config.write_text('eval_optimizer = "adam"\n')
    rc = main(["distill", "--dataset-dir", str(tmp_path / "data"), "--config", str(config)])
    assert rc == 1
    assert capsys.readouterr().err == "error: unknown config key 'eval_optimizer'\n"


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
    assert "stage 'propagate' failed" in err


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--model_selection", "best-val"),
        ("--ratio_base", "Train"),
        ("--dropout", "1"),
        ("--alpha", "1"),
    ],
)
def test_misspelled_choice_exits_with_one_line(tmp_path, capsys, flag, value):
    data_dir = _gen(tmp_path)
    capsys.readouterr()
    rc = main(["distill", "--dataset-dir", str(data_dir)] + FAST_FLAGS + [flag, value])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: stage ") and f"{flag[2:]} must be" in err


def test_eval_repeats_below_one_exits_with_one_line(tmp_path, capsys):
    data_dir = _gen(tmp_path)
    cond_dir = tmp_path / "cond"
    rc = main(["distill", "--dataset-dir", str(data_dir), "--out-dir", str(cond_dir)] + FAST_FLAGS)
    assert rc == 0
    for command in (
        ["distill", "--dataset-dir", str(data_dir)],
        ["evaluate", "--dataset-dir", str(data_dir), "--condensed-dir", str(cond_dir)],
        ["fid", "--dataset-dir", str(data_dir), "--condensed-dir", str(cond_dir)],
    ):
        capsys.readouterr()
        rc = main(command + FAST_FLAGS + ["--eval_repeats", "0"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "eval_repeats must be at least 1, not 0" in captured.err


def test_empty_test_split_exits_with_one_line(tmp_path, capsys):
    data_dir = _gen(tmp_path)
    cond_dir = tmp_path / "cond"
    rc = main(["distill", "--dataset-dir", str(data_dir), "--out-dir", str(cond_dir)] + FAST_FLAGS)
    assert rc == 0
    masks = data_dir / "masks.txt"
    masks.write_text(masks.read_text().replace("test", "none"))
    out_dir = tmp_path / "out"
    for command in (
        ["distill", "--dataset-dir", str(data_dir), "--out-dir", str(out_dir)],
        ["baseline", "random", "--dataset-dir", str(data_dir), "--out-dir", str(out_dir)],
        ["evaluate", "--dataset-dir", str(data_dir), "--condensed-dir", str(cond_dir)],
        ["fid", "--dataset-dir", str(data_dir), "--condensed-dir", str(cond_dir)],
    ):
        capsys.readouterr()
        rc = main(command + FAST_FLAGS)
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.endswith("the test split is empty\n")
        assert not out_dir.exists()


def test_baseline_writes_nothing_when_its_evaluation_fails(tmp_path, capsys):
    data_dir = tmp_path / "data"
    assert main(["gen-sbm", "--out-dir", str(data_dir), "--nodes", "300", "--seed", "1"]) == 0
    masks = data_dir / "masks.txt"
    masks.write_text(masks.read_text().replace("val", "none"))
    out_dir = tmp_path / "D"
    capsys.readouterr()
    rc = main(
        ["baseline", "random", "--dataset-dir", str(data_dir), "--out-dir", str(out_dir),
         "--model_selection", "best_val"] + FAST_FLAGS
    )
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: best_val selection needs a nonempty validation set\n"
    assert not out_dir.exists()


def test_evaluate_refuses_malformed_condensed_dir(tmp_path, capsys):
    data_dir = _gen(tmp_path)
    cond_dir = tmp_path / "cond"
    y = np.eye(3)[[0, 1, 2, 0, 1, 2]]
    save_condensed(CondensedGraph(np.zeros((6, 8)), np.eye(6), y), cond_dir)
    labels = (cond_dir / "y_prime.txt").read_text().splitlines()
    labels[3] = "7"
    (cond_dir / "y_prime.txt").write_text("\n".join(labels) + "\n")
    capsys.readouterr()
    rc = main([
        "evaluate", "--dataset-dir", str(data_dir), "--condensed-dir", str(cond_dir)
    ] + FAST_FLAGS)
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: ") and "y_prime.txt:4: label outside [0, 3)" in err


@pytest.mark.parametrize(
    "width,classes,message",
    [
        (8, 2, "condensed K = 2 but the dataset's K = 3"),
        (3, 3, "condensed d = 3 but the dataset's d = 8"),
    ],
    ids=["class-count", "feature-width"],
)
def test_evaluate_and_fid_refuse_condensed_graph_of_other_shape(
    tmp_path, capsys, width, classes, message
):
    data_dir = _gen(tmp_path)  # K = 3, d = 8
    cond_dir = tmp_path / "cond"
    y = np.eye(classes)[np.arange(6) % classes]
    save_condensed(CondensedGraph(np.zeros((6, width)), np.eye(6), y), cond_dir)
    for command in ("evaluate", "fid"):
        capsys.readouterr()
        rc = main([
            command, "--dataset-dir", str(data_dir), "--condensed-dir", str(cond_dir)
        ] + FAST_FLAGS)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: {cond_dir}") and message in err


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


# The field separator of each dataset file; None for one value per line.
SEPARATORS = {"edges.tsv": "\t", "features.csv": ",", "labels.txt": None, "masks.txt": None}

# Each kind of corruption, and the files it applies to.
CORRUPTIONS = {
    "truncated-line": ("edges.tsv", "features.csv", "labels.txt", "masks.txt"),
    "non-numeric-token": ("edges.tsv", "features.csv", "labels.txt"),
    "wrong-row-width": ("edges.tsv", "features.csv"),
    "out-of-range-label": ("labels.txt",),
    "unknown-mask-token": ("masks.txt",),
    "out-of-range-id": ("edges.tsv",),
    "self-loop": ("edges.tsv",),
    "duplicate-edge": ("edges.tsv",),
}

# The node count of the corrupted datasets.
CORRUPTED_NODES = 12


def _corrupt(lines, row, kind, sep, field, word, label):
    """lines[row] with the corruption kind applied; sep is its file's field separator."""
    line = lines[row]
    fields = line.split(sep) if sep else [line]
    if kind == "out-of-range-id":
        fields[field % 2] = str(label + CORRUPTED_NODES if label > 0 else label)
        return sep.join(fields)
    if kind == "self-loop":
        return sep.join([fields[field % 2]] * 2)
    if kind == "duplicate-edge":
        # the previous line's edge in the other orientation
        return sep.join(reversed(lines[row - 1].split(sep)))
    if kind == "truncated-line":
        return sep.join(fields[:-1]) if sep else ""
    if kind == "non-numeric-token":
        fields[field % len(fields)] = word
        return (sep or "").join(fields)
    if kind == "wrong-row-width":
        return line + sep + fields[0]
    if kind == "out-of-range-label":
        return str(label)
    return word


@pytest.mark.parametrize(
    "kind, name", [(kind, name) for kind, names in CORRUPTIONS.items() for name in names]
)
@settings(
    max_examples=5, derandomize=True, database=None, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    row=st.integers(0, 10**6),
    field=st.integers(0, 10),
    # no word over these letters parses as a number ("inf", "nan") or is a
    # mask token
    word=st.text(alphabet="abcdxyz", min_size=1, max_size=5),
    label=st.one_of(st.integers(3, 50), st.integers(-50, -1)),
)
def test_corrupted_dataset_exits_with_one_line_naming_the_file(
    tmp_path, capsys, kind, name, row, field, word, label
):
    data_dir, cond_dir = tmp_path / "data", tmp_path / "cond"
    # a load writes features.cache.npz beside the features, so every example
    # starts from a fresh directory
    shutil.rmtree(data_dir, ignore_errors=True)
    spec = SbmSpec(
        num_nodes=CORRUPTED_NODES, num_classes=3, intra_prob=0.6, inter_prob=0.1,
        feature_dim=3,
    )
    save_dataset(generate_sbm(spec), data_dir)
    save_condensed(CondensedGraph(np.zeros((3, 3)), np.eye(3), np.eye(3)), cond_dir)
    path = data_dir / name
    lines = path.read_text().splitlines()
    # a duplicate repeats the line before it, so it needs a line 2 or later
    row = row % (len(lines) - 1) + 1 if kind == "duplicate-edge" else row % len(lines)
    lines[row] = _corrupt(lines, row, kind, SEPARATORS[name], field, word, label)
    path.write_text("\n".join(lines) + "\n")

    rc = main(["evaluate", "--dataset-dir", str(data_dir), "--condensed-dir", str(cond_dir)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert captured.err.startswith(f"error: {path}:{row + 1}: "), captured.err


def test_distill_does_not_import_the_sparse_solvers(tmp_path):
    # scipy.sparse.linalg costs about 10 MB of every distill's peak memory,
    # and only the tests' direct-solve oracle needs it
    script = textwrap.dedent(
        f"""
        import sys
        from graphdistill.cli import main

        data = {str(tmp_path / "data")!r}
        assert main(["gen-sbm", "--out-dir", data, "--nodes", "60", "--classes", "3",
                     "--p", "0.25", "--q", "0.02", "--dim", "8", "--seed", "0"]) == 0
        assert main(["distill", "--dataset-dir", data] + {FAST_FLAGS!r}) == 0
        print("scipy.sparse.linalg" in sys.modules)
        """
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-1] == "False"
