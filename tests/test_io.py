import numpy as np
import pytest

from conftest import random_graph
from graphdistill.condense import CondensedGraph
from graphdistill.dataio import (
    DatasetFormatError,
    config_hash,
    dump_flat_toml,
    load_condensed,
    load_dataset,
    load_flat_toml,
    save_condensed,
    save_dataset,
)
from graphdistill.graph import Dataset


def _dataset(seed=0, n=18, k=3):
    rng = np.random.default_rng(seed)
    graph = random_graph(rng, n, 0.3, min_degree=1)
    feats = rng.standard_normal((n, 4))
    labels = rng.integers(0, k, size=n)
    labels[:k] = np.arange(k)
    tokens = rng.choice(["train", "val", "test", "none"], size=n, p=[0.5, 0.2, 0.2, 0.1])
    return Dataset(
        graph,
        feats,
        labels,
        tokens == "train",
        tokens == "val",
        tokens == "test",
        k,
        "roundtrip",
    )


def test_dataset_roundtrip_bitwise(tmp_path):
    ds = _dataset()
    save_dataset(ds, tmp_path / "d")
    back = load_dataset(tmp_path / "d")
    assert back.name == "roundtrip"
    assert back.num_classes == ds.num_classes
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)
    assert np.array_equal(back.train_mask, ds.train_mask)
    assert np.array_equal(back.val_mask, ds.val_mask)
    assert np.array_equal(back.test_mask, ds.test_mask)
    assert np.array_equal(
        back.graph.undirected_edges(), ds.graph.undirected_edges()
    )
    # a second save writes byte-identical files
    save_dataset(back, tmp_path / "d2")
    for name in ("edges.tsv", "features.csv", "labels.txt", "masks.txt", "meta.toml"):
        assert (tmp_path / "d" / name).read_bytes() == (tmp_path / "d2" / name).read_bytes()


def test_condensed_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(1)
    x = rng.standard_normal((5, 3))
    a = np.abs(rng.standard_normal((5, 5)))
    a = 0.5 * (a + a.T)
    y = np.zeros((5, 2))
    y[np.arange(5), rng.integers(0, 2, size=5)] = 1.0
    cond = CondensedGraph(x, a, y, meta={"dataset": "demo", "ratio": 0.1})
    save_condensed(cond, tmp_path / "c")
    back = load_condensed(tmp_path / "c")
    assert np.array_equal(back.x_prime, x)
    assert np.array_equal(back.a_prime, a)
    assert np.array_equal(back.y_prime, y)
    assert back.meta["dataset"] == "demo"
    assert back.meta["ratio"] == 0.1
    save_condensed(back, tmp_path / "c2")
    for name in ("x_prime.csv", "a_prime.csv", "y_prime.txt", "meta.toml"):
        assert (tmp_path / "c" / name).read_bytes() == (tmp_path / "c2" / name).read_bytes()


def test_extreme_floats_survive_roundtrip(tmp_path):
    x = np.array([[1.0 / 3.0, 1e-300], [np.pi, -2.2250738585072014e-308]])
    y = np.array([[1.0, 0.0], [0.0, 1.0]])
    cond = CondensedGraph(x, np.zeros((2, 2)), y)
    save_condensed(cond, tmp_path / "c")
    back = load_condensed(tmp_path / "c")
    assert np.array_equal(back.x_prime, x)


def test_flat_toml_types(tmp_path):
    path = tmp_path / "m.toml"
    entries = {
        "name": 'has "quotes" and \\slash',
        "count": 42,
        "rate": 0.026,
        "flag": True,
        "off": False,
    }
    dump_flat_toml(entries, path)
    assert load_flat_toml(path) == entries


def test_flat_toml_comments_and_errors(tmp_path):
    path = tmp_path / "m.toml"
    path.write_text("# comment\n\nkey = 3\n")
    assert load_flat_toml(path) == {"key": 3}
    path.write_text("no equals sign\n")
    with pytest.raises(DatasetFormatError, match=r"m\.toml:1: expected key = value"):
        load_flat_toml(path)
    path.write_text("key = 1\nbad = {nested}\n")
    with pytest.raises(DatasetFormatError, match=r"m\.toml:2: unparseable"):
        load_flat_toml(path)


def test_malformed_edges_report_line(tmp_path):
    ds = _dataset()
    save_dataset(ds, tmp_path / "d")
    edges = tmp_path / "d" / "edges.tsv"
    lines = edges.read_text().splitlines()
    lines[2] = "7"
    edges.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetFormatError, match=r"edges\.tsv:3: expected two node ids"):
        load_dataset(tmp_path / "d")
    lines[2] = "7\tx"
    edges.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetFormatError, match=r"edges\.tsv:3: node ids must be"):
        load_dataset(tmp_path / "d")


def test_edge_count_mismatch(tmp_path):
    ds = _dataset()
    save_dataset(ds, tmp_path / "d")
    edges = tmp_path / "d" / "edges.tsv"
    lines = edges.read_text().splitlines()
    edges.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(DatasetFormatError, match="expected .* edges"):
        load_dataset(tmp_path / "d")


def test_malformed_features_and_labels(tmp_path):
    ds = _dataset()
    save_dataset(ds, tmp_path / "d")
    feats = tmp_path / "d" / "features.csv"
    lines = feats.read_text().splitlines()
    lines[1] = "1.0,2.0"
    feats.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetFormatError, match=r"features\.csv:2: expected 4 values"):
        load_dataset(tmp_path / "d")
    save_dataset(ds, tmp_path / "d")
    labels = tmp_path / "d" / "labels.txt"
    lines = labels.read_text().splitlines()
    lines[0] = "99"
    labels.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetFormatError, match=r"labels\.txt:1: label outside"):
        load_dataset(tmp_path / "d")


@pytest.mark.parametrize(
    "line, message",
    [
        ("nan,1.0,2.0,3.0", "non-finite value"),
        ("1.0,-inf,2.0,3.0", "non-finite value"),
        ("", "expected 4 values"),
        ("1.0,2.0,3.0", "expected 4 values"),
        ("1.0,2.0,x,3.0", "unparseable float"),
    ],
)
def test_bad_feature_line_is_named(tmp_path, line, message):
    save_dataset(_dataset(), tmp_path / "d")
    feats = tmp_path / "d" / "features.csv"
    lines = feats.read_text().splitlines()
    lines[4] = line
    feats.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetFormatError, match=rf"features\.csv:5: {message}"):
        load_dataset(tmp_path / "d")


def test_features_row_count_checked(tmp_path):
    save_dataset(_dataset(), tmp_path / "d")
    feats = tmp_path / "d" / "features.csv"
    lines = feats.read_text().splitlines()
    feats.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(DatasetFormatError, match=r"features\.csv:17: expected 18 rows"):
        load_dataset(tmp_path / "d")


def test_feature_roundtrip_bitwise_on_extreme_values(tmp_path):
    ds = _dataset()
    rng = np.random.default_rng(3)
    ds.features = rng.standard_normal(ds.features.shape) * 10.0 ** rng.integers(
        -300, 300, size=ds.features.shape
    )
    ds.features[0, :2] = [1.0 / 3.0, -2.2250738585072014e-308]
    save_dataset(ds, tmp_path / "d")
    assert np.array_equal(load_dataset(tmp_path / "d").features, ds.features)


def test_unknown_mask_token(tmp_path):
    ds = _dataset()
    save_dataset(ds, tmp_path / "d")
    masks = tmp_path / "d" / "masks.txt"
    lines = masks.read_text().splitlines()
    lines[4] = "banana"
    masks.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetFormatError, match=r"masks\.txt:5: unknown mask token"):
        load_dataset(tmp_path / "d")


def test_missing_meta_key(tmp_path):
    ds = _dataset()
    save_dataset(ds, tmp_path / "d")
    meta = tmp_path / "d" / "meta.toml"
    content = [l for l in meta.read_text().splitlines() if not l.startswith("K")]
    meta.write_text("\n".join(content) + "\n")
    with pytest.raises(DatasetFormatError, match="missing key K"):
        load_dataset(tmp_path / "d")


def test_ragged_matrix_rejected(tmp_path):
    rng = np.random.default_rng(2)
    y = np.array([[1.0, 0.0], [0.0, 1.0]])
    cond = CondensedGraph(rng.standard_normal((2, 3)), np.zeros((2, 2)), y)
    save_condensed(cond, tmp_path / "c")
    xp = tmp_path / "c" / "x_prime.csv"
    lines = xp.read_text().splitlines()
    lines[1] = "1.0,2.0"
    xp.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetFormatError, match=r"x_prime\.csv:2: ragged row"):
        load_condensed(tmp_path / "c")


def test_config_hash_order_independent_and_sensitive():
    a = {"alpha": 0.8, "T": 5, "flag": True}
    b = {"flag": True, "T": 5, "alpha": 0.8}
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash({**a, "alpha": 0.81})
    assert len(config_hash(a)) == 16
