import hashlib
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import _per_value_rows, random_graph
from graphdistill import dataio
from graphdistill.condense import CondensedGraph
from graphdistill.dataio import (
    FEATURE_COPY,
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


def test_blank_edge_line_is_named(tmp_path):
    # loadtxt skips blank lines, so a blank line must still reach the line loop
    save_dataset(_dataset(), tmp_path / "d")
    edges = tmp_path / "d" / "edges.tsv"
    lines = edges.read_text().splitlines()
    edges.write_text("\n".join(lines[:3] + [""] + lines[4:]) + "\n")
    with pytest.raises(DatasetFormatError, match=r"edges\.tsv:4: expected two node ids"):
        load_dataset(tmp_path / "d")
    edges.write_text("\n".join(lines) + "\n\n")
    with pytest.raises(
        DatasetFormatError, match=rf"edges\.tsv:{len(lines) + 1}: expected two node ids"
    ):
        load_dataset(tmp_path / "d")


@pytest.mark.parametrize("newline, end", [("\n", ""), ("\r\n", "\r\n"), ("\r", "\r")])
def test_line_endings_load_as_splitlines_reads_them(tmp_path, newline, end):
    ds = _dataset()
    save_dataset(ds, tmp_path / "d")
    for name in ("edges.tsv", "features.csv"):
        path = tmp_path / "d" / name
        path.write_bytes((newline.join(path.read_text().splitlines()) + end).encode())
    back = load_dataset(tmp_path / "d")
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.graph.undirected_edges(), ds.graph.undirected_edges())


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


def test_zero_feature_width_is_refused_before_features(tmp_path, recwarn):
    ds = _dataset()
    save_dataset(ds, tmp_path / "d")
    meta = tmp_path / "d" / "meta.toml"
    content = ["d = 0" if l.startswith("d =") else l for l in meta.read_text().splitlines()]
    meta.write_text("\n".join(content) + "\n")
    # what a zero-width save writes: one empty line per node
    (tmp_path / "d" / "features.csv").write_text("\n" * ds.num_nodes)
    with pytest.raises(DatasetFormatError, match=r"meta\.toml:0: feature width d = 0 is below 1"):
        load_dataset(tmp_path / "d")
    assert not recwarn.list


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


def _save_condensed_k3(directory):
    rng = np.random.default_rng(4)
    m = np.abs(rng.standard_normal((4, 4)))
    y = np.eye(3)[[0, 1, 2, 1]]
    save_condensed(CondensedGraph(rng.standard_normal((4, 2)), 0.5 * (m + m.T), y), directory)


def _replace_line(path, index, text):
    lines = path.read_text().splitlines()
    lines[index] = text
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "fname, text, match",
    [
        ("y_prime.txt", "-1", r"y_prime\.txt:3: label outside \[0, 3\)"),
        ("y_prime.txt", "7", r"y_prime\.txt:3: label outside \[0, 3\)"),
        ("x_prime.csv", "nan,1.0", r"x_prime\.csv:3: non-finite value"),
        ("a_prime.csv", "0.5,inf,0.5,0.5", r"a_prime\.csv:3: non-finite value"),
    ],
)
def test_load_condensed_names_bad_line(tmp_path, fname, text, match):
    _save_condensed_k3(tmp_path / "c")
    _replace_line(tmp_path / "c" / fname, 2, text)
    with pytest.raises(DatasetFormatError, match=match):
        load_condensed(tmp_path / "c")


def test_load_condensed_validates_triple(tmp_path):
    directory = tmp_path / "c"
    _save_condensed_k3(directory)
    a_path = directory / "a_prime.csv"
    row = a_path.read_text().splitlines()[0].split(",")
    row[1] = repr(float(row[1]) + 1e-9)
    _replace_line(a_path, 0, ",".join(row))
    with pytest.raises(DatasetFormatError, match="symmetric") as info:
        load_condensed(directory)
    assert str(info.value).startswith(f"{directory}:")
    assert "\n" not in str(info.value)


def test_config_hash_order_independent_and_sensitive():
    a = {"alpha": 0.8, "T": 5, "flag": True}
    b = {"flag": True, "T": 5, "alpha": 0.8}
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash({**a, "alpha": 0.81})
    assert len(config_hash(a)) == 16


def test_template_writers_match_per_pair_format(tmp_path):
    ds = _dataset(seed=5, n=300, k=12)
    save_dataset(ds, tmp_path / "d")
    # the removed writers: one f-string per numpy edge pair and per label
    edges = "".join(f"{i}\t{j}\n" for i, j in ds.graph.undirected_edges())
    labels = "".join(f"{y}\n" for y in ds.labels)
    assert (tmp_path / "d" / "edges.tsv").read_bytes() == edges.encode()
    assert (tmp_path / "d" / "labels.txt").read_bytes() == labels.encode()
    y = np.eye(12)[ds.labels[:40]]
    save_condensed(CondensedGraph(ds.features[:40], np.eye(40), y), tmp_path / "c")
    y_prime = "".join(f"{c}\n" for c in np.argmax(y, axis=1))
    assert (tmp_path / "c" / "y_prime.txt").read_bytes() == y_prime.encode()


def test_row_template_writer_matches_per_value_format(tmp_path):
    rng = np.random.default_rng(9)
    x = rng.standard_normal((100, 1000)) * 10.0 ** rng.integers(-320, 300, size=(100, 1000))
    tiny = np.finfo(np.float64).smallest_subnormal
    big = np.finfo(np.float64).max
    x[0, :11] = [-0.0, 0.0, tiny, -tiny, 3 * tiny, 1e-310, big, -big, 1.0 / 3.0, 1e16, 123.0]
    a = np.abs(x[:, :100])
    a = np.minimum(a, a.T)
    y = np.eye(2)[np.arange(100) % 2]
    save_condensed(CondensedGraph(x, a, y), tmp_path / "c")
    assert (tmp_path / "c" / "x_prime.csv").read_text() == _per_value_rows(x)
    assert (tmp_path / "c" / "a_prime.csv").read_text() == _per_value_rows(a)
    ds = _dataset()
    ds.features = x[: ds.num_nodes, : ds.num_features].copy()
    save_dataset(ds, tmp_path / "d")
    assert (tmp_path / "d" / "features.csv").read_text() == _per_value_rows(ds.features)


def _lane_edges():
    """Values at the edges of the writer's numpy lanes, with both signs.

    The multiples of powers of two are round-half-even ties inside the
    lanes: their exact decimals have 18 significant digits, the last a 5.
    """
    tiny = np.finfo(np.float64).smallest_subnormal
    edges = [0.0, 1000000000000000.25, 1000000000000000.75, 9.99999999999999999e-5,
             1 + 2**-17, 1 + 3 * 2**-17, 100001 * 2**-18, 43 * 2**-22, 45 * 2**-22,
             0.99999999999999999, 9999999999999999.5, tiny, 3 * tiny, 1e-310,
             np.finfo(np.float64).max, np.nan, np.inf]
    for k in range(-12, 17):
        p = 10.0**k
        edges += [np.nextafter(p, 0.0), p, np.nextafter(p, np.inf)]
    return edges + [-v for v in edges]


_SHAPES = st.tuples(st.integers(1, 5), st.integers(1, 8))


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@example(np.array([_lane_edges()]))
@given(
    st.one_of(
        arrays(np.float64, _SHAPES, elements=st.sampled_from(_lane_edges())),
        arrays(np.float64, _SHAPES, elements=st.floats(-10.0, 10.0)),
        # mostly zero, with weights below 1e-4, as in A'
        arrays(np.float64, _SHAPES, elements=st.floats(0.0, 1e-4, exclude_max=True),
               fill=st.just(0.0)),
        arrays(np.float64, _SHAPES),
    )
)
def test_writer_matches_per_value_format_at_lane_edges(matrix):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.csv"
        dataio._write_matrix(path, matrix)
        assert path.read_bytes() == _per_value_rows(matrix).encode()


def _sbm_large_like_adjacency(n, seed=0):
    """A symmetric A' drawn with sbm-large's mix at seed 11, then mirrored.

    The draw makes 68% of the entries exact zeros and 15% nonzero below
    1e-4, as in that A'; mirroring the upper triangle keeps about as many.
    """
    rng = np.random.default_rng(seed)
    u = rng.random((n, n))
    small = rng.uniform(1.5e-5, 1e-4, (n, n))
    large = rng.uniform(1e-4, 8e-3, (n, n))
    a = np.where(u < 0.68, 0.0, np.where(u < 0.83, small, large))
    return np.triu(a) + np.triu(a, 1).T


def _condensed(x, a, labels, K):
    return CondensedGraph(x, a, np.eye(K)[labels], meta={"dataset": "prop", "ratio": 0.026})


_SBM_LARGE_LIKE = _condensed(
    np.random.default_rng(1).standard_normal((60, 4)) * 1e-3,
    _sbm_large_like_adjacency(60),
    np.arange(60) % 8,
    8,
)


@st.composite
def _condensed_graphs(draw):
    n, d, K = draw(st.integers(1, 7)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    x = draw(arrays(np.float64, (n, d), elements=st.floats(allow_nan=False, allow_infinity=False)))
    weights = st.one_of(st.floats(0.0, 1e-4, exclude_max=True), st.floats(1e-4, 10.0))
    upper = draw(arrays(np.float64, (n, n), elements=weights, fill=st.just(0.0)))
    labels = draw(arrays(np.int64, n, elements=st.integers(0, K - 1)))
    return _condensed(x, np.triu(upper) + np.triu(upper, 1).T, labels, K)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(_condensed_graphs())
@example(_SBM_LARGE_LIKE)
def test_condensed_directories_round_trip_bitwise(condensed):
    with tempfile.TemporaryDirectory() as tmp:
        save_condensed(condensed, Path(tmp) / "c")
        back = load_condensed(Path(tmp) / "c")
        save_condensed(back, Path(tmp) / "c2")
        for name in ("x_prime.csv", "a_prime.csv", "y_prime.txt", "meta.toml"):
            assert (Path(tmp) / "c" / name).read_bytes() == (Path(tmp) / "c2" / name).read_bytes()
    for name in ("x_prime", "a_prime", "y_prime"):
        assert getattr(back, name).tobytes() == getattr(condensed, name).tobytes()
    assert back.meta == {**condensed.meta, "n": condensed.num_nodes,
                         "d": condensed.x_prime.shape[1], "K": condensed.num_classes}


# the binary copy of features.csv

DATASET_FILES = ["edges.tsv", "features.csv", "labels.txt", "masks.txt", "meta.toml"]


def _extreme_features(shape, seed=3):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-320, 300, size=shape)
    tiny = np.finfo(np.float64).smallest_subnormal
    big = np.finfo(np.float64).max
    x.flat[:9] = [-0.0, 0.0, tiny, -tiny, 3 * tiny, 1e-310, big, -big, 1.0 / 3.0]
    return x


@pytest.fixture
def parses(monkeypatch):
    """The paths _read_matrix is called with, in call order."""
    calls = []
    read = dataio._read_matrix

    def spy(path, shape=None):
        calls.append(Path(path).name)
        return read(path, shape)

    monkeypatch.setattr(dataio, "_read_matrix", spy)
    return calls


def test_first_load_writes_the_feature_copy(tmp_path, parses):
    save_dataset(_dataset(), tmp_path / "d")
    assert sorted(p.name for p in (tmp_path / "d").iterdir()) == DATASET_FILES
    load_dataset(tmp_path / "d")
    assert parses == ["features.csv"]
    assert sorted(p.name for p in (tmp_path / "d").iterdir()) == sorted(
        DATASET_FILES + [FEATURE_COPY]
    )


def test_second_load_reads_the_copy_bitwise(tmp_path, parses):
    ds = _dataset()
    ds.features = _extreme_features(ds.features.shape)
    save_dataset(ds, tmp_path / "d")
    parsed = load_dataset(tmp_path / "d").features
    assert parses == ["features.csv"]
    copied = load_dataset(tmp_path / "d").features
    assert parses == ["features.csv"]
    assert copied.dtype == np.float64 and copied.shape == ds.features.shape
    assert copied.tobytes() == parsed.tobytes() == ds.features.tobytes()


def test_edited_csv_is_parsed_again(tmp_path, parses):
    save_dataset(_dataset(), tmp_path / "d")
    load_dataset(tmp_path / "d")
    feats = tmp_path / "d" / "features.csv"
    lines = feats.read_text().splitlines()
    lines[3] = "1.5,-2.5,0.25,8"
    feats.write_text("\n".join(lines) + "\n")
    assert np.array_equal(load_dataset(tmp_path / "d").features[3], [1.5, -2.5, 0.25, 8.0])
    assert parses == ["features.csv"] * 2
    lines[6] = "1.5,-2.5,x,8"
    feats.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetFormatError, match=r"features\.csv:7: unparseable float"):
        load_dataset(tmp_path / "d")
    # a new dataset saved over the directory replaces the features
    other = _dataset(seed=4)
    save_dataset(other, tmp_path / "d")
    assert np.array_equal(load_dataset(tmp_path / "d").features, other.features)


def _csv_digest(directory):
    return hashlib.sha256((directory / "features.csv").read_bytes()).hexdigest()


def _truncate(directory, features):
    path = directory / FEATURE_COPY
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _flip_data_byte(directory, features):
    path = directory / FEATURE_COPY
    raw = bytearray(path.read_bytes())
    start = bytes(raw).index(features.tobytes())
    raw[start + features.nbytes // 2] ^= 0x10
    path.write_bytes(bytes(raw))


def _replace_matrix(matrix_of):
    def damage(directory, features):
        with open(directory / FEATURE_COPY, "wb") as fh:
            np.savez(fh, digest=np.array(_csv_digest(directory)), features=matrix_of(features))
    return damage


@pytest.mark.parametrize(
    "damage",
    [
        _truncate,
        _flip_data_byte,
        _replace_matrix(lambda x: x[:-1]),
        _replace_matrix(lambda x: x.T.copy()),
        _replace_matrix(lambda x: x.astype(np.float32)),
        _replace_matrix(lambda x: np.where(np.arange(x.shape[1]) == 2, np.nan, x)),
    ],
    ids=["truncated", "flipped-byte", "short", "transposed", "float32", "non-finite"],
)
def test_damaged_copy_is_ignored_and_rewritten(tmp_path, parses, damage):
    ds = _dataset()
    save_dataset(ds, tmp_path / "d")
    load_dataset(tmp_path / "d")
    damage(tmp_path / "d", ds.features)
    assert load_dataset(tmp_path / "d").features.tobytes() == ds.features.tobytes()
    assert parses == ["features.csv"] * 2
    assert load_dataset(tmp_path / "d").features.tobytes() == ds.features.tobytes()
    assert parses == ["features.csv"] * 2


def test_failed_copy_write_still_loads(tmp_path, monkeypatch):
    ds = _dataset()
    save_dataset(ds, tmp_path / "d")

    def refuse(src, dst):
        raise OSError("read-only file system")

    monkeypatch.setattr(os, "replace", refuse)
    for _ in range(2):
        assert np.array_equal(load_dataset(tmp_path / "d").features, ds.features)
        assert sorted(p.name for p in (tmp_path / "d").iterdir()) == DATASET_FILES


def test_csv_changed_while_parsed_leaves_no_copy(tmp_path, monkeypatch):
    ds = _dataset()
    save_dataset(ds, tmp_path / "d")
    other = _dataset(seed=4)
    read = dataio._read_matrix

    def read_then_edit(path, shape=None):
        matrix = read(path, shape)
        save_dataset(other, tmp_path / "d")
        return matrix

    monkeypatch.setattr(dataio, "_read_matrix", read_then_edit)
    assert np.array_equal(load_dataset(tmp_path / "d").features, ds.features)
    assert not (tmp_path / "d" / FEATURE_COPY).exists()
    monkeypatch.undo()
    assert np.array_equal(load_dataset(tmp_path / "d").features, other.features)


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(
    arrays(np.float64, st.tuples(st.integers(3, 12), st.integers(1, 5)),
           elements=st.floats(allow_nan=False, allow_infinity=False))
)
def test_save_then_two_loads_round_trip_bitwise(features):
    ds = _dataset(n=features.shape[0], k=2)
    ds.features = features
    with tempfile.TemporaryDirectory() as tmp:
        save_dataset(ds, tmp)
        parsed = load_dataset(tmp).features
        copied = load_dataset(tmp).features
    assert parsed.tobytes() == copied.tobytes() == features.tobytes()
