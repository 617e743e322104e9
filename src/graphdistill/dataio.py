"""On-disk dataset and condensed-graph formats.

A dataset directory holds edges.tsv (one undirected edge per line, 0-based
ids), features.csv, labels.txt, masks.txt (train/val/test/none tokens) and
a flat meta.toml with N, M, d, K. A condensed directory holds x_prime.csv,
a_prime.csv, y_prime.txt and meta.toml. Floats are written with 17
significant digits so a load/save round trip is lossless and two runs with
equal inputs produce byte-identical files.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from .condense import CondensedGraph
from .graph import Dataset, SparseGraph


class DatasetFormatError(ValueError):
    def __init__(self, path: Path | str, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path = str(path)
        self.line = line


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# meta files stay within a flat key = value TOML subset


def dump_flat_toml(entries: dict, path: Path) -> None:
    lines = []
    for key, value in entries.items():
        if isinstance(value, bool):
            rendered = "true" if value else "false"
        elif isinstance(value, (int, np.integer)):
            rendered = str(int(value))
        elif isinstance(value, (float, np.floating)):
            rendered = _fmt(value)
        else:
            rendered = '"' + str(value).replace("\\", "\\\\").replace('"', '\\"') + '"'
        lines.append(f"{key} = {rendered}")
    path.write_text("\n".join(lines) + "\n")


def load_flat_toml(path: Path) -> dict:
    out: dict = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DatasetFormatError(path, lineno, "expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if value.startswith('"') and value.endswith('"') and len(value) >= 2:
            out[key] = value[1:-1].replace('\\"', '"').replace("\\\\", "\\")
        elif value in ("true", "false"):
            out[key] = value == "true"
        else:
            try:
                out[key] = int(value)
            except ValueError:
                try:
                    out[key] = float(value)
                except ValueError:
                    raise DatasetFormatError(path, lineno, f"unparseable value {value!r}")
    return out


def save_dataset(dataset: Dataset, directory: Path | str) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    edges = dataset.graph.undirected_edges()
    with open(directory / "edges.tsv", "w") as fh:
        for i, j in edges:
            fh.write(f"{i}\t{j}\n")
    with open(directory / "features.csv", "w") as fh:
        for row in dataset.features:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    with open(directory / "labels.txt", "w") as fh:
        for y in dataset.labels:
            fh.write(f"{y}\n")
    tokens = np.full(dataset.num_nodes, "none", dtype=object)
    tokens[dataset.train_mask] = "train"
    tokens[dataset.val_mask] = "val"
    tokens[dataset.test_mask] = "test"
    with open(directory / "masks.txt", "w") as fh:
        fh.writelines(f"{t}\n" for t in tokens)
    dump_flat_toml(
        {
            "name": dataset.name,
            "N": dataset.num_nodes,
            "M": dataset.graph.num_edges,
            "d": dataset.num_features,
            "K": dataset.num_classes,
        },
        directory / "meta.toml",
    )


def load_dataset(directory: Path | str) -> Dataset:
    directory = Path(directory)
    meta = load_flat_toml(directory / "meta.toml")
    for key in ("N", "M", "d", "K"):
        if key not in meta:
            raise DatasetFormatError(directory / "meta.toml", 0, f"missing key {key}")
    N, M, d, K = meta["N"], meta["M"], meta["d"], meta["K"]

    edge_path = directory / "edges.tsv"
    edges = []
    for lineno, raw in enumerate(edge_path.read_text().splitlines(), start=1):
        parts = raw.split()
        if len(parts) != 2:
            raise DatasetFormatError(edge_path, lineno, "expected two node ids")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise DatasetFormatError(edge_path, lineno, "node ids must be integers")
    if len(edges) != M:
        raise DatasetFormatError(edge_path, len(edges), f"expected {M} edges")

    feat_path = directory / "features.csv"
    features = _read_features(feat_path, N, d)

    label_path = directory / "labels.txt"
    labels = []
    for lineno, raw in enumerate(label_path.read_text().splitlines(), start=1):
        try:
            labels.append(int(raw.strip()))
        except ValueError:
            raise DatasetFormatError(label_path, lineno, "labels must be integers")
        if not 0 <= labels[-1] < K:
            raise DatasetFormatError(label_path, lineno, "label outside [0, K)")
    if len(labels) != N:
        raise DatasetFormatError(label_path, len(labels), f"expected {N} labels")

    mask_path = directory / "masks.txt"
    tokens = []
    for lineno, raw in enumerate(mask_path.read_text().splitlines(), start=1):
        token = raw.strip()
        if token not in ("train", "val", "test", "none"):
            raise DatasetFormatError(mask_path, lineno, f"unknown mask token {token!r}")
        tokens.append(token)
    if len(tokens) != N:
        raise DatasetFormatError(mask_path, len(tokens), f"expected {N} tokens")
    tokens = np.array(tokens)

    graph = SparseGraph.from_edges(N, np.array(edges, dtype=np.int64).reshape(-1, 2))
    return Dataset(
        graph,
        features,
        np.array(labels, dtype=np.int64),
        tokens == "train",
        tokens == "val",
        tokens == "test",
        K,
        name=str(meta.get("name", directory.name)),
    )


def _read_features(path: Path, N: int, d: int) -> np.ndarray:
    """N x d float matrix; a malformed or non-finite entry names its line."""
    lines = path.read_text().splitlines()
    features = None
    if 0 < N == len(lines):
        # loadtxt skips blank lines, so it is trusted only when it returns
        # one row per line
        try:
            loaded = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            loaded = None
        if loaded is not None and loaded.shape == (N, d):
            features = loaded
    if features is None:
        # the line loop finds the first malformed line
        rows = []
        for lineno, raw in enumerate(lines, start=1):
            parts = raw.split(",")
            if len(parts) != d:
                raise DatasetFormatError(path, lineno, f"expected {d} values")
            try:
                rows.append([float(v) for v in parts])
            except ValueError:
                raise DatasetFormatError(path, lineno, "unparseable float")
        if len(rows) != N:
            raise DatasetFormatError(path, len(rows), f"expected {N} rows")
        features = np.array(rows, dtype=np.float64).reshape(N, d)
    bad = np.flatnonzero(~np.isfinite(features).all(axis=1))
    if bad.size:
        raise DatasetFormatError(path, int(bad[0]) + 1, "non-finite value")
    return features


def save_condensed(condensed: CondensedGraph, directory: Path | str) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / "x_prime.csv", "w") as fh:
        for row in condensed.x_prime:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    with open(directory / "a_prime.csv", "w") as fh:
        for row in condensed.a_prime:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    with open(directory / "y_prime.txt", "w") as fh:
        for y in condensed.labels:
            fh.write(f"{y}\n")
    meta = dict(condensed.meta)
    meta.setdefault("n", condensed.num_nodes)
    meta.setdefault("d", condensed.x_prime.shape[1])
    meta.setdefault("K", condensed.num_classes)
    dump_flat_toml(meta, directory / "meta.toml")


def load_condensed(directory: Path | str) -> CondensedGraph:
    directory = Path(directory)
    meta = load_flat_toml(directory / "meta.toml")
    x_prime = _read_csv_matrix(directory / "x_prime.csv")
    a_prime = _read_csv_matrix(directory / "a_prime.csv")
    label_path = directory / "y_prime.txt"
    labels = []
    for lineno, raw in enumerate(label_path.read_text().splitlines(), start=1):
        try:
            labels.append(int(raw.strip()))
        except ValueError:
            raise DatasetFormatError(label_path, lineno, "labels must be integers")
    K = int(meta.get("K", max(labels) + 1))
    y_prime = np.zeros((len(labels), K))
    y_prime[np.arange(len(labels)), labels] = 1.0
    return CondensedGraph(x_prime, a_prime, y_prime, meta)


def _read_csv_matrix(path: Path) -> np.ndarray:
    rows = []
    width = None
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        parts = raw.split(",")
        if width is None:
            width = len(parts)
        elif len(parts) != width:
            raise DatasetFormatError(path, lineno, "ragged row")
        try:
            rows.append([float(v) for v in parts])
        except ValueError:
            raise DatasetFormatError(path, lineno, "unparseable float")
    if not rows:
        raise DatasetFormatError(path, 0, "empty matrix")
    return np.array(rows, dtype=np.float64)


def config_hash(entries: dict) -> str:
    """Order-independent digest of a flat config mapping."""
    canon = []
    for key in sorted(entries):
        value = entries[key]
        if isinstance(value, bool):
            rendered = "true" if value else "false"
        elif isinstance(value, float):
            rendered = _fmt(value)
        else:
            rendered = str(value)
        canon.append(f"{key}={rendered}")
    digest = hashlib.sha256("\n".join(canon).encode()).hexdigest()
    return digest[:16]
