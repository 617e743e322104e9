"""On-disk dataset and condensed-graph formats.

A dataset directory holds edges.tsv (one undirected edge per line, 0-based
ids), features.csv, labels.txt, masks.txt (train/val/test/none tokens) and
a flat meta.toml with N, M, d, K. A condensed directory holds x_prime.csv,
a_prime.csv, y_prime.txt and meta.toml. Floats are written with 17
significant digits so a load/save round trip is lossless and two runs with
equal inputs produce byte-identical files. A CSV matrix holds, per value,
the bytes of '%.17g' % v: _format_rows forms them in numpy from each
value's exact 17-digit significand, a block of rows at a time, and leaves
only the values outside its lanes (subnormals, |x| < 1e-11 or >= 10,
NaN, +-inf) to Python's formatting.

load_dataset parses features.csv once per directory: it keeps the parsed
matrix in FEATURE_COPY beside it, keyed by the sha256 of the CSV's bytes,
and later loads read that copy while the digest still matches. The CSV
stays the only source of truth; deleting the copy is always safe.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import os
import threading
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


def _write_lines(path: Path, template: str, rows) -> None:
    """One line per row, each one % operation on template."""
    with open(path, "w") as fh:
        fh.writelines(template % row for row in rows)


# CSV matrices: '%.17g' text formed in numpy, a block of rows at a time

# values per block, so that a block's temporaries stay near 2 MB
_BLOCK_VALUES = 8192
# the decimal exponents formed in numpy; 5**(16 - _LOW_E10) must stay below 2**64.
# Every value the benchmark's workloads write lies below 10 in magnitude.
_LOW_E10, _HIGH_E10 = -11, 0
_POW5 = np.array([5**k for k in range(17 - _LOW_E10)], dtype=np.uint64)
_M32, _U32 = np.uint64(0xFFFFFFFF), np.uint64(32)
_HALF = np.uint64(1 << 63)
_P4, _P8, _P16, _P17 = (np.uint64(10**k) for k in (4, 8, 16, 17))
_SLOT = 32  # bytes per value, NUL-padded


def _word(text: bytes) -> int:
    """text as the little-endian value of 8 bytes, NUL-padded."""
    return int.from_bytes(text.ljust(8, b"\0"), "little")


@functools.cache
def _slot_tables() -> tuple[np.ndarray, ...]:
    """The lookup tables of _format_rows, built on its first call.

    groups: a 4-digit group g as 4 ASCII bytes at [g], and with its
    trailing zeros blanked at [10000 + g]. heads and tails, indexed by
    e10 - _LOW_E10: slot bytes 0-7 and 24-31, which hold the "0.000" head
    of e10 in [-4, -1] and the "e-XX" tail of e10 below -4.
    """
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    table = np.empty((2, 10, 10, 10, 10, 4), dtype=np.uint8)
    for j in range(4):
        table[..., j] = digit.reshape([10 if i == j else 1 for i in range(4)])
    for j in range(4):  # the second half blanks digit j when digits j.. are all '0'
        table[(1,) + (slice(None),) * j + (0,) * (4 - j)][..., j] = 0
    groups = table.reshape(-1, 4).view("<u4").ravel()
    e10s = range(_LOW_E10, _HIGH_E10 + 1)
    heads = np.array([_word(b"\0" + b"0." + b"0" * (-e - 1) if -4 <= e < 0 else b"") for e in e10s],
                     dtype=np.uint64)
    tails = np.array([_word(b"e-%02d" % -e if e < -4 else b"") for e in e10s], dtype=np.uint64)
    return groups, heads, tails


def _significand(a: np.ndarray, e10: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Floor and round-half-even of a * 10**(16 - e10), exactly, as uint64.

    a holds normal positive doubles with 1e-11 <= a < 10, and e10 is within
    one of floor(log10(a)). Each a is m * 2**q with m < 2**53, so the product
    is m * 5**k * 2**(q + k) with k = 16 - e10 in [16, 27]: the 128-bit
    m * 5**k, in uint64 halves, shifted right by -(q + k), which lies in
    [33, 62]. The result is exact whenever it is below 2**64.
    """
    bits = a.view(np.uint64)
    m = (bits & np.uint64((1 << 52) - 1)) | np.uint64(1 << 52)
    k = 16 - e10
    f = _POW5[k]
    ml, mh, fl, fh = m & _M32, m >> _U32, f & _M32, f >> _U32
    ll, lh, hl = ml * fl, ml * fh, mh * fl
    mid = (ll >> _U32) + (lh & _M32) + (hl & _M32)
    lo = (ll & _M32) | (mid << _U32)
    hi = mh * fh + (lh >> _U32) + (hl >> _U32) + (mid >> _U32)
    # with up = 64 + q + k in [2, 31], (hi, lo) >> -(q + k) is the high word of (hi, lo) << up
    up = ((bits >> np.uint64(52)).astype(np.int64) + (k - 1075 + 64)).astype(np.uint64)
    floor = (hi << up) | (lo >> (np.uint64(64) - up))
    rest = lo << up
    return floor, floor + ((rest > _HALF) | ((rest == _HALF) & (floor & np.uint64(1) == 1)))


def _format_rows(values: np.ndarray, width: int) -> bytes:
    """The bytes '%.17g' % v gives for each value, each followed by ',' or, at a row's end, '\\n'.

    values is a flat block of whole rows of the given width. Every value gets
    a slot of _SLOT bytes, and the NUL bytes that pad the slots are deleted
    at the end. A value with 1e-11 <= |x| < 10 is formed in numpy from its
    17 significant digits, sig = round-half-even(|x| * 10**(16 - e10)),
    exact by _significand. e10 is the decimal exponent after that rounding:
    np.log10's estimate moves by one while sig misses [10**16, 10**17). As
    in '%.17g', it prints positional for e10 >= -4 and scientific below,
    with the fraction's trailing zeros and a bare point dropped. Zeros are
    sig = 0 at e10 = 0. Every other value (subnormals, |x| < 1e-11 or
    >= 10, NaN, +-inf) is formatted by Python.

    Slot bytes: 0 the sign, 1-5 the head "0." to "0.000", 6 the first digit,
    7 the point after it, 8-23 the other 16 digits, 24-27 the tail "e-XX",
    28 the separator.
    """
    groups, heads, tails = _slot_tables()
    n = values.size
    a = np.abs(values)
    lane = np.flatnonzero((a >= 1e-11) & (a < 10))
    a_lane = a[lane]
    e10 = np.clip(np.floor(np.log10(a_lane)).astype(np.int64), _LOW_E10, _HIGH_E10)
    floor, sig = _significand(a_lane, e10)
    kept = np.ones(lane.size, dtype=bool)
    # a value moves once at most: no double lies within half a 17th-digit unit
    # below a power of ten, so no rounding carries into the next exponent
    while (off := np.flatnonzero(kept & ((floor < _P16) | (sig >= _P17)))).size:
        e10[off] += np.where(sig[off] >= _P17, 1, -1)
        kept[off] = (e10[off] >= _LOW_E10) & (e10[off] <= _HIGH_E10)
        off = off[kept[off]]
        floor[off], sig[off] = _significand(a_lane[off], e10[off])
    lane = lane[kept]
    exps = np.zeros(n, dtype=np.int64)
    exps[lane] = e10[kept]
    sigs = np.zeros(n, dtype=np.uint64)
    sigs[lane] = sig[kept]

    first = sigs // _P16
    rest = sigs - first * _P16
    high, low = rest // _P8, rest % _P8
    g1, g2, g3, g4 = high // _P4, high % _P4, low // _P4, low % _P4
    slots = np.empty((n, _SLOT), dtype=np.uint8)
    words = slots.view("<u8")
    quads = slots.view("<u4")
    # a group's trailing zeros are blanked when every later group is zero
    blank3 = g4 == 0
    blank2 = blank3 & (g3 == 0)
    blank1 = blank2 & (g2 == 0)
    quads[:, 2] = groups[g1 + _P4 * blank1]
    quads[:, 3] = groups[g2 + _P4 * blank2]
    quads[:, 4] = groups[g3 + _P4 * blank3]
    quads[:, 5] = groups[g4 + _P4]
    point = ((exps == 0) | (exps < -4)) & (slots[:, 8] != 0)
    words[:, 0] = (
        heads[exps - _LOW_E10]
        | np.signbit(values) * np.uint64(ord("-"))
        | (first + np.uint64(ord("0"))) << np.uint64(48)
        | point * np.uint64(ord(".") << 56)
    )
    ends = np.full(n, ord(","), dtype=np.uint64)
    ends[width - 1 :: width] = ord("\n")
    words[:, 3] = tails[exps - _LOW_E10] | ends << _U32

    other = a != 0
    other[lane] = False
    other = np.flatnonzero(other)
    if other.size:
        texts = ["%.17g%c" % (v, c) for v, c in zip(values[other].tolist(), ends[other].tolist())]
        slots[other] = np.array(texts, dtype=f"S{_SLOT}").view(np.uint8).reshape(-1, _SLOT)
    return slots.tobytes().translate(None, b"\0")


def _write_matrix(path: Path, matrix: np.ndarray) -> None:
    """One line per row, each value as '%.17g' formats it, comma-separated."""
    matrix = np.asarray(matrix, dtype=np.float64)
    rows, width = matrix.shape
    with open(path, "wb") as fh:
        if width == 0:
            fh.write(b"\n" * rows)
            return
        step = max(1, _BLOCK_VALUES // width)
        for start in range(0, rows, step):
            fh.write(_format_rows(matrix[start : start + step].ravel(), width))


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
    _write_lines(directory / "edges.tsv", "%d\t%d\n", map(tuple, edges.tolist()))
    _write_matrix(directory / "features.csv", dataset.features)
    _write_lines(directory / "labels.txt", "%d\n", dataset.labels.tolist())
    tokens = np.full(dataset.num_nodes, "none", dtype=object)
    tokens[dataset.train_mask] = "train"
    tokens[dataset.val_mask] = "val"
    tokens[dataset.test_mask] = "test"
    _write_lines(directory / "masks.txt", "%s\n", tokens)
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
    if d < 1:
        raise DatasetFormatError(directory / "meta.toml", 0, f"feature width d = {d} is below 1")

    edge_path = directory / "edges.tsv"
    edges = _loadtxt_rows(edge_path, dtype=np.int64)
    if edges is None or edges.shape[1] != 2:
        # the line loop names the first malformed line
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

    features = _read_features(directory / "features.csv", (N, d))

    label_path = directory / "labels.txt"
    labels, _ = _read_labels(label_path, K)
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

    graph = SparseGraph.from_edges(N, np.asarray(edges, dtype=np.int64).reshape(-1, 2))
    return Dataset(
        graph,
        features,
        labels,
        tokens == "train",
        tokens == "val",
        tokens == "test",
        K,
        name=str(meta.get("name", directory.name)),
    )


# bytes other than \n that str.splitlines ends an ASCII line at
_OTHER_LINE_BREAKS = (b"\r", b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e")


def _loadtxt_rows(path: Path, **loadtxt_kw) -> np.ndarray | None:
    """np.loadtxt of path as a 2-d array with one row per line, else None.

    loadtxt skips blank lines, so its result is trusted only when it has as
    many rows as the file has lines. The lines are counted from the bytes,
    a chunk at a time, which must be ASCII and end lines at \n alone, so
    the count is the one str.splitlines gives. None (also for an empty file
    or a value loadtxt refuses) leaves the caller's line loop to read the
    file.
    """
    lines, last = 0, b"\n"
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            if not chunk.isascii() or any(b in chunk for b in _OTHER_LINE_BREAKS):
                return None
            lines += chunk.count(b"\n")
            last = chunk[-1:]
    if last != b"\n":
        lines += 1
    if not lines:
        return None
    try:
        rows = np.loadtxt(path, comments=None, ndmin=2, **loadtxt_kw)
    except ValueError:
        return None
    return rows if len(rows) == lines else None


def _read_matrix(path: Path, shape: tuple[int, int] | None = None) -> np.ndarray:
    """Float matrix with one comma-separated row per line.

    Given shape (rows, width), a line of another width or another row count
    is refused; without it every line must have the first line's width. A
    malformed or non-finite entry names its line.
    """
    matrix = _loadtxt_rows(path, delimiter=",")
    if matrix is None or (shape is not None and matrix.shape != shape):
        # the line loop finds the first malformed line
        width = None if shape is None else shape[1]
        rows = []
        for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
            parts = raw.split(",")
            width = len(parts) if width is None else width
            if len(parts) != width:
                message = "ragged row" if shape is None else f"expected {width} values"
                raise DatasetFormatError(path, lineno, message)
            try:
                rows.append([float(v) for v in parts])
            except ValueError:
                raise DatasetFormatError(path, lineno, "unparseable float")
        if shape is not None and len(rows) != shape[0]:
            raise DatasetFormatError(path, len(rows), f"expected {shape[0]} rows")
        if not rows:
            raise DatasetFormatError(path, 0, "empty matrix")
        matrix = np.array(rows, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(matrix).all(axis=1))
    if bad.size:
        raise DatasetFormatError(path, int(bad[0]) + 1, "non-finite value")
    return matrix


FEATURE_COPY = "features.cache.npz"


def _file_digest(path: Path) -> str:
    """Hex sha256 of path's bytes, read 1 MiB at a time."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            h.update(chunk)
    return h.hexdigest()


def _read_features(path: Path, shape: tuple[int, int]) -> np.ndarray:
    """_read_matrix(path, shape), through the binary copy FEATURE_COPY beside path.

    The copy holds the sha256 of path's bytes and the parsed matrix. It is
    used only when its digest is path's, its zip CRC checks, and its matrix
    has the given shape, dtype float64 and only finite values. Otherwise
    path is parsed and the copy rewritten through a temporary file and
    os.replace; a directory that cannot take it loads as without it.
    """
    before = os.stat(path)
    digest = _file_digest(path)
    copy_path = path.with_name(FEATURE_COPY)
    try:
        with np.load(copy_path, allow_pickle=False) as copy:
            if copy["digest"][()] == digest:
                matrix = copy["features"]
                if (matrix.shape == shape and matrix.dtype == np.float64
                        and np.isfinite(matrix).all()):
                    return matrix
    except Exception:
        # a missing or damaged copy raises one of many types (OSError,
        # BadZipFile, KeyError, ValueError, EOFError, RuntimeError, ...);
        # each means the same thing: parse the CSV
        pass
    matrix = _read_matrix(path, shape)
    after = os.stat(path)
    if (before.st_ino, before.st_size, before.st_mtime_ns) != (
        after.st_ino, after.st_size, after.st_mtime_ns
    ):
        return matrix  # the file changed under the digest; keep no copy of it
    tmp = path.with_name(f"{FEATURE_COPY}.{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, digest=np.array(digest), features=matrix)
        os.replace(tmp, copy_path)
    except OSError:
        with contextlib.suppress(OSError):
            tmp.unlink()
    return matrix


def _read_labels(path: Path, K: int | None) -> tuple[np.ndarray, int]:
    """Integer class ids, one per line, and K; each id must lie in [0, K).

    K None takes the largest id plus one.
    """
    labels = []
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        try:
            labels.append(int(raw.strip()))
        except ValueError:
            raise DatasetFormatError(path, lineno, "labels must be integers")
    K = max(labels, default=-1) + 1 if K is None else int(K)
    for lineno, y in enumerate(labels, start=1):
        if not 0 <= y < K:
            raise DatasetFormatError(path, lineno, f"label outside [0, {K})")
    return np.array(labels, dtype=np.int64), K


def save_condensed(condensed: CondensedGraph, directory: Path | str) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    _write_matrix(directory / "x_prime.csv", condensed.x_prime)
    _write_matrix(directory / "a_prime.csv", condensed.a_prime)
    _write_lines(directory / "y_prime.txt", "%d\n", condensed.labels.tolist())
    meta = dict(condensed.meta)
    meta.setdefault("n", condensed.num_nodes)
    meta.setdefault("d", condensed.x_prime.shape[1])
    meta.setdefault("K", condensed.num_classes)
    dump_flat_toml(meta, directory / "meta.toml")


def load_condensed(directory: Path | str) -> CondensedGraph:
    """Read a condensed directory; refuses anything CondensedGraph.validate would.

    A label outside [0, K) or a non-finite matrix entry names its file and
    line; a triple that fails validation names the directory.
    """
    directory = Path(directory)
    meta = load_flat_toml(directory / "meta.toml")
    x_prime = _read_matrix(directory / "x_prime.csv")
    a_prime = _read_matrix(directory / "a_prime.csv")
    labels, K = _read_labels(directory / "y_prime.txt", meta.get("K"))
    y_prime = np.zeros((len(labels), K))
    y_prime[np.arange(len(labels)), labels] = 1.0
    condensed = CondensedGraph(x_prime, a_prime, y_prime, meta)
    try:
        condensed.validate()
    except ValueError as exc:
        raise DatasetFormatError(directory, 0, str(exc)) from exc
    return condensed


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
