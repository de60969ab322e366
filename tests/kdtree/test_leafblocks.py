"""Tests for the SoA leaf-block columns, their distance kernels and the
snapshot layouts that carry (or used to carry) leaf blocks."""

import json

import numpy as np
import pytest

from repro.core.config import PandaConfig
from repro.core.panda import PandaKNN
from repro.io.column_store import ColumnStore
from repro.kdtree.build import build_kdtree
from repro.kdtree.leafblocks import LeafBlocks, gather_columns_sq, scan_columns_sq
from repro.kdtree.query import batch_knn
from repro.kdtree.serialize import SNAPSHOT_VERSION, load_kdtree, save_kdtree
from repro.kdtree.validate import check_snapshot_roundtrip


def _make_legacy_npz(path):
    """Add the float32-tier extras older version-2 writers stored to an npz
    tree snapshot: ``blocks_coords32`` and a ``precision`` config key."""
    with np.load(path) as data:
        arrays = {name: data[name] for name in data.files}
    meta = json.loads(bytes(arrays["meta"]).decode())
    meta["config"]["precision"] = "float32"
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    arrays["blocks_coords32"] = np.ascontiguousarray(arrays["points"].T.astype(np.float32))
    np.savez(path, **arrays)


def _make_legacy_columns(root):
    """ColumnStore counterpart of :func:`_make_legacy_npz`."""
    store = ColumnStore(root / "points")
    columns = {name: store.read_column(name) for name in store.column_names()}
    for name in [n for n in columns if n.startswith("dim")]:
        columns[f"blocks_coords32_{name}"] = columns[name].astype(np.float32)
    ColumnStore(root / "points", chunk_size=store.manifest()["chunk_size"]).write(columns)
    meta_path = root / "tree_meta.json"
    meta = json.loads(meta_path.read_text())
    meta["config"]["precision"] = "float32"
    meta_path.write_text(json.dumps(meta))


class TestLeafBlocks:
    def test_derived_from_leaf_ordered_points(self):
        rng = np.random.default_rng(0)
        tree = build_kdtree(rng.normal(size=(500, 3)))
        assert np.array_equal(tree.blocks.coords, tree.points.T)

    def test_columns_are_contiguous(self):
        rng = np.random.default_rng(1)
        blocks = LeafBlocks.from_points(rng.normal(size=(100, 4)))
        assert blocks.coords.flags.c_contiguous
        assert blocks.coords.dtype == np.float64


class TestKernelBitIdentity:
    """scan (per-leaf) and gather (batched) must score identical bits."""

    @pytest.mark.parametrize("dtype", [np.float64])
    def test_scan_equals_gather(self, dtype):
        rng = np.random.default_rng(2)
        blocks = LeafBlocks.from_points(rng.normal(size=(200, 3)) * 100.0)
        coords = blocks.coords
        query = rng.normal(size=3).astype(dtype)
        start, count = 32, 64
        scanned = scan_columns_sq(coords, start, count, query)
        idx = np.arange(start, start + count)[None, :]
        gathered = gather_columns_sq(coords, idx, query[None, :])
        assert scanned.dtype == gathered.dtype == coords.dtype
        assert np.array_equal(scanned, gathered[0])

    def test_gather_batch_rows_independent(self):
        rng = np.random.default_rng(3)
        blocks = LeafBlocks.from_points(rng.normal(size=(64, 2)))
        queries = rng.normal(size=(5, 2))
        idx = rng.integers(0, 64, size=(5, 7))
        batched = gather_columns_sq(blocks.coords, idx, queries)
        for r in range(5):
            row = gather_columns_sq(blocks.coords, idx[r : r + 1], queries[r : r + 1])
            assert np.array_equal(batched[r], row[0])


class TestSnapshotRoundTrip:
    """Snapshots without persisted leaf blocks re-derive them on load."""

    @pytest.fixture(scope="class")
    def tree(self):
        rng = np.random.default_rng(6)
        return build_kdtree(rng.normal(size=(700, 3)) * 50.0)

    def test_v1_npz_without_blocks_loads_lazily(self, tree, tmp_path):
        # Rewrite a fresh v2 snapshot as the v1 layout: version 1 in the
        # meta blob.
        path = save_kdtree(tree, tmp_path / "snap.npz", backend="npz")
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        meta = json.loads(bytes(arrays["meta"]).decode())
        assert meta["version"] == SNAPSHOT_VERSION == 2
        meta["version"] = 1
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        v1_path = tmp_path / "snap_v1.npz"
        np.savez(v1_path, **arrays)

        loaded = load_kdtree(v1_path)
        # Blocks re-derive lazily from the point array; answers match.
        assert loaded._blocks is None
        assert np.array_equal(loaded.blocks.coords, tree.blocks.coords)
        rng = np.random.default_rng(8)
        queries = rng.normal(size=(20, 3)) * 50.0
        d0, i0, _ = batch_knn(tree, queries, 5)
        d1, i1, _ = batch_knn(loaded, queries, 5)
        assert np.array_equal(d0, d1)
        assert np.array_equal(i0, i1)

    @pytest.mark.parametrize("backend", ["npz", "columns"])
    def test_legacy_float32_extras_ignored(self, tree, tmp_path, backend):
        path = save_kdtree(tree, tmp_path / "snap", backend=backend)
        (_make_legacy_npz if backend == "npz" else _make_legacy_columns)(path)
        loaded = load_kdtree(path)
        check_snapshot_roundtrip(tree, loaded)
        rng = np.random.default_rng(9)
        queries = rng.normal(size=(40, 3)) * 50.0
        d0, i0, _ = batch_knn(tree, queries, 6)
        d1, i1, _ = batch_knn(loaded, queries, 6)
        assert d0.tobytes() == d1.tobytes()
        assert i0.tobytes() == i1.tobytes()

    @pytest.mark.parametrize("layout", ["files", "slabs"])
    def test_legacy_panda_snapshot_ignores_precision(self, small_points, tmp_path, layout):
        index = PandaKNN(n_ranks=3, config=PandaConfig(k=4)).fit(small_points)
        root = tmp_path / "panda"
        index.snapshot(root, layout=layout)
        meta_path = root / "panda_meta.json"
        meta = json.loads(meta_path.read_text())
        meta["config"]["local"]["precision"] = "float32"
        for entry in meta.get("ranks", []):
            entry["config"]["precision"] = "float32"
        meta_path.write_text(json.dumps(meta))
        for path in root.glob("local_tree_*.npz"):
            _make_legacy_npz(path)

        restored = PandaKNN.restore(root)
        assert restored.config == index.config
        for tree, warm_tree in zip(index.local_trees(), restored.local_trees()):
            check_snapshot_roundtrip(tree, warm_tree)
        queries = small_points[::40]
        original = index.query(queries, k=4)
        warm = restored.query(queries, k=4)
        assert original.distances.tobytes() == warm.distances.tobytes()
        assert original.ids.tobytes() == warm.ids.tobytes()
