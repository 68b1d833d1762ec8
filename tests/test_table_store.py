"""The kernel-table store: a table taken from it is the built table bit for
bit, and any doubt about an entry means a build."""

import os
import subprocess
import sys
import time
import zlib

import numpy as np
import pytest

from rotstar import poisson
from rotstar.equilibria import make_grid
from rotstar.poisson import RingKernel

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture
def store(tmp_path, monkeypatch):
    """An empty store of this test, and an empty one-entry cache."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(poisson, "_unit_table", None)
    return tmp_path / "rotstar"


def _take(grid):
    """The kernel of ``grid``, its table taken past the one-entry cache."""
    poisson._unit_table = None
    return RingKernel(grid)


def _unit(grid):
    """The unit grid (rs, hz, nz) whose table ``grid`` takes."""
    s = grid.rs[-1]
    return grid.rs / s, grid.hz / s, grid.nz


def _same(a, b):
    return a.pairs == b.pairs and all(
        (x.lo, x.hi, x.slots) == (y.lo, y.hi, y.slots) and np.array_equal(x.stack, y.stack)
        for x, y in zip(a.leaves, b.leaves, strict=True))


def _entries(store):
    return sorted(os.listdir(store))


@pytest.mark.parametrize("shape, refine_at", [((64, 64), None), ((96, 96), None), ((97, 90), 0.5),
                                              ((256, 256), None)])
def test_stored_table_is_the_built_table(store, shape, refine_at):
    grid = make_grid(1.3, 1.1, *shape, refine_at=refine_at)
    built = _take(grid)
    stored = _take(grid)
    assert (built.table_source, stored.table_source) == ("built", "stored")
    assert _same(built._table, stored._table)
    assert all(not leaf.stack.flags.writeable for leaf in stored._table.leaves)
    src = np.random.default_rng(5).standard_normal(grid.shape)
    assert np.array_equal(built.potential(src), stored.potential(src))
    assert len(_entries(store)) == 1


def test_store_key_is_exact(store):
    """Unit radii one ulp apart are another build's inputs: the store
    misses, where the one-entry cache would reuse the table."""
    rs, hz, nz = _unit(make_grid(1.3, 1.1, 40, 36))
    assert poisson._stored_table(rs, hz, nz).source == "built"
    assert poisson._stored_table(rs, hz, nz).source == "stored"
    moved = rs.copy()
    moved[7] = np.nextafter(moved[7], 1.0)
    assert poisson._stored_table(moved, hz, nz).source == "built"
    assert len(_entries(store)) == 2


def _entry(store):
    (name,) = _entries(store)
    return store / name


def _rebuilt(store, grid, built):
    """The table taken after ``store``'s entry was damaged is a build equal
    to the first, and it replaces the damaged entry."""
    again = _take(grid)
    assert again.table_source == "built"
    assert _same(again._table, built._table)
    assert _take(grid).table_source == "stored"


def test_truncated_data_file_means_a_build(store):
    grid = make_grid(1.3, 1.1, 96, 96)
    built = _take(grid)
    data = _entry(store) / "table.npy"
    os.truncate(data, data.stat().st_size - 8)
    _rebuilt(store, grid, built)


def test_index_of_another_numpy_means_a_build(store):
    grid = make_grid(1.3, 1.1, 96, 96)
    built = _take(grid)
    index = _entry(store) / "index"
    raw = index.read_bytes()
    mine = repr(np.__version__).encode()
    assert raw.count(mine) == 1
    index.write_bytes(raw.replace(mine, b"'1.26.4'"))
    _rebuilt(store, grid, built)


def test_table_of_another_blas_is_not_taken(store, monkeypatch):
    """A BLAS that rounds the cross approximation's products otherwise
    builds another table: its probe's bytes key another entry."""
    grid = make_grid(1.3, 1.1, 64, 64)
    assert _take(grid).table_source == "built"
    probe = poisson._blas_probe()
    monkeypatch.setattr(poisson, "_blas_probe", lambda: probe[:-1] + bytes([probe[-1] ^ 1]))
    assert _take(grid).table_source == "built"
    assert _take(grid).table_source == "stored"
    assert len(_entries(store)) == 2


def _move(store, built, leaf, at):
    """Entry ``at`` (f, row, column) of a leaf's stack, moved by an ulp in
    the stored file."""
    stack = built._table.leaves[leaf].stack
    data = np.load(_entry(store) / "table.npy", mmap_mode="r+")
    k = sum(x.stack.size for x in built._table.leaves[:leaf]) + np.ravel_multi_index(at, stack.shape)
    data[k] = np.nextafter(stack[at], np.inf)
    data.flush()


def test_damaged_entry_in_a_middle_leaf_means_a_build(store):
    """An entry the spot check never reads, in the first pair factor row of
    the second of four leaves, fails the checksum."""
    grid = make_grid(1.3, 1.1, 96, 96)
    built = _take(grid)
    leaf = built._table.leaves[1]
    n = leaf.hi - leaf.lo
    assert len(built._table.leaves) == 4 and leaf.stack.shape[1] > n
    _move(store, built, 1, (0, n, 0))
    _rebuilt(store, grid, built)


def test_spot_check_mismatch_means_a_build(store):
    """One entry of the last leaf's band moved by an ulp, with the checksum
    written again to match, fails the spot check."""
    grid = make_grid(1.3, 1.1, 96, 96)
    built = _take(grid)
    _move(store, built, len(built._table.leaves) - 1, (0, 0, 0))  # a band entry, i = j = 0
    index = _entry(store) / "index"
    line, _, inputs = index.read_bytes().partition(b"\n")
    layout = line.partition(b" ")[2]
    data = np.load(_entry(store) / "table.npy", allow_pickle=False)
    index.write_bytes(b"%08x %s\n%s" % (zlib.crc32(data, zlib.crc32(layout)), layout, inputs))
    _rebuilt(store, grid, built)


def test_unwritable_store_means_an_unstored_build(tmp_path, monkeypatch):
    """A store directory that cannot be created: every take is a build."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    grid = make_grid(1.3, 1.1, 64, 64)
    first = _take(grid)
    second = _take(grid)
    assert (first.table_source, second.table_source) == ("built", "built")
    assert _same(first._table, second._table)


def test_unreadable_source_means_an_unstored_build(store, monkeypatch):
    """A module whose source cannot be read gives no key: every take is a
    build, and nothing is stored."""
    monkeypatch.setattr(poisson, "__file__", str(store.parent / "missing.py"))
    grid = make_grid(1.3, 1.1, 40, 40)
    assert (_take(grid).table_source, _take(grid).table_source) == ("built", "built")
    assert not store.exists()


def test_concurrent_writers_leave_one_whole_entry(store):
    """Three processes (more than the cores CI has) that build and write one
    key at once, all started at the same instant: all succeed, and the store
    holds one entry, the built table, and no temporary directory."""
    start = time.time() + 1.0
    code = f"""
import time
from rotstar.equilibria import make_grid
from rotstar.poisson import RingKernel
time.sleep(max(0.0, {start!r} - time.time()))
print(RingKernel(make_grid(1.3, 1.1, 128, 128)).table_source)
"""
    env = {**os.environ, "PYTHONPATH": SRC}
    procs = [subprocess.Popen([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE, text=True)
             for _ in range(3)]
    outs = [p.communicate(timeout=120)[0].strip() for p in procs]
    assert [p.returncode for p in procs] == [0, 0, 0]
    assert set(outs) <= {"built", "stored"}
    assert len(_entries(store)) == 1
    built = poisson._build_unit_table(*_unit(make_grid(1.3, 1.1, 128, 128)))
    stored = _take(make_grid(1.3, 1.1, 128, 128))
    assert stored.table_source == "stored"
    assert _same(built, stored._table)


def test_store_evicts_the_least_recently_used_past_its_cap(store, monkeypatch):
    grids = [make_grid(1.3, 1.1, n, n) for n in (40, 56, 48)]
    _take(grids[0])
    _take(grids[1])
    first, second = (store / name for name in _entries(store))
    if (first / "table.npy").stat().st_size > (second / "table.npy").stat().st_size:
        first, second = second, first  # the 40^2 entry first
    os.utime(first, (1e9, 1e9))
    os.utime(second, (1.1e9, 1.1e9))
    assert _take(grids[0]).table_source == "stored"  # a hit makes the 40^2 entry the newer
    size = sum(f.stat().st_size for f in store.rglob("*") if f.is_file())
    monkeypatch.setattr(poisson, "_STORE_CAP", size + 1)
    _take(grids[2])  # past the cap: the 56^2 entry, least recently used, goes
    assert first.exists() and not second.exists()
    assert len(_entries(store)) == 2
    assert _take(grids[0]).table_source == "stored"
    assert _take(grids[1]).table_source == "built"


def test_table_past_the_cap_is_not_stored(store, monkeypatch):
    monkeypatch.setattr(poisson, "_STORE_CAP", 2**20)
    grid = make_grid(1.3, 1.1, 64, 64)
    assert _take(grid).table_bytes > 2**20
    assert _take(grid).table_source == "built"
    assert not store.exists() or not _entries(store)
