"""Storage tier: container format, digests, providers, corruption."""

from __future__ import annotations

import hashlib
import io
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

import repro.store.container as container_module
from repro.faults import InjectedCrash
from repro.store import (
    Container,
    MmapProvider,
    ResidentProvider,
    StoreCorrupt,
    StoreError,
    available_providers,
    content_version,
    get_provider,
    is_container,
    link_container,
    read_manifest,
    recover_container,
    recover_containers,
    write_container,
)
from tests.conftest import kill_in_os


@pytest.fixture()
def arrays():
    rng = np.random.default_rng(0)
    return {
        "pi": rng.random((40, 8)),
        "ids": np.arange(40, dtype=np.int64),
        "flags": np.zeros(5, dtype=bool),
    }


@pytest.fixture()
def box(arrays, tmp_path):
    return write_container(tmp_path / "box", arrays, kind="test-kind/1",
                           meta={"n": 40})


class TestWriteContainer:
    def test_round_trip_every_dtype(self, arrays, box):
        c = Container(box)
        assert c.kind == "test-kind/1"
        assert c.meta == {"n": 40}
        for name, ref in arrays.items():
            got = np.asarray(c[name])
            assert got.dtype == ref.dtype
            np.testing.assert_array_equal(got, ref)

    def test_is_container(self, box, tmp_path):
        assert is_container(box)
        assert not is_container(tmp_path / "absent")
        plain = tmp_path / "plain"
        plain.mkdir()
        assert not is_container(plain)

    def test_atomic_overwrite_leaves_no_debris(self, arrays, box, tmp_path):
        write_container(box, {"pi": arrays["pi"] + 1.0}, kind="test-kind/1")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["box"]
        c = Container(box)
        assert c.names() == ["pi"]
        np.testing.assert_array_equal(np.asarray(c["pi"]), arrays["pi"] + 1.0)

    def test_overwrite_false_refuses(self, arrays, box):
        with pytest.raises(StoreError, match="exists"):
            write_container(box, arrays, kind="test-kind/1", overwrite=False)

    def test_bad_array_name_rejected(self, tmp_path):
        with pytest.raises(StoreError, match="name"):
            write_container(tmp_path / "b", {"a/b": np.zeros(3)}, kind="k/1")

    def test_content_version_sealed_and_deterministic(self, arrays, box, tmp_path):
        again = write_container(tmp_path / "box2", arrays, kind="test-kind/1",
                                meta={"n": 40})
        m1, m2 = read_manifest(box), read_manifest(again)
        assert m1["content_version"] == m2["content_version"]
        assert m1["content_version"] == content_version(
            m1["kind"], m1["meta"], m1["arrays"]
        )


class TestVerify:
    def _flip_payload_byte(self, box, name="pi"):
        f = box / f"{name}.npy"
        raw = bytearray(f.read_bytes())
        raw[len(raw) // 2] ^= 0xFF  # mid-payload: past the .npy header
        f.write_bytes(bytes(raw))

    def test_eager_catches_flipped_byte(self, box):
        self._flip_payload_byte(box)
        with pytest.raises(StoreCorrupt, match="sha256 mismatch"):
            Container(box, verify="eager")

    def test_touch_defers_until_access(self, box):
        self._flip_payload_byte(box)
        c = Container(box, verify="touch")  # constructing is fine
        np.asarray(c["ids"])  # untouched arrays still load
        with pytest.raises(StoreCorrupt, match="sha256 mismatch"):
            c.array("pi")

    def test_none_skips_digests_but_checks_headers(self, box):
        self._flip_payload_byte(box)
        c = Container(box, verify="none")
        np.asarray(c["pi"])  # payload flip invisible without digests
        c.verify("ids")  # intact array passes an explicit check
        with pytest.raises(StoreCorrupt):
            c.verify("pi")

    def test_verify_all_sweeps_everything(self, box):
        Container(box, verify="none").verify_all()
        self._flip_payload_byte(box, "flags")
        with pytest.raises(StoreCorrupt):
            Container(box, verify="none").verify_all()

    def test_manifest_field_edit_caught_with_zero_array_reads(self, box):
        import json

        mpath = box / "manifest.json"
        m = json.loads(mpath.read_text())
        m["meta"]["n"] = 41  # single-field tamper
        mpath.write_text(json.dumps(m))
        with pytest.raises(StoreCorrupt, match="content_version"):
            Container(box, verify="none")

    def test_manifest_array_entry_edit_caught(self, box):
        import json

        mpath = box / "manifest.json"
        m = json.loads(mpath.read_text())
        m["arrays"]["pi"]["shape"] = [41, 8]
        mpath.write_text(json.dumps(m))
        with pytest.raises(StoreCorrupt):
            Container(box, verify="none")

    def test_missing_array_file(self, box):
        os.unlink(box / "ids.npy")
        with pytest.raises(StoreCorrupt, match="ids"):
            np.asarray(Container(box, verify="none")["ids"])

    def test_header_shape_mismatch_caught(self, box, arrays):
        # rewrite pi.npy with one fewer row but keep the manifest
        manifest = (box / "manifest.json").read_bytes()
        np.save(box / "pi.npy", arrays["pi"][:-1])
        (box / "manifest.json").write_bytes(manifest)
        with pytest.raises(StoreCorrupt, match="shape"):
            np.asarray(Container(box, verify="none")["pi"])

    def test_not_a_container(self, tmp_path):
        with pytest.raises(StoreError, match="manifest"):
            Container(tmp_path / "nope")

    def test_store_errors_are_value_errors(self, tmp_path):
        with pytest.raises(ValueError):
            Container(tmp_path / "nope")
        assert issubclass(StoreCorrupt, StoreError)


class TestProviders:
    def test_registry(self):
        assert set(available_providers()) == {"resident", "mmap"}
        assert isinstance(get_provider("resident"), ResidentProvider)
        assert isinstance(get_provider("mmap"), MmapProvider)
        p = MmapProvider()
        assert get_provider(p) is p
        with pytest.raises(ValueError, match="unknown array provider"):
            get_provider("bogus")

    def test_env_var_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_ARRAY_PROVIDER", raising=False)
        assert isinstance(get_provider(None), ResidentProvider)
        monkeypatch.setenv("REPRO_ARRAY_PROVIDER", "mmap")
        assert isinstance(get_provider(None), MmapProvider)

    def test_mmap_load_is_readonly_map(self, box):
        arr = Container(box, provider="mmap")["pi"]
        base = arr if isinstance(arr, np.memmap) else arr.base
        assert isinstance(base, np.memmap)
        with pytest.raises((ValueError, RuntimeError)):
            arr[0, 0] = 1.0

    def test_resident_load_is_plain_heap_array(self, box):
        arr = Container(box, provider="resident")["pi"]
        assert type(arr) is np.ndarray
        assert not isinstance(arr, np.memmap)
        assert not isinstance(arr.base, np.memmap)
        assert arr.flags.writeable

    def test_mmap_allocate_scratch_is_writable_and_unlinked(self, tmp_path):
        p = MmapProvider(scratch_dir=tmp_path)
        out = p.allocate((100, 3), np.float64)
        out[:] = 7.0
        assert float(out.sum()) == 2100.0
        # scalar shapes work too (engine passes src.size)
        v = p.allocate(5, np.float64)
        assert v.shape == (5,)
        # the backing file was unlinked at creation: nothing to leak
        assert list(tmp_path.iterdir()) == []

    def test_providers_load_identical_bits(self, box):
        a = np.asarray(Container(box, provider="resident")["pi"])
        b = np.asarray(Container(box, provider="mmap")["pi"])
        np.testing.assert_array_equal(a, b)


def _np_save_bytes(arr) -> bytes:
    """What the pre-hash-on-write writer put on disk: ``np.save`` of the
    C-contiguous little-endian array."""
    arr = np.ascontiguousarray(arr)
    if arr.dtype.byteorder == ">":
        arr = arr.astype(arr.dtype.newbyteorder("<"))
    buf = io.BytesIO()
    np.save(buf, arr, allow_pickle=False)
    return buf.getvalue()


class TestHashOnWrite:
    """Digests are computed while the bytes go out; files and manifest
    are exactly what ``np.save`` + a re-read used to produce."""

    CASES = {
        "f64": np.random.default_rng(1).random((70, 9)),
        "f32": np.random.default_rng(2).random((33, 5)).astype(np.float32),
        "zero_d": np.float64(3.5),
        "empty": np.zeros((0, 2)),
        "strided": np.arange(40, dtype=np.int64)[::3],
        "fortran": np.asfortranarray(np.random.default_rng(3).random((4, 3))),
        "big_endian": np.arange(6, dtype=">i4"),
        "flags": np.array([True, False, True]),
        "wide": np.random.default_rng(4).random((1, 300_000)),  # > one write chunk
    }

    def test_files_and_manifest_equal_np_save_plus_reread(self, tmp_path):
        path = write_container(tmp_path / "box", self.CASES, kind="k", meta={"m": 1})
        manifest = read_manifest(path)
        expected = {}
        for name, arr in self.CASES.items():
            raw = _np_save_bytes(arr)
            assert (path / f"{name}.npy").read_bytes() == raw, name
            stored = np.load(io.BytesIO(raw))
            expected[name] = {
                "file": f"{name}.npy",
                "sha256": hashlib.sha256(raw).hexdigest(),
                "shape": list(stored.shape),
                "dtype": np.lib.format.dtype_to_descr(stored.dtype),
                "nbytes": int(stored.nbytes),
            }
        assert manifest["arrays"] == expected
        assert manifest["content_version"] == content_version("k", {"m": 1}, expected)
        Container(path, verify="eager")

    def test_no_file_is_read_back(self, arrays, tmp_path, monkeypatch):
        def no_reread(*_a, **_k):
            raise AssertionError("the writer re-read a file it just wrote")

        monkeypatch.setattr(container_module, "_sha256_file", no_reread)
        write_container(tmp_path / "box", arrays, kind="k")

    def test_object_arrays_refused(self, tmp_path):
        with pytest.raises(ValueError, match="object"):
            write_container(tmp_path / "box", {"a": np.array([{}])}, kind="k")
        assert list(tmp_path.iterdir()) == []


class TestRotateAsideRecovery:
    """A kill between ``replace(path, old)`` and ``replace(tmp, path)``
    leaves nothing at ``path``; the writer, not a reader, repairs it."""

    def _killed_between_the_renames(self, arrays, box, monkeypatch):
        with monkeypatch.context() as patch:
            kill_in_os(patch, "replace", lambda src, dst: Path(dst) == box)
            with pytest.raises(InjectedCrash):
                write_container(box, {"pi": arrays["pi"] + 1.0}, kind="test-kind/1")
        names = sorted(p.name for p in box.parent.iterdir())
        assert len(names) == 2 and not box.exists()
        assert names[0].startswith(".box.old-") and names[1].startswith(".box.tmp-")

    def test_reader_does_not_repair(self, arrays, box, monkeypatch):
        self._killed_between_the_renames(arrays, box, monkeypatch)
        with pytest.raises(StoreError):
            Container(box)
        assert not box.exists()

    def test_recover_moves_the_sealed_copy_back_and_sweeps(self, arrays, box, monkeypatch):
        self._killed_between_the_renames(arrays, box, monkeypatch)
        recover_container(box)
        assert sorted(p.name for p in box.parent.iterdir()) == ["box"]
        np.testing.assert_array_equal(Container(box, verify="eager")["pi"], arrays["pi"])

    def test_next_write_to_the_path_recovers_first(self, arrays, box, monkeypatch):
        self._killed_between_the_renames(arrays, box, monkeypatch)
        with pytest.raises(StoreError, match="overwrite=False"):
            # the rotated copy is back before the existence check
            write_container(box, arrays, kind="test-kind/1", overwrite=False)
        write_container(box, {"pi": arrays["pi"] + 2.0}, kind="test-kind/1")
        assert sorted(p.name for p in box.parent.iterdir()) == ["box"]
        np.testing.assert_array_equal(Container(box)["pi"], arrays["pi"] + 2.0)

    def test_unsealed_leftovers_are_swept_not_adopted(self, box):
        torn = box.parent / ".box.old-123-0badf00d"
        shutil.copytree(box, torn)
        (torn / "manifest.json").write_text("{")
        stale = box.parent / ".box.tmp-123-deadbeef"
        stale.mkdir()
        other = box.parent / ".other.tmp-1-00000000"  # another path's: not ours
        other.mkdir()
        shutil.rmtree(box)
        recover_container(box)
        assert sorted(p.name for p in box.parent.iterdir()) == [other.name]
        recover_containers(box.parent)
        assert list(box.parent.iterdir()) == []


class TestLinkContainer:
    def test_links_share_inodes_and_the_manifest_is_byte_identical(self, box, tmp_path):
        pub = link_container(box, tmp_path / "pub")
        assert (pub / "manifest.json").read_bytes() == (box / "manifest.json").read_bytes()
        for name in Container(box).names():
            assert (pub / f"{name}.npy").stat().st_ino == (box / f"{name}.npy").stat().st_ino
        Container(pub, verify="eager")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["box", "pub"]

    def test_replaces_an_existing_container_or_legacy_file(self, arrays, box, tmp_path):
        (tmp_path / "pub").write_bytes(b"a v1 archive used to live here")
        link_container(box, tmp_path / "pub")
        newer = write_container(tmp_path / "box2", {"pi": arrays["pi"] * 2}, kind="k")
        link_container(newer, tmp_path / "pub")
        assert Container(tmp_path / "pub").names() == ["pi"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["box", "box2", "pub"]

    def test_either_name_survives_the_other(self, arrays, box, tmp_path):
        pub = link_container(box, tmp_path / "pub")
        mapped = Container(pub)["pi"]
        shutil.rmtree(box)
        np.testing.assert_array_equal(Container(pub, verify="eager")["pi"], arrays["pi"])
        shutil.rmtree(pub)
        np.testing.assert_array_equal(mapped, arrays["pi"])  # unlinked inode

    def test_refused_link_publishes_a_verified_copy(self, arrays, box, tmp_path, no_hard_links):
        pub = link_container(box, tmp_path / "pub")
        assert (pub / "pi.npy").stat().st_ino != (box / "pi.npy").stat().st_ino
        np.testing.assert_array_equal(Container(pub, verify="eager")["pi"], arrays["pi"])

    def test_a_copy_that_misses_its_digest_is_not_installed(self, box, tmp_path, no_hard_links):
        before = link_container(box, tmp_path / "pub")
        raw = bytearray((box / "pi.npy").read_bytes())
        raw[-3] ^= 0x40
        (box / "pi.npy").write_bytes(bytes(raw))
        with pytest.raises(StoreCorrupt, match="digest"):
            link_container(box, tmp_path / "pub")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["box", "pub"]
        Container(before, verify="eager")  # the copy made earlier is untouched

    def test_unsealed_source_refused(self, box, tmp_path):
        (box / "manifest.json").write_text("{}")
        with pytest.raises(StoreCorrupt):
            link_container(box, tmp_path / "pub")
        assert not (tmp_path / "pub").exists()
