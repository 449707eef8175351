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
    atomic_file,
    available_providers,
    content_version,
    get_provider,
    link_container,
    read_manifest,
    recover_container,
    recover_containers,
    write_container,
)
from repro.store.container import ALIGN
from tests.conftest import (
    edit_manifest,
    flip_member_byte,
    kill_in_os,
    member_bytes,
    overwrite_member,
)


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
        assert box.is_file() and read_manifest(box)["kind"] == "test-kind/1"
        plain = tmp_path / "plain"
        plain.mkdir()
        junk = tmp_path / "junk"
        junk.write_bytes(b"PK\x03\x04 a zip archive is no container")
        for path in (tmp_path / "absent", plain, junk):
            with pytest.raises(StoreError, match="not a store container") as caught:
                read_manifest(path)
            assert not isinstance(caught.value, StoreCorrupt)

    def test_members_sit_on_pages_before_the_manifest(self, arrays, box):
        extents = read_manifest(box)["extents"]
        assert sorted(extents) == sorted(arrays)
        ends = 0
        for offset, length in sorted(extents.values()):
            assert offset % ALIGN == 0 and offset >= ends
            ends = offset + length
        assert ends < box.stat().st_size

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
        flip_member_byte(box, name)  # mid-payload: past the .npy header

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
        edit_manifest(box, lambda m: m["meta"].update(n=41))  # single-field tamper
        with pytest.raises(StoreCorrupt, match="content_version"):
            Container(box, verify="none")

    def test_manifest_array_entry_edit_caught(self, box):
        edit_manifest(box, lambda m: m["arrays"]["pi"].update(shape=[41, 8]))
        with pytest.raises(StoreCorrupt):
            Container(box, verify="none")

    @pytest.mark.parametrize(
        "extent",
        [lambda off, n: [off + 1, n], lambda off, n: [off, n - 1], lambda off, n: [0, n],
         lambda off, n: [off, 1 << 40]],
        ids=["unaligned", "short", "overlapping", "past-the-manifest"],
    )
    def test_an_extent_that_is_not_the_members_own_is_caught(self, box, extent):
        """At open, or — a range that its payload does not fill — when
        the member is first opened; no digest needed either way."""

        def edit(m):
            m["extents"]["ids"] = extent(*m["extents"]["ids"])

        edit_manifest(box, edit)
        with pytest.raises(StoreCorrupt, match="extent"):
            Container(box, verify="none")["ids"]

    def test_header_shape_mismatch_caught(self, box, arrays):
        # the member's header says (8, 40): the same bytes, another shape
        header = _np_save_bytes(arrays["pi"].T.copy())[:128]
        assert member_bytes(box, "pi")[:128] != header
        overwrite_member(box, "pi", header)
        with pytest.raises(StoreCorrupt, match="shape"):
            np.asarray(Container(box, verify="none")["pi"])

    def test_truncated_file_is_corrupt_not_foreign(self, box):
        os.truncate(box, box.stat().st_size // 2)
        with pytest.raises(StoreCorrupt, match="truncated"):
            Container(box, verify="none")

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
        """A plain ndarray view of its read-only map: zero-copy, without
        the np.memmap subclass hooks on every slice."""
        arr = Container(box, provider="mmap")["pi"]
        assert type(arr) is np.ndarray
        assert isinstance(arr.base, np.memmap)
        assert not arr.flags.writeable
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
            assert member_bytes(path, name) == raw, name
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

        monkeypatch.setattr(container_module, "_sha256_range", no_reread)
        write_container(tmp_path / "box", arrays, kind="k")

    def test_object_arrays_refused(self, tmp_path):
        with pytest.raises(ValueError, match="object"):
            write_container(tmp_path / "box", {"a": np.array([{}])}, kind="k")
        assert list(tmp_path.iterdir()) == []


class TestRotateAsideRecovery:
    """A container is replaced by one ``os.replace``: a kill before it
    leaves the old container whole and a temp file beside it, which the
    writer, not a reader, deletes."""

    def _killed_before_the_rename(self, arrays, box, monkeypatch):
        with monkeypatch.context() as patch:
            kill_in_os(patch, "replace", lambda src, dst: Path(dst) == box)
            with pytest.raises(InjectedCrash):
                write_container(box, {"pi": arrays["pi"] + 1.0}, kind="test-kind/1")
        names = sorted(p.name for p in box.parent.iterdir())
        assert len(names) == 2 and names[0].startswith(".box.tmp-") and names[1] == "box"

    def test_reader_does_not_repair(self, arrays, box, monkeypatch):
        self._killed_before_the_rename(arrays, box, monkeypatch)
        np.testing.assert_array_equal(Container(box, verify="eager")["pi"], arrays["pi"])
        assert len(list(box.parent.iterdir())) == 2

    def test_recover_sweeps_the_temp_file(self, arrays, box, monkeypatch):
        self._killed_before_the_rename(arrays, box, monkeypatch)
        recover_container(box)
        assert sorted(p.name for p in box.parent.iterdir()) == ["box"]
        np.testing.assert_array_equal(Container(box, verify="eager")["pi"], arrays["pi"])

    def test_next_write_to_the_path_recovers_first(self, arrays, box, monkeypatch):
        self._killed_before_the_rename(arrays, box, monkeypatch)
        with pytest.raises(StoreError, match="overwrite=False"):
            write_container(box, arrays, kind="test-kind/1", overwrite=False)
        assert sorted(p.name for p in box.parent.iterdir()) == ["box"]
        write_container(box, {"pi": arrays["pi"] + 2.0}, kind="test-kind/1")
        assert sorted(p.name for p in box.parent.iterdir()) == ["box"]
        np.testing.assert_array_equal(Container(box)["pi"], arrays["pi"] + 2.0)

    def test_unsealed_leftovers_are_swept_not_adopted(self, box):
        # a sealed temp file and a torn one, both left by killed writers
        shutil.copyfile(box, box.parent / ".box.tmp-k2x9a_0q")
        (box.parent / ".box.tmp-123-deadbeef").write_bytes(b"\x93NUMPY torn")
        other = box.parent / ".other.tmp-1-00000000"  # another path's: not ours
        shutil.copyfile(box, other)
        box.unlink()
        recover_container(box)
        assert sorted(p.name for p in box.parent.iterdir()) == [other.name]
        recover_containers(box.parent)
        assert list(box.parent.iterdir()) == []


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestSpare:
    """``atomic_file(..., spare=)``: the inode a write replaces becomes the
    next write's file, written over from offset 0 and cut to its length;
    only a regular file whose one link is the spare name is reused."""

    def _write(self, path, arrays, spare=None, scale=1.0):
        return write_container(
            path, {**arrays, "pi": arrays["pi"] * scale}, kind="test-kind/1",
            meta={"n": 40}, spare=spare,
        )

    def test_a_reused_spare_writes_the_bytes_a_fresh_file_holds(self, arrays, tmp_path):
        box, spare = tmp_path / "box", tmp_path / ".box.spare"
        fresh = self._write(tmp_path / "fresh", arrays, scale=3.0)
        self._write(box, arrays, spare=spare)  # no spare yet, nothing replaced
        assert not spare.exists()
        self._write(box, arrays, spare=spare, scale=2.0)  # keeps the first as the spare
        kept = spare.stat().st_ino
        self._write(box, arrays, spare=spare, scale=3.0)  # written over it
        assert box.stat().st_ino == kept
        assert _sha256_file(box) == _sha256_file(fresh)
        assert sorted(p.name for p in tmp_path.iterdir()) == [".box.spare", "box", "fresh"]

    def test_a_container_written_over_a_larger_spare_opens_and_verifies(self, arrays, tmp_path):
        box, spare = tmp_path / "box", tmp_path / ".box.spare"
        big = {"pi": np.random.default_rng(1).random((4000, 8))}
        write_container(spare, big, kind="test-kind/1")
        old_size = spare.stat().st_size
        self._write(box, arrays, spare=spare)
        assert box.stat().st_size < old_size  # cut at the trailer, the old one gone
        assert _sha256_file(box) == _sha256_file(self._write(tmp_path / "fresh", arrays))
        c = Container(box, verify="eager")
        np.testing.assert_array_equal(c["pi"], arrays["pi"])

    def test_a_shorter_text_write_over_a_longer_spare(self, tmp_path):
        target, spare = tmp_path / "manifest.json", tmp_path / ".manifest.json.spare"
        spare.write_text("x" * 5000)
        with atomic_file(target, "w", spare=spare) as fh:
            fh.write('{"generation": 1}\n')
        assert target.read_text() == '{"generation": 1}\n'

    @pytest.mark.parametrize("shape", ["second-link", "directory", "symlink", "missing"])
    def test_a_spare_that_is_not_one_lone_file_gets_a_fresh_temp(
        self, arrays, tmp_path, shape
    ):
        box, spare, other = tmp_path / "box", tmp_path / ".box.spare", tmp_path / "other"
        other.write_bytes(b"another name's bytes")
        if shape == "second-link":
            os.link(other, spare)
        elif shape == "directory":
            spare.mkdir()
        elif shape == "symlink":
            spare.symlink_to(other)
        self._write(box, arrays, spare=spare)
        assert other.read_bytes() == b"another name's bytes"
        assert other.stat().st_nlink == 1
        fresh = self._write(tmp_path / "fresh", arrays)
        assert _sha256_file(box) == _sha256_file(fresh)
        assert box.stat().st_ino != other.stat().st_ino
        assert spare.is_dir() if shape == "directory" else not os.path.lexists(spare)
        assert not [p for p in tmp_path.iterdir() if ".tmp-" in p.name]

    def test_an_exception_leaves_the_target_and_no_temp(self, arrays, tmp_path):
        box, spare = tmp_path / "box", tmp_path / ".box.spare"
        self._write(box, arrays, spare=spare)
        self._write(box, arrays, spare=spare, scale=2.0)
        before = _sha256_file(box)
        with pytest.raises(RuntimeError, match="in the block"):
            with atomic_file(box, spare=spare) as fh:
                fh.write(b"half a container")
                raise RuntimeError("in the block")
        assert _sha256_file(box) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["box"]
        np.testing.assert_array_equal(Container(box, verify="eager")["pi"], arrays["pi"] * 2.0)


class TestLinkContainer:
    def test_links_share_inodes_and_the_manifest_is_byte_identical(self, box, tmp_path):
        pub = link_container(box, tmp_path / "pub")
        assert pub.stat().st_ino == box.stat().st_ino
        assert read_manifest(pub) == read_manifest(box)
        Container(pub, verify="eager")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["box", "pub"]
        assert link_container(box, pub) == pub  # already its second name
        assert sorted(p.name for p in tmp_path.iterdir()) == ["box", "pub"]

    def test_one_link_and_one_rename(self, box, tmp_path, monkeypatch):
        link_container(box, tmp_path / "pub")  # the second publish replaces a link
        newer = write_container(tmp_path / "box2", {"pi": np.ones(3)}, kind="k")
        calls = []
        for name in ("link", "replace", "unlink", "rmdir", "rename"):
            real = getattr(os, name)
            monkeypatch.setattr(os, name, lambda *a, _n=name, _r=real, **k: (
                calls.append(_n), _r(*a, **k))[1])
        link_container(newer, tmp_path / "pub")
        assert calls == ["link", "replace"]

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
        box.unlink()
        np.testing.assert_array_equal(Container(pub, verify="eager")["pi"], arrays["pi"])
        pub.unlink()
        np.testing.assert_array_equal(mapped, arrays["pi"])  # unlinked inode

    def test_refused_link_publishes_a_verified_copy(self, arrays, box, tmp_path, no_hard_links):
        pub = link_container(box, tmp_path / "pub")
        assert pub.stat().st_ino != box.stat().st_ino
        assert read_manifest(pub) == read_manifest(box)
        np.testing.assert_array_equal(Container(pub, verify="eager")["pi"], arrays["pi"])

    def test_a_copy_that_misses_its_digest_is_not_installed(self, box, tmp_path, no_hard_links):
        before = link_container(box, tmp_path / "pub")
        flip_member_byte(box, "pi", at=-3, mask=0x40)
        with pytest.raises(StoreCorrupt, match="digest"):
            link_container(box, tmp_path / "pub")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["box", "pub"]
        Container(before, verify="eager")  # the copy made earlier is untouched

    def test_unsealed_source_refused(self, box, tmp_path):
        edit_manifest(box, lambda m: m.clear())
        with pytest.raises(StoreCorrupt):
            link_container(box, tmp_path / "pub")
        assert not (tmp_path / "pub").exists()
