"""mkfs / file access / fsck severity grading."""

import struct

import pytest

from repro.machine.disk import (
    BLOCK_SIZE,
    DATA_START,
    LIBC_CONTENT,
    fsck,
    list_dir,
    mkfs,
    read_file,
)

FILES = {
    "/bin/init": b"\x01" * 500,
    "/bin/tool": b"\x02" * 3000,
    "/etc/workload": b"/bin/tool",
    "/lib/libc.txt": LIBC_CONTENT,
    "/var/log": b"",
}


@pytest.fixture()
def image():
    return mkfs(FILES)


class TestMkfsAndRead:
    def test_all_files_readable(self, image):
        for path, content in FILES.items():
            assert read_file(image, path) == content

    def test_directories_listed(self, image):
        names = {name for name, _ in list_dir(image)}
        assert {"bin", "etc", "lib", "var"} <= names

    def test_missing_file_is_none(self, image):
        assert read_file(image, "/no/such") is None
        assert read_file(image, "/bin/ghost") is None

    def test_multi_block_file(self, image):
        # 3000 bytes spans 3 blocks
        assert read_file(image, "/bin/tool") == b"\x02" * 3000

    def test_file_too_large_rejected(self):
        # limit: 11 direct + 256 indirect blocks
        with pytest.raises(Exception):
            mkfs({"/big": b"x" * (268 * BLOCK_SIZE)})

    def test_indirect_file_roundtrip(self):
        # > 11 blocks forces the single-indirect path
        payload = bytes(range(256)) * 4 * 30      # 30 KiB
        image = mkfs(dict(FILES, **{"/bin/fat": payload}))
        assert read_file(image, "/bin/fat") == payload
        assert fsck(image).status == "clean"


class TestFsck:
    def test_fresh_image_is_clean(self, image):
        report = fsck(image)
        assert report.status == "clean"
        assert not report.issues

    def test_dirty_flag_only_is_dirty(self, image):
        damaged = bytearray(image)
        struct.pack_into("<I", damaged, 8 * 4, 0)  # state = mounted
        report = fsck(bytes(damaged))
        assert report.status == "dirty"

    def test_bad_magic_unrecoverable(self, image):
        damaged = bytearray(image)
        struct.pack_into("<I", damaged, 0, 0x1234)
        assert fsck(bytes(damaged)).status == "unrecoverable"

    def test_bitmap_mismatch_inconsistent(self, image):
        damaged = bytearray(image)
        bitmap = BLOCK_SIZE  # bitmap block offset
        damaged[bitmap + (DATA_START >> 3)] = 0  # clear used bits
        report = fsck(bytes(damaged))
        assert report.status == "inconsistent"

    def test_wild_block_pointer_inconsistent(self, image):
        damaged = bytearray(image)
        # inode table starts at block 2; inode 2 is the first directory.
        base = 2 * BLOCK_SIZE + 2 * 64
        struct.pack_into("<I", damaged, base + 16, 0xFFFF)
        report = fsck(bytes(damaged))
        assert report.status in ("inconsistent", "unrecoverable")

    def test_corrupt_critical_file_unrecoverable(self, image):
        damaged = bytearray(image)
        offset = bytes(damaged).find(b"\x01" * 100)
        damaged[offset] = 0xFF
        report = fsck(bytes(damaged),
                      golden_files={"/bin/init": FILES["/bin/init"]})
        assert report.status == "unrecoverable"
        assert any("critical" in issue for issue in report.issues)

    def test_corrupt_libc_unrecoverable(self, image):
        damaged = bytearray(image)
        offset = bytes(damaged).find(b"LIBC-2.2.4-SIM")
        damaged[offset:offset + 4] = b"XXXX"
        assert fsck(bytes(damaged)).status == "unrecoverable"

    def test_repair_rebuilds_bitmap_and_clears_dirty(self, image):
        damaged = bytearray(image)
        struct.pack_into("<I", damaged, 8 * 4, 0)
        bitmap = BLOCK_SIZE
        damaged[bitmap + 4] = 0
        report = fsck(bytes(damaged), repair=True)
        assert report.repaired is not None
        assert fsck(report.repaired).status == "clean"

    def test_truncated_image_unrecoverable(self):
        assert fsck(b"\x00" * 16).status == "unrecoverable"


class TestSeverityGrading:
    def test_clean_disk_is_normal(self, kernel, binaries, image):
        from repro.injection.severity import grade_severity
        from repro.machine.machine import build_standard_disk
        disk = build_standard_disk(binaries, None)
        severity, status = grade_severity(kernel, disk)
        assert severity == "normal"
        assert status == "clean"

    def test_unrecoverable_disk_is_most_severe(self, kernel, image):
        from repro.injection.severity import grade_severity
        damaged = bytearray(image)
        struct.pack_into("<I", damaged, 0, 0)
        severity, status = grade_severity(kernel, bytes(damaged))
        assert severity == "most_severe"

    def test_downtime_model_ordering(self):
        from repro.injection.severity import SEVERITY_DOWNTIME
        assert SEVERITY_DOWNTIME["normal"] < SEVERITY_DOWNTIME["severe"] \
            < SEVERITY_DOWNTIME["most_severe"]


class TestSeverityReboot:
    def test_inconsistent_but_bootable_is_severe(self, kernel, binaries):
        """Structural damage that fsck can repair grades as 'severe'
        (the reboot attempt on the repaired image succeeds)."""
        import struct as _struct
        from repro.injection.severity import grade_severity
        from repro.machine.machine import build_standard_disk
        disk = bytearray(build_standard_disk(binaries, None))
        # break the bitmap (repairable) and mark mounted-dirty
        _struct.pack_into("<I", disk, 8 * 4, 0)
        disk[BLOCK_SIZE + 2] = 0
        severity, status = grade_severity(kernel, bytes(disk))
        assert status == "inconsistent"
        assert severity == "severe"

    def test_harness_reboot_is_counted_in_its_mode(self, kernel, binaries,
                                                   harness):
        """A harness routes the reboot attempt through its own boot:
        counted in ``boots``, in its execution mode, same grade."""
        import struct as _struct
        from repro.injection.severity import grade_severity
        from repro.machine.machine import build_standard_disk
        disk = bytearray(build_standard_disk(binaries, None))
        _struct.pack_into("<I", disk, 8 * 4, 0)
        disk[BLOCK_SIZE + 2] = 0
        machines = []

        def boot(image):
            machines.append(harness.boot_machine(image))
            return machines[-1]

        boots = harness.boots
        assert grade_severity(kernel, bytes(disk), boot=boot) \
            == ("severe", "inconsistent")
        assert harness.boots == boots + 1
        assert [m.translate for m in machines] == [True]

    def test_repaired_but_unbootable_is_most_severe(self, kernel,
                                                    binaries):
        """fsck repair succeeds but init is gone: reformat class."""
        from repro.injection.severity import grade_severity
        from repro.machine.machine import build_standard_disk
        trimmed = {k: v for k, v in binaries.items() if k != "init"}
        disk = bytearray(build_standard_disk(trimmed, None))
        import struct as _struct
        _struct.pack_into("<I", disk, 8 * 4, 0)
        disk[BLOCK_SIZE + 2] = 0        # inconsistent -> repair+reboot
        severity, status = grade_severity(kernel, bytes(disk))
        assert severity == "most_severe"
