"""fsck severity-ladder edge cases (§7.1 grading oracle).

Three rungs the campaign statistics lean on, probed directly:
indirect-block corruption (structural, repair-class), superblock
damage (reformat-class), and a dirty-but-repairable image (normal
reboot-and-fsck class).  Damaged images are what the most-severe
class measures, so fsck must grade any corruption without raising.
"""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.machine.disk import (
    BITMAP_BLOCK,
    BLOCK_SIZE,
    DATA_START,
    DINODE_BYTES,
    DIRENT_BYTES,
    DISK_BLOCKS,
    IND_SLOT,
    IT_DIR,
    ITABLE_BLOCK,
    LIBC_CONTENT,
    N_INODES,
    ROOT_INO,
    fsck,
    mkfs,
    read_file,
)

FAT_PAYLOAD = bytes(range(256)) * 4 * 30        # 30 KiB: 30 blocks

FILES = {
    "/bin/init": b"\x01" * 500,
    "/bin/fat": FAT_PAYLOAD,                    # forces the indirect path
    "/etc/workload": b"/bin/fat",
    "/lib/libc.txt": LIBC_CONTENT,
}


def _inode_base(image, predicate):
    """Byte offset of the first inode whose decoded fields match."""
    for ino in range(1, N_INODES):
        base = ITABLE_BLOCK * BLOCK_SIZE + ino * DINODE_BYTES
        fields = struct.unpack_from("<4I12I", image, base)
        if fields[0] and predicate(fields):
            return base
    raise AssertionError("no matching inode")


def _indirect_inode_base(image):
    return _inode_base(image, lambda f: f[4 + IND_SLOT] != 0)


def _dir_blocks(image, ino=None):
    """Data blocks of directory inode *ino* (of every one if None)."""
    blocks = []
    for candidate in range(1, N_INODES):
        base = ITABLE_BLOCK * BLOCK_SIZE + candidate * DINODE_BYTES
        fields = struct.unpack_from("<4I12I", image, base)
        if fields[0] == IT_DIR and ino in (None, candidate):
            blocks.extend(b for b in fields[4:] if b)
    return blocks


def _dirent_offset(image, name, dir_ino=ROOT_INO):
    """Byte offset of directory entry *name* in *dir_ino*."""
    for blk in _dir_blocks(image, dir_ino):
        for slot in range(0, BLOCK_SIZE, DIRENT_BYTES):
            offset = blk * BLOCK_SIZE + slot
            raw = bytes(image[offset + 4:offset + DIRENT_BYTES])
            if raw.split(b"\0")[0] == name.encode():
                return offset
    raise AssertionError("no directory entry %r" % name)


@pytest.fixture()
def image():
    return mkfs(FILES)


class TestIndirectBlockCorruption:
    def test_image_really_uses_an_indirect_block(self, image):
        assert read_file(image, "/bin/fat") == FAT_PAYLOAD
        _indirect_inode_base(image)             # raises if none

    def test_indirect_pointer_out_of_range_is_inconsistent(self, image):
        damaged = bytearray(image)
        base = _indirect_inode_base(damaged)
        struct.pack_into("<I", damaged, base + (4 + IND_SLOT) * 4,
                         DISK_BLOCKS + 7)
        report = fsck(bytes(damaged))
        assert report.status == "inconsistent"
        assert any("indirect" in issue for issue in report.issues)

    def test_indirect_entry_out_of_range_is_inconsistent(self, image):
        """A wild pointer *inside* the indirect block, not the slot."""
        damaged = bytearray(image)
        base = _indirect_inode_base(damaged)
        indirect = struct.unpack_from(
            "<I", damaged, base + (4 + IND_SLOT) * 4)[0]
        struct.pack_into("<I", damaged, indirect * BLOCK_SIZE, 0xFFFF)
        report = fsck(bytes(damaged))
        assert report.status == "inconsistent"
        assert any("out of range" in issue for issue in report.issues)

    def test_indirect_entry_duplicating_a_block_is_inconsistent(
            self, image):
        damaged = bytearray(image)
        base = _indirect_inode_base(damaged)
        indirect = struct.unpack_from(
            "<I", damaged, base + (4 + IND_SLOT) * 4)[0]
        first_direct = struct.unpack_from("<I", damaged, base + 4 * 4)[0]
        struct.pack_into("<I", damaged, indirect * BLOCK_SIZE,
                         first_direct)
        report = fsck(bytes(damaged))
        assert report.status == "inconsistent"
        assert any("multiply used" in issue for issue in report.issues)

    def test_indirect_damage_grades_severe(self, image):
        from repro.injection.severity import SEVERITY_DOWNTIME
        damaged = bytearray(image)
        base = _indirect_inode_base(damaged)
        struct.pack_into("<I", damaged, base + (4 + IND_SLOT) * 4,
                         DISK_BLOCKS + 7)
        # The ladder maps structural damage to the "severe" rung,
        # which must cost more downtime than a normal reboot.
        assert fsck(bytes(damaged)).status == "inconsistent"
        assert SEVERITY_DOWNTIME["severe"] > SEVERITY_DOWNTIME["normal"]


class TestSuperblockDamage:
    def test_geometry_damage_is_unrecoverable(self, image):
        damaged = bytearray(image)
        struct.pack_into("<I", damaged, 1 * 4, DISK_BLOCKS * 2)
        report = fsck(bytes(damaged))
        assert report.status == "unrecoverable"
        assert any("geometry" in issue for issue in report.issues)

    def test_root_inode_pointer_damage_is_unrecoverable(self, image):
        damaged = bytearray(image)
        struct.pack_into("<I", damaged, 7 * 4, 99)  # root_ino slot
        assert fsck(bytes(damaged)).status == "unrecoverable"

    def test_magic_high_bits_are_ignored(self, image):
        # Only the low 16 bits carry the ext2 magic; a flip in the
        # (unused) high half must not fail the whole filesystem.
        damaged = bytearray(image)
        magic = struct.unpack_from("<I", damaged, 0)[0]
        struct.pack_into("<I", damaged, 0, magic | 0x40000000)
        assert fsck(bytes(damaged)).status == "clean"

    def test_root_inode_type_corruption_is_unrecoverable(self, image):
        damaged = bytearray(image)
        base = ITABLE_BLOCK * BLOCK_SIZE + 1 * DINODE_BYTES
        struct.pack_into("<I", damaged, base, 1)    # root: dir -> file
        report = fsck(bytes(damaged))
        assert report.status == "unrecoverable"
        assert any("root inode" in issue for issue in report.issues)

    def test_unrecoverable_grades_most_severe(self, kernel, image):
        from repro.injection.severity import grade_severity
        damaged = bytearray(image)
        struct.pack_into("<I", damaged, 1 * 4, 0)
        severity, status = grade_severity(kernel, bytes(damaged))
        assert status == "unrecoverable"
        assert severity == "most_severe"


class TestDirtyButRepairable:
    def _dirty(self, image):
        damaged = bytearray(image)
        struct.pack_into("<I", damaged, 8 * 4, 0)   # state = mounted
        return damaged

    def test_dirty_flag_alone_is_dirty(self, image):
        assert fsck(bytes(self._dirty(image))).status == "dirty"

    def test_leaked_blocks_stay_dirty_not_inconsistent(self, image):
        # Blocks marked used but unreferenced are a leak, not
        # structural damage: auto-fsck reclaims them on reboot.
        damaged = self._dirty(image)
        bitmap = BLOCK_SIZE
        damaged[bitmap + ((DISK_BLOCKS - 1) >> 3)] |= 0x80
        report = fsck(bytes(damaged))
        assert report.status == "dirty"
        assert any("unreferenced" in issue for issue in report.issues)

    def test_repair_round_trips_to_clean(self, image):
        damaged = self._dirty(image)
        damaged[BLOCK_SIZE + (DATA_START >> 3)] = 0  # bitmap damage too
        report = fsck(bytes(damaged), repair=True)
        assert report.repaired is not None
        assert fsck(report.repaired).status == "clean"

    def test_repair_preserves_file_content(self, image):
        damaged = self._dirty(image)
        report = fsck(bytes(damaged), repair=True)
        assert read_file(report.repaired, "/bin/fat") == FAT_PAYLOAD
        assert read_file(report.repaired, "/bin/init") == b"\x01" * 500

    def test_dirty_grades_normal(self, kernel, image):
        from repro.injection.severity import grade_severity
        severity, status = grade_severity(kernel,
                                          bytes(self._dirty(image)))
        assert status == "dirty"
        assert severity == "normal"


@pytest.fixture(scope="module")
def fstime(binaries):
    """The fstime guest's disk and its critical files."""
    from repro.machine.machine import build_standard_disk
    return (build_standard_disk(binaries, "fstime"),
            {"/bin/init": binaries["init"].image})


STATUSES = ("clean", "dirty", "inconsistent", "unrecoverable")


class TestAnyCorruptionGrades:
    def test_wild_directory_entry_is_unrecoverable(self, kernel, fstime):
        from repro.injection.severity import grade_severity
        image, golden = fstime
        damaged = bytearray(image)
        # Bit 18 of /bin's inode number: looking up /bin/init used to
        # read an inode 16 MiB past the end of the 1 MiB image.
        damaged[_dirent_offset(image, "bin") + 2] ^= 1 << 2
        report = fsck(bytes(damaged), golden_files=golden)
        assert report.status == "unrecoverable"
        assert any("/bin/init" in issue for issue in report.issues)
        assert (grade_severity(kernel, bytes(damaged),
                               golden_files=golden)
                == ("most_severe", "unrecoverable"))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_fsck_never_raises(self, fstime, data):
        image, golden = fstime
        regions = {
            "superblock": [(0, struct.calcsize("<10I"))],
            "bitmap": [(BITMAP_BLOCK * BLOCK_SIZE, BLOCK_SIZE)],
            "inode table": [(ITABLE_BLOCK * BLOCK_SIZE,
                             N_INODES * DINODE_BYTES)],
            "directory blocks": [(blk * BLOCK_SIZE, BLOCK_SIZE)
                                 for blk in _dir_blocks(image)],
        }
        region = data.draw(st.sampled_from(sorted(regions)))
        start, length = data.draw(st.sampled_from(regions[region]))
        writes = data.draw(st.lists(
            st.tuples(st.integers(0, length - 1), st.integers(0, 255)),
            min_size=1, max_size=8))
        damaged = bytearray(image)
        for offset, value in writes:
            damaged[start + offset] = value
        assert fsck(bytes(damaged), golden_files=golden).status \
            in STATUSES
