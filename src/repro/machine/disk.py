"""Host-side ext2lite image tools: mkfs, file access, and fsck.

``fsck`` is the severity oracle of §7.1: after every crash the harness
inspects the disk image and grades the damage:

* ``clean``         — cleanly unmounted, no issues (normal reboot)
* ``dirty``         — mounted-dirty flag only; auto-fsck on boot (normal)
* ``inconsistent``  — structural damage fsck can repair (severe: >5 min,
  operator-assisted, per the paper)
* ``unrecoverable`` — superblock/root/critical files destroyed; the
  filesystem must be re-created (most severe: ~1 h reinstall)
"""

import struct

BLOCK_SIZE = 1024
DISK_BLOCKS = 1024          # 1 MiB image
N_INODES = 128
BITMAP_BLOCK = 1
ITABLE_BLOCK = 2
ITABLE_BLOCKS = 8
DATA_START = ITABLE_BLOCK + ITABLE_BLOCKS
ROOT_INO = 1
EXT2_MAGIC = 0xEF53
DINODE_BYTES = 64
INODES_PER_BLOCK = BLOCK_SIZE // DINODE_BYTES
DIRENT_BYTES = 32
NBLOCKS_PER_INODE = 12      # inode slots: 11 direct + 1 single-indirect
NDIR_BLOCKS = 11
IND_SLOT = 11
ADDR_PER_BLOCK = BLOCK_SIZE // 4
MAX_FILE_BLOCKS = NDIR_BLOCKS + ADDR_PER_BLOCK

IT_FILE = 1
IT_DIR = 2

LIBC_CONTENT = (b"LIBC-2.2.4-SIM\n"
                b"This file stands in for /lib/i686/libc.so.6; init "
                b"refuses to run when it is truncated or corrupt "
                b"(paper Table 5 case 1).\n")


class MkfsError(Exception):
    pass


class _Builder:
    def __init__(self):
        self.image = bytearray(BLOCK_SIZE * DISK_BLOCKS)
        self.used_blocks = set(range(DATA_START))
        self.next_ino = ROOT_INO
        self.inodes = {}        # ino -> dict(type, size, blocks)
        self.dirs = {}          # path -> ino
        self.dirents = {}       # dir ino -> [(name, ino)]

    def alloc_ino(self, itype):
        ino = self.next_ino
        if ino >= N_INODES:
            raise MkfsError("out of inodes")
        self.next_ino += 1
        self.inodes[ino] = {"type": itype, "size": 0, "blocks": []}
        return ino

    def alloc_block(self):
        for blk in range(DATA_START, DISK_BLOCKS):
            if blk not in self.used_blocks:
                self.used_blocks.add(blk)
                return blk
        raise MkfsError("out of blocks")

    def write_data(self, ino, data):
        node = self.inodes[ino]
        if len(data) > MAX_FILE_BLOCKS * BLOCK_SIZE:
            raise MkfsError("file too large: %d bytes" % len(data))
        data_blocks = []
        offset = 0
        while offset < len(data):
            blk = self.alloc_block()
            data_blocks.append(blk)
            chunk = data[offset:offset + BLOCK_SIZE]
            self.image[blk * BLOCK_SIZE:blk * BLOCK_SIZE + len(chunk)] = \
                chunk
            offset += BLOCK_SIZE
        node["blocks"] = data_blocks[:NDIR_BLOCKS]
        overflow = data_blocks[NDIR_BLOCKS:]
        if overflow:
            ind = self.alloc_block()
            base = ind * BLOCK_SIZE
            for i, blk in enumerate(overflow):
                struct.pack_into("<I", self.image, base + 4 * i, blk)
            node["blocks"] += [0] * (NDIR_BLOCKS - len(node["blocks"]))
            node["blocks"].append(ind)
        node["size"] = len(data)

    def add_dirent(self, dir_ino, name, ino):
        if len(name) > 27:
            raise MkfsError("name too long %r" % name)
        self.dirents.setdefault(dir_ino, []).append((name, ino))

    def get_dir(self, path):
        if path in self.dirs:
            return self.dirs[path]
        if path == "/":
            ino = self.alloc_ino(IT_DIR)
            self.dirs["/"] = ino
            return ino
        parent_path, _, name = path.rstrip("/").rpartition("/")
        parent = self.get_dir(parent_path or "/")
        ino = self.alloc_ino(IT_DIR)
        self.add_dirent(parent, name, ino)
        self.dirs[path] = ino
        return ino

    def add_file(self, path, data):
        parent_path, _, name = path.rpartition("/")
        parent = self.get_dir(parent_path or "/")
        ino = self.alloc_ino(IT_FILE)
        self.write_data(ino, data)
        self.add_dirent(parent, name, ino)
        return ino

    def _write_dirents(self):
        for dir_ino, entries in self.dirents.items():
            node = self.inodes[dir_ino]
            per_block = BLOCK_SIZE // DIRENT_BYTES
            if (len(entries) + per_block - 1) // per_block > NDIR_BLOCKS:
                raise MkfsError("directory too large")
            for start in range(0, len(entries), per_block):
                blk = self.alloc_block()
                node["blocks"].append(blk)
                base = blk * BLOCK_SIZE
                for i, (name, ino) in enumerate(
                        entries[start:start + per_block]):
                    entry = struct.pack("<I", ino) \
                        + name.encode().ljust(28, b"\0")
                    self.image[base + i * DIRENT_BYTES:
                               base + (i + 1) * DIRENT_BYTES] = entry
                node["size"] += BLOCK_SIZE

    def finalize(self):
        self._write_dirents()
        # Superblock.
        struct.pack_into(
            "<10I", self.image, 0,
            EXT2_MAGIC, DISK_BLOCKS, N_INODES, BITMAP_BLOCK, ITABLE_BLOCK,
            ITABLE_BLOCKS, DATA_START, ROOT_INO, 1, 0)
        # Bitmap.
        bitmap_base = BITMAP_BLOCK * BLOCK_SIZE
        self.image[bitmap_base:bitmap_base + BLOCK_SIZE] = \
            b"\0" * BLOCK_SIZE
        for blk in self.used_blocks:
            self.image[bitmap_base + (blk >> 3)] |= 1 << (blk & 7)
        # Inode table.
        for ino, node in self.inodes.items():
            base = ITABLE_BLOCK * BLOCK_SIZE + ino * DINODE_BYTES
            blocks = node["blocks"] + [0] * (NBLOCKS_PER_INODE
                                             - len(node["blocks"]))
            struct.pack_into("<4I12I", self.image, base,
                             node["type"], node["size"], 1, 0, *blocks)
        return bytes(self.image)


def mkfs(files, dirs=("/bin", "/etc", "/lib", "/var")):
    """Build an ext2lite image.

    Args:
        files: mapping path -> bytes.
        dirs: directories to pre-create (parents are implied).
    """
    builder = _Builder()
    builder.get_dir("/")
    for path in dirs:
        builder.get_dir(path)
    for path in sorted(files):
        builder.add_file(path, files[path])
    return builder.finalize()


# -- read access -------------------------------------------------------------


def _read_inode(image, ino):
    base = ITABLE_BLOCK * BLOCK_SIZE + ino * DINODE_BYTES
    fields = struct.unpack_from("<4I12I", image, base)
    return {"type": fields[0], "size": fields[1],
            "blocks": [b for b in fields[4:16]]}


def _data_blocks(image, node):
    """Expand an inode's slot list into its full data-block list."""
    blocks = list(node["blocks"][:NDIR_BLOCKS])
    indirect = node["blocks"][IND_SLOT] \
        if len(node["blocks"]) > IND_SLOT else 0
    if indirect and DATA_START <= indirect < DISK_BLOCKS:
        base = indirect * BLOCK_SIZE
        for i in range(ADDR_PER_BLOCK):
            blocks.append(struct.unpack_from("<I", image,
                                             base + 4 * i)[0])
    return blocks, indirect


def list_dir(image, dir_ino=ROOT_INO):
    """Return [(name, ino)] for a directory inode."""
    node = _read_inode(image, dir_ino)
    entries = []
    nblocks = (node["size"] + BLOCK_SIZE - 1) // BLOCK_SIZE
    for i in range(min(nblocks, NBLOCKS_PER_INODE)):
        blk = node["blocks"][i]
        if not blk or blk >= DISK_BLOCKS:
            continue  # wild pointers are reported by fsck's walk
        base = blk * BLOCK_SIZE
        for slot in range(0, BLOCK_SIZE, DIRENT_BYTES):
            ino = struct.unpack_from("<I", image, base + slot)[0]
            if ino:
                raw = bytes(image[base + slot + 4:base + slot + 32])
                name = raw.split(b"\0")[0].decode("latin-1")
                entries.append((name, ino))
    return entries


def _lookup(image, path):
    ino = ROOT_INO
    for part in path.strip("/").split("/"):
        if not part:
            continue
        node = _read_inode(image, ino)
        if node["type"] != IT_DIR:
            return None
        found = None
        for name, child in list_dir(image, ino):
            # An entry naming an inode outside the table is absent,
            # the same bound fsck's walk applies.
            if name == part and 0 < child < N_INODES:
                found = child
                break
        if found is None:
            return None
        ino = found
    return ino


def read_file(image, path):
    """Read a file's content from the image (None if absent)."""
    ino = _lookup(image, path)
    if ino is None:
        return None
    node = _read_inode(image, ino)
    if node["type"] != IT_FILE:
        return None
    blocks, _indirect = _data_blocks(image, node)
    out = bytearray()
    remaining = node["size"]
    for blk in blocks:
        if remaining <= 0:
            break
        take = min(BLOCK_SIZE, remaining)
        if blk == 0 or blk >= DISK_BLOCKS:
            out += b"\0" * take
        else:
            out += image[blk * BLOCK_SIZE:blk * BLOCK_SIZE + take]
        remaining -= take
    return bytes(out)


# -- fsck ------------------------------------------------------------------------


class FsckReport:
    """Result of checking an image.

    ``status``: ``clean`` / ``dirty`` / ``inconsistent`` /
    ``unrecoverable``; ``issues`` lists human-readable findings;
    ``repaired`` carries the repaired image if repair was requested.
    """

    def __init__(self, status, issues, repaired=None):
        self.status = status
        self.issues = issues
        self.repaired = repaired

    def __repr__(self):
        return "FsckReport(%s, %d issue(s))" % (self.status,
                                                len(self.issues))


def fsck(image, golden_files=None, repair=False):
    """Check (and optionally repair) an ext2lite image.

    Args:
        image: image bytes.
        golden_files: optional mapping path -> expected bytes for
            *critical* files (e.g. ``/bin/init``); corruption of these is
            unrecoverable — the paper's "requires reformat" class.
        repair: attempt repair; the result lands in ``report.repaired``.
    """
    issues = []
    image = bytearray(image)
    try:
        sb = struct.unpack_from("<10I", image, 0)
    except struct.error:
        return FsckReport("unrecoverable", ["image too small"])
    magic, nblocks, ninodes, bitmap_blk, itable, iblocks, data_start, \
        root_ino, state, _mounts = sb
    if magic & 0xFFFF != EXT2_MAGIC:
        return FsckReport("unrecoverable", ["bad superblock magic"])
    if (nblocks != DISK_BLOCKS or bitmap_blk != BITMAP_BLOCK
            or itable != ITABLE_BLOCK or data_start != DATA_START
            or root_ino != ROOT_INO):
        return FsckReport("unrecoverable", ["superblock geometry damaged"])
    if state != 1:
        issues.append("filesystem was not cleanly unmounted")

    # Walk the tree from the root, collecting block usage.
    used = set(range(DATA_START))
    seen_inodes = set()
    structural = []

    def walk(ino, path):
        if ino in seen_inodes:
            structural.append("inode %d reached twice (%s)" % (ino, path))
            return
        seen_inodes.add(ino)
        if not 0 < ino < N_INODES:
            structural.append("bad inode number %d (%s)" % (ino, path))
            return
        node = _read_inode(image, ino)
        if node["type"] not in (IT_FILE, IT_DIR):
            structural.append("inode %d has bad type %d (%s)"
                              % (ino, node["type"], path))
            return
        needed = (node["size"] + BLOCK_SIZE - 1) // BLOCK_SIZE
        if needed > MAX_FILE_BLOCKS:
            structural.append("inode %d size %d too large (%s)"
                              % (ino, node["size"], path))
            needed = MAX_FILE_BLOCKS
        blocks, indirect = _data_blocks(image, node)
        if indirect:
            if not DATA_START <= indirect < DISK_BLOCKS:
                structural.append("inode %d indirect block %d out of "
                                  "range (%s)" % (ino, indirect, path))
            elif indirect in used:
                structural.append("indirect block %d multiply used (%s)"
                                  % (indirect, path))
            else:
                used.add(indirect)
        for i, blk in enumerate(blocks):
            if blk == 0:
                continue
            if not DATA_START <= blk < DISK_BLOCKS:
                structural.append("inode %d block %d out of range (%s)"
                                  % (ino, blk, path))
                continue
            if blk in used:
                structural.append("block %d multiply used (%s)"
                                  % (blk, path))
            used.add(blk)
        if node["type"] == IT_DIR:
            for name, child in list_dir(image, ino):
                walk(child, path + "/" + name)

    root = _read_inode(image, ROOT_INO)
    if root["type"] != IT_DIR:
        return FsckReport("unrecoverable",
                          issues + ["root inode is not a directory"])
    walk(ROOT_INO, "")

    # Bitmap consistency.
    bitmap_base = BITMAP_BLOCK * BLOCK_SIZE
    marked = set()
    for blk in range(DISK_BLOCKS):
        if image[bitmap_base + (blk >> 3)] & (1 << (blk & 7)):
            marked.add(blk)
    leaked = marked - used
    missing = used - marked
    if missing:
        structural.append("%d in-use blocks missing from bitmap"
                          % len(missing))
    if leaked:
        issues.append("%d blocks marked used but unreferenced"
                      % len(leaked))

    # Critical-file integrity (unrecoverable when damaged).
    fatal = []
    if golden_files:
        for path, expected in golden_files.items():
            actual = read_file(bytes(image), path)
            if actual != expected:
                fatal.append("critical file %s damaged" % path)
    libc = read_file(bytes(image), "/lib/libc.txt")
    if libc is not None and not libc.startswith(b"LIBC-2.2.4-SIM"):
        fatal.append("/lib/libc.txt corrupt")

    if fatal:
        return FsckReport("unrecoverable", issues + structural + fatal)
    if structural:
        status = "inconsistent"
    elif state != 1:
        status = "dirty"
    else:
        status = "clean" if not issues else "dirty"

    repaired = None
    if repair:
        # Rebuild the bitmap from the walk and mark the fs clean.
        fresh = bytearray(image)
        fresh[bitmap_base:bitmap_base + BLOCK_SIZE] = b"\0" * BLOCK_SIZE
        for blk in used:
            fresh[bitmap_base + (blk >> 3)] |= 1 << (blk & 7)
        struct.pack_into("<I", fresh, 8 * 4, 1)  # state = clean
        repaired = bytes(fresh)

    return FsckReport(status, issues + structural, repaired=repaired)
