"""User binary format and builder invariants."""

import pytest

from repro.kernel.layout import KernelLayout
from repro.machine.machine import parse_bx_header
from repro.userland.build import build_program
from repro.userland.programs import PROGRAMS, WORKLOADS


class TestBinaryFormat:
    def test_header_magic_and_entry(self, binaries):
        for name, binary in binaries.items():
            magic, entry, filesz, bss = parse_bx_header(binary.image)
            assert magic == 0x0B17C0DE, name
            assert entry == binary.entry
            assert filesz == len(binary.image)
            assert bss == 0

    def test_entry_points_into_text(self, binaries):
        layout = KernelLayout()
        for name, binary in binaries.items():
            assert layout.USER_TEXT < binary.entry \
                < layout.USER_TEXT + len(binary.image)

    def test_data_is_page_separated_from_text(self, binaries):
        """Data writes must not invalidate decoded text pages."""
        layout = KernelLayout()
        for name, binary in binaries.items():
            text_end = max(f.end for f in binary.functions)
            data_start = layout.USER_TEXT + (
                (text_end - layout.USER_TEXT + 4095) // 4096 * 4096)
            # everything after text up to the page boundary is nop pad
            pad = binary.image[text_end - layout.USER_TEXT:
                               data_start - layout.USER_TEXT]
            assert set(pad) <= {0x90}, name

    def test_iters_parameter_changes_binary(self):
        small = build_program("hanoi", iters=1)
        large = build_program("hanoi", iters=9)
        assert small.image != large.image
        assert len(small.image) == len(large.image)  # only the const

    def test_every_workload_has_a_program(self):
        for name in WORKLOADS:
            assert name in PROGRAMS

    def test_unknown_program_rejected(self):
        with pytest.raises(KeyError):
            build_program("doom")

    def test_functions_metadata_sorted_and_disjoint(self, binaries):
        for binary in binaries.values():
            functions = sorted(binary.functions, key=lambda f: f.start)
            for first, second in zip(functions, functions[1:]):
                assert first.end <= second.start

    def test_binaries_fit_ext2lite_file_limit(self, binaries):
        from repro.machine.disk import BLOCK_SIZE, NBLOCKS_PER_INODE
        for name, binary in binaries.items():
            assert len(binary.image) <= NBLOCKS_PER_INODE * BLOCK_SIZE, \
                "%s too big for 12 direct blocks" % name
