"""Physical memory, MMIO routing, and the two-level x86 paging MMU.

The page tables live *inside simulated physical memory* (CR3 points at a
page directory of 32-bit PDEs, which point at pages of 32-bit PTEs), so
kernel memory-management code manipulates real translation structures and
an injected error in ``zap_page_range`` or ``do_wp_page`` corrupts actual
mappings — the mechanism behind several of the paper's severe crashes.

The MMU runs with CR0.WP=1 semantics (i486+, as Linux 2.4 does):
supervisor writes honour the read/write PTE bit, so kernel stores into
copy-on-write user pages fault into ``do_page_fault`` exactly like the
real uaccess path.
"""

from repro.cpu.traps import PF_PRESENT, PF_USER, PF_WRITE, Trap, \
    VEC_PAGE_FAULT

PAGE_SIZE = 4096
PAGE_SHIFT = 12

PTE_PRESENT = 0x001
PTE_RW = 0x002
PTE_USER = 0x004
PTE_ACCESSED = 0x020
PTE_DIRTY = 0x040


class MemoryBus:
    """Physical RAM plus memory-mapped devices, with paging translation."""

    def __init__(self, ram_bytes, mmio_base=None):
        self.ram = bytearray(ram_bytes)
        self.ram_size = ram_bytes
        #: per-page write generation counters; the CPU's decode cache
        #: validates against these so that injected bit flips (and any
        #: self-modifying store) invalidate stale decodes.
        self.page_versions = [0] * ((ram_bytes >> PAGE_SHIFT) + 1)
        self.mmio_base = mmio_base if mmio_base is not None else ram_bytes
        self.devices = []  # (start, end, device)
        self.cr3 = 0
        self.tlb = {}
        #: bumped on every TLB invalidation; the CPU's decode cache keys
        #: user-space entries by this generation (I-TLB semantics), so a
        #: remap becomes visible exactly when a real CPU would see it.
        self.tlb_gen = 0
        self.paging_enabled = False
        #: optional write observer (repro.cpu.translate.BlockCache):
        #: every store path reports the physical byte range written so
        #: translated blocks covering those bytes are evicted.  The
        #: decode cache needs no callback — it revalidates against
        #: page_versions — but both caches are fed by the same store
        #: paths, keeping one invalidation protocol for both.
        self.code_watch = None

    # -- device plumbing ---------------------------------------------------

    def attach_device(self, phys_addr, size, device):
        """Map *device* at physical [phys_addr, phys_addr+size)."""
        self.devices.append((phys_addr, phys_addr + size, device))

    def _device_at(self, phys):
        for start, end, device in self.devices:
            if start <= phys < end:
                return device, phys - start
        return None, 0

    # -- paging -------------------------------------------------------------

    def set_cr3(self, value):
        self.cr3 = value & ~0xFFF
        self.tlb.clear()
        self.tlb_gen += 1

    def flush_tlb(self):
        self.tlb.clear()
        self.tlb_gen += 1

    def invlpg(self, vaddr):
        self.tlb.pop(vaddr >> PAGE_SHIFT, None)
        self.tlb_gen += 1

    def translate(self, vaddr, write, user):
        """Translate a virtual address; raises #PF on failure.

        Returns the physical address.  With paging disabled (early boot),
        addresses are physical already.
        """
        if not self.paging_enabled:
            return vaddr
        vpn = vaddr >> PAGE_SHIFT
        entry = self.tlb.get(vpn)
        if entry is None:
            entry = self._walk(vaddr, write, user)
            self.tlb[vpn] = entry
        pfn, flags = entry
        if user and not flags & PTE_USER:
            raise Trap(VEC_PAGE_FAULT,
                       error_code=PF_PRESENT | PF_USER
                       | (PF_WRITE if write else 0),
                       cr2=vaddr)
        if write and not flags & PTE_RW:
            # CR0.WP=1 semantics (i486+, as Linux 2.4 uses): supervisor
            # writes honour the R/W bit too — kernel writes to COW'd user
            # pages fault into do_page_fault, like the real uaccess path.
            raise Trap(VEC_PAGE_FAULT,
                       error_code=PF_PRESENT | PF_WRITE
                       | (PF_USER if user else 0),
                       cr2=vaddr)
        return (pfn << PAGE_SHIFT) | (vaddr & 0xFFF)

    def _walk(self, vaddr, write, user):
        error = (PF_WRITE if write else 0) | (PF_USER if user else 0)
        pde_addr = self.cr3 + ((vaddr >> 22) << 2)
        pde = self._phys_read32_checked(pde_addr, vaddr, error)
        if not pde & PTE_PRESENT:
            raise Trap(VEC_PAGE_FAULT, error_code=error, cr2=vaddr)
        pte_addr = (pde & ~0xFFF) + (((vaddr >> PAGE_SHIFT) & 0x3FF) << 2)
        pte = self._phys_read32_checked(pte_addr, vaddr, error)
        if not pte & PTE_PRESENT:
            raise Trap(VEC_PAGE_FAULT, error_code=error, cr2=vaddr)
        flags = pte & pde & (PTE_USER | PTE_RW) | PTE_PRESENT
        return (pte >> PAGE_SHIFT, flags)

    def _phys_read32_checked(self, phys, vaddr, error):
        """Read a paging-structure entry; a wild CR3/PDE => page fault."""
        if phys + 4 > self.ram_size:
            raise Trap(VEC_PAGE_FAULT, error_code=error, cr2=vaddr)
        return int.from_bytes(self.ram[phys:phys + 4], "little")

    # -- physical access ------------------------------------------------------

    def phys_read(self, phys, size):
        if phys + size <= self.ram_size:
            return int.from_bytes(self.ram[phys:phys + size], "little")
        device, offset = self._device_at(phys)
        if device is not None:
            return device.mmio_read(offset, size)
        # Reads beyond RAM float high, like a real bus.
        return (1 << (8 * size)) - 1

    def phys_write(self, phys, size, value):
        if phys + size <= self.ram_size:
            self.ram[phys:phys + size] = value.to_bytes(size, "little")
            first = phys >> PAGE_SHIFT
            self.page_versions[first] += 1
            # A write may straddle a page boundary; bump the second
            # page's generation too, or decodes cached there go stale.
            last = (phys + size - 1) >> PAGE_SHIFT
            if last != first:
                self.page_versions[last] += 1
            watch = self.code_watch
            if watch is not None \
                    and (first in watch.page_ranges
                         or last in watch.page_ranges):
                watch.note_write(phys, size)
            return
        device, offset = self._device_at(phys)
        if device is not None:
            device.mmio_write(offset, size, value)

    def phys_read_bytes(self, phys, length):
        return bytes(self.ram[phys:phys + length])

    def phys_write_bytes(self, phys, data):
        if not data:
            return
        self.ram[phys:phys + len(data)] = data
        first = phys >> PAGE_SHIFT
        last = (phys + len(data) - 1) >> PAGE_SHIFT
        for page in range(first, last + 1):
            self.page_versions[page] += 1
        watch = self.code_watch
        if watch is not None:
            watch.note_write(phys, len(data))

    # -- virtual access (used by the CPU) -------------------------------------

    def read(self, vaddr, size, user):
        vaddr &= 0xFFFFFFFF
        if (vaddr & 0xFFF) + size > PAGE_SIZE:  # split across pages
            value = 0
            for i in range(size):
                phys = self.translate((vaddr + i) & 0xFFFFFFFF, False, user)
                value |= self.phys_read(phys, 1) << (8 * i)
            return value
        phys = self.translate(vaddr, False, user)
        return self.phys_read(phys, size)

    def code_bytes(self, start, length, user):
        """RAM bytes at virtual ``[start, start+length)``, read with no
        side effect but TLB fills, or ``None`` when a page is unmapped
        or the range leaves RAM — callers then take the full fetch
        path, which handles the fault or device access bit-exactly.
        Decoded-code caches shared across machines revalidate with it.
        """
        if length <= 0:
            return None
        pieces = []
        v = start
        end = start + length
        try:
            while v < end:
                seg_end = min(end, ((v >> PAGE_SHIFT) + 1) << PAGE_SHIFT)
                phys = self.translate(v & 0xFFFFFFFF, False, user)
                if phys + (seg_end - v) > self.ram_size:
                    return None
                pieces.append(self.ram[phys:phys + seg_end - v])
                v = seg_end
        except Trap:
            return None
        return b"".join(pieces)

    def write(self, vaddr, size, value, user):
        vaddr &= 0xFFFFFFFF
        if (vaddr & 0xFFF) + size > PAGE_SIZE:
            for i in range(size):
                phys = self.translate((vaddr + i) & 0xFFFFFFFF, True, user)
                self.phys_write(phys, 1, (value >> (8 * i)) & 0xFF)
            return
        phys = self.translate(vaddr, True, user)
        self.phys_write(phys, size, value)


class PageTableBuilder:
    """Host-side helper that writes boot page tables into physical RAM.

    The simulated kernel receives control with paging already enabled
    (mirroring the situation after head.S on Linux): the kernel linear
    map ``KERNEL_BASE + phys -> phys`` is in place, built by this class.
    """

    def __init__(self, bus, table_phys_base):
        self.bus = bus
        self.next_free = table_phys_base
        self.pgdir = self._alloc_page()

    def _alloc_page(self):
        page = self.next_free
        self.next_free += PAGE_SIZE
        self.bus.ram[page:page + PAGE_SIZE] = b"\0" * PAGE_SIZE
        return page

    def map_page(self, vaddr, phys, user=False, writable=True):
        flags = PTE_PRESENT
        if writable:
            flags |= PTE_RW
        if user:
            flags |= PTE_USER
        pde_addr = self.pgdir + ((vaddr >> 22) << 2)
        pde = int.from_bytes(self.bus.ram[pde_addr:pde_addr + 4], "little")
        if not pde & PTE_PRESENT:
            table = self._alloc_page()
            # Leave PDEs maximally permissive; PTE bits gate access.
            pde = table | PTE_PRESENT | PTE_RW | PTE_USER
            self.bus.ram[pde_addr:pde_addr + 4] = pde.to_bytes(4, "little")
        table = pde & ~0xFFF
        pte_addr = table + (((vaddr >> PAGE_SHIFT) & 0x3FF) << 2)
        pte = phys | flags
        self.bus.ram[pte_addr:pte_addr + 4] = pte.to_bytes(4, "little")

    def map_range(self, vaddr, phys, length, user=False, writable=True):
        offset = 0
        while offset < length:
            self.map_page(vaddr + offset, phys + offset, user=user,
                          writable=writable)
            offset += PAGE_SIZE

    def activate(self):
        self.bus.set_cr3(self.pgdir)
        self.bus.paging_enabled = True
        return self.pgdir
