"""Memory-mapped platform devices.

The device complement mirrors the paper's experimental rig:

* :class:`ConsoleDevice` — where kernel ``printk`` output and the oops
  text land (the paper read these off the serial console / ``/var/log``).
* :class:`DiskDevice` — a DMA block device carrying the ext2-like root
  filesystem; its image is inspected by the host-side ``fsck`` to grade
  crash severity (paper §7.1).
* :class:`DumpDevice` — the LKCD stand-in: the kernel's crash handler
  writes the register file, trap cause, and latency counter here, giving
  the harness its "dumped crash" record (paper Figures 4 and 6).
* :class:`ShutdownDevice` — clean power-off used by ``init``; also the
  reboot line the watchdog would pull.
"""


class MachineShutdown(Exception):
    """The kernel wrote the shutdown port; the run is over."""

    def __init__(self, code):
        super().__init__("machine shutdown with code %d" % code)
        self.code = code


class ConsoleDevice:
    """Write-only byte-oriented console at offset 0."""

    def __init__(self):
        self.buffer = bytearray()

    def mmio_read(self, offset, size):
        return 0

    def mmio_write(self, offset, size, value):
        if offset == 0:
            self.buffer.append(value & 0xFF)

    @property
    def text(self):
        return self.buffer.decode("latin-1")


class DiskDevice:
    """Synchronous DMA disk controller.

    Register map (32-bit registers, byte offsets):

    == ========= =====================================================
    0  SECTOR    first sector of the transfer
    4  COUNT     number of 512-byte sectors
    8  DMA       physical RAM address of the buffer
    12 CMD       write 1 = read sectors into RAM, 2 = write RAM to disk
    16 STATUS    0 = ok, 1 = out-of-range, 2 = bad DMA address,
                 3 = command timeout, 4 = transient media error
    == ========= =====================================================

    Device-level fault injection (:meth:`arm_fault`) models the three
    disk faults of the fault-model framework: ``corrupt`` flips one bit
    of the DMA-transferred data on the next read(s), ``timeout`` makes
    the controller stop answering reads (sticky — the device is gone),
    and ``transient`` fails the next N reads with a media error and
    then recovers, which a driver retry path can mask entirely.

    A machine's run depends on its disk only through the sectors it
    transfers.  While :attr:`transferred` is a dict (a shared boot arms
    it; it is ``None`` otherwise, so campaign machines pay nothing) the
    controller records each sector's content before its first
    transfer, read or write: a snapshot can then continue as the boot
    of any image that matches it there
    (:meth:`~repro.machine.machine.MachineSnapshot.clone`).
    """

    #: Controller state a snapshot carries (registers, then counters).
    STATE = ("sector", "count", "dma", "status", "reads", "writes")

    SECTOR_SIZE = 512

    CMD_READ = 1
    CMD_WRITE = 2

    STATUS_OK = 0
    STATUS_RANGE = 1
    STATUS_BAD_DMA = 2
    STATUS_TIMEOUT = 3
    STATUS_TRANSIENT = 4

    FAULT_CORRUPT = "corrupt"
    FAULT_TIMEOUT = "timeout"
    FAULT_TRANSIENT = "transient"

    def __init__(self, bus, image):
        self.bus = bus
        self.image = bytearray(image)
        self.sector = 0
        self.count = 0
        self.dma = 0
        self.status = 0
        self.reads = 0
        self.writes = 0
        # Armed fault state (None when healthy).
        self.fault_kind = None
        self.fault_ops = 0          # reads still affected (timeout: n/a)
        self.fault_byte = 0         # corrupt: byte offset into transfer
        self.fault_bit = 0          # corrupt: bit to flip
        self.fault_notify = None    # callback() on each faulted read
        self.faulted_reads = 0
        #: sector -> content before its first transfer, or None.
        self.transferred = None

    def arm_fault(self, kind, ops=1, byte_offset=0, bit=0, notify=None):
        """Arm a device-level read fault.

        Args:
            kind: ``corrupt`` / ``timeout`` / ``transient``.
            ops: number of reads affected (ignored for ``timeout``,
                which is sticky: a timed-out controller stays dead).
            byte_offset: for ``corrupt``, offset into the transferred
                data (wrapped to the transfer length).
            bit: for ``corrupt``, the bit to flip.
            notify: optional zero-argument callback invoked on every
                faulted read (the injection harness records activation
                from the first call).
        """
        if kind not in (self.FAULT_CORRUPT, self.FAULT_TIMEOUT,
                        self.FAULT_TRANSIENT):
            raise ValueError("unknown disk fault kind %r" % kind)
        self.fault_kind = kind
        self.fault_ops = max(1, int(ops))
        self.fault_byte = byte_offset
        self.fault_bit = bit & 7
        self.fault_notify = notify
        self.faulted_reads = 0

    def _fault_read(self, start, length):
        """Apply the armed fault to one read; returns True if the
        transfer was suppressed (status already set)."""
        kind = self.fault_kind
        self.faulted_reads += 1
        if self.fault_notify is not None:
            self.fault_notify()
        if kind == self.FAULT_TIMEOUT:
            # Sticky: the controller never answers again.
            self.status = self.STATUS_TIMEOUT
            return True
        self.fault_ops -= 1
        if self.fault_ops <= 0:
            self.fault_kind = None
        if kind == self.FAULT_TRANSIENT:
            self.status = self.STATUS_TRANSIENT
            return True
        # corrupt: transfer goes through with one bit flipped in the
        # DMA'd copy (the platter stays intact — a read-path fault).
        data = bytearray(self.image[start:start + length])
        data[self.fault_byte % length] ^= 1 << self.fault_bit
        self.bus.phys_write_bytes(self.dma, bytes(data))
        self.reads += self.count
        self.status = self.STATUS_OK
        return True

    def mmio_read(self, offset, size):
        if offset == 0:
            return self.sector
        if offset == 4:
            return self.count
        if offset == 8:
            return self.dma
        if offset == 16:
            return self.status
        return 0

    def mmio_write(self, offset, size, value):
        if offset == 0:
            self.sector = value
        elif offset == 4:
            self.count = value
        elif offset == 8:
            self.dma = value
        elif offset == 12:
            self._execute(value)

    def _execute(self, cmd):
        length = self.count * self.SECTOR_SIZE
        start = self.sector * self.SECTOR_SIZE
        if start + length > len(self.image) or self.count == 0:
            self.status = 1
            return
        if self.dma + length > self.bus.ram_size:
            self.status = 2
            return
        record = self.transferred
        if record is not None and cmd in (self.CMD_READ, self.CMD_WRITE):
            size = self.SECTOR_SIZE
            for sector in range(self.sector, self.sector + self.count):
                if sector not in record:
                    at = sector * size
                    record[sector] = bytes(self.image[at:at + size])
        if cmd == self.CMD_READ:
            if self.fault_kind is not None \
                    and self._fault_read(start, length):
                return
            self.bus.phys_write_bytes(self.dma, self.image[start:start
                                                           + length])
            self.reads += self.count
            self.status = 0
        elif cmd == self.CMD_WRITE:
            self.image[start:start + length] = self.bus.phys_read_bytes(
                self.dma, length)
            self.writes += self.count
            self.status = 0
        else:
            self.status = 1


class DumpDevice:
    """Crash-dump device (the LKCD stand-in).

    The kernel's crash handler writes one 32-bit word at a time to
    offset 0; a record is terminated by writing to offset 4 (COMMIT).
    Record layout is defined by the kernel's ``crash_dump()`` routine and
    parsed host-side by :mod:`repro.injection.outcomes`.
    """

    def __init__(self):
        self.words = []
        self.records = []

    def mmio_read(self, offset, size):
        return len(self.records)

    def mmio_write(self, offset, size, value):
        if offset == 0:
            self.words.append(value & 0xFFFFFFFF)
        elif offset == 4:
            self.records.append(list(self.words))
            self.words.clear()

    @property
    def last_record(self):
        return self.records[-1] if self.records else None


class ShutdownDevice:
    """Writing any value powers the machine off with that exit code."""

    def mmio_read(self, offset, size):
        return 0

    def mmio_write(self, offset, size, value):
        raise MachineShutdown(value)
