"""The simulated machine: RAM + CPU + devices + boot protocol.

Mirrors the paper's experimental rig (Figure 3): build the machine,
configure which workload ``init`` runs (via ``/etc/workload``), boot,
optionally arm a debug-register breakpoint for the injector, run under a
host watchdog, and collect console output, crash dumps and the final
disk image for severity grading.
"""

import operator
import struct
from itertools import compress, count

from repro.cpu.cpu import CPU, CpuHalted, WatchdogExpired
from repro.cpu.devices import ConsoleDevice, DiskDevice, DumpDevice, \
    MachineShutdown, ShutdownDevice
from repro.cpu.memory import PAGE_SHIFT, PAGE_SIZE, MemoryBus, \
    PageTableBuilder
from repro.cpu.traps import TripleFault
from repro.kernel.layout import KernelLayout
from repro.machine.disk import LIBC_CONTENT, mkfs

DEFAULT_WATCHDOG = 30_000_000

#: Cycles between the snapshots a shared boot keeps: each costs a copy
#: of RAM, and a rebased clone repeats at most this much of the prefix.
SHARED_BOOT_KEEP_EVERY = 16_384

#: Cycles per window of a checkpointed run (:meth:`Machine.run`): the
#: run keeps a checkpoint at the end of every window, and a clone of
#: the last checkpoint before an instruction first ran repeats at most
#: this much of the run before reaching it.
CHECKPOINT_EVERY = SHARED_BOOT_KEEP_EVERY


class CrashRecord:
    """Parsed kernel crash dump (written by the kernel's crash handler).

    Word layout (see arch crash_dump): vector, error code, cr2, eip, cs,
    eflags, 8 pusha registers, tsc, pid, recovered flag (0 = the dump
    preceded a halt; 1 = oops-kill-continue; 2 = soft-lockup kill).
    """

    REG_NAMES = ("edi", "esi", "ebp", "esp", "ebx", "edx", "ecx", "eax")

    def __init__(self, words):
        self.words = list(words)
        self.vector = words[0]
        self.error_code = words[1]
        self.cr2 = words[2]
        self.eip = words[3]
        self.cs = words[4]
        self.eflags = words[5]
        self.regs = dict(zip(self.REG_NAMES, words[6:14]))
        self.tsc = words[14] if len(words) > 14 else 0
        self.pid = words[15] if len(words) > 15 else -1
        #: Nonzero when the kernel attempted kill-and-continue recovery
        #: after writing this dump (old dumps lack the word: fatal).
        self.recovered = words[16] if len(words) > 16 else 0

    def __repr__(self):
        return ("CrashRecord(vector=%d, cr2=%#x, eip=%#x, tsc=%d%s)"
                % (self.vector, self.cr2, self.eip, self.tsc,
                   ", recovered" if self.recovered else ""))


class RunResult:
    """Outcome of one machine run."""

    def __init__(self, status, exit_code, console, crash, cycles, instret,
                 disk_image, detail="", crashes=None, trace=None,
                 translation=None):
        #: "shutdown" (clean power-off), "halted" (CPU wedged — a dumped
        #: crash if ``crash`` is set, otherwise a hang), "watchdog"
        #: (hang), or "triple_fault" (unknown crash, no dump possible).
        self.status = status
        self.exit_code = exit_code
        self.console = console
        self.crash = crash          # CrashRecord or None (the last dump)
        #: Every dump record written during the run, in order.  A fault
        #: taken inside the crash handler writes a second record; the
        #: full list makes such nested faults visible to propagation
        #: analysis instead of silently keeping only the last.
        if crashes is not None:
            self.crashes = list(crashes)
        else:
            self.crashes = [crash] if crash is not None else []
        self.cycles = cycles
        self.instret = instret
        self.disk_image = disk_image
        self.detail = detail
        #: :class:`~repro.tracing.ring.Trace` snapshot when the machine
        #: ran with :meth:`Machine.enable_trace`, else ``None``.
        self.trace = trace
        #: Translation-cache telemetry dict (blocks, threaded, compiled,
        #: hits, invalidations, single_steps, resident) when the machine
        #: ran with ``Machine(translate=True)``, else ``None``.
        #: Telemetry only — a translated run's architectural results are
        #: bit-identical to the interpreter's.
        self.translation = translation

    @property
    def crashed(self):
        return self.crash is not None or self.status == "triple_fault"

    @property
    def recovered_dumps(self):
        """Dump records after which the kernel kept running."""
        return [c for c in self.crashes if getattr(c, "recovered", 0)]

    @property
    def continued_after_dump(self):
        """The kernel wrote a crash dump yet the machine ran on.

        Distinct from "halted": a fail-stop kernel always halts at its
        dump, so this is only true for recovery kernels that killed the
        offending task and rescheduled (whatever the eventual status —
        a recovered run may still shut down, hang, or crash later).
        """
        return bool(self.recovered_dumps)

    def __repr__(self):
        return "RunResult(%s, exit=%r, cycles=%d)" % (
            self.status, self.exit_code, self.cycles)


def build_standard_disk(binaries, workload, extra_files=None):
    """Assemble the root filesystem image.

    Args:
        binaries: name -> :class:`~repro.userland.build.UserBinary`.
        workload: program that ``init`` should run (e.g. ``"pipe"``),
            or None for a boot-only image.
        extra_files: extra path -> bytes entries.
    """
    files = {"/lib/libc.txt": LIBC_CONTENT,
             "/etc/motd": b"Welcome to linux-sim 2.4.19-repro\n"}
    for name, binary in binaries.items():
        files["/bin/" + name] = binary.image
    if workload is not None:
        files["/etc/workload"] = ("/bin/" + workload).encode()
    if extra_files:
        files.update(extra_files)
    return mkfs(files)


class Machine:
    """One bootable machine instance.

    The constructor is cheap relative to a run: it copies the kernel
    image and disk image into fresh RAM, so every injection experiment
    gets a pristine machine, exactly like the paper's reboot-per-run
    protocol.
    """

    def __init__(self, kernel, disk_image, layout=None, timer=True,
                 translate=False):
        self.kernel = kernel
        self.layout = layout or kernel.layout or KernelLayout()
        lay = self.layout
        self.bus = MemoryBus(lay.RAM_BYTES)
        # Kernel image into physical memory.
        self.bus.phys_write_bytes(lay.KERNEL_PHYS, kernel.code)
        # Boot page tables: linear kernel map + MMIO window.
        builder = PageTableBuilder(self.bus, lay.BOOT_PGDIR_PHYS)
        builder.map_range(lay.KERNEL_BASE, 0, lay.RAM_BYTES)
        builder.map_range(lay.KERNEL_BASE + lay.MMIO_PHYS, lay.MMIO_PHYS,
                          lay.MMIO_BYTES)
        builder.activate()
        # Devices.
        self.console = ConsoleDevice()
        self.disk = DiskDevice(self.bus, disk_image)
        self.dump = DumpDevice()
        self.bus.attach_device(lay.CONSOLE_PHYS, 0x100, self.console)
        self.bus.attach_device(lay.DISK_PHYS, 0x100, self.disk)
        self.bus.attach_device(lay.DUMP_PHYS, 0x100, self.dump)
        self.bus.attach_device(lay.SHUTDOWN_PHYS, 0x100, ShutdownDevice())
        # CPU.
        self.cpu = CPU(self.bus)
        self.cpu.eip = kernel.symbols["_start"]
        if timer:
            self.cpu.timer_interval = lay.TIMER_INTERVAL
            self.cpu.timer_next = lay.TIMER_INTERVAL
        self._page_table_pages = builder.next_free
        self.tracer = None
        self.translate = bool(translate)
        self.block_cache = None
        if self.translate:
            self._arm_translation()

    def _arm_translation(self):
        """Attach a translated-execution block cache to this machine.

        Per-machine (closures are cheap to build but the underlying RAM
        diverges between clones); heat counts, compiled templates,
        decoded instructions and the CFG leader sweep live in the
        kernel image's code cache, so every machine of a campaign
        shares them.
        """
        from repro.cpu.translate import BlockCache, code_cache
        code = code_cache(self.kernel)
        self.block_cache = BlockCache(self.bus, code)
        self.cpu.translator = self.block_cache
        self.cpu.decode_memo = code.decoded

    # -- injection plumbing -------------------------------------------------

    def arm_breakpoint(self, vaddr, callback):
        """Arm DR0 at *vaddr*; *callback(machine)* fires on first hit.

        This is the paper's injection trigger: the injector flips a bit
        in the instruction, records the cycle counter, disarms the
        breakpoint, and resumes the kernel.
        """
        cpu = self.cpu

        def hook(_cpu, index):
            cpu.write_dr(7, 0)      # one-shot
            callback(self)

        cpu.write_dr(0, vaddr)
        cpu.write_dr(7, 1)
        cpu.on_breakpoint = hook

    def flip_bit(self, vaddr, bit):
        """Flip one bit of the byte at kernel-virtual *vaddr*."""
        phys = vaddr - self.layout.KERNEL_BASE
        value = self.bus.phys_read(phys, 1)
        self.bus.phys_write(phys, 1, value ^ (1 << bit))

    def write_byte(self, vaddr, value):
        phys = vaddr - self.layout.KERNEL_BASE
        self.bus.phys_write(phys, 1, value & 0xFF)

    def write_word(self, vaddr, value):
        phys = vaddr - self.layout.KERNEL_BASE
        self.bus.phys_write(phys, 4, value & 0xFFFFFFFF)

    def enable_recovery(self, panic_on_oops=False):
        """Arm the kernel's recovery ladder (patch before booting).

        Sets the ``recovery_enabled`` kernel global (and optionally
        ``panic_on_oops``) in the pristine image, the host-side
        equivalent of a boot parameter.
        """
        self.write_word(self.kernel.symbols["recovery_enabled"], 1)
        if panic_on_oops:
            self.write_word(self.kernel.symbols["panic_on_oops"], 1)

    def enable_disk_retry(self, retries=2):
        """Arm the IDE driver's bounded retry/backoff path (patch
        before booting, like :meth:`enable_recovery`).

        Sets the ``disk_retries`` kernel global: a failed disk transfer
        is then re-issued up to *retries* times with linear backoff
        before ``-EIO`` propagates.  The default 0 (fail-stop driver)
        is what the paper measured; the knob exists for the
        graceful-degradation ablations of the fault-model framework.
        """
        self.write_word(self.kernel.symbols["disk_retries"],
                        int(retries))

    def enable_trace(self, channels=None, capacity=None):
        """Arm the execution flight recorder for this machine's runs.

        Args:
            channels: iterable of channel names from
                :data:`repro.tracing.ring.CHANNELS` (default: retired
                branches + traps, what the divergence diff needs).
            capacity: ring capacity in events; ``None`` records the
                whole run (needed for exact golden-vs-injected
                diffing), a finite value keeps a flight-recorder
                window and counts what it overwrote.

        Recording is purely observational — a traced run is
        bit-identical to an untraced one.  The tracer survives
        multiple ``run`` calls on this machine; clones of a snapshot
        start untraced and must call ``enable_trace`` themselves.
        Returns the :class:`~repro.tracing.recorder.Tracer`.
        """
        from repro.tracing.recorder import Tracer
        from repro.tracing.ring import DEFAULT_CHANNELS, EV_SUBSYS
        channels = tuple(channels) if channels else DEFAULT_CHANNELS
        subsystem_of = None
        if EV_SUBSYS in channels:
            subsystem_of = self.trace_domain_of
        self.tracer = Tracer(self.cpu, channels=channels,
                             capacity=capacity,
                             subsystem_of=subsystem_of)
        return self.tracer

    def trace_domain_of(self, eip):
        """Trace-domain name for an address: subsystem, user, or gap."""
        if eip < self.layout.KERNEL_BASE:
            return "user"
        info = self.kernel.find_function(eip)
        return info.subsystem if info is not None else "(kernel)"

    def close(self):
        """Tear the machine down once its last run has been read.

        A machine sits in reference cycles: the bus's device table
        and the disk controller point at each other, the injector's
        hooks close over the machine and its CPU, and the translator
        is both the bus's code watch and the owner of trace closures
        bound to the bus.  Breaking them here lets refcounting free
        the 8 MiB of RAM and the caches when the caller drops the
        machine, instead of whenever the cyclic collector next runs.
        Returned :class:`RunResult` objects stay valid; the machine
        itself must not run again.
        """
        cpu = self.cpu
        cpu.on_breakpoint = cpu.on_trap_entry = cpu.on_alarm = None
        cpu.trace_branch = cpu.trace_trap = cpu.trace_write = None
        cpu.translator = None
        self.disk.fault_notify = None
        self.tracer = None
        self.bus.devices = []
        self.bus.code_watch = None
        if self.block_cache is not None:
            self.block_cache.flush()

    def read_byte(self, vaddr):
        return self.bus.phys_read(vaddr - self.layout.KERNEL_BASE, 1)

    def read_word(self, vaddr):
        return self.bus.phys_read(vaddr - self.layout.KERNEL_BASE, 4)

    def snapshot(self):
        """Freeze the current state (see :class:`MachineSnapshot`)."""
        return MachineSnapshot(self)

    # -- running -------------------------------------------------------------

    def run(self, max_cycles=DEFAULT_WATCHDOG, coverage=None,
            checkpoints=None):
        """Boot/resume the machine until it stops; returns a RunResult.

        *coverage*, when given, collects every executed EIP.  With
        *checkpoints*, an empty list, the run also checkpoints itself:
        it appends a snapshot of the state it starts from, then one at
        the first instruction boundary at or past every
        :data:`CHECKPOINT_EVERY` cycles (see :class:`_Checkpointer`),
        and *coverage*, a dict, maps each executed EIP to the window in
        which the run first executed it.  Window *k* runs from
        checkpoint *k* to checkpoint *k + 1*, so a clone of
        ``checkpoints[coverage[eip]]`` has not executed *eip* yet and,
        until it does, runs exactly as this run did.
        """
        cpu = self.cpu
        status = "watchdog"
        exit_code = None
        detail = ""
        executed = coverage
        if checkpoints is not None:
            checkpointer = _Checkpointer(self, checkpoints, coverage)
            executed = checkpointer.executed
        try:
            cpu.run(max_cycles, coverage=executed)
        except MachineShutdown as stop:
            status = "shutdown"
            exit_code = stop.code
        except CpuHalted as stop:
            status = "halted"
            detail = str(stop)
        except WatchdogExpired as stop:
            status = "watchdog"
            detail = str(stop)
        except TripleFault as stop:
            status = "triple_fault"
            detail = str(stop)
        if checkpoints is not None:
            checkpointer.close()
        crashes = [CrashRecord(words) for words in self.dump.records]
        return RunResult(
            status=status,
            exit_code=exit_code,
            console=self.console.text,
            crash=crashes[-1] if crashes else None,
            cycles=cpu.cycles,
            instret=cpu.instret,
            disk_image=bytes(self.disk.image),
            detail=detail,
            crashes=crashes,
            trace=(self.tracer.snapshot() if self.tracer is not None
                   else None),
            translation=(self.block_cache.stats()
                         if self.block_cache is not None else None),
        )

    def run_until_console(self, marker, max_cycles=DEFAULT_WATCHDOG,
                          chunk=4096, coverage=None):
        """Run until *marker* appears on the console (boot milestone).

        Used to reproduce the paper's protocol: the injector is armed on
        a running system, just before the benchmark starts.  Raises
        WatchdogExpired if the marker never appears.  *coverage*, when
        given, collects every executed EIP (the delta planner uses it
        to learn which functions boot executes).
        """
        needle = marker.encode("latin-1")
        cpu = self.cpu
        while needle not in self.console.buffer:
            if cpu.cycles >= max_cycles:
                raise WatchdogExpired("marker %r never appeared" % marker)
            try:
                cpu.run(min(cpu.cycles + chunk, max_cycles),
                        coverage=coverage)
            except WatchdogExpired:
                if cpu.cycles >= max_cycles:
                    raise

    def run_sampled(self, max_cycles=DEFAULT_WATCHDOG, sample_interval=997,
                    skip_cycles=0):
        """Run while sampling the program counter (Kernprof-style).

        Returns ``(RunResult, samples)`` where *samples* is a list of
        sampled EIP values.  The odd default interval avoids aliasing
        with loop periods, as real sampling profilers do.  Samples before
        *skip_cycles* are discarded (lets profiling exclude boot, like
        the paper's steady-state Kernprof runs).

        The sampler is the CPU's cycle alarm, re-armed *sample_interval*
        cycles after each sample: it fires at the first instruction
        boundary at or past its cycle, after the timer test and before
        a pending interrupt is taken, so each sample is the EIP at
        which a run cut into windows of *sample_interval* cycles (each
        ``cpu.run(cpu.cycles + sample_interval)``) would stop.  Both
        engines honour the alarm exactly.
        """
        cpu = self.cpu
        samples = []

        def sample(cpu):
            if cpu.cycles >= skip_cycles:
                samples.append(cpu.eip)
            cpu.alarm_cycle = cpu.cycles + sample_interval
            cpu.on_alarm = sample

        cpu.alarm_cycle = cpu.cycles + sample_interval
        cpu.on_alarm = sample
        try:
            result = self.run(max_cycles)
        finally:
            cpu.alarm_cycle = cpu.on_alarm = None
        return result, samples


class MachineSnapshot:
    """Frozen machine state (RAM, disk, CPU, console) for fast cloning.

    Booting to the injection point costs more than most injected runs;
    campaigns snapshot the freshly-booted machine once per workload and
    clone it per experiment.  Cloning copies every mutable buffer, so a
    clone is exactly as pristine as a fresh boot (verified by test).
    The disk controller's registers and the TLB are state too: a
    snapshot taken between a driver's SECTOR and CMD writes, or between
    a page-table update and its flush, resumes exactly.

    A *page-delta* snapshot (a checkpoint, see :class:`_Checkpointer`)
    shares the RAM and disk bytes of a full snapshot of the same
    machine taken earlier, and holds the state that differs from it in
    :attr:`pages` and :attr:`sectors`.  It also holds the CPU's decode
    cache and the page write generations that validate it: a fetch
    that hits the decode cache skips the TLB fill a miss makes, so a
    clone resumes exactly only with the decode cache it had.
    """

    CPU_FIELDS = ("eip", "cf", "pf", "zf", "sf", "of", "if_flag", "df",
                  "cpl", "cr0", "cr2", "cr4", "esp0", "idt_base",
                  "cycles", "timer_interval", "timer_next",
                  "pending_irq", "instret")

    def __init__(self, machine, base=None, pages=None, sectors=None,
                 decoded=()):
        """Freeze *machine*; with *base*, as a page delta against it.

        *pages* (page number -> its 4 KiB) and *sectors* (sector
        number -> its bytes) are then every RAM page and disk sector in
        which *machine* differs from *base*, as the caller found them,
        and *decoded* is the machine's decode cache as a tuple of
        dicts, oldest first, whose union is the cache.
        """
        cpu = machine.cpu
        self.kernel = machine.kernel
        self.layout = machine.layout
        bus = machine.bus
        disk = machine.disk
        if base is None:
            self.ram = bytes(bus.ram)
            self.disk = bytes(disk.image)
        else:
            self.ram = base.ram
            self.disk = base.disk
        #: Overlays on :attr:`ram` and :attr:`disk` (empty unless a
        #: page delta).
        self.pages = pages or {}
        self.sectors = sectors or {}
        #: The decode cache and page generations a clone resumes with
        #: (a full snapshot's clone starts with an empty cache).
        self.decoded = decoded
        self.versions = (tuple(bus.page_versions) if base is not None
                         else None)
        self.cr3 = bus.cr3
        self.paging_enabled = bus.paging_enabled
        self.tlb = dict(bus.tlb)
        self.tlb_gen = bus.tlb_gen
        self.disk_state = tuple(getattr(disk, name)
                                for name in DiskDevice.STATE)
        #: sector -> content before its first transfer when the disk
        #: recorded transfers (see :meth:`clone`), else ``None``.
        self.transferred = (dict(disk.transferred)
                            if disk.transferred is not None else None)
        self.console = bytes(machine.console.buffer)
        self.regs = list(cpu.regs)
        self.segs = list(cpu.segs)
        self.dr = list(cpu.dr)
        self.fields = {name: getattr(cpu, name)
                       for name in self.CPU_FIELDS}
        #: Clones inherit the execution mode; since translated and
        #: interpreted runs are bit-identical, a snapshot restored from
        #: a store may have this overridden by the harness that loads
        #: it (the state itself is mode-independent).
        self.translate = getattr(machine, "translate", False)

    def clone(self, disk=None):
        """Materialize a runnable Machine from this snapshot.

        With *disk*, the clone continues as the boot of that image
        instead: a run depends on its disk only through the sectors it
        has transferred, so the clone keeps this snapshot's content for
        every sector transferred so far and takes *disk*'s everywhere
        else.  Raises ``ValueError`` unless the snapshot recorded its
        transfers and *disk* matches it in length and in every
        transferred sector's content before that transfer.
        """
        image = self.disk if disk is None else self._rebase(disk)
        machine = Machine.__new__(Machine)
        machine.kernel = self.kernel
        machine.layout = self.layout
        lay = self.layout
        bus = MemoryBus(lay.RAM_BYTES)
        bus.ram[:] = self.ram
        for page, data in self.pages.items():
            at = page << PAGE_SHIFT
            bus.ram[at:at + PAGE_SIZE] = data
        if self.versions is not None:
            bus.page_versions[:] = self.versions
        bus.cr3 = self.cr3
        bus.paging_enabled = self.paging_enabled
        bus.tlb.update(self.tlb)
        bus.tlb_gen = self.tlb_gen
        machine.bus = bus
        machine.console = ConsoleDevice()
        machine.console.buffer[:] = self.console
        machine.disk = DiskDevice(bus, image)
        size = DiskDevice.SECTOR_SIZE
        for sector, data in self.sectors.items():
            machine.disk.image[sector * size:(sector + 1) * size] = data
        for name, value in zip(DiskDevice.STATE, self.disk_state):
            setattr(machine.disk, name, value)
        machine.dump = DumpDevice()
        bus.attach_device(lay.CONSOLE_PHYS, 0x100, machine.console)
        bus.attach_device(lay.DISK_PHYS, 0x100, machine.disk)
        bus.attach_device(lay.DUMP_PHYS, 0x100, machine.dump)
        bus.attach_device(lay.SHUTDOWN_PHYS, 0x100, ShutdownDevice())
        cpu = CPU(bus)
        cpu.regs[:] = self.regs
        cpu.segs[:] = self.segs
        for index, value in enumerate(self.dr):
            cpu.dr[index] = value
        cpu._recompute_breakpoints()
        for name, value in self.fields.items():
            setattr(cpu, name, value)
        for entries in self.decoded:
            cpu._dcache.update(entries)
        machine.cpu = cpu
        machine._page_table_pages = None
        machine.tracer = None
        machine.translate = getattr(self, "translate", False)
        machine.block_cache = None
        if machine.translate:
            machine._arm_translation()
        return machine

    def _rebase(self, image):
        """*image* with this snapshot's transferred sectors (see clone)."""
        if self.transferred is None:
            raise ValueError("snapshot recorded no disk transfers")
        if len(image) != len(self.disk):
            raise ValueError("disk image is %d bytes, the snapshot's %d"
                             % (len(image), len(self.disk)))
        size = DiskDevice.SECTOR_SIZE
        rebased = bytearray(image)
        for sector, before in self.transferred.items():
            at = sector * size
            if rebased[at:at + size] != before:
                raise ValueError("disk image differs in transferred "
                                 "sector %d" % sector)
            rebased[at:at + size] = self.disk[at:at + size]
        return rebased


class _Checkpointer:
    """The checkpoints of one :meth:`Machine.run` (see there).

    It is the CPU's cycle alarm, which fires at an instruction boundary
    before a pending interrupt is taken, where a snapshot resumes
    exactly.  Checkpoint 0 is a full snapshot of the state the run
    starts from; each later one is a page delta against it.  A page is
    compared with checkpoint 0 only once its write generation
    (``bus.page_versions``) has moved, and its bytes are shared with
    the previous checkpoint while the generation stays put; the disk is
    compared only after the controller has written to it.

    The run starts with an empty decode cache, as a clone of checkpoint
    0 does, so it fills the TLB as such a clone would; each checkpoint
    adds the decode-cache entries made or replaced since the previous
    one to the tuple it inherits.
    """

    def __init__(self, machine, checkpoints, coverage):
        self.machine = machine
        self.checkpoints = checkpoints
        self.coverage = coverage
        #: The CPU's coverage set: EIPs executed in the current window.
        self.executed = set()
        self.base = machine.snapshot()
        checkpoints.append(self.base)
        self.base_versions = list(machine.bus.page_versions)
        #: page -> (generation, bytes, or None where equal to the base)
        self.known = {}
        self.disk_writes = machine.disk.writes
        self.sectors = {}
        machine.cpu._dcache.clear()
        #: The decode cache as of the last checkpoint, and its parts.
        self.decoded = {}
        self.parts = ()
        self._arm()

    def _arm(self):
        cpu = self.machine.cpu
        cpu.alarm_cycle = cpu.cycles + CHECKPOINT_EVERY
        cpu.on_alarm = self

    def _fold(self):
        """Credit this window with the EIPs it executed first."""
        window = len(self.checkpoints) - 1
        fresh = self.executed.difference(self.coverage)
        self.coverage.update(dict.fromkeys(fresh, window))
        self.executed.clear()

    def __call__(self, cpu):
        self._fold()
        machine = self.machine
        ram = machine.bus.ram
        base_ram = self.base.ram
        versions = machine.bus.page_versions
        known = self.known
        pages = {}
        for page in compress(count(), map(operator.ne, versions,
                                          self.base_versions)):
            entry = known.get(page)
            if entry is None or entry[0] != versions[page]:
                at = page << PAGE_SHIFT
                data = bytes(ram[at:at + PAGE_SIZE])
                if data == base_ram[at:at + PAGE_SIZE]:
                    data = None
                entry = known[page] = (versions[page], data)
            if entry[1] is not None:
                pages[page] = entry[1]
        if machine.disk.writes != self.disk_writes:
            self.disk_writes = machine.disk.writes
            self.sectors = self._changed_sectors(machine.disk.image)
        self.checkpoints.append(MachineSnapshot(
            machine, base=self.base, pages=pages, sectors=self.sectors,
            decoded=self._decoded(cpu._dcache)))
        self._arm()

    def _decoded(self, cache):
        """The decode cache as parts that later checkpoints share."""
        if len(cache) < len(self.decoded):
            # The CPU bounds its cache by clearing it.
            self.decoded = {}
            self.parts = ()
        decoded = self.decoded
        fresh = {key: entry for key, entry in cache.items()
                 if decoded.get(key) is not entry}
        decoded.update(fresh)
        self.parts += (fresh,)
        return self.parts

    def _changed_sectors(self, image):
        size = DiskDevice.SECTOR_SIZE
        base = self.base.disk
        previous = self.sectors
        sectors = {}
        for at in range(0, len(image), size):
            if image[at:at + size] != base[at:at + size]:
                data = bytes(image[at:at + size])
                sector = at // size
                if previous.get(sector) == data:
                    data = previous[sector]
                sectors[sector] = data
        return sectors

    def close(self):
        """Disarm, and credit the last window."""
        cpu = self.machine.cpu
        cpu.alarm_cycle = cpu.on_alarm = None
        self._fold()


def shared_boot(kernel, images, window, limit):
    """Boot once for several disk images; the snapshot to clone each from.

    Boots ``images[0]`` on a translating machine in windows of *window*
    cycles, each stopping at the first instruction boundary at or past
    ``cycles + window``, where :meth:`Machine.run_sampled` samples, and
    records disk transfers.  A snapshot is kept every
    :data:`SHARED_BOOT_KEEP_EVERY` cycles or so.  The boot stops after
    the window that first transfers a sector in which the images
    differ, or that ends at or past *limit*; the last snapshot kept
    before it is returned, and :meth:`MachineSnapshot.clone` with
    ``disk=image`` continues it as the boot of any of the images, on a
    translating machine too.  The boot warms the kernel's code cache
    (:func:`repro.cpu.translate.code_cache`) for the clones.

    Returns ``None`` when fewer than two images are given, their
    lengths differ, or the boot stopped before the first snapshot.
    """
    images = list(images)
    if len(images) < 2 or any(len(image) != len(images[0])
                              for image in images):
        return None
    first = images[0]
    size = DiskDevice.SECTOR_SIZE
    differ = {at // size for at in range(0, len(first), size)
              if any(image[at:at + size] != first[at:at + size]
                     for image in images[1:])}
    machine = Machine(kernel, first, translate=True)
    machine.disk.transferred = record = {}
    cpu = machine.cpu
    kept = None
    next_keep = SHARED_BOOT_KEEP_EVERY
    try:
        while True:
            try:
                cpu.run(cpu.cycles + window)
            except WatchdogExpired:
                pass
            if cpu.cycles >= limit or not differ.isdisjoint(record):
                break
            if cpu.cycles >= next_keep:
                kept = machine.snapshot()
                next_keep = cpu.cycles + SHARED_BOOT_KEEP_EVERY
    except (MachineShutdown, CpuHalted, TripleFault):
        pass
    finally:
        machine.close()
    return kept


def parse_bx_header(image):
    """Parse a user binary header -> (magic, entry, filesz, bss)."""
    return struct.unpack_from("<4I", image, 0)
