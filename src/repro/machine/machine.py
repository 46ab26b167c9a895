"""The simulated machine: RAM + CPU + devices + boot protocol.

Mirrors the paper's experimental rig (Figure 3): build the machine,
configure which workload ``init`` runs (via ``/etc/workload``), boot,
optionally arm a debug-register breakpoint for the injector, run under a
host watchdog, and collect console output, crash dumps and the final
disk image for severity grading.
"""

import struct

from repro.cpu.cpu import CPU, CpuHalted, WatchdogExpired
from repro.cpu.devices import ConsoleDevice, DiskDevice, DumpDevice, \
    MachineShutdown, ShutdownDevice
from repro.cpu.memory import MemoryBus, PageTableBuilder
from repro.cpu.traps import TripleFault
from repro.kernel.layout import KernelLayout
from repro.machine.disk import LIBC_CONTENT, mkfs

DEFAULT_WATCHDOG = 30_000_000


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
        #: Translation-cache telemetry dict (blocks, compiled, hits,
        #: invalidations, single_steps, resident) when the machine ran
        #: with ``Machine(translate=True)``, else ``None``.  Telemetry
        #: only — a translated run's architectural results are
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

    def run(self, max_cycles=DEFAULT_WATCHDOG, coverage=None):
        """Boot/resume the machine until it stops; returns a RunResult."""
        cpu = self.cpu
        status = "watchdog"
        exit_code = None
        detail = ""
        try:
            cpu.run(max_cycles, coverage=coverage)
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
        """
        cpu = self.cpu
        samples = []
        status = exit_code = None
        detail = ""
        try:
            while cpu.cycles < max_cycles:
                try:
                    cpu.run(min(cpu.cycles + sample_interval, max_cycles))
                except WatchdogExpired:
                    if cpu.cycles >= max_cycles:
                        raise
                if cpu.cycles >= skip_cycles:
                    samples.append(cpu.eip)
            raise WatchdogExpired("profiling budget exhausted")
        except MachineShutdown as stop:
            status, exit_code = "shutdown", stop.code
        except CpuHalted as stop:
            status, detail = "halted", str(stop)
        except WatchdogExpired as stop:
            status, detail = "watchdog", str(stop)
        except TripleFault as stop:
            status, detail = "triple_fault", str(stop)
        crashes = [CrashRecord(words) for words in self.dump.records]
        result = RunResult(status, exit_code, self.console.text,
                           crashes[-1] if crashes else None,
                           cpu.cycles, cpu.instret,
                           bytes(self.disk.image), detail,
                           crashes=crashes,
                           trace=(self.tracer.snapshot()
                                  if self.tracer is not None else None),
                           translation=(self.block_cache.stats()
                                        if self.block_cache is not None
                                        else None))
        return result, samples


class MachineSnapshot:
    """Frozen machine state (RAM, disk, CPU, console) for fast cloning.

    Booting to the injection point costs more than most injected runs;
    campaigns snapshot the freshly-booted machine once per workload and
    clone it per experiment.  Cloning copies every mutable buffer, so a
    clone is exactly as pristine as a fresh boot (verified by test).
    """

    CPU_FIELDS = ("eip", "cf", "pf", "zf", "sf", "of", "if_flag", "df",
                  "cpl", "cr0", "cr2", "cr4", "esp0", "idt_base",
                  "cycles", "timer_interval", "timer_next",
                  "pending_irq", "instret")

    def __init__(self, machine):
        cpu = machine.cpu
        self.kernel = machine.kernel
        self.layout = machine.layout
        self.ram = bytes(machine.bus.ram)
        self.cr3 = machine.bus.cr3
        self.paging_enabled = machine.bus.paging_enabled
        self.disk = bytes(machine.disk.image)
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

    def clone(self):
        """Materialize a runnable Machine from this snapshot."""
        machine = Machine.__new__(Machine)
        machine.kernel = self.kernel
        machine.layout = self.layout
        lay = self.layout
        from repro.cpu.memory import MemoryBus
        bus = MemoryBus(lay.RAM_BYTES)
        bus.ram[:] = self.ram
        bus.cr3 = self.cr3
        bus.paging_enabled = self.paging_enabled
        machine.bus = bus
        machine.console = ConsoleDevice()
        machine.console.buffer[:] = self.console
        machine.disk = DiskDevice(bus, self.disk)
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
        machine.cpu = cpu
        machine._page_table_pages = None
        machine.tracer = None
        machine.translate = getattr(self, "translate", False)
        machine.block_cache = None
        if machine.translate:
            machine._arm_translation()
        return machine


def parse_bx_header(image):
    """Parse a user binary header -> (magic, entry, filesz, bss)."""
    return struct.unpack_from("<4I", image, 0)
