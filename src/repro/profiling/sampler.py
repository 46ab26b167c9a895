"""Kernprof-equivalent PC-sampling profiler.

Runs every workload on a pristine machine while sampling the program
counter at a fixed cycle interval, then attributes samples to kernel
functions through the symbol table.  The output drives both the paper's
Table 1 (function distribution among kernel modules) and the selection
of injection targets (the top functions covering ≥95 % of kernel
samples).
"""

from collections import Counter

from repro.machine.machine import Machine, build_standard_disk, \
    shared_boot


class FunctionProfile:
    """Per-function sample statistics."""

    __slots__ = ("name", "subsystem", "samples", "per_workload")

    def __init__(self, name, subsystem):
        self.name = name
        self.subsystem = subsystem
        self.samples = 0
        self.per_workload = Counter()

    def dominant_workload(self):
        if not self.per_workload:
            return None
        return self.per_workload.most_common(1)[0][0]

    def __repr__(self):
        return "FunctionProfile(%s/%s, %d samples)" % (
            self.subsystem, self.name, self.samples)


class KernelProfile:
    """Aggregated profile over all workloads."""

    def __init__(self, kernel, functions, total_samples, kernel_samples,
                 user_samples):
        self.kernel = kernel
        self.functions = functions        # name -> FunctionProfile
        self.total_samples = total_samples
        self.kernel_samples = kernel_samples
        self.user_samples = user_samples

    def ranked(self):
        """Kernel functions by descending sample count."""
        return sorted((f for f in self.functions.values() if f.samples),
                      key=lambda f: (-f.samples, f.name))

    def top_functions(self, coverage=0.95):
        """The most-used functions covering *coverage* of kernel samples.

        This is the paper's core-function selection: its top 32 covered
        95 % of all profiling values.
        """
        ranked = self.ranked()
        threshold = coverage * sum(f.samples for f in ranked)
        out = []
        acc = 0
        for profile in ranked:
            out.append(profile)
            acc += profile.samples
            if acc >= threshold:
                break
        return out

    def subsystem_table(self, core=None):
        """Rows for Table 1: (subsystem, #profiled funcs, #core funcs)."""
        core_names = {f.name for f in (core or self.top_functions())}
        rows = {}
        for profile in self.functions.values():
            if profile.samples == 0:
                continue
            row = rows.setdefault(profile.subsystem, [0, 0])
            row[0] += 1
            if profile.name in core_names:
                row[1] += 1
        order = ("arch", "fs", "kernel", "mm", "drivers", "ipc", "lib",
                 "net")
        out = []
        for name in order:
            total, core_count = rows.get(name, (0, 0))
            out.append((name, total, core_count))
        for name in sorted(rows):
            if name not in order:
                out.append((name, rows[name][0], rows[name][1]))
        return out

    def workload_for(self, function_name):
        """The workload that exercises *function_name* the most."""
        profile = self.functions.get(function_name)
        if profile is None:
            return None
        return profile.dominant_workload()


def profile_kernel(kernel, binaries, workloads, sample_interval=211,
                   max_cycles=60_000_000, skip_boot_cycles=260_000):
    """Profile the kernel under each workload (the paper's §4 procedure).

    The workloads' boots are identical until the kernel first
    transfers a sector where their disk images differ, so that prefix
    is simulated once (:func:`~repro.machine.machine.shared_boot`) and
    each workload continues from a clone of it.  The boot's windows
    stop where :meth:`~repro.machine.machine.Machine.run_sampled`
    samples and end before *skip_boot_cycles*, so the profile is
    bit-identical to one that boots every workload from reset.

    Args:
        kernel: built :class:`~repro.kernel.build.KernelImage`.
        binaries: name -> UserBinary (must include init and workloads).
        workloads: iterable of workload names to run.
        sample_interval: cycles between PC samples (prime to avoid
            aliasing with loop periods).

    Returns:
        :class:`KernelProfile`.
    """
    functions = {}
    for info in kernel.functions:
        functions[info.name] = FunctionProfile(info.name, info.subsystem)
    total = 0
    kernel_hits = 0
    user_hits = 0
    workloads = list(workloads)
    disks = [build_standard_disk(binaries, w) for w in workloads]
    shared = shared_boot(kernel, disks, window=sample_interval,
                         limit=skip_boot_cycles)
    for index, (workload, disk) in enumerate(zip(workloads, disks)):
        if shared is not None:
            machine = shared.clone(disk=disk)
            if index == len(disks) - 1:
                shared = None       # its RAM copy is not needed again
        else:
            machine = Machine(kernel, disk)
        result, samples = machine.run_sampled(
            max_cycles=max_cycles, sample_interval=sample_interval,
            skip_cycles=skip_boot_cycles)
        machine.close()
        if result.status != "shutdown":
            raise RuntimeError("profiling run of %r did not complete: %r"
                               % (workload, result))
        for pc in samples:
            total += 1
            info = kernel.find_function(pc)
            if info is None:
                user_hits += 1
                continue
            kernel_hits += 1
            profile = functions[info.name]
            profile.samples += 1
            profile.per_workload[workload] += 1
    return KernelProfile(kernel, functions, total, kernel_hits, user_hits)
