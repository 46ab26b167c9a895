"""Crash severity (§7.1): normal / severe / most severe.

Severity is graded from the *disk image*, not from labels: a crash whose
filesystem fsck cannot repair — or whose repaired system still fails to
boot — is "most severe" (reformat + reinstall, ~1 h in the paper); a
crash needing a real interactive fsck repair is "severe" (>5 min); a
crash that merely left the mounted-dirty flag reboots automatically
("normal", <4 min).

Recovered crashes (recovery kernels killing the offending task and
running on) are graded on the same ladder: a recovered oops can still
have corrupted the filesystem before it was contained, so the harness
fscks their final disk image too.  What recovery changes is the
*downtime attached to a normal-severity event* — no reboot, just a
killed task (:data:`RECOVERED_DOWNTIME`) — not the damage ladder.
"""

from repro.machine.disk import fsck
from repro.machine.machine import Machine

SEVERITY_NORMAL = "normal"
SEVERITY_SEVERE = "severe"
SEVERITY_MOST_SEVERE = "most_severe"

#: Downtime model in seconds, straight from §7.1's prose.
SEVERITY_DOWNTIME = {
    SEVERITY_NORMAL: 4 * 60,
    SEVERITY_SEVERE: 8 * 60,
    SEVERITY_MOST_SEVERE: 55 * 60,
}

#: Downtime of a *recovered* normal-severity crash: the machine never
#: reboots — the kernel kills the offending task and the service is
#: restarted (supervisor respawn), a few seconds instead of minutes.
#: Severe/most-severe damage still pays the full ladder price even
#: when the kernel survived the oops itself.
RECOVERED_DOWNTIME = 10


def _reboots_cleanly(machine, budget=4_000_000):
    """Try to bring the system back up with no workload configured."""
    try:
        result = machine.run(max_cycles=budget)
    finally:
        machine.close()
    if result.status != "shutdown" or result.exit_code != 0:
        return False
    return "INIT: no workload configured" in result.console \
        or "INIT: workload exited" in result.console


def grade_severity(kernel, disk_image, golden_files=None,
                   check_reboot=True, boot=None):
    """Grade post-crash damage.

    Args:
        kernel: the kernel image (for the reboot attempt).
        disk_image: the disk as left by the crashed run.
        golden_files: critical files (path -> expected bytes) whose
            corruption is unrecoverable, e.g. ``/bin/init``.
        check_reboot: attempt an actual reboot when fsck found
            structural damage (slow; skipped for clean/dirty disks).
        boot: ``boot(disk_image) -> Machine`` building the fail-stop
            machine for the reboot attempt (the injection harness
            passes its own, which counts the boot and runs in its
            execution mode); defaults to a plain interpreted machine.

    Returns:
        ``(severity, fsck_status)``.
    """
    report = fsck(disk_image, golden_files=golden_files, repair=True)
    if report.status == "unrecoverable":
        return SEVERITY_MOST_SEVERE, report.status
    if report.status == "inconsistent":
        if check_reboot:
            machine = (boot(report.repaired) if boot is not None
                       else Machine(kernel, report.repaired))
            if not _reboots_cleanly(machine):
                return SEVERITY_MOST_SEVERE, report.status
        return SEVERITY_SEVERE, report.status
    # clean or just mounted-dirty: the boot-time fsck handles it.
    return SEVERITY_NORMAL, report.status
