"""Host-speed meter: a fixed pure-Python loop run at the lowest priority
on every CPU while a workload runs, so that run times can be put on the
scale of one reference host speed.

    python3 meter.py --cpu N --out PATH

run.py starts one meter per CPU for the whole of a workload run and
kills it at the end.  A meter is pinned to its CPU at nice 19 and
repeats one *sample*: :data:`CHUNK` iterations of a loop, timed in the
meter's own CPU time.  It sleeps after each sample so that it uses at
most :data:`DUTY` of an idle CPU; on a busy CPU the scheduler gives it
about 1.5%.  Each sample is appended to *PATH* as ``<perf_counter at
its end> <CPU seconds>``.

The CPU time of a sample is the host's speed at that moment: it does
not count time the meter waited for the CPU, only how fast the CPU ran
the loop.  The host shares its cores with other machines, and a
campaign's wall time drifts with their load by up to 30% within a
quarter of an hour, more than any regression bound allows.  Averaged
over the seconds a campaign runs, the sample time follows that drift:
on 58 campaigns of both workloads (2-core Xeon, 20 minutes), the
logarithms of campaign wall time and mean sample time correlated at
0.97, with a slope of 1.46 on each workload.  So :func:`normalized`
scales a measured time by ``(REF_CHUNK_S / sample time) **
ELASTICITY``: the time the same work would take on a host where one
sample takes :data:`REF_CHUNK_S`.
"""

import argparse
import os
import sys
import time

#: Loop iterations in one sample: about 1.3 ms of CPU on a 2-core Xeon.
CHUNK = 15_000

#: Largest share of an idle CPU a meter uses; it sleeps the rest.
DUTY = 0.05

#: The sample CPU time that normalized times are scaled to.
REF_CHUNK_S = 1.3e-3

#: How much more steeply a campaign slows than the meter's loop when
#: the host is loaded: wall time ~ sample time ** ELASTICITY.
ELASTICITY = 1.5


def sample():
    """CPU seconds of one fixed loop of :data:`CHUNK` iterations."""
    start = time.thread_time()
    x = 0
    for i in range(CHUNK):
        x = (x + i * i) & 0xFFFF
    return time.thread_time() - start


def meter(cpu, path):
    """Sample on *cpu* until killed, appending each sample to *path*."""
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:
        pass                    # unpinned, it still samples some CPU
    os.nice(19)
    with open(path, "a", buffering=1) as fh:
        while True:
            busy = sample()
            fh.write("%.6f %.9f\n" % (time.perf_counter(), busy))
            time.sleep(busy * (1 / DUTY - 1))


def read(directory):
    """Every sample written under *directory*: [(end time, seconds)]."""
    samples = []
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name)) as fh:
            for line in fh:
                fields = line.split()
                if len(fields) == 2:    # not the torn tail of a kill
                    samples.append((float(fields[0]), float(fields[1])))
    return samples


def chunk_s(samples, start, end):
    """Mean sample time of the samples that ended between *start* and
    *end*, or None when there are none."""
    inside = [s for t, s in samples if start <= t <= end]
    return sum(inside) / len(inside) if inside else None


def normalized(seconds, chunk):
    """*seconds* measured while samples took *chunk* seconds, on the
    scale of a host where they take :data:`REF_CHUNK_S`."""
    return seconds * (REF_CHUNK_S / chunk) ** ELASTICITY


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--cpu", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    meter(args.cpu, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
