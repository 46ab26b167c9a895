"""One benchmark process: set up once, then run the campaign in forks.

    python3 child.py --workload NAME --seed N --spawned T --result PATH
        [--setup-only] [--smoke] [--seconds S] [--scratch DIR]
        [--trace-dir DIR]

Started by run.py in a fresh interpreter.  *T* is the parent's
``time.perf_counter()`` just before the spawn (the clock is
system-wide), so ``setup_s`` covers interpreter start, imports,
``build_kernel``, ``build_all_programs`` and ``profile_kernel``.
With ``--setup-only`` the process stops there.

Otherwise it reads one line from standard input, which run.py sends
once the set-up timed next to this one has ended, so the campaigns
run alone.  It then makes the workload's one campaign call —
``InjectionHarness.run_campaign`` or ``FabricCoordinator.run_campaign``
over the seed's sample of the pinned pool — once per repetition, each
time in a fresh fork of this process.  A fork starts from the set-up
state alone: no repetition warms the next, and a fork's ``ru_maxrss``
covers its own campaign.  A workload's campaign is sized to take about
``run_seconds``, so a run usually makes one; another starts only if it
is expected to end within ``--seconds`` of the first one's start, and
``--smoke`` makes exactly one.  The fabric workload's untimed prep
fills the snapshot store in a fork of its own before the first
repetition.  Every campaign's results are checked against the pins;
the timings and checks are written as JSON to *PATH*.

With ``--trace-dir`` there are two repetitions, an untraced one and one
with the layer wrappers of spans.py installed, and every process writes
its spans to that directory.
"""

import argparse
import contextlib
import inspect
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))

from spans import CAMPAIGN, Tracer, install  # noqa: E402
from workloads import (  # noqa: E402
    POOL_SEED,
    WORKLOADS,
    check_results,
    load_pinned,
    sample_indices,
)


def no_span(name):
    return contextlib.nullcontext()


def setup(span):
    with span("bench.imports"):
        from repro.kernel.build import build_kernel
        from repro.profiling.sampler import profile_kernel
        from repro.userland.build import build_all_programs
        from repro.userland.programs import WORKLOADS as GUESTS
    with span("bench.build_kernel"):
        kernel = build_kernel()
    with span("bench.build_userland"):
        binaries = build_all_programs()
    with span("bench.profile_kernel"):
        profile = profile_kernel(kernel, binaries, GUESTS)
    return kernel, binaries, profile


def in_fork(fn, path):
    """Call *fn* in a fork of this process; it writes its JSON return
    value to *path*, which is read back here.  The fork never returns
    into the caller's code: it leaves through ``os._exit``."""
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            out = fn()
            with open(path, "w") as fh:
                json.dump(out, fh)
            code = 0
        except Exception:
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError("fork %d ended with wait status %d"
                           % (pid, status))
    with open(path) as fh:
        return json.load(fh)


def sampled_harness(indices, *args, **kwargs):
    """An InjectionHarness whose plan is the seed's sample of the pool.

    ``plan_specs`` is the planning step both campaign entry points
    call; keeping only the sampled indices there means the program
    receives only the planned specs and the campaign call still covers
    planning.
    """
    from repro.injection.runner import InjectionHarness

    class SampledHarness(InjectionHarness):
        def plan_specs(self, campaign_key, **plan_kwargs):
            functions, specs = super().plan_specs(campaign_key,
                                                  **plan_kwargs)
            return functions, [specs[i] for i in indices]

    return SampledHarness(*args, **kwargs)


def harness_kwargs(workload, scratch, translate):
    from repro.injection.fabric import SnapshotStore
    from repro.injection.runner import InjectionHarness

    kwargs = {"recovery": workload.family.recovery}
    # Once translation is the only engine the kwarg goes away and every
    # workload runs the default.
    if translate and "translate" in inspect.signature(
            InjectionHarness).parameters:
        kwargs["translate"] = True
    if workload.mode == "fabric":
        kwargs["snapshot_store"] = SnapshotStore(
            os.path.join(scratch, "store"))
    return kwargs


def prep(workload, indices, state, scratch):
    """Fill the snapshot store as an earlier campaign would: boot every
    golden run the sample needs and calibrate.  The stored state does
    not depend on the execution engine, so the prep interprets."""
    harness = sampled_harness(indices, *state,
                              **harness_kwargs(workload, scratch, False))
    _, specs = harness.plan_specs(workload.family.campaign, seed=POOL_SEED,
                                  byte_stride=workload.family.byte_stride)
    for spec in specs:
        harness.assign_workload(spec)
    harness.crash_overhead()
    return {}


def campaign(workload, indices, state, scratch, workdir, pinned, seed,
             smoke, tracer=None):
    """One timed campaign call and its check against the pins."""
    from repro.injection.fabric import FabricConfig, FabricCoordinator

    family = workload.family
    harness = sampled_harness(
        indices, *state,
        **harness_kwargs(workload, scratch, workload.translate))
    out = {}
    span = no_span
    if tracer is not None:
        out["targets"] = install(tracer)
        span = tracer.span
    start = time.perf_counter()
    with span(CAMPAIGN):
        if workload.mode == "fabric":
            coordinator = FabricCoordinator(
                harness, FabricConfig(pool=workload.pool))
            results = coordinator.run_campaign(
                family.campaign, seed=POOL_SEED,
                byte_stride=family.byte_stride,
                shard_count=workload.shards, workdir=workdir)
        else:
            results = harness.run_campaign(
                family.campaign, seed=POOL_SEED,
                byte_stride=family.byte_stride, jobs=workload.jobs)
    end = time.perf_counter()
    out["campaign_s"] = end - start
    out["window"] = [start, end]
    out["peak_rss_mb"] = peak_rss_mb()
    engine = results.meta.get("engine", {})
    out["engine"] = {k: engine.get(k) for k in
                     ("mode", "worker_failures", "harness_errors",
                      "degraded")}
    out["check"] = check_results(pinned, workload, indices,
                                 [r.to_dict() for r in results], seed,
                                 smoke=smoke)
    return out


def peak_rss_mb():
    """max(ru_maxrss of self, of waited-for children), in MiB."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
               ) / 1024.0


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--seconds", type=float, default=float("inf"))
    parser.add_argument("--scratch")
    parser.add_argument("--trace-dir")
    args = parser.parse_args(argv)

    tracer = Tracer(args.trace_dir) if args.trace_dir else None
    state = setup(tracer.span if tracer is not None else no_span)
    end = time.perf_counter()
    out = {"setup_s": end - args.spawned,
           "setup_window": [args.spawned, end]}
    if not args.setup_only:
        sys.stdin.readline()
        workload = WORKLOADS[args.workload]
        pinned = load_pinned()
        pool = pinned["families"][workload.family.key]
        indices = sample_indices(pool, workload.sample_size(args.smoke),
                                 args.seed)
        out["planned"] = len(indices)
        if workload.mode == "fabric":
            start = time.perf_counter()
            in_fork(lambda: prep(workload, indices, state, args.scratch),
                    os.path.join(args.scratch, "prep.json"))
            out["prep_s"] = time.perf_counter() - start
        out["campaigns"] = []
        start = time.perf_counter()
        while True:
            k = len(out["campaigns"])
            traced = tracer if k == 1 else None
            workdir = os.path.join(args.scratch, "fabric-%d" % k)
            out["campaigns"].append(in_fork(
                lambda: campaign(workload, indices, state, args.scratch,
                                 workdir, pinned, args.seed, args.smoke,
                                 traced),
                os.path.join(args.scratch, "campaign-%d.json" % k)))
            if tracer is not None:
                if k == 1:
                    break
            # Another campaign only if, at the mean length so far, it
            # ends within --seconds of the first one's start.
            elif args.smoke or ((time.perf_counter() - start) * (k + 2)
                                / (k + 1) > args.seconds):
                break
    with open(args.result, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
