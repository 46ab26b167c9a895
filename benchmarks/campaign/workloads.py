"""The campaign benchmark's workloads, seeded spec samples and digests.

A *workload* is a benchmark input set: one campaign slice run one way
(serial interpreter, or a translated sharded fabric).  The kernel's
user programs (``fstime``, ``syscall``, ...) are called *guest
programs*.

Inputs come from ``--seed`` through a sample of a pinned *pool*: the
full plan of one campaign at a fixed campaign seed and byte stride,
characterized once by ``pin.py``.  For every pool spec the pin records
its result digest, guest program, outcome and serial cost (median of
three timed runs).  A seed draws a fixed number of specs from every
*stratum*, one (guest program, outcome) pair of :data:`GUESTS`, so
every seed boots the same golden runs and meets the same number of
hangs, crashes and not-activated sites.  It redraws until the pinned
cost of the draw is within :data:`COST_TOLERANCE` of the strata's
mean.  The concrete sites change with the seed; the amount and kind of
work do not.  Drawing the campaign's own seed instead moves the share
of hangs, the most expensive outcome, by a third from seed to seed,
and the run time with it.

Correctness is checked spec by spec: each result's canonical digest
must equal the pool's pinned digest for that spec, for every seed.
"""

import hashlib
import json
import os
import random
from collections import Counter, defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
PINNED_PATH = os.path.join(HERE, "pinned.json")

#: Campaign seed every pool is planned with (the repo's default).
POOL_SEED = 2003

#: The held-out seed whose run digests are pinned next to seed 2003's.
HELD_OUT_SEED = 4242

#: A seed's draw is accepted once its pinned cost is this close to the
#: pool mean; after :data:`MAX_DRAWS` the closest draw is used.
COST_TOLERANCE = 0.005
MAX_DRAWS = 20000


#: Guest programs samples draw from.  Every campaign calibrates on
#: ``syscall``; ``fstime`` and ``context1`` drive most pool specs.
#: The pools' other guests (``spawn``, ``looper``, ``hanoi``) hold 152
#: of 565 campaign-A specs and 116 of 423 campaign-B specs.  They are
#: left out because each guest costs one golden boot per campaign: with
#: all of them, a sample of a few dozen specs would spend most of its
#: time booting, unlike a real campaign of thousands of specs.
GUESTS = ("context1", "fstime", "syscall")

#: Specs per workload with ``--smoke``.
SMOKE_SIZE = 8


class Family:
    """One pool: a campaign planned at a fixed seed and byte stride."""

    def __init__(self, key, campaign, byte_stride, recovery):
        self.key = key
        self.campaign = campaign
        self.byte_stride = byte_stride
        self.recovery = recovery

    def params(self):
        return {"campaign": self.campaign, "campaign_seed": POOL_SEED,
                "byte_stride": self.byte_stride,
                "recovery": self.recovery, "guests": list(GUESTS)}


FAMILIES = {
    "A": Family("A", "A", 20, False),
    "B": Family("B", "B", 6, True),
}


class Workload:
    """A benchmark input set and the execution mode that runs it.

    *mode* ``"engine"`` runs ``InjectionHarness.run_campaign`` with
    *jobs* forked workers; ``"fabric"`` runs
    ``FabricCoordinator.run_campaign`` with a *pool* of workers over
    *shards* shards and a snapshot store filled by an untimed prep step.
    *translate* turns on translated execution.
    """

    def __init__(self, name, family, mode, size, why, translate=False,
                 jobs=1, pool=None, shards=None):
        self.name = name
        self.family = FAMILIES[family]
        self.mode = mode
        self.size = size
        self.translate = translate
        self.jobs = jobs
        self.pool = pool
        self.shards = shards
        self.why = why

    def params(self, smoke=False):
        out = self.family.params()
        out.update(mode=self.mode, specs=self.sample_size(smoke),
                   translate=self.translate, jobs=self.jobs)
        if self.mode == "fabric":
            out.update(pool=self.pool, shards=self.shards)
        return out

    def sample_size(self, smoke=False):
        return SMOKE_SIZE if smoke else self.size

    @property
    def workers(self):
        """Processes that execute specs concurrently."""
        return self.pool if self.mode == "fabric" else self.jobs


WORKLOADS = {w.name: w for w in (
    Workload("campA-jobs2", "A", "engine", 112,
             "campaign A, interpreter, 2 forked engine workers: golden "
             "boots, injected execution, crash grading; no translation or "
             "fabric; guests context1/fstime/syscall (27% of pool left out)",
             jobs=2),
    Workload("campB-fabric-translated", "B", "fabric", 48,
             "recovery-kernel campaign B, translated, on a 2-worker fabric "
             "of 4 shards over a warm snapshot store: thaw, per-worker "
             "translation, journals, merge; same 3 guests (27% left out)",
             translate=True, pool=2, shards=4),
)}


# -- digests ----------------------------------------------------------------

def canonical(result_dict, fields):
    """Canonical JSON of one result: pinned *fields* only, ``None``
    values dropped, sorted keys, no whitespace.

    Restricting to the fields present when the pool was pinned keeps
    the digest stable when a later change adds a result field; dropping
    ``None`` does the same for fields that stay unset.
    """
    kept = {k: result_dict[k] for k in fields
            if result_dict.get(k) is not None}
    return json.dumps(kept, sort_keys=True, separators=(",", ":"))


def spec_digest(result_dict, fields):
    return hashlib.sha256(
        canonical(result_dict, fields).encode()).hexdigest()[:16]


def run_digest(spec_digests):
    """Digest of a whole run: sha256 over its per-spec digests in plan
    order, so it can be derived from the pinned pool for any seed."""
    return hashlib.sha256("\n".join(spec_digests).encode()).hexdigest()


# -- pinned pools -----------------------------------------------------------

def load_pinned(path=PINNED_PATH):
    with open(path) as fh:
        return json.load(fh)


def pin_key(seed, smoke=False):
    return "%d%s" % (seed, "-smoke" if smoke else "")


def allocate(counts, size):
    """Largest-remainder quotas: *size* picks spread over groups in
    proportion to *counts* ({group: n}); ties go to the group name that
    sorts first, so quotas do not depend on the seed."""
    total = sum(counts.values())
    if not 0 < size <= total:
        raise ValueError("sample of %d from a pool of %d" % (size, total))
    exact = {k: size * n / total for k, n in counts.items()}
    quotas = {k: int(v) for k, v in exact.items()}
    short = size - sum(quotas.values())
    order = sorted(counts, key=lambda k: (-(exact[k] - quotas[k]), k))
    for key in order[:short]:
        quotas[key] += 1
    return quotas


def sample_indices(pool, size, seed):
    """Pool indices of the stratified, cost-matched sample for *seed*,
    in plan order.  *pool* is a pinned family entry."""
    rows = pool["specs"]
    members = defaultdict(list)
    for index, row in enumerate(rows):
        if row[1] in GUESTS:
            members[(row[1], row[2])].append(index)
    quotas = allocate({k: len(m) for k, m in members.items()}, size)
    cost = [row[3] for row in rows]
    target = sum(quotas[k] * sum(cost[i] for i in m) / len(m)
                 for k, m in members.items())
    rng = random.Random("%s:%s" % (pool["campaign"], seed))
    best = None
    for _ in range(MAX_DRAWS):
        chosen = [i for k in sorted(members)
                  for i in rng.sample(members[k], quotas[k])]
        miss = abs(sum(cost[i] for i in chosen) - target)
        if best is None or miss < best[0]:
            best = (miss, chosen)
        if miss <= COST_TOLERANCE * target:
            break
    return sorted(best[1])


def expected(pool, indices):
    """(run digest, outcome census) the pinned pool predicts."""
    rows = pool["specs"]
    census = Counter(rows[i][2] for i in indices)
    return (run_digest([rows[i][0] for i in indices]),
            dict(sorted(census.items())))


def check_results(pinned, workload, indices, results, seed, smoke=False):
    """Grade a run's result dicts against the pinned pool.

    Returns the run digest and census, the number of specs whose digest
    differs from the pin, the number failed (harness errors plus
    missing indices), and ``correct``.
    """
    pool = pinned["families"][workload.family.key]
    fields = pinned["fields"]
    got = [spec_digest(r, fields) for r in results]
    want = [pool["specs"][i][0] for i in indices]
    mismatched = sum(1 for g, w in zip(got, want) if g != w)
    missing = max(0, len(indices) - len(results))
    harness_errors = sum(1 for r in results
                         if r.get("outcome") == "harness_error")
    census = dict(sorted(Counter(r.get("outcome")
                                 for r in results).items()))
    digest = run_digest(got)
    pin = pinned["pins"].get(workload.name, {}).get(pin_key(seed, smoke))
    pin_ok = pin is None or (pin["digest"] == digest
                             and pin["census"] == census)
    failed = harness_errors + missing
    return {
        "digest": digest,
        "census": census,
        "mismatched": mismatched,
        "failed": failed,
        "pinned_seed": pin is not None,
        "correct": (mismatched == 0 and failed == 0 and pin_ok
                    and len(results) == len(indices)),
    }
