"""Error injection: campaigns, injector, outcome classification.

Implements the paper's §5-§6 methodology: single-bit errors in the
instruction stream of profiled kernel functions, triggered by a debug
register on first execution, with outcomes classified against golden
runs (Table 3) and crashes analyzed for cause, latency, severity and
propagation (§7).
"""

from repro.injection.outcomes import (
    CAUSE_ORDER,
    HARNESS_ERROR,
    LATENCY_BUCKETS,
    OUTCOME_ORDER,
    InjectionResult,
    crash_cause_name,
    latency_bucket,
)
from repro.injection.engine import (
    CampaignEngine,
    CampaignJournal,
    EngineConfig,
    JournalMismatch,
)
from repro.injection.campaigns import (
    CAMPAIGNS,
    CampaignDef,
    InjectionSpec,
    plan_campaign,
    select_targets,
)
from repro.injection.runner import CampaignResults, GoldenRun, \
    InjectionHarness
from repro.injection.severity import SEVERITY_DOWNTIME, grade_severity

__all__ = [
    "CAUSE_ORDER",
    "HARNESS_ERROR",
    "LATENCY_BUCKETS",
    "OUTCOME_ORDER",
    "CampaignEngine",
    "CampaignJournal",
    "EngineConfig",
    "JournalMismatch",
    "InjectionResult",
    "crash_cause_name",
    "latency_bucket",
    "CAMPAIGNS",
    "CampaignDef",
    "InjectionSpec",
    "plan_campaign",
    "select_targets",
    "CampaignResults",
    "GoldenRun",
    "InjectionHarness",
    "SEVERITY_DOWNTIME",
    "grade_severity",
]
