"""Assemble every exhibit into one report (EXPERIMENTS.md body)."""

import time

from repro.experiments import (
    assertions_study,
    availability_model,
    delta_validation,
    fabric_validation,
    fault_model_study,
    register_extension,
    fig1_subsystem_sizes,
    fig4_outcomes,
    fig5_case_study,
    fig6_crash_causes,
    fig7_latency,
    fig8_propagation,
    recovery_study,
    sensitivity,
    static_propagation,
    static_validation,
    table1_profile,
    table2_setup,
    table3_outcomes,
    table4_campaigns,
    table5_severe,
    table6_cases,
    table7_cases,
    trace_validation,
)

_EXHIBITS = (
    ("Figure 1 — kernel subsystem sizes", fig1_subsystem_sizes),
    ("Table 1 — profiled function distribution", table1_profile),
    ("Table 2 — experimental setup", table2_setup),
    ("Table 3 — outcome categories", table3_outcomes),
    ("Table 4 — campaign definitions", table4_campaigns),
    ("Figure 4 — activation and failure distribution", fig4_outcomes),
    ("Table 5 — most severe crashes", table5_severe),
    ("Figure 5 — catastrophic case study", fig5_case_study),
    ("Figure 6 — crash causes", fig6_crash_causes),
    ("Figure 7 — crash latency", fig7_latency),
    ("Figure 8 — error propagation", fig8_propagation),
    ("Table 6 — not-manifested branch cases", table6_cases),
    ("Table 7 — crash-cause case studies", table7_cases),
    ("§7.1 — availability model", availability_model),
    ("§7.1 ext. — recovery-kernel study", recovery_study),
    ("§6.1 — per-function sensitivity", sensitivity),
    ("Extension — static pre-classifier validation",
     static_validation),
    ("Extension — symbolic propagation verdicts",
     static_propagation),
    ("Extension — flight-recorder divergence validation",
     trace_validation),
    ("§7.4 — strategic assertion placement", assertions_study),
    ("Extension — register-corruption campaign R", register_extension),
    ("Extension — pluggable fault-model study", fault_model_study),
    ("Extension — campaign-fabric equivalence", fabric_validation),
    ("Extension — delta-campaign equivalence", delta_validation),
)


def build_report(ctx):
    """Run every exhibit against *ctx*; returns markdown text."""
    parts = []
    parts.append("# Reproduction run (scale=%s, seed=%d)"
                 % (ctx.scale, ctx.seed))
    parts.append("")
    started = time.time()
    for title, module in _EXHIBITS:
        parts.append("## %s" % title)
        parts.append("")
        parts.append("```")
        parts.append(module.run(ctx))
        parts.append("```")
        parts.append("")
    parts.append("_Generated in %.1f s._" % (time.time() - started))
    return "\n".join(parts)
