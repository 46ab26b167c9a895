"""Static binary analysis of the built kernel image.

The paper's experiment spends most of its >35,000 injections learning
that a flip was never activated or never manifested.  This package is
the static layer that predicts those outcomes *before* burning a run
(FastFlip-style compositional analysis, see PAPERS.md), and that lints
the image for defects the dynamic campaigns only find by crashing:

* :mod:`repro.staticanalysis.cfg` — per-function control-flow graphs
  (basic blocks, edges) and the image-wide call graph, built on the
  existing :mod:`repro.isa.decoder`.
* :mod:`repro.staticanalysis.dataflow` — per-instruction def/use sets
  for registers and arithmetic flags, backward-liveness and
  reaching-definitions fixpoints over the CFG.
* :mod:`repro.staticanalysis.predict` — the bit-flip pre-classifier:
  for an injection site ``(instruction, byte, bit)``, decode the
  mutated stream and predict the outcome class (invalid opcode,
  dead write, length change, branch reversal, unknown).
* :mod:`repro.staticanalysis.stackdepth` — symbolic stack-depth
  fixpoint used by the linter's stack-imbalance rule.
* :mod:`repro.staticanalysis.linter` — image lint rules (unreachable
  blocks, fall-through off a function end, user-pointer dereferences
  outside ``__ex_table`` coverage, stack imbalance) behind the
  ``repro.tools.kerncheck`` CLI.

See ``docs/static-analysis.md`` for the design and for how campaign
pruning preserves the paper's Table 3/4 semantics.
"""

from repro.staticanalysis.cfg import (
    BasicBlock,
    FunctionCFG,
    build_cfg,
    build_callgraph,
    describe_block,
)
from repro.staticanalysis.dataflow import (
    instr_defs_uses,
    live_after_map,
    liveness,
    reaching_definitions,
)
from repro.staticanalysis.predict import (
    PRED_BRANCH_REVERSAL,
    PRED_CLASSES,
    PRED_DEAD,
    PRED_INVALID_OPCODE,
    PRED_LENGTH_CHANGE,
    PRED_UNKNOWN,
    PreClassifier,
    classify_flip,
)
from repro.staticanalysis.linter import KernelLinter, LintFinding

__all__ = [
    "BasicBlock", "FunctionCFG", "build_cfg", "build_callgraph",
    "describe_block",
    "instr_defs_uses", "liveness", "live_after_map",
    "reaching_definitions",
    "PRED_BRANCH_REVERSAL", "PRED_CLASSES", "PRED_DEAD",
    "PRED_INVALID_OPCODE", "PRED_LENGTH_CHANGE", "PRED_UNKNOWN",
    "PreClassifier", "classify_flip",
    "KernelLinter", "LintFinding",
]
