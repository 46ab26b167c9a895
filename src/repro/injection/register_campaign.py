"""Extension campaign R: direct register corruption.

The paper's footnote 1 argues that corrupting the *instruction stream*
also emulates register/data corruption (a flipped register field in an
instruction is equivalent to corrupted register contents).  This
extension makes the equivalence empirically checkable: campaign R flips
one bit of one general-purpose register at the moment a target
instruction is first reached, and the outcome distribution can be
compared against campaign A's.  ``InjectionHarness.run_campaign("R")``
plans it here and runs it like every other campaign.
"""

import random

from repro.injection.campaigns import TARGET_SUBSYSTEMS, InjectionSpec
from repro.isa.decoder import decode_all
from repro.isa.registers import REG_NAMES

#: Registers worth corrupting (esp is excluded by default because a
#: corrupted stack pointer reduces to the same few double-fault cases).
DEFAULT_REGS = (0, 1, 2, 3, 5, 6, 7)   # eax ecx edx ebx ebp esi edi


class RegisterInjectionSpec:
    """One planned register-bit flip at an instruction trigger."""

    __slots__ = ("function", "subsystem", "instr_addr", "reg", "bit",
                 "workload")

    def __init__(self, function, subsystem, instr_addr, reg, bit,
                 workload=None):
        self.function = function
        self.subsystem = subsystem
        self.instr_addr = instr_addr
        self.reg = reg
        self.bit = bit
        self.workload = workload

    @property
    def reg_name(self):
        return REG_NAMES[self.reg]

    def to_injection_spec(self):
        """The pipeline form: an InjectionSpec carrying the ``reg``
        fault model (see :mod:`repro.injection.faultmodels`).

        ``byte_offset`` keeps its historical repurposing as the
        register index so journaled campaign-R results stay
        comparable.
        """
        return InjectionSpec(
            campaign="R",
            function=self.function,
            subsystem=self.subsystem,
            instr_addr=self.instr_addr,
            instr_len=1,
            byte_offset=self.reg,       # repurposed: register index
            bit=self.bit,
            mnemonic="reg:%s" % self.reg_name,
            workload=self.workload,
            fault_model={"kind": "reg", "v": 1, "reg": self.reg,
                         "bit": self.bit},
        )

    def __repr__(self):
        return ("RegisterInjectionSpec(%s@%#x %s bit %d)"
                % (self.function, self.instr_addr, self.reg_name,
                   self.bit))


def plan_register_campaign(kernel, functions, seed=2003, per_function=6,
                           regs=DEFAULT_REGS):
    """Plan campaign R over *functions*.

    For each function, *per_function* trigger instructions are sampled
    uniformly from its body; each gets one random (register, bit) pick.
    """
    rng = random.Random("R-%d" % seed)
    specs = []
    for info in functions:
        if info.subsystem not in TARGET_SUBSYSTEMS:
            continue
        code = kernel.code[info.start - kernel.base:
                           info.end - kernel.base]
        instrs = [i for i in decode_all(code, base=info.start)
                  if i.op != "(bad)"]
        if not instrs:
            continue
        count = min(per_function, len(instrs))
        for ins in rng.sample(instrs, count):
            specs.append(RegisterInjectionSpec(
                function=info.name,
                subsystem=info.subsystem,
                instr_addr=ins.addr,
                reg=rng.choice(regs),
                bit=rng.randrange(32),
            ))
    specs.sort(key=lambda s: (s.instr_addr, s.reg, s.bit))
    return specs

