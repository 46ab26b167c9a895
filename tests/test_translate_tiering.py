"""Tiered translation at the production thresholds.

A trace head is interpreted until dispatch has met it
``HOT_DISPATCHES`` times; its trace is then bound *threaded* (its
decoded instructions run by their handlers), and compiled once its
template has been dispatched threaded ``COMPILE_DISPATCHES`` times.
A compiled trace runs only where its guard keeps it below the event
horizon; a threaded trace runs at any horizon and stops at the first
instruction boundary at or past it, and it serves a compiled block's
refused dispatches.  Neither runs with a DR0 address inside (and, just
before a timer tick, a head without a template is not even
discovered).  These tests pin the rules on a counted loop whose head
is dispatched once per iteration, and check that every tier stays
bit-identical to the interpreter: through a horizon inside a trace, a
flip on cold code, a trap and a self-modifying store inside a threaded
trace, and a template compiled by another machine while this one
still holds its threaded binding.
"""

import hashlib

from repro.cpu import translate
from repro.cpu.cpu import CPU, CpuHalted, WatchdogExpired
from repro.cpu.memory import MemoryBus, PageTableBuilder
from repro.cpu.translate import BlockCache, CodeCache
from repro.isa.assembler import assemble

BASE = 0x1000

#: a cold iteration interprets STEPS instructions in ITER cycles (the
#: taken ``jne`` costs two); the compiled trace at ``loop`` has a
#: worst-case interior cost of WORST (its ``nop`` and ``dec ecx`` call
#: their handlers), the threaded one of THREADED_WORST (``_cost`` of
#: its first four instructions; hlt, the last, is not counted).
STEPS = 4
ITER = 5
WORST = 12
THREADED_WORST = 20
LOOP_SRC = """
_start:
    mov eax, 0
    mov ecx, %d
loop:
    add eax, 1
body:
    nop
    dec ecx
    jne loop
    hlt
"""
PROLOGUE = 2    # the two movs before the first iteration: 1 cycle each


def build(iterations, translate_=False, code=None, source=LOOP_SRC):
    program = assemble(source % iterations, base=BASE)
    bus = MemoryBus(0x100000)
    bus.phys_write_bytes(BASE, program.code)
    cpu = CPU(bus)
    cpu.eip = BASE
    cpu.regs[4] = 0x8000
    cache = BlockCache(bus, code) if translate_ else None
    return cpu, program, cache


def run(cpu, cache, budget):
    try:
        if cache is not None:
            cache.run(cpu, budget)
        else:
            cpu.run(budget)
    except (WatchdogExpired, CpuHalted):
        pass


def fingerprint(cpu):
    return (tuple(cpu.regs), cpu.eip, cpu.cycles, cpu.instret,
            cpu.cf, cpu.zf, cpu.sf, cpu.of, cpu.pf, cpu.cr2,
            hashlib.sha256(bytes(cpu.bus.ram)).hexdigest())


def reference(iterations, budgets=(10 ** 6,), source=LOOP_SRC):
    """The interpreter's fingerprint after the same budget protocol."""
    cpu, _, _ = build(iterations, source=source)
    for budget in budgets:
        run(cpu, None, budget)
    return fingerprint(cpu)


def head_template(cache, program, head="loop"):
    (tpl,) = cache.code.templates[(program.symbols[head], False)]
    return tpl


def head_block(cpu, cache, program):
    return cache.blocks[(cpu.bus.tlb_gen, program.symbols["loop"], 0)]


def test_head_interpreted_until_nth_dispatch():
    n = translate.HOT_DISPATCHES
    iterations = 2 * n
    cpu, program, cache = build(iterations, translate_=True)
    head = (program.symbols["loop"], False)
    # Stop at the loop head just before its N-th dispatch.
    run(cpu, cache, PROLOGUE + ITER * (n - 1))
    assert cpu.eip == head[0]
    assert cache.code.heat[head] == n - 1
    assert cache.threaded == 0 and not cache.blocks
    assert cache.single_steps == PROLOGUE + STEPS * (n - 1)
    # The N-th dispatch binds the head threaded; every later one hits
    # it, and nothing is compiled this far below the compile count.
    run(cpu, cache, 10 ** 6)
    assert cache.code.heat[head] == n
    assert cache.threaded == 1 and cache.compiled == 0
    assert cache.stats()["blocks"] == 1
    assert cache.stats()["threaded"] == 1
    assert cache.single_steps == PROLOGUE + STEPS * (n - 1)
    assert cache.hits == iterations - n
    assert head_template(cache, program).runs == iterations - n + 1
    assert fingerprint(cpu) == reference(iterations)


def test_template_compiled_when_its_compile_dispatch_returns():
    n = translate.HOT_DISPATCHES
    c = translate.COMPILE_DISPATCHES
    # c - 1 threaded dispatches: still threaded.
    iterations = n + c - 2
    cpu, program, cache = build(iterations, translate_=True)
    run(cpu, cache, 10 ** 6)
    assert cache.compiled == 0
    assert head_template(cache, program).make is None
    assert fingerprint(cpu) == reference(iterations)
    # The c-th returns due: its binding is swapped for the compiled
    # trace in place, which serves the last iteration.
    iterations = n + c
    cpu, program, cache = build(iterations, translate_=True)
    run(cpu, cache, 10 ** 6)
    assert cache.compiled == 1 and cache.threaded == 1
    assert cache.stats()["blocks"] == 1
    assert cache.hits == iterations - n
    assert head_template(cache, program).make is not None
    assert head_block(cpu, cache, program).worst == WORST
    assert fingerprint(cpu) == reference(iterations)


def test_threaded_trace_stops_at_the_first_boundary_past_the_horizon():
    n = translate.HOT_DISPATCHES
    iterations = 2 * n
    cpu, program, cache = build(iterations, translate_=True)
    # The N-th dispatch binds the head threaded two cycles before the
    # budget, far inside the trace's worst: the trace runs `add` and
    # `nop` and stops at the boundary the budget falls on.
    budget = PROLOGUE + ITER * (n - 1) + 2
    run(cpu, cache, budget)
    assert head_block(cpu, cache, program).worst == THREADED_WORST
    assert head_template(cache, program).runs == 1
    assert cache.single_steps == PROLOGUE + STEPS * (n - 1)
    assert (cpu.eip, cpu.cycles) == (program.symbols["body"] + 1, budget)
    run(cpu, cache, 10 ** 6)
    assert fingerprint(cpu) == reference(iterations, (budget, 10 ** 6))


def test_compiled_block_refused_by_its_guard_runs_threaded():
    n = translate.HOT_DISPATCHES
    c = translate.COMPILE_DISPATCHES
    code = CodeCache()
    first, program, cache = build(n + c, translate_=True, code=code)
    run(first, cache, 10 ** 6)
    tpl = head_template(cache, program)
    assert tpl.make is not None and tpl.runs == c
    # A second machine meets the (already hot) head at its first
    # dispatch and binds the compiled trace, whose guard the budget
    # refuses: its threaded program runs instead of single steps and
    # stops at the budget.
    iterations = 2 * n
    budget = PROLOGUE + 2
    cpu, _, cache = build(iterations, translate_=True, code=code)
    run(cpu, cache, budget)
    block = head_block(cpu, cache, program)
    compiled = block.fn
    assert block.worst == WORST and compiled is not block.threaded
    assert tpl.runs == c + 1
    assert cache.single_steps == PROLOGUE
    assert (cpu.eip, cpu.cycles) == (program.symbols["body"] + 1, budget)
    # The next iteration's dispatch is refused the same way.  The
    # fallback's due reports neither compile nor rebind the compiled
    # block.
    budgets = (budget, budget + ITER, 10 ** 6)
    run(cpu, cache, budgets[1])
    assert tpl.runs == c + 2
    assert (cpu.eip, cpu.cycles) == (program.symbols["body"] + 1,
                                     budgets[1])
    assert head_block(cpu, cache, program) is block
    assert block.fn is compiled
    run(cpu, cache, budgets[2])
    assert cache.compiled == 0
    assert fingerprint(cpu) == reference(iterations, budgets)


def test_no_discovery_just_before_a_timer_tick():
    n = translate.HOT_DISPATCHES
    iterations = 2 * n + translate.WORST_CAP // ITER
    hot_at = PROLOGUE + ITER * (n - 1)  # cycles at the N-th dispatch
    engines = []
    for translated in (False, True):
        cpu, program, cache = build(iterations, translate_=translated)
        # The head turns hot exactly WORST_CAP cycles before a tick:
        # it is interpreted up to the tick without even a template,
        # then bound at its first dispatch after it.
        cpu.timer_interval = 10 ** 6
        cpu.timer_next = hot_at + translate.WORST_CAP
        run(cpu, cache, cpu.timer_next)
        if cache is not None:
            assert not cache.code.templates and cache.threaded == 0
        run(cpu, cache, 10 ** 6)
        engines.append(fingerprint(cpu))
    assert engines[0] == engines[1]
    assert cache.threaded == 1
    assert head_template(cache, program).runs > 0


def test_no_compile_of_trace_holding_dr0_address():
    n = translate.HOT_DISPATCHES
    iterations = 2 * n
    engines = []
    for translated in (False, True):
        cpu, program, cache = build(iterations, translate_=translated)
        bp = program.symbols["body"]
        hits = []
        cpu.write_dr(0, bp)
        cpu.write_dr(7, 1)
        cpu.on_breakpoint = lambda c, index: hits.append(c.cycles)
        run(cpu, cache, 10 ** 6)
        engines.append((fingerprint(cpu), hits))
    assert engines[0] == engines[1]
    assert len(engines[1][1]) == iterations
    # The head's trace holds the armed address: bound, never entered,
    # never compiled.  Whatever ran stays clear of it.
    tpl = head_template(cache, program)
    assert tpl.runs == 0 and tpl.make is None
    entered = [tpl for ways in cache.code.templates.values()
               for tpl in ways if tpl.runs]
    assert entered
    for tpl in entered:
        assert bp not in tpl.eips


def test_flip_on_cold_code_then_hot_matches_interpreter():
    n = translate.HOT_DISPATCHES
    iterations = 3 * n
    flip_at = PROLOGUE + ITER * (n // 4)    # well before the head is hot
    states = []
    for translated in (False, True):
        cpu, program, cache = build(iterations, translate_=translated)
        imm = program.symbols["loop"] + 2   # `add eax, 1` -> `add eax, 3`
        run(cpu, cache, flip_at)
        if cache is not None:
            assert cache.threaded == 0
        cpu.bus.phys_write(imm, 1, 3)
        run(cpu, cache, 10 ** 6)
        states.append(fingerprint(cpu))
    assert states[0] == states[1]
    assert cache.threaded == 1
    assert cache.invalidations == 0     # nothing resident was flipped
    flipped = iterations - n // 4
    assert states[1][0][0] == n // 4 + 3 * flipped


# The loop reads one word 64 bytes further on every iteration; the page
# after DATA is unmapped, so the read of iteration FAULT_AT (counted
# from 1) page-faults.  The read is the trace's second instruction, so
# the threaded run must have published the first one's retire.
TRAP_SRC = """
_start:
    mov ecx, %d
    mov esi, START
    mov eax, 0
loop:
    add ebx, 1
    add eax, [esi]
    add esi, 64
    dec ecx
    jne loop
    hlt
pf:
    hlt
.align 4
idt:
    .long pf, 1, pf, 1, pf, 1, pf, 1, pf, 1, pf, 1, pf, 1, pf, 1
    .long pf, 1, pf, 1, pf, 1, pf, 1, pf, 1, pf, 1, pf, 1
"""
DATA = 0x20000


def run_trap_program(translated):
    fault_at = translate.HOT_DISPATCHES + 4
    start = DATA + 0x2000 - 64 * (fault_at - 1)
    program = assemble((TRAP_SRC % 1000).replace("START", str(start)),
                       base=BASE)
    bus = MemoryBus(0x100000)
    bus.phys_write_bytes(BASE, program.code)
    tables = PageTableBuilder(bus, 0x80000)
    tables.map_range(0, 0, 0x10000)
    tables.map_page(DATA, DATA)
    tables.map_page(DATA + 0x1000, DATA + 0x1000)
    tables.activate()
    cpu = CPU(bus)
    cpu.eip = BASE
    cpu.regs[4] = 0x8000
    cpu.idt_base = program.symbols["idt"]
    delivered = []
    cpu.on_trap_entry = lambda c, vector, error, eip: delivered.append(
        (vector, error, eip, c.cycles, c.instret, c.cr2))
    cache = BlockCache(bus) if translated else None
    run(cpu, cache, 10 ** 6)
    return program, cache, delivered, fingerprint(cpu)


def test_trap_inside_threaded_trace_matches_interpreter():
    program, _, interp, interp_state = run_trap_program(False)
    _, cache, threaded, threaded_state = run_trap_program(True)
    assert threaded == interp
    assert threaded_state == interp_state
    ((vector, _error, eip, _cycles, _instret, cr2),) = threaded
    assert (vector, cr2) == (14, DATA + 0x2000)
    assert eip == program.symbols["loop"] + 3   # `add eax, [esi]`
    # The fault came from a threaded run of the loop's trace.
    assert cache.threaded >= 1 and cache.compiled == 0
    assert head_template(cache, program).runs == 5


# Every iteration stores ecx's low bits into the immediate of the
# `add eax, 1` two instructions on, keeping the bytes after it: the
# store rewrites a later instruction of the very trace running it.
SMC_SRC = """
_start:
    mov eax, 0
    mov ecx, %d
loop:
    mov edx, ecx
    and edx, 127
    or edx, TAIL
    mov dword [patch + 2], edx
patch:
    add eax, 1
    nop
    dec ecx
    jne loop
    hlt
"""


def smc_source():
    prog = assemble((SMC_SRC % 1).replace("TAIL", "0"), base=BASE)
    off = prog.symbols["patch"] - BASE + 3
    tail = int.from_bytes(prog.code[off:off + 3], "little") << 8
    return SMC_SRC.replace("TAIL", str(tail))


def test_store_into_running_threaded_trace_exits_at_the_boundary():
    n = translate.HOT_DISPATCHES
    iterations = 3 * n
    source = smc_source()
    cpu, program, cache = build(iterations, translate_=True,
                                source=source)
    run(cpu, cache, 10 ** 6)
    assert fingerprint(cpu) == reference(iterations, source=source)
    # Every iteration added the ecx it had just stored, never the
    # immediate its trace was bound with.
    assert cpu.regs[0] == iterations * (iterations + 1) // 2
    assert cache.threaded >= 1 and cache.compiled == 0
    assert cache.invalidations > 0
    loop_runs = sum(tpl.runs for tpl in cache.code.templates[
        (program.symbols["loop"], False)])
    assert loop_runs > 0


def test_promotion_by_another_machine_keeps_threaded_binding_exact():
    n = translate.HOT_DISPATCHES
    c = translate.COMPILE_DISPATCHES
    iterations = n + c + 10
    code = CodeCache()
    budget = PROLOGUE + ITER * (n + 4)
    held, program, held_cache = build(iterations, translate_=True,
                                      code=code)
    run(held, held_cache, budget)
    tpl = head_template(held_cache, program)
    assert head_block(held, held_cache, program).worst == THREADED_WORST
    assert tpl.make is None
    # Another machine of the same kernel runs the loop to the end and
    # compiles the shared template.
    other, _, other_cache = build(iterations, translate_=True, code=code)
    run(other, other_cache, 10 ** 6)
    assert other_cache.compiled == 1 and tpl.make is not None
    assert fingerprint(other) == reference(iterations)
    # The first machine's threaded binding finishes its runs exactly
    # and then picks up the compiled trace without compiling.
    run(held, held_cache, 10 ** 6)
    assert held_cache.compiled == 0
    assert head_block(held, held_cache, program).worst == WORST
    assert fingerprint(held) == reference(iterations, (budget, 10 ** 6))
