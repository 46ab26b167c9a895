"""Tiered translation at the production threshold.

A trace head is interpreted until dispatch has met it
``HOT_DISPATCHES`` times, and a hot head is compiled only at a dispatch
where the guard lets its trace run: below the event horizon, with no
DR0 address inside (and, just before a timer tick, a head without a
template is not even discovered).  These tests pin the rules on a
counted loop whose head is dispatched once per iteration, and check
that the tiers stay bit-identical to the interpreter, including for a
flip that lands on code while it is still cold.
"""

import hashlib

from repro.cpu import translate
from repro.cpu.cpu import CPU, CpuHalted, WatchdogExpired
from repro.cpu.memory import MemoryBus
from repro.cpu.translate import BlockCache
from repro.isa.assembler import assemble

BASE = 0x1000

#: a cold iteration interprets STEPS instructions in ITER cycles (the
#: taken ``jne`` costs two); the trace at ``loop`` has a worst-case
#: interior cost of WORST (its last instruction, hlt, is not counted).
STEPS = 4
ITER = 5
WORST = 4
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


def build(iterations, translate_=False):
    program = assemble(LOOP_SRC % iterations, base=BASE)
    bus = MemoryBus(0x100000)
    bus.phys_write_bytes(BASE, program.code)
    cpu = CPU(bus)
    cpu.eip = BASE
    cpu.regs[4] = 0x8000
    cache = BlockCache(bus) if translate_ else None
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
            cpu.cf, cpu.zf, cpu.sf, cpu.of, cpu.pf,
            hashlib.sha256(bytes(cpu.bus.ram)).hexdigest())


def head_template(cache, program):
    (tpl,) = cache.code.templates[(program.symbols["loop"], False)]
    return tpl


def test_head_interpreted_until_nth_dispatch():
    n = translate.HOT_DISPATCHES
    iterations = 2 * n
    cpu, program, cache = build(iterations, translate_=True)
    head = (program.symbols["loop"], False)
    # Stop at the loop head just before its N-th dispatch.
    run(cpu, cache, PROLOGUE + ITER * (n - 1))
    assert cpu.eip == head[0]
    assert cache.code.heat[head] == n - 1
    assert cache.compiled == 0 and not cache.blocks
    assert cache.single_steps == PROLOGUE + STEPS * (n - 1)
    # The N-th dispatch compiles the head; every later one hits it.
    run(cpu, cache, 10 ** 6)
    assert cache.code.heat[head] == n
    assert cache.compiled == 1
    assert cache.stats()["blocks"] == 1
    assert cache.single_steps == PROLOGUE + STEPS * (n - 1)
    assert cache.hits == iterations - n
    ref, _, _ = build(iterations)
    run(ref, None, 10 ** 6)
    assert fingerprint(cpu) == fingerprint(ref)


def test_no_compile_where_horizon_refuses():
    n = translate.HOT_DISPATCHES
    iterations = 2 * n
    cpu, program, cache = build(iterations, translate_=True)
    # The budget ends where the hot head's trace would reach: that
    # dispatch, and every hot dispatch after it in the iteration, is
    # refused by the horizon, so nothing may be compiled, although the
    # head's trace has been discovered.
    budget = PROLOGUE + ITER * (n - 1) + WORST
    run(cpu, cache, budget)
    assert cpu.eip == program.symbols["loop"]
    assert cache.compiled == 0 and not cache.blocks
    assert head_template(cache, program).make is None
    # Far from the horizon the very next dispatch compiles it.
    run(cpu, cache, 10 ** 6)
    assert cache.compiled == 1
    assert head_template(cache, program).make is not None
    ref, _, _ = build(iterations)
    run(ref, None, 10 ** 6)
    assert fingerprint(cpu) == fingerprint(ref)


def test_no_discovery_just_before_a_timer_tick():
    n = translate.HOT_DISPATCHES
    iterations = 2 * n
    hot_at = PROLOGUE + ITER * (n - 1)  # cycles at the N-th dispatch
    engines = []
    for translated in (False, True):
        cpu, program, cache = build(iterations, translate_=translated)
        # The head turns hot exactly WORST_CAP cycles before a tick:
        # it is interpreted up to the tick without even a template,
        # then compiled at its first dispatch after it.
        cpu.timer_interval = 10 ** 6
        cpu.timer_next = hot_at + translate.WORST_CAP
        run(cpu, cache, cpu.timer_next)
        if cache is not None:
            assert not cache.code.templates and cache.compiled == 0
        run(cpu, cache, 10 ** 6)
        engines.append(fingerprint(cpu))
    assert engines[0] == engines[1]
    assert cache.compiled == 1
    assert head_template(cache, program).make is not None


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
    # The head's trace holds the armed address: discovered, never
    # compiled.  Whatever was compiled stays clear of it.
    assert head_template(cache, program).make is None
    assert cache.compiled >= 1
    for ways in cache.code.templates.values():
        for tpl in ways:
            if tpl.make is not None:
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
            assert cache.compiled == 0
        cpu.bus.phys_write(imm, 1, 3)
        run(cpu, cache, 10 ** 6)
        states.append(fingerprint(cpu))
    assert states[0] == states[1]
    assert cache.compiled == 1
    assert cache.invalidations == 0     # nothing resident was flipped
    flipped = iterations - n // 4
    assert states[1][0][0] == n // 4 + 3 * flipped
