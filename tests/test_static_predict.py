"""Bit-flip pre-classifier: unit semantics + dynamic validation."""

from repro.injection.outcomes import NOT_ACTIVATED, NOT_MANIFESTED
from repro.isa.assembler import assemble
from repro.staticanalysis.predict import (
    PRED_BRANCH_REVERSAL,
    PRED_CLASSES,
    PRED_DEAD,
    PRED_INVALID_OPCODE,
    PRED_LENGTH_CHANGE,
    PRED_UNKNOWN,
    PreClassifier,
)

BASE = 0x1000


def _classifier(body, name="f"):
    prog = assemble(".func %s kernel\n%s:\n%s\n.endfunc"
                    % (name, name, body), base=BASE)
    return PreClassifier(prog), prog


class TestClassifyFlip:
    def test_dead_immediate_write(self):
        # eax is overwritten before any use: flipping the first mov's
        # immediate provably cannot change behaviour.
        pre, prog = _classifier("""
  mov eax, 5
  mov eax, 6
  mov [esi], eax
  ret""")
        assert pre.classify_site("f", BASE, 3, 2) == PRED_DEAD

    def test_live_immediate_write_is_unknown(self):
        # Same flip on the *second* mov changes the stored value.
        pre, prog = _classifier("""
  mov eax, 5
  mov eax, 6
  mov [esi], eax
  ret""")
        assert pre.classify_site("f", BASE + 5, 3, 2) == PRED_UNKNOWN

    def test_redundant_encoding_is_dead(self):
        # 31 c0 (xor r/m,r) vs 33 c0 (xor r,r/m): direction bit with
        # both operands the same register decodes identically.
        pre, prog = _classifier("""
  xor eax, eax
  mov [esi], eax
  ret""")
        assert pre.classify_site("f", BASE, 0, 1) == PRED_DEAD

    def test_cmp_sub_flag_twin_with_dead_destination(self):
        # Opcode bit 4 turns cmp (39) into sub (29): identical flag
        # computation, and the gained register write hits a dead eax.
        pre, prog = _classifier("""
  cmp eax, ebx
  jz done
done:
  mov eax, 1
  mov [esi], eax
  ret""")
        assert pre.classify_site("f", BASE, 0, 4) == PRED_DEAD

    def test_opcode_width_flip_changes_length(self):
        # b8 (mov eax,imm32) -> b0 (mov al,imm8): stream desync.
        pre, prog = _classifier("""
  mov eax, 5
  mov [esi], eax
  ret""")
        assert pre.classify_site("f", BASE, 0, 3) == PRED_LENGTH_CHANGE

    def test_branch_condition_bit_is_reversal(self):
        pre, prog = _classifier("""
  test eax, eax
  jz done
  mov ebx, 1
done:
  ret""")
        jz_addr = BASE + 2
        assert pre.classify_site("f", jz_addr, 0, 0) \
            == PRED_BRANCH_REVERSAL

    def test_undefined_opcode_flip(self):
        # 0f af (imul) -> 0f ae: not decoded by this subset (#UD).
        pre, prog = _classifier("""
  imul eax, ebx
  mov [esi], eax
  ret""")
        assert pre.classify_site("f", BASE, 1, 0) \
            == PRED_INVALID_OPCODE

    def test_unknown_site_defaults_to_unknown(self):
        pre, prog = _classifier("  mov eax, 5\n  ret")
        # An address that is not an instruction start.
        assert pre.classify_site("f", BASE + 1, 0, 0) == PRED_UNKNOWN


class TestKernelImage:
    def test_every_fs_site_classifies(self, kernel):
        pre = PreClassifier(kernel)
        checked = 0
        for info in kernel.functions:
            if info.subsystem != "fs" or checked >= 500:
                continue
            _, _, instrs, _ = pre._function_state(info.name)
            for addr in sorted(instrs)[:10]:
                ins = instrs[addr]
                for byte_offset in range(ins.length):
                    verdict = pre.classify_site(info.name, addr,
                                                byte_offset, 5)
                    assert verdict in PRED_CLASSES
                    checked += 1
        assert checked


class TestDynamicValidation:
    def test_predicted_dead_sites_do_not_manifest(self, kernel,
                                                  harness):
        """Predicted-dead fs sites overwhelmingly end NOT_MANIFESTED.

        This is the soundness claim ``--prune-dead`` rests on, checked
        against the real harness on a small covered slice.
        """
        from repro.experiments.static_validation import dead_slice_specs

        class _Ctx:
            pass

        ctx = _Ctx()
        ctx.kernel = kernel
        ctx.harness = harness
        specs = dead_slice_specs(ctx, subsystem="fs", limit=10)
        assert len(specs) >= 5, "too few covered predicted-dead sites"
        activated = benign = 0
        for spec in specs:
            result = harness.run_spec(spec)
            if result.outcome == NOT_ACTIVATED:
                continue
            activated += 1
            if result.outcome == NOT_MANIFESTED:
                benign += 1
        assert activated >= 5, "slice produced too few activated runs"
        assert benign / activated >= 0.9, (benign, activated)
