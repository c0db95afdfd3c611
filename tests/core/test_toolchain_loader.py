"""Toolchain, signing, serialization and loader tests."""

import weakref

import pytest

from repro.core import SafeExtensionFramework
from repro.core.lang import ast
from repro.core.lang import types as T
from repro.core.lang.parser import parse_program
from repro.core.lang.serialize import (
    dict_to_program,
    program_to_dict,
    str_to_ty,
    ty_to_str,
)
from repro.core.loader import SafeLoader
from repro.core.signing import SigningKey
from repro.core.toolchain import TrustedToolchain
from repro.errors import (
    BorrowCheckError,
    SignatureError,
    TypeCheckError,
    UnsafeCodeError,
)
from repro.kernel import Kernel

GOOD = """
fn prog(ctx: XdpCtx) -> i64 {
    let mut total: u64 = 0;
    for i in 0..4 {
        match ctx.load_u8(i) {
            Some(b) => { total = total + b; },
            None => { },
        }
    }
    return total as i64;
}
"""


class TestSigning:
    def test_sign_verify(self):
        key = SigningKey.generate("k1")
        signature = key.sign(b"image")
        assert key.verify(b"image", signature)

    def test_verify_rejects_tamper(self):
        key = SigningKey.generate("k1")
        signature = key.sign(b"image")
        assert not key.verify(b"imagex", signature)

    def test_keys_deterministic_per_id(self):
        assert SigningKey.generate("a").secret == \
            SigningKey.generate("a").secret
        assert SigningKey.generate("a").secret != \
            SigningKey.generate("b").secret


class TestTypeSerialization:
    @pytest.mark.parametrize("ty", [
        T.U64, T.I64, T.BOOL, T.STR, T.UNIT,
        T.RefTy(T.U64), T.RefTy(T.ResourceTy("Task"), mut=True),
        T.OptionTy(T.U64), T.OptionTy(T.ResourceTy("Socket")),
        T.VecTy(T.U64), T.ResourceTy("XdpCtx"),
        T.OptionTy(T.RefTy(T.U64)),
    ])
    def test_roundtrip(self, ty):
        assert str_to_ty(ty_to_str(ty)) == ty

    def test_none_roundtrip(self):
        assert ty_to_str(None) is None
        assert str_to_ty(None) is None


class TestProgramSerialization:
    def test_roundtrip_preserves_structure(self):
        toolchain = TrustedToolchain()
        program = toolchain.check(GOOD)
        data = program_to_dict(program)
        rebuilt = dict_to_program(data)
        assert program_to_dict(rebuilt) == data

    def test_types_preserved(self):
        toolchain = TrustedToolchain()
        program = toolchain.check(GOOD)
        rebuilt = dict_to_program(program_to_dict(program))
        let = rebuilt.functions[0].body[0]
        assert isinstance(let, ast.Let)
        assert let.value.ty == T.U64

    def test_serialization_is_json_safe(self):
        import json
        toolchain = TrustedToolchain()
        data = program_to_dict(toolchain.check(GOOD))
        assert json.loads(json.dumps(data)) == data


class TestToolchain:
    def test_compile_produces_signed_image(self):
        toolchain = TrustedToolchain()
        ext = toolchain.compile(GOOD, "good")
        assert ext.signature
        assert toolchain.key.verify(ext.image_bytes(), ext.signature)

    def test_symbols_collected(self):
        toolchain = TrustedToolchain()
        ext = toolchain.compile(GOOD, "good")
        assert "XdpCtx::load_u8" in ext.required_symbols

    def test_pipeline_rejects_unsafe(self):
        toolchain = TrustedToolchain()
        with pytest.raises(UnsafeCodeError):
            toolchain.compile(
                "fn prog(ctx: XdpCtx) -> i64 { unsafe { } "
                "return 0; }", "bad")

    def test_pipeline_rejects_type_errors(self):
        toolchain = TrustedToolchain()
        with pytest.raises(TypeCheckError):
            toolchain.compile(
                "fn prog(ctx: XdpCtx) -> i64 { return true; }", "bad")

    def test_pipeline_rejects_borrow_errors(self):
        toolchain = TrustedToolchain()
        with pytest.raises(BorrowCheckError):
            toolchain.compile("""
            fn prog(ctx: XdpCtx) -> i64 {
                match sk_lookup_tcp(1, 2) {
                    Some(s) => { drop(s); drop(s); },
                    None => { },
                }
                return 0;
            }
            """, "bad")

    def test_compile_time_recorded(self):
        ext = TrustedToolchain().compile(GOOD, "good")
        assert ext.compile_time_s > 0


class TestLoader:
    def test_load_validates_and_fixes_up(self):
        kernel = Kernel()
        toolchain = TrustedToolchain()
        loader = SafeLoader(kernel,
                            {toolchain.key.key_id: toolchain.key})
        loaded = loader.load(toolchain.compile(GOOD, "good"))
        assert loaded.symbols
        assert loaded.program.function("prog") is not None

    def test_unknown_key_rejected(self):
        kernel = Kernel()
        toolchain = TrustedToolchain(SigningKey.generate("rogue"))
        trusted = SigningKey.generate("official")
        loader = SafeLoader(kernel, {trusted.key_id: trusted})
        with pytest.raises(SignatureError) as exc_info:
            loader.load(toolchain.compile(GOOD, "good"))
        assert "unknown key" in str(exc_info.value)

    def test_payload_tamper_rejected(self):
        kernel = Kernel()
        toolchain = TrustedToolchain()
        loader = SafeLoader(kernel,
                            {toolchain.key.key_id: toolchain.key})
        ext = toolchain.compile(GOOD, "good")
        ext.payload["functions"][0]["name"] = "evil"
        with pytest.raises(SignatureError) as exc_info:
            loader.load(ext)
        assert "signature" in str(exc_info.value)

    def test_symbol_list_tamper_rejected(self):
        kernel = Kernel()
        toolchain = TrustedToolchain()
        loader = SafeLoader(kernel,
                            {toolchain.key.key_id: toolchain.key})
        ext = toolchain.compile(GOOD, "good")
        ext.required_symbols.append("made_up_symbol")
        with pytest.raises(SignatureError):
            loader.load(ext)

    def test_abi_mismatch_rejected(self):
        kernel = Kernel()
        toolchain = TrustedToolchain()
        loader = SafeLoader(kernel,
                            {toolchain.key.key_id: toolchain.key})
        ext = toolchain.compile(GOOD, "good")
        ext.abi_version = 99
        with pytest.raises(SignatureError):
            loader.load(ext)

    def test_load_logged(self):
        kernel = Kernel()
        framework = SafeExtensionFramework(kernel)
        framework.install(GOOD, "good")
        assert kernel.log.grep("safelang: loaded extension")

    def test_load_does_no_semantic_analysis(self):
        """A signed-but-ill-typed payload loads fine — the kernel
        trusts the signature, exactly as designed.  (Only the trusted
        toolchain could have produced such an image, so this is the
        trust model, not a hole.)"""
        kernel = Kernel()
        toolchain = TrustedToolchain()
        loader = SafeLoader(kernel,
                            {toolchain.key.key_id: toolchain.key})
        ext = toolchain.compile(GOOD, "good")
        # re-sign a modified payload with the trusted key (an insider
        # with key access can do this — the design's stated boundary)
        ext.payload["functions"][0]["name"] = "renamed"
        ext.signature = toolchain.key.sign(ext.image_bytes())
        loaded = loader.load(ext)
        assert loaded.program.function("renamed") is not None


class TestFrameworkFacade:
    def test_install_and_run(self):
        kernel = Kernel()
        framework = SafeExtensionFramework(kernel)
        loaded = framework.install(GOOD, "good")
        result = framework.run_on_packet(loaded, b"abcd")
        assert result.value == sum(b"abcd")

    def test_dropped_extension_is_freed(self):
        """The caller's handle is a loaded extension's only reference:
        dropping it frees the extension at once, by reference
        counting."""
        kernel = Kernel()
        framework = SafeExtensionFramework(kernel)
        loaded = framework.install(GOOD, "good")
        framework.run_on_packet(loaded, b"abcd")
        ref = weakref.ref(loaded)
        del loaded
        assert ref() is None

    def test_run_on_trace(self):
        kernel = Kernel()
        framework = SafeExtensionFramework(kernel)
        loaded = framework.install(
            "fn prog(ctx: XdpCtx) -> i64 { return pid_tgid() as i64; }",
            "tr")
        result = framework.run_on_trace(loaded)
        task = kernel.current_task
        assert result.value == (task.tgid << 32) | task.pid
