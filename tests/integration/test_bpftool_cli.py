"""bpftool-style CLI tests."""

import pytest

from repro.tools.bpftool import main


@pytest.fixture
def prog_file(tmp_path):
    path = tmp_path / "prog.s"
    path.write_text("""
        r0 = 40
        r1 = 2
        r0 += r1
        exit
    """)
    return str(path)


@pytest.fixture
def bad_prog_file(tmp_path):
    path = tmp_path / "bad.s"
    path.write_text("""
        r0 = r5
        exit
    """)
    return str(path)


class TestProgCommands:
    def test_verify_ok(self, prog_file, capsys):
        assert main(["prog", "verify", prog_file]) == 0
        out = capsys.readouterr().out
        assert "verification OK" in out
        assert "4 insns" in out
        # the kernel's closing log line reports both
        assert "max_states_per_insn 1" in out
        assert "peak_pending 1" in out

    def test_verify_with_log(self, prog_file, capsys):
        assert main(["prog", "verify", prog_file, "--log"]) == 0
        out = capsys.readouterr().out
        assert "verifier log" in out
        assert "r0 = 40" in out
        assert "R0=" in out        # register-state trace

    def test_verify_rejection(self, bad_prog_file, capsys):
        assert main(["prog", "verify", bad_prog_file]) == 1
        assert "VERIFICATION FAILED" in capsys.readouterr().out

    def test_run(self, prog_file, capsys):
        assert main(["prog", "run", prog_file]) == 0
        out = capsys.readouterr().out
        assert "return value: 42" in out
        assert "kernel healthy: True" in out

    def test_run_xdp_with_payload(self, tmp_path, capsys):
        path = tmp_path / "xdp.s"
        path.write_text("r0 = 2\nexit\n")
        assert main(["prog", "run", str(path), "--type", "xdp",
                     "--payload", "hi"]) == 0
        assert "return value: 2" in capsys.readouterr().out

    def test_run_with_map(self, tmp_path, capsys):
        path = tmp_path / "mapprog.s"
        path.write_text("""
            *(u32 *)(r10 -4) = 0
            r2 = r10
            r2 += -4
            r1 = map_fd[3]
            call helper#1
            if r0 != 0 goto hit
            r0 = 0
            exit
        hit:
            r0 = *(u64 *)(r0 +0)
            exit
        """)
        assert main(["prog", "run", str(path),
                     "--map", "array:4:8:4"]) == 0
        out = capsys.readouterr().out
        assert "created array map fd=3" in out
        assert "return value: 0" in out

    def test_crash_reported(self, tmp_path, capsys):
        path = tmp_path / "crash.s"
        # the CVE-2022-2785 shape in text assembly
        path.write_text("""
            *(u32 *)(r10 -32) = 3
            *(u32 *)(r10 -28) = 0
            *(u64 *)(r10 -24) = 0
            *(u64 *)(r10 -16) = 0
            *(u64 *)(r10 -8) = 0
            r1 = 2
            r2 = r10
            r2 += -32
            r3 = 32
            call helper#166
            r0 = 0
            exit
        """)
        code = main(["prog", "run", str(path),
                     "--map", "hash:4:4:4"])
        out = capsys.readouterr().out
        assert code == 2
        assert "KERNEL COMPROMISED" in out

    def test_crash_gone_when_patched(self, tmp_path, capsys):
        path = tmp_path / "crash.s"
        path.write_text("""
            *(u32 *)(r10 -32) = 3
            *(u32 *)(r10 -28) = 0
            *(u64 *)(r10 -24) = 0
            *(u64 *)(r10 -16) = 0
            *(u64 *)(r10 -8) = 0
            r1 = 2
            r2 = r10
            r2 += -32
            r3 = 32
            call helper#166
            exit
        """)
        assert main(["prog", "run", str(path),
                     "--map", "hash:4:4:4", "--patched"]) == 0
        assert "kernel healthy: True" in capsys.readouterr().out

    def test_dump(self, prog_file, capsys):
        assert main(["prog", "dump", prog_file]) == 0
        out = capsys.readouterr().out
        assert "r0 += r1" in out


class TestRegistryCommands:
    def test_helper_list_all(self, capsys):
        assert main(["helper", "list"]) == 0
        out = capsys.readouterr().out
        assert "(249 helpers)" in out
        assert "bpf_sys_bpf" in out

    def test_helper_list_retired(self, capsys):
        assert main(["helper", "list", "--class", "retire"]) == 0
        out = capsys.readouterr().out
        assert "(16 helpers)" in out
        assert "bpf_loop" in out

    def test_helper_list_implemented(self, capsys):
        assert main(["helper", "list", "--implemented"]) == 0
        assert "(36 helpers)" in capsys.readouterr().out

    def test_bugs_list(self, capsys):
        assert main(["bugs", "list"]) == 0
        out = capsys.readouterr().out
        assert "sys_bpf_null_union" in out
        assert "Null-pointer dereference" in out


class TestStatsCommands:
    def test_prog_stats_counts_runs(self, prog_file, capsys):
        assert main(["prog", "stats", prog_file,
                     "--repeat", "5"]) == 0
        out = capsys.readouterr().out
        row = next(line for line in out.splitlines()
                   if "ebpf" in line)
        fields = row.split()
        assert fields[1] == "ebpf"
        assert fields[2] == "5"          # run_cnt
        assert "stats_enabled=1" in out
        assert f"({prog_file}): tier=fast runs=5" in out
        assert "vm compiles=0" in out

    def test_prog_stats_verification_failure(self, bad_prog_file,
                                             capsys):
        assert main(["prog", "stats", bad_prog_file]) == 1
        assert "VERIFICATION FAILED" in capsys.readouterr().out

    def test_stats_dump_json(self, prog_file, capsys):
        import json
        assert main(["stats", "dump", prog_file,
                     "--repeat", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["stats_enabled"] is True
        assert doc["progs"][0]["run_cnt"] == 2
        assert doc["progs"][0]["framework"] == "ebpf"

    def test_stats_dump_prometheus(self, prog_file, capsys):
        from repro.telemetry import parse_prometheus
        assert main(["stats", "dump", prog_file, "--repeat", "3",
                     "--format", "prometheus"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_prog_runs_total counter" in out
        parsed = parse_prometheus(out)
        key = ('repro_prog_runs_total{framework="ebpf",'
               f'prog="{prog_file}"}}')
        assert parsed[key] == 3

    def test_trace_log_jsonl(self, prog_file, capsys):
        from repro.telemetry import parse_jsonl
        assert main(["trace", "log", prog_file,
                     "--repeat", "2"]) == 0
        events = parse_jsonl(capsys.readouterr().out)
        kinds = [e.kind for e in events]
        assert kinds.count("load") == 1
        assert kinds.count("run") == 2

    def test_trace_log_kind_filter(self, prog_file, capsys):
        from repro.telemetry import parse_jsonl
        assert main(["trace", "log", prog_file, "--repeat", "3",
                     "--kind", "run", "--limit", "2"]) == 0
        events = parse_jsonl(capsys.readouterr().out)
        assert [e.kind for e in events] == ["run", "run"]


@pytest.fixture
def xdp_filter_file(tmp_path):
    """The canonical port filter in text assembly."""
    path = tmp_path / "filter.s"
    path.write_text("""
        r2 = *(u64 *)(r1 +8)
        r3 = *(u64 *)(r1 +16)
        r4 = r2
        r4 += 3
        if r4 > r3 goto drop
        r5 = *(u16 *)(r2 +0)
        if r5 == 23 goto drop
        r0 = 2
        exit
    drop:
        r0 = 1
        exit
    """)
    return str(path)


class TestNetCommands:
    def test_net_profiles(self, capsys):
        assert main(["net", "profiles"]) == 0
        out = capsys.readouterr().out
        for profile in ("uniform", "bursty", "adversarial",
                        "heavy_hitter"):
            assert profile in out
        assert "(4 profiles" in out

    def test_net_run_uniform(self, xdp_filter_file, capsys):
        assert main(["net", "run", xdp_filter_file,
                     "--count", "500", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "uniform x500 -> bpftool0" in out
        assert "tier=compiled" in out     # 500 packets: the VM compiled
        assert "drop=" in out and "pass=" in out
        assert "latency p50=" in out
        assert "signature" in out

    def test_net_run_adversarial_counts_rx_drops(
            self, xdp_filter_file, capsys):
        assert main(["net", "run", xdp_filter_file,
                     "--profile", "adversarial", "--count", "400",
                     "--engine", "interp"]) == 0
        out = capsys.readouterr().out
        assert "tier=interp" in out
        assert "oversize=" in out    # 512-byte frames exceed the MTU

    def test_net_run_seed_determinism(self, xdp_filter_file, capsys):
        assert main(["net", "run", xdp_filter_file,
                     "--count", "300", "--seed", "9"]) == 0
        first = capsys.readouterr().out
        assert main(["net", "run", xdp_filter_file,
                     "--count", "300", "--seed", "9"]) == 0
        assert capsys.readouterr().out == first

    def test_net_run_verification_failure(self, bad_prog_file,
                                          capsys):
        assert main(["net", "run", bad_prog_file]) == 1
        assert "VERIFICATION FAILED" in capsys.readouterr().out


@pytest.fixture
def helper_prog_file(tmp_path):
    """Calls a helper (an injection site), then returns 0."""
    path = tmp_path / "victim.s"
    path.write_text("""
        call helper#5
        r0 = 0
        exit
    """)
    return str(path)


class TestRecoveryCommands:
    def test_prog_health_clean_run(self, prog_file, capsys):
        assert main(["prog", "health", prog_file]) == 0
        out = capsys.readouterr().out
        assert "healthy" in out
        assert "kernel alive: yes" in out

    def test_prog_health_quarantines_under_faults(
            self, helper_prog_file, capsys):
        assert main(["prog", "health", helper_prog_file,
                     "--arm", "helper.*=prob:1.0=panic",
                     "--repeat", "5", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "quarantined" in out
        # every oops was contained: the kernel survives
        assert "oopses contained, taint clear" in out

    def test_prog_quarantine(self, prog_file, capsys):
        assert main(["prog", "quarantine", prog_file]) == 0
        out = capsys.readouterr().out
        assert f"quarantined bpf:{prog_file}" in out
        assert "0xfffffffffffffff5" in out       # -EAGAIN refusal
        assert "refused while the breaker is open" in out

    def test_recover_status_audit_trail(self, helper_prog_file,
                                        capsys):
        assert main(["recover", "status", helper_prog_file,
                     "--arm", "helper.*=prob:1.0=panic",
                     "--repeat", "4", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "containment audit trail" in out
        assert "contain" in out
        assert "quarantine" in out
        assert "audit_signature=" in out
        assert "kernel alive: yes" in out

    def test_recover_status_without_faults(self, prog_file, capsys):
        assert main(["recover", "status", prog_file]) == 0
        out = capsys.readouterr().out
        assert "containments=0" in out
        assert "escalations=0" in out

    def test_bad_arm_spec_rejected(self, prog_file, capsys):
        assert main(["prog", "health", prog_file,
                     "--arm", "nonsense"]) == 2
