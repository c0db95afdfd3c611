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


#: input no command can use, with a fragment of the one line that
#: reports it; ``PROG`` is a good program and ``TMP`` the test's
#: temporary directory, which holds ``binary.s`` (not UTF-8),
#: ``garbage.s`` (a line that does not parse) and ``label.s`` (a jump
#: to a label that is never defined)
BAD_INPUT = [
    ("prog run TMP/missing.s", "cannot read TMP/missing.s: No such"),
    ("prog verify TMP", "cannot read TMP: Is a directory"),
    ("prog dump TMP/missing.s", "cannot read TMP/missing.s"),
    ("prog stats TMP/binary.s", "codec can't decode"),
    ("stats dump TMP/garbage.s", "line 1: cannot parse 'r0 ='"),
    ("trace log TMP/label.s", "undefined label 'nowhere'"),
    ("prog run PROG --map array:x", "bad --map 'array:x'"),
    ("fault enable PROG --map bogus", "unknown map type 'bogus'"),
    ("net run PROG --map array:4:8:0", "invalid map geometry"),
    ("prog health PROG --map hash:4:8:4 --map array:4::16",
     "bad --map 'array:4::16'"),
    ("prog run PROG --type xdp --payload \u20ac",
     "--payload: 'latin-1' codec can't encode"),
    ("fleet status --nodes 0", "--nodes must be at least 1, got 0"),
    ("fleet resume --nodes 0", "--nodes must be at least 1"),
    ("fleet rollout --nodes -3", "--nodes must be at least 1"),
    ("prog run PROG --map array:4:8:16:1", "bad --map 'array:4:8:16:1'"),
    ("fault status PROG --arm x=prob:2=panic",
     "--arm: bad fault rule 'x=prob:2=panic': probability 2.0 outside"),
    ("race status no_such_scenario", "unknown scenario"),
    ("net run TMP/pass.s --batch 0", "--batch must be at least 1, got 0"),
    ("race run unlocked_counter --cpus 0",
     "--cpus must be at least 1, got 0"),
    ("fleet resume --crash-after 0",
     "--crash-after must be at least 1, got 0"),
    ("race run unlocked_counter --migration-rate 2 --budget 2",
     "--migration-rate must be within [0, 1], got 2"),
    ("race status unlocked_counter --migration-rate -0.5",
     "--migration-rate must be within [0, 1], got -0.5"),
    ("net run TMP/pass.s --count -5", "--count must be at least 0, got -5"),
    ("net run TMP/pass.s --queue-depth -3",
     "--queue-depth must be at least 0, got -3"),
    ("prog stats PROG --repeat -2", "--repeat must be at least 0, got -2"),
    ("race run unlocked_counter --budget -1",
     "--budget must be at least 0, got -1"),
    ("race status unlocked_counter --limit -4",
     "--limit must be at least 0, got -4"),
    ("trace log PROG --limit -1", "--limit must be at least 0, got -1"),
    ("trace log PROG --kind lod", "--kind must be one of load, run, "
     "helper, watchdog_kill, panic, oops, ringbuf_drop, recovery, fault, "
     "map_op, got 'lod'"),
    ("fleet halt --after-wave 0", "--after-wave must be at least 1, got 0"),
]


class TestBadInput:
    @pytest.fixture
    def files(self, tmp_path):
        (tmp_path / "binary.s").write_bytes(b"\xff\xfe\n")
        (tmp_path / "garbage.s").write_text("r0 =\nexit\n")
        (tmp_path / "label.s").write_text("goto nowhere\nexit\n")
        (tmp_path / "pass.s").write_text("r0 = 2\nexit\n")
        return tmp_path

    @pytest.mark.parametrize("command,words", BAD_INPUT,
                             ids=[case[0] for case in BAD_INPUT])
    def test_one_line_and_exit_2(self, command, words, files, prog_file,
                                 capsys):
        argv = [arg.replace("PROG", prog_file).replace("TMP", str(files))
                for arg in command.split()]
        assert main(argv) == 2
        err = capsys.readouterr().err.replace(str(files), "TMP")
        assert err.startswith("bpftool: ") and err.count("\n") == 1
        assert words in err


class TestFleetCommands:
    def test_fleet_status_shows_certificates(self, capsys):
        assert main(["fleet", "status", "--nodes", "4", "--seed", "1"]) \
            == 0
        out = capsys.readouterr().out
        assert "census: healthy:4" in out
        rows = [line for line in out.splitlines()
                if line.startswith("  xdp-filter@")]
        assert len(rows) == 3
        assert all(" cert=" in row and " sig=" in row for row in rows)

    def test_fleet_status_json_carries_certificates(self, capsys):
        import json
        assert main(["fleet", "status", "--nodes", "4", "--json"]) == 0
        releases = json.loads(capsys.readouterr().out)["releases"]
        assert [r["release_id"] for r in releases] == [
            "xdp-filter@1.0.0", "xdp-filter@1.1.0", "xdp-filter@2.0.0"]
        certificates = [r["certificate"] for r in releases]
        assert all(len(c) == 64 for c in certificates)
        assert len(set(certificates)) == 3


#: The fault, race and fleet commands' exit status and full stdout,
#: pinned literally so that bpftool's refactors cannot change what they
#: print.  ``PROG`` in a command is the ``helper_prog_file`` program and
#: ``JOURNAL`` a fresh journal path; ``TMP`` in the output stands for
#: the test's temporary directory.
SCENARIO_GOLDEN = [
    ("fault-list",
     "fault list",
     0,
     "site             semantics\n"
     "helper.<name>    eBPF helper dispatch; errno becomes the helper's "
     "return value, panic oopses through the official panic path\n"
     "map.lookup       map lookup; errno makes the lookup miss\n"
     "map.update       map update; errno returned to the caller\n"
     "map.delete       map delete; errno returned to the caller\n"
     "map.alloc        per-element map allocation (hash value kmalloc, "
     "ringbuf record); fault surfaces as -ENOMEM/-ENOSPC\n"
     "pool.alloc       SafeLang per-CPU pool allocation; fault counts as an "
     "exhaustion and returns NULL to the extension\n"
     "watchdog.fire    watchdog delivery; errno/panic suppress this "
     "delivery attempt, delay pushes the deadline by delay_ns\n"
     "rcu.synchronize  grace-period wait; delay stretches it\n"
     "load.verify      eBPF verifier entry; errno rejects the program, "
     "panic oopses as a verifier internal fault\n"
     "load.signature   SafeLang signature check; any fault makes "
     "verification fail\n"
     "net.nic.rx       NIC packet ingress; errno drops the packet on the "
     "wire (counted rx_drops reason=nic_drop) before any queue sees it\n"
     "net.queue.enqueue per-CPU RX queue admission; errno drops the packet "
     "as a queue overflow even when the ring has room\n"
     "net.redirect     devmap redirect resolution after an XDP_REDIRECT "
     "verdict; errno makes the target NIC unreachable (rx_drops "
     "reason=redirect_gone)\n"
     "fleet.rpc.send.<node> control-channel request delivery to one fleet "
     "node; errno drops the request on the wire, delay models a slow hop "
     "(past the RPC deadline the request still lands but the client has "
     "given up), dup delivers the request twice\n"
     "fleet.rpc.reply.<node> control-channel reply delivery from one fleet "
     "node; errno drops the reply after the node applied the request (the "
     "case idempotent retries exist for), delay/dup as for send\n"
     "fleet.node.crash.<node> fleet node agent crash; panic loses the "
     "in-flight request and takes the node down for the policy's reboot "
     "span on the control clock\n"
     "fleet.partition.<node> network partition between the orchestrator and "
     "one node; any action cuts both directions for this delivery attempt "
     "(the partition heals when its schedule stops firing)\n"
     "fleet.orch.crash rollout orchestrator crash, checked after every "
     "journal append; panic kills the rollout mid-flight — "
     "RolloutOrchestrator.resume() picks it back up from the write-ahead "
     "journal\n"
     "(18 sites; schedules: prob:P nth:N every:N oneshot script:1,0,1; "
     "actions: errno:NAME|NUM panic delay:NS)\n"),
    ("fault-enable-errno",
     "fault enable PROG --arm helper.*=prob:0.5=errno:EINVAL --seed 7 "
     "--repeat 10",
     0,
     "  #0   helper.bpf_ktime_get_ns  errno:22 hit=1 t=21ns\n"
     "  #1   helper.bpf_ktime_get_ns  errno:22 hit=2 t=44ns\n"
     "  #2   helper.bpf_ktime_get_ns  errno:22 hit=4 t=90ns\n"
     "  #3   helper.bpf_ktime_get_ns  errno:22 hit=6 t=136ns\n"
     "  #4   helper.bpf_ktime_get_ns  errno:22 hit=7 t=159ns\n"
     "  #5   helper.bpf_ktime_get_ns  errno:22 hit=9 t=205ns\n"
     "  #6   helper.bpf_ktime_get_ns  errno:22 hit=10 t=228ns\n"
     "7 faults injected (seed 7, trace e314192e8449e24e…)\n"),
    ("fault-enable-panic",
     "fault enable PROG --arm helper.*=oneshot=panic --repeat 3",
     2,
     "KERNEL COMPROMISED: injected panic in helper bpf_ktime_get_ns\n"
     "  #0   helper.bpf_ktime_get_ns  panic hit=1 t=21ns\n"
     "1 faults injected (seed 0, trace d8330acb0964f7cf…)\n"),
    ("fault-status-nth",
     "fault status PROG --arm helper.*=nth:2=errno:ENOMEM --repeat 5",
     0,
     "pattern              schedule       action           hits  fires\n"
     "helper.*             nth:2          errno:ENOMEM        5      1\n"
     "  site helper.bpf_ktime_get_ns  reached 5 times\n"
     "  site load.verify              reached 1 times\n"
     "enabled=True armed=True seed=0 faults=1\n"),
    ("fault-status-load-errno",
     "fault status PROG --arm load.verify=oneshot=errno:EINVAL",
     1,
     "VERIFICATION FAILED: injected load failure (errno 22) for "
     "(TMP/victim.s)\n"
     "pattern              schedule       action           hits  fires\n"
     "load.verify          oneshot        errno:EINVAL        1      1\n"
     "  site load.verify              reached 1 times\n"
     "enabled=True armed=True seed=0 faults=1\n"),
    ("race-list",
     "race list",
     0,
     "scenario                 kind       expectation\n"
     "rcu_use_after_grace      planted    explorer must find a oops\n"
     "unlocked_counter         planted    explorer must find a race\n"
     "atomic_counter           race-free  zero findings on every schedule\n"
     "locked_counter           race-free  zero findings on every schedule\n"
     "percpu_counter           race-free  zero findings on every schedule\n"
     "rcu_publish              race-free  zero findings on every schedule\n"
     "(6 scenarios; 'race run NAME' explores, 'race status NAME --seed S' "
     "replays one schedule)\n"),
    ("race-run-race",
     "race run unlocked_counter --budget 8 --seed 0",
     0,
     "  [race    ] seed=0    data race on array_map3+0: write by "
     "unlocked-writer (no locks) vs read by locked-writer (counter.lock)\n"
     "             trace 703e915958d00eaa…\n"
     "  [race    ] seed=0    data race on array_map3+0: write by "
     "unlocked-writer (no locks) vs write by locked-writer (counter.lock)\n"
     "             trace 703e915958d00eaa…\n"
     "  [race    ] seed=1    data race on array_map3+0: read by "
     "unlocked-writer (no locks) vs write by locked-writer (counter.lock)\n"
     "             trace 427cb75c701d8c61…\n"
     "unlocked_counter: 3 distinct findings (3 races, 0 oopses, 0 "
     "deadlocks) in 8 schedules, 8 distinct states (cpus=2, base seed 0)\n"
     "replay: bpftool race status unlocked_counter --seed 0 --cpus 2\n"),
    ("race-run-oops",
     "race run rcu_use_after_grace --budget 8 --seed 0",
     0,
     "  [oops    ] seed=1    UseAfterFree: use-after-free of rcu_obj at "
     "0xffff888000000180\n"
     "             trace 2bfd01fecfa7246d…\n"
     "rcu_use_after_grace: 1 distinct findings (0 races, 1 oopses, 0 "
     "deadlocks) in 8 schedules, 4 distinct states (cpus=2, base seed 0)\n"
     "replay: bpftool race status rcu_use_after_grace --seed 1 --cpus 2\n"),
    ("race-run-unknown",
     "race run no_such_scenario --budget 8",
     2,
     ""),
    ("race-status-race",
     "race status unlocked_counter --seed 1 --limit 6",
     0,
     "  #21    mem.access     w:array_map3+0               "
     "locked-writer@cpu0 -> cpu0\n"
     "  #22    lock.release   counter.lock                 "
     "locked-writer@cpu0 -> cpu0\n"
     "  #23    lock.acquire   counter.lock                 "
     "locked-writer@cpu0 -> cpu0\n"
     "  #24    mem.access     r:array_map3+0               "
     "locked-writer@cpu0 -> cpu0\n"
     "  #25    mem.access     w:array_map3+0               "
     "locked-writer@cpu0 -> cpu0\n"
     "  #26    lock.release   counter.lock                 "
     "locked-writer@cpu0 -> cpu0\n"
     "schedule seeded:1: 26 decisions, 10 switches, 0 contended acquires, 0 "
     "migrations\n"
     "trace signature "
     "427cb75c701d8c61ba514de15b74767c16b4a18d5404128657d51e1943f8af1c\n"
     "  race: data race on array_map3+0: read by unlocked-writer (no locks) "
     "vs write by locked-writer (counter.lock)\n"
     "  race: data race on array_map3+0: write by locked-writer "
     "(counter.lock) vs write by unlocked-writer (no locks)\n"
     "  race: data race on array_map3+0: write by unlocked-writer (no "
     "locks) vs read by locked-writer (counter.lock)\n"),
    ("race-status-oops",
     "race status rcu_use_after_grace --seed 1 --limit 4",
     0,
     "  #2     rcu.enter      reader                       reader@cpu0 -> "
     "cpu0\n"
     "  #3     preempt        rcu-window                   reader@cpu0 -> "
     "cpu1\n"
     "  #4     exit           writer                       writer@cpu1 -> "
     "cpu0\n"
     "  #5     rcu.exit       reader                       reader@cpu0 -> "
     "cpu0\n"
     "schedule seeded:1: 5 decisions, 2 switches, 0 contended acquires, 0 "
     "migrations\n"
     "trace signature "
     "2bfd01fecfa7246dca99d6b3cd823c56e938ec0f2ba41c1e23fcf667a6cc8fc2\n"
     "  outcome: UseAfterFree: use-after-free of rcu_obj at "
     "0xffff888000000180\n"),
    ("fleet-rollout-good",
     "fleet rollout --release good --nodes 8 --seed 7",
     0,
     "[000] wave=0 plan fleet=8 fractions=0.01,0.1,0.5,1.0 "
     "release=xdp-filter@1.1.0 seed=7 waves=4\n"
     "[001] wave=1 wave-start fraction=0.01 nodes=1\n"
     "[002] wave=1 canary census=healthy:1 passed=True total=1 unhealthy=0 "
     "unreachable=0\n"
     "[003] wave=2 wave-start fraction=0.1 nodes=1\n"
     "[004] wave=2 canary census=healthy:1 passed=True total=1 unhealthy=0 "
     "unreachable=0\n"
     "[005] wave=3 wave-start fraction=0.5 nodes=2\n"
     "[006] wave=3 canary census=healthy:2 passed=True total=2 unhealthy=0 "
     "unreachable=0\n"
     "[007] wave=4 wave-start fraction=1.0 nodes=4\n"
     "[008] wave=4 canary census=healthy:4 passed=True total=4 unhealthy=0 "
     "unreachable=0\n"
     "[009] wave=0 done census=healthy:8 converged=8 outcome=completed "
     "rpc_retries=0 rpc_unreachable=0\n"
     "outcome: completed signature=d28f294afe45911c\n"),
    ("fleet-rollout-bad",
     "fleet rollout --release bad --nodes 8 --seed 7",
     1,
     "[000] wave=0 plan fleet=8 fractions=0.01,0.1,0.5,1.0 "
     "release=xdp-filter@2.0.0 seed=7 waves=4\n"
     "[001] wave=1 wave-start fraction=0.01 nodes=1\n"
     "[002] wave=1 canary census=quarantined:1 passed=False total=1 "
     "unhealthy=1 unreachable=0\n"
     "[003] wave=1 halt reason=canary-failed upgraded=1\n"
     "[004] wave=1 rollback restored=1 stuck=0 unreachable=0\n"
     "[005] wave=0 done census=healthy:8 converged=0 outcome=rolled-back "
     "rpc_retries=0 rpc_unreachable=0\n"
     "outcome: rolled-back signature=ef5abef35fdcddb5\n"),
    ("fleet-rollback",
     "fleet rollback --nodes 8 --seed 7",
     0,
     "# prior rollout: xdp-filter@1.1.0 -> completed (8 nodes)\n"
     "[000] wave=0 plan fleet=8 fractions=0.01,0.1,0.5,1.0 "
     "release=xdp-filter@2.0.0 seed=7 waves=4\n"
     "[001] wave=1 wave-start fraction=0.01 nodes=1\n"
     "[002] wave=1 canary census=quarantined:1 passed=False total=1 "
     "unhealthy=1 unreachable=0\n"
     "[003] wave=1 halt reason=canary-failed upgraded=1\n"
     "[004] wave=1 rollback restored=1 stuck=0 unreachable=0\n"
     "[005] wave=0 done census=healthy:8 converged=0 outcome=rolled-back "
     "rpc_retries=0 rpc_unreachable=0\n"
     "outcome: rolled-back signature=ef5abef35fdcddb5\n"),
    ("fleet-halt",
     "fleet halt --after-wave 1 --nodes 8 --seed 3",
     0,
     "[000] wave=0 plan fleet=8 fractions=0.01,0.1,0.5,1.0 "
     "release=xdp-filter@1.1.0 seed=3 waves=4\n"
     "[001] wave=1 wave-start fraction=0.01 nodes=1\n"
     "[002] wave=1 canary census=healthy:1 passed=True total=1 unhealthy=0 "
     "unreachable=0\n"
     "[003] wave=1 halt reason=halt-after-1 upgraded=1\n"
     "[004] wave=0 done census=healthy:8 converged=1 outcome=halted "
     "rpc_retries=0 rpc_unreachable=0\n"
     "outcome: halted signature=3cec36151cf3c28f\n"),
    ("fleet-resume",
     "fleet resume --nodes 8 --seed 7 --crash-after 3 --journal JOURNAL",
     0,
     "# crash 1: orchestrator crashed after journal record 2\n"
     "# crash 2: orchestrator crashed after journal record 6\n"
     "# crash 3: orchestrator crashed after journal record 9\n"
     "# crash 4: orchestrator crashed after journal record 12\n"
     "# crash 5: orchestrator crashed after journal record 15\n"
     "# crash 6: orchestrator crashed after journal record 18\n"
     "# crash 7: orchestrator crashed after journal record 21\n"
     "# crash 8: orchestrator crashed after journal record 24\n"
     "# crash 9: orchestrator crashed after journal record 27\n"
     "# crash 10: orchestrator crashed after journal record 30\n"
     "# crash 11: orchestrator crashed after journal record 33\n"
     "# crash 12: orchestrator crashed after journal record 36\n"
     "# crash 13: orchestrator crashed after journal record 39\n"
     "# crash 14: orchestrator crashed after journal record 42\n"
     "# crash 15: orchestrator crashed after journal record 45\n"
     "# crash 16: orchestrator crashed after journal record 48\n"
     "# crash 17: orchestrator crashed after journal record 51\n"
     "[000] wave=0 plan fleet=8 fractions=0.01,0.1,0.5,1.0 "
     "release=xdp-filter@1.1.0 seed=7 waves=4\n"
     "[001] wave=1 wave-start fraction=0.01 nodes=1\n"
     "[002] wave=1 canary census=healthy:1 passed=True total=1 unhealthy=0 "
     "unreachable=0\n"
     "[003] wave=2 wave-start fraction=0.1 nodes=1\n"
     "[004] wave=2 canary census=healthy:1 passed=True total=1 unhealthy=0 "
     "unreachable=0\n"
     "[005] wave=3 wave-start fraction=0.5 nodes=2\n"
     "[006] wave=3 canary census=healthy:2 passed=True total=2 unhealthy=0 "
     "unreachable=0\n"
     "[007] wave=4 wave-start fraction=1.0 nodes=4\n"
     "[008] wave=4 canary census=healthy:4 passed=True total=4 unhealthy=0 "
     "unreachable=0\n"
     "[009] wave=0 done census=healthy:8 converged=8 outcome=completed "
     "rpc_retries=0 rpc_unreachable=0\n"
     "outcome: completed signature=d28f294afe45911c\n"
     "# journal: TMP/journal.jsonl (51 records, 17 crashes survived)\n"
     "# uninterrupted signature: "
     "d28f294afe45911cd55d7822958ff96fa925be6f3c5b88479b367533e6026ada\n"
     "# resumed signature:       "
     "d28f294afe45911cd55d7822958ff96fa925be6f3c5b88479b367533e6026ada\n"
     "# bit-identical: yes\n"),
    ("fleet-resume-chaos",
     "fleet resume --release bad --nodes 8 --seed 7 --crash-after 4 --chaos "
     "rpc-drops --journal JOURNAL",
     0,
     "# crash 1: orchestrator crashed after journal record 3\n"
     "# crash 2: orchestrator crashed after journal record 8\n"
     "# crash 3: orchestrator crashed after journal record 12\n"
     "# crash 4: orchestrator crashed after journal record 16\n"
     "# crash 5: orchestrator crashed after journal record 20\n"
     "# crash 6: orchestrator crashed after journal record 24\n"
     "# crash 7: orchestrator crashed after journal record 28\n"
     "[000] wave=0 plan fleet=8 fractions=0.01,0.1,0.5,1.0 "
     "release=xdp-filter@2.0.0 seed=7 waves=4\n"
     "[001] wave=1 wave-start fraction=0.01 nodes=1\n"
     "[002] wave=1 unreachable attempts=4 node=node-004 op=census\n"
     "[003] wave=1 canary census=unreachable:1 passed=False total=1 "
     "unhealthy=0 unreachable=1\n"
     "[004] wave=1 halt reason=canary-failed upgraded=1\n"
     "[005] wave=1 rollback restored=1 stuck=0 unreachable=0\n"
     "[006] wave=0 done census=healthy:8 converged=0 outcome=rolled-back "
     "rpc_retries=11 rpc_unreachable=1\n"
     "outcome: rolled-back signature=48995b38f48329a1\n"
     "# journal: TMP/journal.jsonl (28 records, 7 crashes survived)\n"
     "# uninterrupted signature: "
     "48995b38f48329a1823d09bc1bfa2e93818ef209de9a88a5f3f911157010a40a\n"
     "# resumed signature:       "
     "48995b38f48329a1823d09bc1bfa2e93818ef209de9a88a5f3f911157010a40a\n"
     "# bit-identical: yes\n"),
    ("fleet-resume-json",
     "fleet resume --nodes 8 --seed 7 --crash-after 5 --json --journal "
     "JOURNAL",
     0,
     "{\n"
     "  \"converged_nodes\": 8,\n"
     "  \"crashes\": 10,\n"
     "  \"final_census\": {\n"
     "    \"healthy\": 8\n"
     "  },\n"
     "  \"journal\": \"TMP/journal.jsonl\",\n"
     "  \"journal_records\": 51,\n"
     "  \"log\": [\n"
     "    \"[000] wave=0 plan fleet=8 fractions=0.01,0.1,0.5,1.0 "
     "release=xdp-filter@1.1.0 seed=7 waves=4\",\n"
     "    \"[001] wave=1 wave-start fraction=0.01 nodes=1\",\n"
     "    \"[002] wave=1 canary census=healthy:1 passed=True total=1 "
     "unhealthy=0 unreachable=0\",\n"
     "    \"[003] wave=2 wave-start fraction=0.1 nodes=1\",\n"
     "    \"[004] wave=2 canary census=healthy:1 passed=True total=1 "
     "unhealthy=0 unreachable=0\",\n"
     "    \"[005] wave=3 wave-start fraction=0.5 nodes=2\",\n"
     "    \"[006] wave=3 canary census=healthy:2 passed=True total=2 "
     "unhealthy=0 unreachable=0\",\n"
     "    \"[007] wave=4 wave-start fraction=1.0 nodes=4\",\n"
     "    \"[008] wave=4 canary census=healthy:4 passed=True total=4 "
     "unhealthy=0 unreachable=0\",\n"
     "    \"[009] wave=0 done census=healthy:8 converged=8 "
     "outcome=completed rpc_retries=0 rpc_unreachable=0\"\n"
     "  ],\n"
     "  \"outcome\": \"completed\",\n"
     "  \"reference_signature\": "
     "\"d28f294afe45911cd55d7822958ff96fa925be6f3c5b88479b367533e6026ada\",\n"
     "  \"release\": \"xdp-filter@1.1.0\",\n"
     "  \"rpc_retries\": 0,\n"
     "  \"rpc_unreachable\": 0,\n"
     "  \"seed\": 7,\n"
     "  \"signature\": "
     "\"d28f294afe45911cd55d7822958ff96fa925be6f3c5b88479b367533e6026ada\",\n"
     "  \"signature_match\": true,\n"
     "  \"stuck_nodes\": [],\n"
     "  \"unreachable_nodes\": [],\n"
     "  \"verdicts\": [\n"
     "    {\n"
     "      \"census\": {\n"
     "        \"dead\": 0,\n"
     "        \"degraded\": 0,\n"
     "        \"deploy-failed\": 0,\n"
     "        \"healthy\": 1,\n"
     "        \"quarantined\": 0,\n"
     "        \"unreachable\": 0\n"
     "      },\n"
     "      \"passed\": true,\n"
     "      \"total\": 1,\n"
     "      \"unhealthy\": 0,\n"
     "      \"unhealthy_fraction\": 0.0,\n"
     "      \"unreachable\": 0,\n"
     "      \"unreachable_fraction\": 0.0,\n"
     "      \"wave\": 1\n"
     "    },\n"
     "    {\n"
     "      \"census\": {\n"
     "        \"dead\": 0,\n"
     "        \"degraded\": 0,\n"
     "        \"deploy-failed\": 0,\n"
     "        \"healthy\": 1,\n"
     "        \"quarantined\": 0,\n"
     "        \"unreachable\": 0\n"
     "      },\n"
     "      \"passed\": true,\n"
     "      \"total\": 1,\n"
     "      \"unhealthy\": 0,\n"
     "      \"unhealthy_fraction\": 0.0,\n"
     "      \"unreachable\": 0,\n"
     "      \"unreachable_fraction\": 0.0,\n"
     "      \"wave\": 2\n"
     "    },\n"
     "    {\n"
     "      \"census\": {\n"
     "        \"dead\": 0,\n"
     "        \"degraded\": 0,\n"
     "        \"deploy-failed\": 0,\n"
     "        \"healthy\": 2,\n"
     "        \"quarantined\": 0,\n"
     "        \"unreachable\": 0\n"
     "      },\n"
     "      \"passed\": true,\n"
     "      \"total\": 2,\n"
     "      \"unhealthy\": 0,\n"
     "      \"unhealthy_fraction\": 0.0,\n"
     "      \"unreachable\": 0,\n"
     "      \"unreachable_fraction\": 0.0,\n"
     "      \"wave\": 3\n"
     "    },\n"
     "    {\n"
     "      \"census\": {\n"
     "        \"dead\": 0,\n"
     "        \"degraded\": 0,\n"
     "        \"deploy-failed\": 0,\n"
     "        \"healthy\": 4,\n"
     "        \"quarantined\": 0,\n"
     "        \"unreachable\": 0\n"
     "      },\n"
     "      \"passed\": true,\n"
     "      \"total\": 4,\n"
     "      \"unhealthy\": 0,\n"
     "      \"unhealthy_fraction\": 0.0,\n"
     "      \"unreachable\": 0,\n"
     "      \"unreachable_fraction\": 0.0,\n"
     "      \"wave\": 4\n"
     "    }\n"
     "  ],\n"
     "  \"waves\": 4\n"
     "}\n"),
]


@pytest.mark.parametrize(
    "command,status,stdout", [case[1:] for case in SCENARIO_GOLDEN],
    ids=[case[0] for case in SCENARIO_GOLDEN])
def test_scenario_command_golden(command, status, stdout,
                                 helper_prog_file, tmp_path, capsys):
    journal = str(tmp_path / "journal.jsonl")
    argv = [arg.replace("PROG", helper_prog_file)
            .replace("JOURNAL", journal) for arg in command.split()]
    assert main(argv) == status
    assert capsys.readouterr().out.replace(str(tmp_path), "TMP") \
        == stdout
