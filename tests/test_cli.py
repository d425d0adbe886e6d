"""Command-line interface."""

import json

import pytest

from repro.cli import main


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Point the CLI's default result cache at a throwaway directory."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path / "cache"


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "GhostMinion" in out
    assert "mcf" in out and "blackscholes" in out


def test_run(capsys):
    assert main(["run", "hmmer", "--defense", "GhostMinion",
                 "--scale", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "IPC" in out and "cycles" in out
    assert "dminion.fills" in out


def test_run_unknown_workload(capsys):
    # Unknown component names are usage errors (exit 2), not
    # tracebacks; the message carries the unknown name.
    assert main(["run", "doom", "--scale", "0.05"]) == 2
    assert "doom" in capsys.readouterr().err


def test_run_spec_strings_through_engine(capsys):
    assert main(["run",
                 "--workload", "pointer_chase(stride=128, "
                               "footprint_kb=64)",
                 "--defense", "MuonTrap(flush=True)",
                 "--scale", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "pointer_chase(stride=128" in out
    assert "cycles" in out and "IPC" in out


def test_run_requires_exactly_one_workload(capsys):
    assert main(["run"]) == 2
    assert "no workload" in capsys.readouterr().err
    assert main(["run", "hmmer", "--workload", "mcf"]) == 2
    assert "both" in capsys.readouterr().err


def test_list_kind_json(capsys):
    assert main(["list", "defenses", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    names = [info["name"] for info in payload["defense"]]
    assert {"Unsafe", "GhostMinion", "MuonTrap-Flush",
            "Custom"} <= set(names)
    assert main(["list", "workloads", "--tag", "synthetic",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    names = [info["name"] for info in payload["workload"]]
    assert "pointer_chase" in names and "mcf" not in names
    assert main(["list", "predictors", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert {"tournament", "bimodal"} <= {
        info["name"] for info in payload["predictor"]}


def test_describe_spec_string(capsys):
    assert main(["describe", "MuonTrap(flush=True)"]) == 0
    out = capsys.readouterr().out
    assert "MuonTrap-Flush" in out         # resolved display name
    assert "flush_on_squash" in out
    assert main(["describe", "pointer_chase(stride=128)",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "workload"
    assert payload["resolved"]["params"]["stride"] == 128


def test_describe_unknown_suggests(capsys):
    assert main(["describe", "GhostMinon"]) == 2
    assert "GhostMinion" in capsys.readouterr().err


def test_describe_bad_spec_is_clean_error(capsys):
    assert main(["describe", "MuonTrap(flush=__import__('os'))"]) == 2
    assert "literal" in capsys.readouterr().err


def test_compare(capsys):
    assert main(["compare", "hmmer", "--scale", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "GhostMinion" in out and "geomean" in out


def test_figure_table1(capsys):
    assert main(["figure", "table1"]) == 0
    out = capsys.readouterr().out
    assert "L1 DCache" in out


def test_figure_six_small(capsys):
    assert main(["figure", "sec49", "--scale", "0.03"]) == 0
    out = capsys.readouterr().out
    assert "strict FU" in out


def test_run_json(capsys, isolated_cache):
    assert main(["run", "hmmer", "--scale", "0.05", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["workload"] == "hmmer"
    assert payload["defense"] == "GhostMinion"
    result = payload["result"]
    assert result["cycles"] > 0 and result["finished"] is True
    assert "dminion.fills" in result["stats"]


def test_run_cache_hit_on_second_invocation(capsys, isolated_cache):
    argv = ["run", "hmmer", "--scale", "0.05", "--json"]
    assert main(argv) == 0
    first = json.loads(capsys.readouterr().out)
    assert first["cache_hits"] == 0
    assert main(argv) == 0
    second = json.loads(capsys.readouterr().out)
    assert second["cache_hits"] == 1
    assert second["result"] == first["result"]


def test_compare_json_parallel_matches_serial(capsys, isolated_cache):
    argv = ["compare", "hmmer", "gamess", "--scale", "0.05", "--json"]
    assert main(argv + ["--jobs", "2", "--no-cache"]) == 0
    parallel = json.loads(capsys.readouterr().out)
    assert main(argv + ["--jobs", "1", "--no-cache"]) == 0
    serial = json.loads(capsys.readouterr().out)
    assert parallel["points"] == serial["points"]
    assert set(parallel["normalised"]["hmmer"]) == {
        "GhostMinion", "MuonTrap", "MuonTrap-Flush",
        "InvisiSpec-Spectre", "InvisiSpec-Future", "STT-Spectre",
        "STT-Future"}


def test_figure_json(capsys, isolated_cache):
    assert main(["figure", "table1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["name"].startswith("Table 1")
    assert payload["data"]["rows"]
    assert "L1 DCache" in payload["text"]


def test_figure_json_with_engine(capsys, isolated_cache):
    assert main(["figure", "sec49", "--scale", "0.03", "--json",
                 "--jobs", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "ratios" in payload["data"]
    assert payload["meta"]["points"] > 0


def test_sweep_command(capsys, isolated_cache):
    assert main(["sweep", "hmmer", "--defense", "GhostMinion",
                 "--axis", "minion_d.size_bytes=2048,128",
                 "--scale", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "hmmer::GhostMinion::minion_d.size_bytes=2048" in out
    assert "hmmer::GhostMinion::minion_d.size_bytes=128" in out


def test_sweep_malformed_axis_is_clean_error(capsys):
    assert main(["sweep", "hmmer", "--axis",
                 "minion_d.size_bytes"]) == 2
    err = capsys.readouterr().err
    assert "--axis wants PATH=V1,V2" in err


def test_sweep_malformed_set_is_clean_error(capsys):
    assert main(["sweep", "hmmer", "--set", "dram.open_page"]) == 2
    err = capsys.readouterr().err
    assert "--set wants PATH=VALUE" in err


def test_sweep_unknown_config_path_is_clean_error(capsys):
    assert main(["sweep", "hmmer", "--set",
                 "minion_d.size_bytez=128"]) == 2
    err = capsys.readouterr().err
    assert "unknown config field" in err


def test_composed_points_duplicate_keys_fail_fast():
    from repro.exp import Sweep, run_points
    points = Sweep(workloads=["hmmer"], defenses=["Unsafe"],
                   scale=0.05).points()
    with pytest.raises(ValueError, match="duplicate sweep point"):
        run_points(points + points)


def test_sweep_command_json_and_set(capsys, isolated_cache):
    assert main(["sweep", "hmmer", "--defense", "Unsafe",
                 "--set", "dram.open_page=false",
                 "--scale", "0.05", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["points"]) == 1
    assert payload["points"][0]["workload"] == "hmmer"


def test_cache_stats_and_prune_commands(capsys, isolated_cache):
    assert main(["run", "hmmer", "--scale", "0.05"]) == 0
    capsys.readouterr()
    assert main(["cache", "stats", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["entries"] == 1 and payload["bytes"] > 0
    # nothing is a week old yet
    assert main(["cache", "prune", "--older-than", "7d"]) == 0
    assert "pruned 0 entries" in capsys.readouterr().out
    assert main(["cache", "prune", "--all"]) == 0
    assert "pruned 1 entry" in capsys.readouterr().out
    assert main(["cache", "stats", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["entries"] == 0


def test_cache_prune_wants_age_or_all(capsys):
    assert main(["cache", "prune"]) == 2
    assert "--older-than" in capsys.readouterr().err
    assert main(["cache", "prune", "--older-than", "1d", "--all"]) == 2
    assert "not both" in capsys.readouterr().err
    assert main(["cache", "prune", "--older-than", "soon"]) == 2
    assert "AGE" in capsys.readouterr().err
    # NaN would defeat the age filter and prune everything
    assert main(["cache", "prune", "--older-than", "nan"]) == 2
    assert "finite" in capsys.readouterr().err


def test_attack_spectre_on_unsafe(capsys):
    assert main(["attack", "spectre", "--defense", "Unsafe",
                 "--secret", "3"]) == 0
    out = capsys.readouterr().out
    assert "recovered: 3 (correct)" in out
    assert "LEAKS" in out


def test_attack_spectre_on_ghostminion(capsys):
    assert main(["attack", "spectre", "--defense", "GhostMinion"]) == 0
    out = capsys.readouterr().out
    assert "safe under GhostMinion" in out


def test_attack_interference(capsys):
    exit_code = main(["attack", "interference",
                      "--defense", "GhostMinion"])
    assert exit_code == 0
    out = capsys.readouterr().out
    assert "secret bit 0" in out and "secret bit 1" in out


# -- error paths: malformed specs, unknown names, bad flag combos ---------

def test_run_malformed_spec_is_clean_error(capsys):
    assert main(["run", "--workload", "pointer_chase(stride=)",
                 "--scale", "0.05"]) == 2
    assert "error:" in capsys.readouterr().err


def test_run_unknown_workload_suggests(capsys):
    assert main(["run", "mfc", "--scale", "0.05"]) == 2
    assert "mcf" in capsys.readouterr().err


def test_run_unknown_defense_suggests(capsys):
    assert main(["run", "hmmer", "--defense", "GhostMinon",
                 "--scale", "0.05"]) == 2
    assert "GhostMinion" in capsys.readouterr().err


def test_run_unknown_trace_sink_suggests(capsys):
    assert main(["run", "hmmer", "--scale", "0.05", "--trace",
                 "--trace-sink", "perfeto", "--no-cache"]) == 2
    assert "perfetto" in capsys.readouterr().err


def test_trace_unknown_sink_suggests(capsys):
    assert main(["trace", "hmmer", "--scale", "0.05",
                 "--sink", "perfeto"]) == 2
    assert "perfetto" in capsys.readouterr().err


def test_compare_unknown_workload_suggests(capsys):
    assert main(["compare", "mfc", "--scale", "0.05"]) == 2
    assert "mcf" in capsys.readouterr().err


def test_sweep_unknown_defense_suggests(capsys):
    assert main(["sweep", "hmmer", "--defense", "GhostMinon",
                 "--scale", "0.05"]) == 2
    assert "GhostMinion" in capsys.readouterr().err


#: Workload specs whose kernel rejects its parameters at build time:
#: every subcommand that resolves a workload spec reports them as
#: usage errors before any point is planned.
BAD_WORKLOAD_PARAMS = [
    ("pointer_chase(stride=0)", "stride must be a power of two"),
    ("pointer_chase(stride=-64)", "stride must be a power of two"),
    ("pointer_chase(footprint_kb=0)", "nodes must be >= 1"),
]


@pytest.mark.parametrize("command", ["run", "sweep", "compare",
                                     "trace", "describe"])
@pytest.mark.parametrize("workload,message", BAD_WORKLOAD_PARAMS)
def test_bad_workload_params_are_clean_errors(capsys, tmp_path, command,
                                              workload, message):
    argv = [command, workload]
    if command in ("run", "sweep", "compare"):
        argv += ["--scale", "0.05", "--no-cache"]
    elif command == "trace":
        argv += ["--scale", "0.05", "--out", str(tmp_path / "trace.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error: " in err and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("spec,message", [
    ("MuonTrap(flush=3)", "'flush' must be True or False (got 3)"),
    ("Custom(hierarchy='muontrap', flush_on_squash=1)",
     "'flush_on_squash' must be True or False"),
])
def test_mistyped_spec_kwargs_are_clean_errors(capsys, spec, message):
    assert main(["run", "mcf", "--defense", spec, "--scale", "0.05",
                 "--no-cache"]) == 2
    err = capsys.readouterr().err
    assert "error: " in err and message in err


@pytest.mark.parametrize("spec,message", [
    ("Custom(taint='bogus')", "'taint' must be one of"),
    ("Custom(taint=3)", "(got 3)"),
    ("Custom(validation='sometimes')", "'validation' must be one of"),
])
def test_bad_custom_policy_modes_are_clean_errors(capsys, spec, message):
    assert main(["run", "mcf", "--defense", spec, "--scale", "0.05",
                 "--no-cache"]) == 2
    err = capsys.readouterr().err
    assert "error: " in err and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,message", [
    (["merge", "shard0.json"], "invalid choice: 'merge'"),
    (["report", "compare", "mcf"], "invalid choice: 'report'"),
    (["run", "mcf", "--db", "x"], "unrecognized arguments: --db x"),
    (["sweep", "mcf", "--shard", "0/2"],
     "unrecognized arguments: --shard 0/2"),
    (["store", "backfill", "--db", "x"], "invalid choice: 'store'"),
], ids=["merge", "report", "run-db", "sweep-shard", "store-backfill"])
def test_sqlite_result_store_commands_are_usage_errors(capsys, argv,
                                                       message):
    """The JSON cache is the only result store: the sqlite result
    table's commands and flags are argparse usage errors."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_bench_command_is_usage_error(capsys):
    """The committed work counts in ``BENCH_perf.json`` are the only
    perf gate (benchmarks/bench_perf_smoke.py): there is no ``bench``
    command diffing speedup ratios."""
    with pytest.raises(SystemExit) as excinfo:
        main(["bench"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'bench'" in err and "Traceback" not in err


@pytest.mark.parametrize("argv,message", [
    (["store", "stats", "--db", "x"], "invalid choice: 'store'"),
    (["store", "prune", "--db", "x", "--all"], "invalid choice: 'store'"),
    (["run", "mcf", "--warmup-insts", "10"],
     "unrecognized arguments: --warmup-insts 10"),
    (["run", "mcf", "--sample-regions", "2"],
     "unrecognized arguments: --sample-regions 2"),
    (["run", "mcf", "--checkpoint-db", "x"],
     "unrecognized arguments: --checkpoint-db x"),
], ids=["store-stats", "store-prune", "warm-start", "sampling",
        "checkpoint-database"])
def test_checkpoint_database_commands_are_usage_errors(capsys, argv,
                                                       message):
    """Whole-machine snapshot/restore is the only checkpoint mechanism:
    the checkpoint database, warm-start and region-sampling commands
    and flags are argparse usage errors."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


# -- bad numeric input: usage errors, never tracebacks or clamped runs ----

def _assert_usage_error(argv, flag, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "argument %s" % flag in capsys.readouterr().err


#: Every subcommand taking --scale and/or --max-insts, with the extra
#: arguments it needs ({tmp} is the test's temporary directory).
SCALE_COMMANDS = {
    "run": ["run", "mcf", "--no-cache"],
    "compare": ["compare", "mcf", "--no-cache"],
    "figure": ["figure", "sec49", "--no-cache"],
    "sweep": ["sweep", "mcf", "--no-cache"],
    "trace": ["trace", "mcf", "--out", "{tmp}/trace.json"],
}
MAX_INSTS_COMMANDS = ["run", "compare", "sweep", "trace"]


def _argv(command, tmp_path):
    return [arg.format(tmp=tmp_path) for arg in SCALE_COMMANDS[command]]


#: nan/inf used to crash in WorkloadSpec.build; zero and negative scales
#: were clamped to the iteration floor and exited 0.
SCALE_CASES = ([("run", value) for value in ("nan", "inf", "0")]
               + [(command, "-1") for command in sorted(SCALE_COMMANDS)])


@pytest.mark.parametrize("command,value", SCALE_CASES)
def test_every_subcommand_rejects_bad_scale(capsys, tmp_path, command,
                                            value):
    _assert_usage_error(_argv(command, tmp_path) + ["--scale", value],
                        "--scale", capsys)


@pytest.mark.parametrize("value", ["0", "-5"])
@pytest.mark.parametrize("command", MAX_INSTS_COMMANDS)
def test_every_subcommand_rejects_bad_max_insts(capsys, tmp_path,
                                                command, value):
    _assert_usage_error(
        _argv(command, tmp_path) + ["--scale", "0.05",
                                    "--max-insts", value],
        "--max-insts", capsys)


#: Count flags that used to accept negatives: a negative metrics
#: interval still armed tracing, and a negative fuzz count "checked 0
#: points" and passed vacuously.
COUNT_FLAG_CASES = (
    [(command, "--metrics-interval", "-7")
     for command in ("run", "sweep", "trace")]
    + [("fuzz", "--count", value) for value in ("-1", "0")]
    + [("fuzz", "--budget", value) for value in ("-5", "0")])


@pytest.mark.parametrize("command,flag,value", COUNT_FLAG_CASES)
def test_every_subcommand_rejects_bad_counts(capsys, tmp_path, command,
                                             flag, value):
    argv = (["fuzz", "--corpus", str(tmp_path / "corpus")]
            if command == "fuzz" else
            _argv(command, tmp_path) + ["--scale", "0.05"])
    _assert_usage_error(argv + [flag, value], flag, capsys)


def test_zero_metrics_interval_still_means_off():
    from repro.cli import _build_parser
    parser = _build_parser()
    args = parser.parse_args(["run", "mcf", "--metrics-interval", "0"])
    assert args.metrics_interval == 0
    args = parser.parse_args(["trace", "mcf", "--metrics-interval", "0"])
    assert args.metrics_interval == 0
    args = parser.parse_args(["fuzz", "--count", "1", "--budget", "1"])
    assert (args.count, args.budget) == (1, 1)


#: Impossible machine sizes: zero-sized ROB/IQ/issue width used to run
#: to the cycle cap committing nothing and exit 0, zero DRAM banks
#: raised ZeroDivisionError and a non-integer ROB size TypeError (a
#: bool width is no integer either); a ``cores`` override was silently
#: replaced by the thread count.
BAD_CONFIG_CASES = [
    (["--set", "core.rob_entries=0"], "core.rob_entries"),
    (["--set", "core.iq_entries=0"], "core.iq_entries"),
    (["--axis", "core.issue_width=0,8"], "core.issue_width"),
    (["--set", "dram.banks=0"], "dram.banks"),
    (["--set", "core.rob_entries=abc"], "core.rob_entries"),
    (["--set", "core.fetch_width=true"], "core.fetch_width"),
    (["--set", "cores=4"], "one core per workload thread"),
    (["--set", "l1d.assoc=0"], "l1d.assoc"),
    (["--set", "minion_d.assoc=0"], "minion_d.assoc"),
    (["--set", "model_tlb=true", "--set", "tlb.l1_assoc=0"],
     "tlb.l1_assoc"),
    (["--set", "l1d.latency=abc"], "l1d.latency"),
    (["--set", "l2.mshrs=true"], "l2.mshrs"),
    (["--set", "dram.open_page=5"], "dram.open_page"),
    (["--set", "core=3"], "core must be a CoreConfig section"),
    (["--set", "l1d.line_bytes=32"], "l1d.line_bytes: "),
    (["--set", "minion_d.line_bytes=128"], "minion_d.line_bytes: "),
]


@pytest.mark.parametrize("extra,message", BAD_CONFIG_CASES)
def test_sweep_rejects_impossible_config(capsys, extra, message):
    assert main(["sweep", "mcf", "--scale", "0.01", "--max-insts", "200",
                 "--no-cache"] + extra) == 2
    err = capsys.readouterr().err
    assert "error: " in err and message in err
    assert "Traceback" not in err


# -- output paths: checked before anything is simulated --------------------

@pytest.fixture
def no_simulation(monkeypatch):
    """Fail the test if any simulation starts."""
    from repro.sim.simulator import Simulator

    def refuse(self, *args, **kwargs):
        raise AssertionError("a simulation started")

    monkeypatch.setattr(Simulator, "run", refuse)


#: Output paths that used to crash with a traceback once the whole
#: simulation had run ({tmp}: the test's temporary directory, which
#: holds a regular file ``file``), with the ``$REPRO_CACHE_DIR`` each
#: case runs under (None: the test's own cache directory).
BAD_OUTPUT_PATH_CASES = [
    pytest.param(["run", "mcf", "--trace-out", "{tmp}/missing/trace.json"],
                 None, "--trace-out", id="run-trace-out"),
    pytest.param(["trace", "mcf", "--out", "{tmp}/missing/trace.json"],
                 None, "--out", id="trace-out"),
    pytest.param(["trace", "mcf", "--out", "{tmp}"],
                 None, "--out", id="trace-out-directory"),
    pytest.param(["run", "mcf", "--profile-out", "{tmp}/missing/run.prof"],
                 None, "--profile-out", id="run-profile-out"),
    pytest.param(["run", "mcf", "--profile-out", "{tmp}"],
                 None, "--profile-out", id="run-profile-out-directory"),
    pytest.param(["run", "mcf", "--cache-dir", "{tmp}/file"],
                 None, "--cache-dir", id="run-cache-dir-file"),
    pytest.param(["compare", "mcf", "--cache-dir", "{tmp}/file/sub"],
                 None, "--cache-dir", id="compare-cache-dir-under-file"),
    pytest.param(["run", "mcf"], "{tmp}/file",
                 "$REPRO_CACHE_DIR", id="run-cache-env-file"),
    pytest.param(["compare", "mcf"], "{tmp}/file/sub",
                 "$REPRO_CACHE_DIR", id="compare-cache-env-under-file"),
]


@pytest.mark.parametrize("argv,cache_env,flag", BAD_OUTPUT_PATH_CASES)
def test_unwritable_output_paths_fail_fast(capsys, tmp_path, monkeypatch,
                                           no_simulation, argv, cache_env,
                                           flag):
    (tmp_path / "file").write_text("not a directory")
    if cache_env is not None:
        monkeypatch.setenv("REPRO_CACHE_DIR", cache_env.format(tmp=tmp_path))
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert main(argv + ["--scale", "0.05"]) == 2
    err = capsys.readouterr().err
    assert "error: %s" % flag in err
    assert "Traceback" not in err


def test_trace_sink_arms_tracing(capsys, tmp_path, monkeypatch):
    # Like --trace-out and --metrics-interval, --trace-sink alone arms
    # tracing: the sink spec is checked before anything runs, and a
    # valid one writes its trace to the default path.
    assert main(["run", "mcf", "--scale", "0.05", "--no-cache",
                 "--trace-sink", "nosuch"]) == 2
    assert "nosuch" in capsys.readouterr().err
    monkeypatch.chdir(tmp_path)
    assert main(["run", "hmmer", "--scale", "0.05", "--no-cache",
                 "--max-insts", "200", "--trace-sink", "jsonl"]) == 0
    assert "trace: wrote" in capsys.readouterr().err
    assert list(tmp_path.iterdir())
