"""CLI tests: strict config parsing, artifact emission, reproducibility."""

import copy
import csv
import dataclasses
import errno
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import jamsense
from jamsense.cli import (
    _POLICY_CURVES,
    ConfigError,
    PRESETS,
    config_from_dict,
    config_to_dict,
    export_grid,
    main,
    parse_config,
    run_experiment,
)
from jamsense.engine import JAMMED, SKIPPED, SUCCESSFUL, SimConfig, run, run_batch
from jamsense.fusion import Belief
from jamsense.policies import PolicyKind, QParams
from jamsense.sensing import FadingKind, ProbabilityGrid

# Pinned after validating grid entries against the quadrature oracle
# (see test_sensing); guards the CSV export byte layout as well.
GRID_AWGN_SHA256 = "a45f625f135dd258b60ca9377f9d1b00898fc0eb675845c0089ac89e9fd8906b"
GRID_RAYLEIGH_SHA256 = "f04bca690aa5127743091e90176638cbaec0606f39060910addde81083d843bb"


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def config_directory(tmp_path):
    """A config path that is a directory, not a file."""
    path = tmp_path / "config.json"
    path.mkdir()
    return path


def config_not_utf8(tmp_path):
    """A config file whose bytes are not UTF-8."""
    path = tmp_path / "config.json"
    path.write_bytes(b'{"seed": "\xff"}')
    return path


def config_deeply_nested(tmp_path):
    """A config file nesting more lists than the JSON parser recurses into."""
    path = tmp_path / "config.json"
    path.write_text('{"seed": ' + "[" * 100_000 + "]" * 100_000 + "}")
    return path


def config_huge_integer(tmp_path):
    """A config file with an integer past Python's digit limit for int()."""
    path = tmp_path / "config.json"
    path.write_text('{"seed": ' + "9" * 5001 + "}")
    return path


class TestParseConfig:
    def test_minimal_seed_only_gives_reference_scenario(self, tmp_path):
        config = parse_config(write_config(tmp_path, {"seed": 1}))
        assert config.seed == 1
        assert config.n_wn == 10
        assert config.n_fb == 10
        assert config.horizon == 2000
        assert config.replications == 100
        assert config.fading is FadingKind.AWGN
        assert config.policy is PolicyKind.PSEUDO_RANDOM
        assert config.epsilon_n == 0.1
        assert config.detection.threshold == 12.1
        assert config.jammer_bounds == (0.85, 0.98)
        assert config.placement is None  # resolved to the two-ring default
        assert config.resolved_placement().n_nodes == 10

    def test_epsilon_out_of_bounds_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="epsilon_n"):
            parse_config(write_config(tmp_path, {"seed": 1, "epsilon_n": 1.5}))

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key 'sneaky'"):
            parse_config(write_config(tmp_path, {"seed": 1, "sneaky": 2}))

    def test_unknown_nested_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="detection"):
            parse_config(
                write_config(tmp_path, {"detection": {"lambda": 3.0}})
            )

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text('{"seed": 1, "seed": 2}')
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config(path)

    def test_syntax_error_is_line_anchored(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "seed": 1,\n}')
        with pytest.raises(ConfigError, match=r"bad\.json:3:"):
            parse_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="no such config"):
            parse_config(tmp_path / "absent.json")

    def test_band_override_creates_matching_chains(self, tmp_path):
        config = parse_config(
            write_config(tmp_path, {"seed": 1, "n_fb": 20, "horizon": 3,
                                    "replications": 1})
        )
        record = run(config)
        assert len(record.chain_params) == 20
        assert record.truth.shape == (3, 20)

    def test_placement_requires_nodes(self, tmp_path):
        with pytest.raises(ConfigError, match="nodes"):
            parse_config(
                write_config(tmp_path, {"placement": {"range_km": 0.4}})
            )

    @pytest.mark.parametrize(
        "data, field",
        [
            ({"qlearning": 3}, "config.json.qlearning"),
            ({"detection": 3}, "config.json.detection"),
            ({"qlearning": {"epsilon": "x"}}, "qlearning.epsilon"),
            ({"jammer_bounds": ["a", "b"]}, "jammer_bounds[0]"),
            ({"use_super_decision": "false"}, "use_super_decision"),
            ({"grid_lookup": "no"}, "grid_lookup"),
            ({"n_wn": 2.7}, "n_wn"),
            ({"seed": True}, "seed"),
            ({"epsilon_n": "0.1"}, "epsilon_n"),
            ({"fading": 3}, "fading"),
            ({"false_alarm": {"awgn": {"one": 0.1}}}, "false_alarm.awgn"),
            # Only canonical integer keys: these would alias "1", "10" and "2".
            ({"false_alarm": {"awgn": {"1": 0.1, "01": 0.2}}}, "false_alarm.awgn"),
            ({"false_alarm": {"awgn": {"1_0": 0.1}}}, "false_alarm.awgn"),
            ({"false_alarm": {"awgn": {" 2": 0.1}}}, "false_alarm.awgn"),
            (
                {"n_wn": 2, "placement": {"nodes": [[0.1, 0], [0.2, 0]], "jammer": [0]}},
                "placement.jammer",
            ),
            ({"n_wn": 2, "placement": {"nodes": [[0.1, 0], [0, 0]]}}, "node 1"),
            ({"n_fb": 40000}, "n_fb"),
            ({"n_wn": 40000}, "n_wn"),
            ({"qlearning": {"epsilon": 1.5}}, "config.json.qlearning"),
            ({"seed": -1}, "seed"),
            ({"seed": 2**64}, "seed"),
        ],
    )
    def test_malformed_value_names_field(self, tmp_path, data, field):
        with pytest.raises(ConfigError) as excinfo:
            parse_config(write_config(tmp_path, data))
        message = str(excinfo.value)
        assert field in message
        assert "q_epsilon" not in message

    def test_false_alarm_override(self, tmp_path):
        config = parse_config(
            write_config(
                tmp_path,
                {"seed": 1, "false_alarm": {"awgn": {"1": 0.5, "2": 0.25}}},
            )
        )
        assert config.false_alarm.awgn == {1: 0.5, 2: 0.25}
        assert config.false_alarm.rayleigh[1] == 0.83  # default retained


def _key_paths(value, path=()):
    """Every key path into a JSON value, the value's own (empty) path first."""
    yield path
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        items = ()
    for key, sub in items:
        yield from _key_paths(sub, path + (key,))


_DEFAULT_ECHO = config_to_dict(SimConfig())
_DELETE = object()
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 64) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_MUTATION = st.tuples(
    st.sampled_from(list(_key_paths(_DEFAULT_ECHO))[1:]), _JSON | st.just(_DELETE)
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(_MUTATION, min_size=1, max_size=3))
def test_config_from_dict_fuzz(mutations):
    """A mutated default echo either fails with ConfigError or runs."""
    data = copy.deepcopy(_DEFAULT_ECHO)
    for path, value in mutations:
        parent = data
        try:
            for key in path[:-1]:
                parent = parent[key]
            if value is _DELETE:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
        except (KeyError, IndexError, TypeError):
            continue  # an earlier mutation replaced a container on this path
    try:
        config = config_from_dict(data)
    except ConfigError:
        return
    run_batch(dataclasses.replace(config, replications=1, horizon=5), workers=1)


def test_config_dict_round_trip():
    config = SimConfig(seed=9, n_fb=12, fading=FadingKind.RAYLEIGH,
                       policy=PolicyKind.QLEARNING, epsilon_n=0.2,
                       qlearning=QParams(learning_rate=0.3, discount=0.5, epsilon=0.2))
    echoed = config_from_dict(config_to_dict(config))
    assert config_to_dict(echoed) == config_to_dict(config)


class TestRunExperiment:
    @pytest.fixture()
    def small_curves(self):
        config = SimConfig(seed=5, horizon=40, replications=2)
        return [("", config)]

    def test_writes_all_artifacts(self, tmp_path, small_curves):
        written = run_experiment(small_curves, tmp_path)
        names = {p.name for p in written}
        assert names == {
            "metrics.csv", "config_echo.json", "summary.txt",
            "grid_awgn.csv", "grid_rayleigh.csv",
        }
        header = (tmp_path / "metrics.csv").read_text().splitlines()[0]
        assert header == "t,jdr_mean,jdr_std,tsr_mean,tsr_std"
        assert len((tmp_path / "metrics.csv").read_text().splitlines()) == 41
        summary = (tmp_path / "summary.txt").read_text()
        for key in ("version=", "jdr_final_mean=", "snr_db=", "edges=",
                    "chains_rep0="):
            assert key in summary
        # Resolved-world echo matches replication 0's run, every entry.
        record = run(small_curves[0][1], 0)
        lines = summary.splitlines()
        assert "snr_db=" + ",".join(f"{s:.4f}" for s in record.snr_db) in lines
        assert "edges=" + ";".join(f"{i}-{j}" for i, j in record.edges) in lines
        assert "chains_rep0=" + ";".join(
            f"{idle:.6f},{active:.6f},{int(initial)}"
            for idle, active, initial in record.chain_params
        ) in lines

    def test_byte_identical_on_rerun(self, tmp_path, small_curves):
        run_experiment(small_curves, tmp_path / "a")
        run_experiment(small_curves, tmp_path / "b")
        for name in ("metrics.csv", "summary.txt", "config_echo.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_echo_closure_reproduces_metrics(self, tmp_path, small_curves):
        run_experiment(small_curves, tmp_path / "orig")
        echoed = parse_config(tmp_path / "orig" / "config_echo.json")
        run_experiment([("", echoed)], tmp_path / "again")
        assert (tmp_path / "orig" / "metrics.csv").read_bytes() == (
            tmp_path / "again" / "metrics.csv"
        ).read_bytes()

    def test_trace_flag(self, tmp_path, small_curves):
        run_experiment(small_curves, tmp_path, trace=True)
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        assert lines[0] == (
            "t,node,action,m,tau,transmit,outcome,decision,super_decision"
        )
        assert len(lines) == 1 + 40 * 10
        row = lines[1].split(",")
        assert row[4] in ("V", "O")
        assert set(row[7]) <= {"V", "O", "U"}

    def test_failure_removes_partial_outputs(self, tmp_path, monkeypatch):
        import jamsense.cli as cli

        def boom(config, workers=1):
            raise RuntimeError("replication blew up")

        monkeypatch.setattr(cli, "run_batch", boom)
        config = SimConfig(seed=5, horizon=10, replications=1)
        with pytest.raises(RuntimeError):
            run_experiment([("", config)], tmp_path / "fail")
        assert not list((tmp_path / "fail").glob("*"))

    def test_interrupted_write_removes_the_file_it_was_writing(
        self, tmp_path, monkeypatch
    ):
        import jamsense.cli as cli

        def interrupted(path, config):
            Path(path).write_text("t,node,action\n0,0,")
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_write_trace_csv", interrupted)
        config = SimConfig(seed=5, horizon=10, replications=1)
        with pytest.raises(KeyboardInterrupt):
            run_experiment([("pseudo_random", config)], tmp_path / "out", trace=True)
        assert not list((tmp_path / "out").glob("*"))


# Trace modes: super-decision on and off, one and thirteen channels (the
# one-channel run skips 170 of its 300 node-steps), q-learning, and global
# Rayleigh cohorts of up to 40 nodes.  Digests recorded with the writer that
# looked up each belief in a dict.
TRACE_MATRIX = {
    "super-on": ({}, "4c8099fe1a77399a45e91d30e47f29b9137802cb276bef25e37ccda1f13d249c"),
    "super-off": (
        dict(use_super_decision=False),
        "94a44797ed3630546bf1dba9436d58e74ed0e6d70f50bfccb70241a9a425e1ef",
    ),
    "one-channel": (
        dict(n_fb=1),
        "43d5da9726ca400f41fbe2846e28ce6c139403f04be463022246cff1459e2783",
    ),
    "thirteen-channels": (
        dict(n_fb=13),
        "799d54b9ca7b4daf9d07598f08b18619e2241b2d24b7a61f4addcc147b644b9d",
    ),
    "qlearning-rayleigh": (
        dict(policy=PolicyKind.QLEARNING, fading=FadingKind.RAYLEIGH),
        "e2fe18a32c715f91f38065533ad44d6b9a630c00fa570ff7777cc96c7d99160e",
    ),
    "global-rayleigh-40": (
        dict(n_wn=40, fading=FadingKind.RAYLEIGH, global_cohort=True,
             use_super_decision=False),
        "0ebcfc88db1e4cfb29cd8e36cf29dd3507062055039ec4c9dd09c915981c7c53",
    ),
}


def trace_config(mode: str) -> SimConfig:
    return SimConfig(horizon=30, seed=2026, replications=1, **TRACE_MATRIX[mode][0])


@pytest.mark.parametrize("mode", sorted(TRACE_MATRIX))
def test_trace_csv_bytes_pinned(tmp_path, mode):
    run_experiment([("", trace_config(mode))], tmp_path, trace=True)
    digest = hashlib.sha256((tmp_path / "trace.csv").read_bytes()).hexdigest()
    assert digest == TRACE_MATRIX[mode][1]


@pytest.mark.parametrize("mode", sorted(TRACE_MATRIX))
def test_trace_csv_parses_back_to_the_record(tmp_path, mode):
    config = trace_config(mode)
    run_experiment([("", config)], tmp_path, trace=True)
    with open(tmp_path / "trace.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    record = run(config, 0)
    beliefs = {"U": Belief.UNKNOWN, "V": Belief.VACANT, "O": Belief.OCCUPIED}
    outcomes = {"skipped": SKIPPED, "successful": SUCCESSFUL, "jammed": JAMMED}

    def decode(text):
        return np.array([beliefs[ch] for ch in text], dtype=np.int8)

    assert rows[0] == ["t", "node", "action", "m", "tau", "transmit",
                       "outcome", "decision", "super_decision"]
    body = rows[1:]
    assert len(body) == len(record) * config.n_wn
    for k, (t, node, action, m, tau, transmit, outcome, decision,
            super_decision) in enumerate(body):
        step, i = divmod(k, config.n_wn)
        assert (int(t), int(node)) == (step, i)
        assert int(action) == record.actions[step, i]
        assert int(m) == record.cohorts[step, i]
        assert beliefs[tau] == record.observations[step, i]
        if record.transmits[step, i] == -1:
            assert transmit == ""
        else:
            assert int(transmit) == record.transmits[step, i]
        assert outcomes[outcome] == record.outcomes[step, i]
        assert np.array_equal(decode(decision), record.decisions[step, i])
        if config.use_super_decision:
            assert np.array_equal(decode(super_decision), record.supers[step, i])
        else:
            assert super_decision == ""


class TestExportGrid:
    def test_default_grid_shapes_and_pinned_hashes(self, tmp_path):
        paths = export_grid(SimConfig(), tmp_path)
        awgn = (tmp_path / "grid_awgn.csv").read_text().splitlines()
        assert len(awgn) == 7  # header plus one row per diversity order
        assert len(awgn[0].split(",")) == 17  # label plus 16 SNR columns
        rayleigh = (tmp_path / "grid_rayleigh.csv").read_text().splitlines()
        assert len(rayleigh) == 2
        hashes = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths
        }
        assert hashes["grid_awgn.csv"] == GRID_AWGN_SHA256
        assert hashes["grid_rayleigh.csv"] == GRID_RAYLEIGH_SHA256

    def test_zero_threshold_grid_all_ones(self, tmp_path):
        from jamsense.sensing import DetectionParams, ProbabilityGrid

        config = SimConfig(detection=DetectionParams(threshold=0.0))
        export_grid(config, tmp_path)
        grid = ProbabilityGrid.from_csv(tmp_path / "grid_awgn.csv")
        assert np.all(grid.values == 1.0)

    def test_huge_sample_count_exports(self, tmp_path):
        # The Rayleigh closed form sums N/2 - 1 terms per SNR point; all but a
        # few hundred underflow to 0.0 and are not visited.  So much noise
        # energy lies far above the threshold, and every entry of both tables
        # is 1.
        from jamsense.sensing import DetectionParams

        config = SimConfig(detection=DetectionParams(n_samples=10**12))
        export_grid(config, tmp_path)
        for kind in FadingKind:
            grid = ProbabilityGrid.from_csv(tmp_path / f"grid_{kind.value}.csv")
            assert np.all(grid.values == 1.0)


def test_seed_range_is_inclusive():
    assert config_from_dict({"seed": 0}).seed == 0
    assert config_from_dict({"seed": 2**64 - 1}).seed == 2**64 - 1


@pytest.mark.parametrize("fading", list(FadingKind), ids=lambda kind: kind.value)
def test_default_run_and_grid_export_leave_scipy_special_unimported(fading, tmp_path):
    # scipy.special loads only for the Marcum Q series of a non-default AWGN
    # table; the default table is a recorded constant.
    code = (
        "import sys\n"
        "import jamsense.cli as cli\n"
        "from jamsense.sensing import FadingKind\n"
        f"cli.run(cli.SimConfig(fading=FadingKind.{fading.name}, horizon=1,"
        " replications=1))\n"
        f"cli.export_grid(cli.SimConfig(), {str(tmp_path)!r})\n"
        "assert 'scipy.special' not in sys.modules\n"
    )
    src = Path(jamsense.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "grid_awgn.csv", "grid_rayleigh.csv"
    ]


class TestMain:
    def test_run_exit_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"seed": 2, "horizon": 20, "replications": 1})
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "jdr_final_mean" in out

    def test_out_of_memory_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        # Stands in for the logs of a 10**11-step run failing to allocate,
        # whose real outcome depends on the host's overcommit setting.
        import jamsense.cli as cli

        def out_of_memory(config, workers=1):
            raise MemoryError()

        monkeypatch.setattr(cli, "run_batch", out_of_memory)
        out_dir = tmp_path / "out"
        argv = ["run", "--horizon", "100000000000", "--replications", "1",
                "--out", str(out_dir)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: out of memory")
        for value in ("horizon=100000000000", "n_wn=10", "n_fb=10"):
            assert value in captured.err
        assert not list(out_dir.glob("*"))

    @pytest.mark.parametrize(
        "command", [["run", "--horizon", "5", "--replications", "1"], ["export-grid"]]
    )
    def test_full_disk_is_one_error_line_and_no_outputs(
        self, tmp_path, capsys, monkeypatch, command
    ):
        # The Rayleigh table's write fails after the AWGN table is written.
        write = ProbabilityGrid.to_csv

        def disk_full(grid, path):
            if Path(path).name != "grid_rayleigh.csv":
                return write(grid, path)
            Path(path).write_text("m,0")
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))

        monkeypatch.setattr(ProbabilityGrid, "to_csv", disk_full)
        out_dir = tmp_path / "out"
        assert main(command + ["--out", str(out_dir)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: ")
        assert os.strerror(errno.ENOSPC) in captured.err
        assert not list(out_dir.glob("*"))

    def test_config_error_exit_two_and_no_outputs(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"seed": 1, "epsilon_n": 7})
        out_dir = tmp_path / "out"
        code = main(["run", "--config", str(cfg), "--out", str(out_dir)])
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "data, flags, field",
        [
            ({"qlearning": {"epsilon": "x"}}, [], "qlearning.epsilon"),
            ({"jammer_bounds": ["a", "b"]}, [], "jammer_bounds[0]"),
            ({}, ["--epsilon-n", "7"], "epsilon_n"),
            ({}, ["--epsilon-n", "nan"], "epsilon_n"),
            ({}, ["--replications", "0"], "replications"),
            ({}, ["--n-fb", "40000"], "n_fb"),
            (None, ["--preset", "tsr-local", "--horizon", "0"], "horizon"),
            ({"detection": {"threshold": 1e6}}, [], "detection.threshold"),
            ({"fading": "rayleigh", "grid_snr_max_db": 120.0}, [], "grid_snr_max_db"),
            # The axis rounds to 162 steps of 0.6 dB: its last point is 97.2 dB,
            # past the AWGN range that 96.9 dB is still inside.
            (
                {"grid_snr_max_db": 96.9, "grid_snr_step_db": 0.6,
                 "replications": 1, "horizon": 2},
                [],
                "grid_snr_max_db",
            ),
            (
                {"fading": "rayleigh", "grid_snr_max_db": 96.9,
                 "grid_snr_step_db": 0.6, "replications": 1, "horizon": 2},
                [],
                "grid_snr_max_db",
            ),
            ({}, ["--workers", "0"], "--workers"),
            ({}, ["--workers", "-4"], "--workers"),
            (config_directory, [], "config.json"),
            (config_not_utf8, [], "config.json"),
            (config_deeply_nested, [], "config.json"),
            (config_huge_integer, [], "config.json"),
            # Seeds are 64-bit: -1 and 2**64 - 1 would otherwise run alike.
            ({}, ["--seed", "-1"], "seed"),
            ({}, ["--seed", str(2**64)], "seed"),
            ({"seed": -1}, [], "seed"),
            ({"seed": 2**64}, [], "seed"),
        ],
    )
    def test_invalid_input_exit_two_names_field(
        self, tmp_path, capsys, data, flags, field
    ):
        argv = ["run", "--out", str(tmp_path / "out"), *flags]
        if callable(data):
            argv += ["--config", str(data(tmp_path))]
        elif data is not None:
            argv += ["--config", str(write_config(tmp_path, data))]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert field in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "export-grid"])
    @pytest.mark.parametrize("below_file", [False, True])
    def test_bad_out_exit_two_before_any_run(
        self, tmp_path, capsys, monkeypatch, command, below_file
    ):
        # --out is an existing file, or a path below one.
        import jamsense.cli as cli

        batches = []
        monkeypatch.setattr(cli, "run_batch", lambda *a, **k: batches.append(a))
        blocker = tmp_path / "blocker"
        blocker.write_text("keep me\n")
        out = blocker / "sub" if below_file else blocker
        argv = [command, "--out", str(out)]
        if command == "run":
            argv += ["--preset", "tsr-local", "--replications", "1", "--horizon", "3"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "--out" in err
        assert blocker.read_text() == "keep me\n"
        assert sorted(tmp_path.iterdir()) == [blocker]
        assert batches == []

    def test_config_validated_once_per_curve(self, tmp_path, monkeypatch):
        calls = []
        validate = SimConfig.validate

        def counted(config):
            calls.append(config)
            validate(config)

        monkeypatch.setattr(SimConfig, "validate", counted)
        argv = ["run", "--preset", "tsr-super", "--replications", "3",
                "--horizon", "5", "--trace", "--out", str(tmp_path / "out")]
        assert main(argv) == 0
        assert len(calls) == len(_POLICY_CURVES) == 3

    def test_flag_overrides(self, tmp_path):
        cfg = write_config(tmp_path, {"seed": 2, "horizon": 20, "replications": 1})
        out_dir = tmp_path / "out"
        code = main([
            "run", "--config", str(cfg), "--out", str(out_dir),
            "--policy", "uniform", "--fading", "rayleigh",
            "--super-decision", "off", "--n-fb", "12", "--seed", "77",
        ])
        assert code == 0
        echo = json.loads((out_dir / "config_echo.json").read_text())
        assert echo["policy"] == "uniform"
        assert echo["fading"] == "rayleigh"
        assert echo["use_super_decision"] is False
        assert echo["n_fb"] == 12
        assert echo["seed"] == 77

    def test_preset_writes_one_metrics_file_per_curve(self, tmp_path):
        out_dir = tmp_path / "out"
        code = main([
            "run", "--preset", "jdr-awgn", "--out", str(out_dir),
            "--horizon", "15", "--replications", "1",
        ])
        assert code == 0
        names = {p.name for p in out_dir.glob("metrics_*.csv")}
        assert names == {
            "metrics_pseudo_random.csv",
            "metrics_uniform.csv",
            "metrics_qlearning.csv",
        }

    def test_presets_listing(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        for name in PRESETS:
            assert name in out

    def test_export_grid_command(self, tmp_path):
        assert main(["export-grid", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "grid_awgn.csv").exists()

    def test_export_grid_undefined_table_exit_two(self, tmp_path, capsys):
        # An AWGN config may carry a threshold where the Rayleigh table is NaN.
        cfg = write_config(tmp_path, {"detection": {"threshold": 1e6}})
        out_dir = tmp_path / "out"
        assert main(["export-grid", "--config", str(cfg), "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "detection.threshold" in err
        assert not out_dir.exists()


def test_preset_definitions_consistent():
    assert set(PRESETS) == {
        "jdr-awgn", "jdr-rayleigh", "jdr-awgn-20ch", "tsr-local", "tsr-super"
    }
    labels = [label for label, _ in _POLICY_CURVES]
    assert len(labels) == len(set(labels))
    for preset in PRESETS.values():
        for label, deltas in _POLICY_CURVES:
            merged = dict(preset.base)
            merged.update(deltas)
            config = config_from_dict(merged, where=f"preset {preset.name}")
            config.validate()
    assert PRESETS["jdr-awgn-20ch"].base["n_fb"] == 20
    assert PRESETS["tsr-local"].base["use_super_decision"] is False
    assert PRESETS["tsr-super"].base["use_super_decision"] is True
