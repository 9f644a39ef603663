"""CLI tests: strict config parsing, artifact emission, reproducibility."""

import copy
import csv
import dataclasses
import errno
import hashlib
import json
import math
import os
import subprocess
import sys
import typing
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
from jamsense.network import Placement
from jamsense.policies import PolicyKind, QParams
from jamsense.schema import _hints
from jamsense.sensing import DetectionParams, FadingKind, FalseAlarmTable, ProbabilityGrid

# Pinned after validating grid entries against the quadrature oracle
# (see test_sensing); guards the CSV export byte layout as well.
GRID_AWGN_SHA256 = "a45f625f135dd258b60ca9377f9d1b00898fc0eb675845c0089ac89e9fd8906b"
GRID_RAYLEIGH_SHA256 = "f04bca690aa5127743091e90176638cbaec0606f39060910addde81083d843bb"


def grid_csv_values(path):
    """The probability entries of an exported grid CSV, as floats."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return [float(v) for row in rows[1:] for v in row[1:]]


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

    @pytest.mark.parametrize(
        "data, field",
        [
            ({"qlearning": 3}, "config.json.qlearning"),
            ({"detection": 3}, "config.json.detection"),
            (
                {"n_wn": 2, "placement": {"nodes": [[0.1, 0], [0, 0]]}},
                "config.json.placement.nodes[1]: sits on the jammer site",
            ),
            ({"qlearning": {"epsilon": 1.5}}, "config.json.qlearning"),
        ],
    )
    def test_malformed_value_names_field(self, tmp_path, data, field):
        """A refusal read from a file names the file as its root."""
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


def _replaced(obj, path, value):
    """`obj` with the leaf at the echo `path` set to `value`, rebuilt through
    the Python constructors of every part on the way down."""
    if not path:
        return value
    key, rest = path[0], path[1:]
    if dataclasses.is_dataclass(obj):
        return dataclasses.replace(obj, **{key: _replaced(getattr(obj, key), rest, value)})
    if isinstance(obj, tuple):
        return obj[:key] + (_replaced(obj[key], rest, value),) + obj[key + 1 :]
    return {**obj, int(key): _replaced(obj[int(key)], rest, value)}


def _wrong_values(leaf, path):
    """(value, whether JSON refuses it too) for each wrong kind of `leaf`."""
    if type(leaf) is float:
        return [(math.nan, True), (math.inf, True), (-math.inf, True),
                ("1", True), (None, True)]
    if type(leaf) is int:
        return [(1.5, True), (True, True), ("1", True), (None, True)]
    if type(leaf) is bool:
        return [(1, True), ("false", True)]
    if type(leaf) is str:  # an enum: JSON's own form is the bare value
        return [(leaf, False), (leaf.upper(), True), (3, True)]
    # A pair: JSON's own form is a list, which reads back as a tuple.
    return [(leaf, False)]


def _dotted(path):
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)[1:]


def _leaf(path):
    leaf = _DEFAULT_ECHO
    for key in path:
        leaf = leaf[key]
    return leaf


# Every leaf of the default echo; a part, or the node list, is walked through its leaves.
_LEAVES = [
    path for path in _key_paths(_DEFAULT_ECHO)
    if not isinstance(_leaf(path), dict)
    and not (isinstance(_leaf(path), list) and isinstance(_leaf(path)[0], list))
]


@pytest.mark.parametrize("path", _LEAVES, ids=_dotted)
def test_every_leaf_refuses_a_wrong_kind_at_both_doors(path):
    """Each leaf of the default echo, given a value of the wrong kind, is
    refused by config_from_dict naming its path and by the Python
    constructors naming its path relative to the part that raises it."""
    base = SimConfig(placement=SimConfig().resolved_placement())
    # The innermost part starts at the last field name: nodes[0][0], awgn.1.
    start = max(i for i, k in enumerate(path) if isinstance(k, str) and not k.isdigit())
    checked = 0
    for value, json_refuses in _wrong_values(_leaf(path), path):
        if json_refuses:
            data = copy.deepcopy(_DEFAULT_ECHO)
            parent = data
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = value
            with pytest.raises(ConfigError) as exc:
                config_from_dict(data)
            assert str(exc.value).startswith(f"config.{_dotted(path)}:"), path
        with pytest.raises(ConfigError) as exc:
            SimConfig(**{path[0]: _replaced(getattr(base, path[0]), path[1:], value)})
        assert str(exc.value).startswith(f"{_dotted(path[start:])}:"), (path, value)
        checked += 1
    assert checked
    assert sum(len(_wrong_values(_leaf(p), p)) for p in _LEAVES) > 100


def _declared(path):
    """The declared type of the config leaf at the echo `path`."""
    tp = SimConfig
    for key in path:
        if typing.get_origin(tp) is typing.Union:  # Optional[Placement]
            tp = typing.get_args(tp)[0]
        if dataclasses.is_dataclass(tp):
            tp = _hints(tp)[key]
        else:  # an entry of a table or of a tuple
            tp = typing.get_args(tp)[1 if typing.get_origin(tp) is dict else 0]
    return tp


def _past_and_on(kind, bounds):
    """(values refused, values accepted) at the ends of `bounds`: a value
    just past each end and an open end itself, then a closed end."""
    refused, accepted = [], []
    for end, is_open, outward in (
        (bounds.lo, bounds.open_lo, -1), (bounds.hi, bounds.open_hi, 1)
    ):
        if end is not None:
            past = end + outward if kind is int else math.nextafter(end, outward * math.inf)
            refused.append(kind(past))
            (refused if is_open else accepted).append(kind(end))
    return refused, accepted


def test_every_ranged_leaf_refuses_past_its_bounds_at_both_doors():
    """Each leaf declared with a Range refuses a value just past each end, and
    an open end itself, at config_from_dict naming its path and at the Python
    constructors naming its field; a value on a closed end is accepted."""
    placed = SimConfig(placement=SimConfig().resolved_placement())
    ranged, declared = [], {}
    for path in _key_paths(_DEFAULT_ECHO):
        tp = _declared(path)
        if typing.get_origin(tp) is not typing.Annotated:
            continue
        (kind, bounds), dotted = typing.get_args(tp), _dotted(path)
        ranged.append(dotted)
        field = [k for k in path if isinstance(k, str) and not k.isdigit()][-1]
        declared[field] = str(bounds)
        # An explicit placement holds 10 nodes, the default one follows n_wn.
        base = placed if path[0] == "placement" else SimConfig()
        data = config_to_dict(base)
        if base.placement is None:
            data["placement"] = None
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        refused, accepted = _past_and_on(kind, bounds)
        for value in refused:
            parent[path[-1]] = value
            with pytest.raises(ConfigError) as exc:
                config_from_dict(data)
            assert str(exc.value).startswith(f"config.{dotted}: expected "), dotted
            assert f" {bounds}, got " in str(exc.value)
            with pytest.raises(ConfigError, match="^" + field):
                _replaced(base, path, value)
        for value in accepted:
            parent[path[-1]] = value
            config = _replaced(base, path, value)
            assert config_from_dict(data) == config, dotted
            leaf = config_to_dict(config)
            for key in path:
                leaf = leaf[key]
            assert leaf == value, dotted
    assert len(ranged) == 24, ranged
    assert declared == {
        "n_wn": "in [1, 32767]", "n_fb": "in [1, 32767]", "horizon": "in [1, inf)",
        "epsilon_n": "in [0, 1]", "learning_rate": "in (0, 1]",
        "discount": "in [0, 1)", "epsilon": "in [0, 1]", "sigma2": "in (0, inf)",
        "noncentrality": "in (0, inf)", "threshold": "in [0, inf)",
        "n_samples": "in [4, inf)", "awgn": "in [0, 1]", "rayleigh": "in [0, 1]",
        "range_km": "in (0, inf)", "d0_km": "in (0, inf)",
        "seed": f"in [0, {2**64 - 1}]", "replications": "in [1, inf)",
        "grid_snr_step_db": "in (0, inf)", "grid_m_max": "in [1, inf)",
    }


# Each refusal beyond the wrong-kind and range walks, of a value's shape or of a
# rule: (JSON config, the path config_from_dict names, a Python build, the path
# it names relative to the part that raises it, the refusal's detail).  A JSON
# config of None marks an input JSON cannot express; a missing or unknown
# keyword is Python's own TypeError.
_RULE_REFUSALS = {
    "scalar for a part": ({"detection": 3}, "detection", lambda: SimConfig(detection=3),
                          "detection", "expected an object, got 3"),
    "scalar for a pair": ({"placement": {"nodes": [[0.3, 0.0]], "jammer": 0.5}},
                          "placement.jammer",
                          lambda: Placement(((0.3, 0.0),), jammer=0.5), "jammer",
                          "expected a list, got 0.5"),
    "one-entry pair": ({"n_wn": 2, "placement": {"nodes": [[0.1, 0], [0.2, 0]], "jammer": [0]}},
                       "placement.jammer",
                       lambda: Placement(((0.1, 0.0), (0.2, 0.0)), jammer=(0.0,)), "jammer",
                       "expected 2 entries"),
    "scalar for a node": ({"placement": {"nodes": [0.3, 0.0]}}, "placement.nodes[0]",
                          lambda: Placement((0.3, 0.0)), "nodes[0]",
                          "expected a list, got 0.3"),
    "list of node lists": (None, None, lambda: Placement([[0.3, 0.0]]), "nodes",
                           "expected ((0.3, 0.0),), got [[0.3, 0.0]]"),
    # Only canonical integer keys: "01", "1_0" and " 2" would alias "1", "10" and "2".
    **{
        f"false-alarm key {key!r}": (
            {"false_alarm": {"awgn": {"1": 0.1, key: 0.2}}}, "false_alarm.awgn",
            lambda key=key: FalseAlarmTable(awgn={1: 0.1, key: 0.2}), "awgn",
            f"key {key!r} is not an integer",
        )
        for key in ("one", "01", "1_0", " 2", "a")
    },
    "false-alarm key True": (None, None, lambda: FalseAlarmTable(awgn={True: 0.1}), "awgn",
                             "key 'True' is not an integer"),
    "unknown top-level key": ({"seed": 1, "sneaky": 2}, "", lambda: SimConfig(sneaky=2), None,
                              "unknown key 'sneaky'"),
    "odd n_samples": ({"detection": {"n_samples": 7}}, "detection.n_samples",
                      lambda: DetectionParams(n_samples=7), "n_samples", "must be even"),
    "empty false-alarm table": ({"false_alarm": {"awgn": {}}}, "false_alarm.awgn",
                                lambda: FalseAlarmTable(awgn={}), "awgn", "is empty"),
    "order 0": ({"false_alarm": {"awgn": {"0": 0.5}}}, "false_alarm.awgn.0",
                lambda: FalseAlarmTable(awgn={0: 0.5}), "awgn.0", "diversity order"),
    "empty node list": ({"placement": {"nodes": []}}, "placement.nodes",
                        lambda: Placement(()), "nodes", "at least one node"),
    "missing nodes": ({"placement": {"range_km": 0.4}}, "placement.nodes",
                      lambda: Placement(range_km=0.4), None, "is required"),
    "unknown key": ({"detection": {"x": 1}}, "detection",
                    lambda: DetectionParams(x=1), None, "unknown key 'x'"),
    "jammer_bounds order": ({"jammer_bounds": [0.9, 0.8]}, "jammer_bounds",
                            lambda: SimConfig(jammer_bounds=(0.9, 0.8)), "jammer_bounds",
                            "(0.9, 0.8)"),
    "empty grid range": ({"grid_snr_min_db": 5.0, "grid_snr_max_db": 4.0}, "grid_snr_max_db",
                         lambda: SimConfig(grid_snr_min_db=5.0, grid_snr_max_db=4.0),
                         "grid_snr_max_db", "range is empty"),
    "grid entry bound": ({"grid_snr_step_db": 1e-3}, "grid_m_max",
                         lambda: SimConfig(grid_snr_step_db=1e-3), "grid_m_max",
                         "detection grid of 15001 SNR points"),
    "placement size": ({"n_wn": 3, "placement": {"nodes": [[0.3, 0.0]]}}, "placement.nodes",
                       lambda: SimConfig(n_wn=3, placement=Placement(((0.3, 0.0),))),
                       "placement.nodes", "1 nodes but n_wn=3"),
    "node on the site": ({"n_wn": 1, "placement": {"nodes": [[0.0, 0.0]]}},
                         "placement.nodes[0]",
                         lambda: SimConfig(n_wn=1, placement=Placement(((0.0, 0.0),))),
                         "placement.nodes[0]", "sits on the jammer site (0.0, 0.0)"),
    "node 1 on the site": ({"n_wn": 2, "placement": {"nodes": [[0.1, 0.0], [0.0, 0.0]]}},
                           "placement.nodes[1]",
                           lambda: SimConfig(n_wn=2, placement=Placement(
                               ((0.1, 0.0), (0.0, 0.0)))),
                           "placement.nodes[1]", "sits on the jammer site (0.0, 0.0)"),
    "node SNR": ({"detection": {"sigma2": 5e-324}}, "placement.nodes[0]",
                 lambda: SimConfig(detection=DetectionParams(sigma2=5e-324)),
                 "placement.nodes[0]", "jammer SNR at inf dB is outside the range"),
    "node 1 SNR": ({"n_wn": 2, "placement": {"nodes": [[0.1, 0.0], [1e-300, 0.0]]}},
                   "placement.nodes[1]",
                   lambda: SimConfig(n_wn=2, placement=Placement(((0.1, 0.0), (1e-300, 0.0)))),
                   "placement.nodes[1]", "jammer SNR at inf dB is outside the range"),
    "Rayleigh threshold": ({"fading": "rayleigh", "detection": {"threshold": 1e5}},
                           "detection.threshold",
                           lambda: SimConfig(fading=FadingKind.RAYLEIGH,
                                             detection=DetectionParams(threshold=1e5)),
                           "detection.threshold", "threshold/sigma2 = 100000 exceeds"),
    # The axis rounds to 162 steps of 0.6 dB: its last point is 97.2 dB.
    "grid's last point": ({"grid_snr_max_db": 96.9, "grid_snr_step_db": 0.6},
                          "grid_snr_max_db",
                          lambda: SimConfig(grid_snr_max_db=96.9, grid_snr_step_db=0.6),
                          "grid_snr_max_db", "the grid's last point at 97.2 dB"),
    "grid end overflows": ({"grid_snr_min_db": 1e300, "grid_snr_max_db": 1e300},
                           "grid_snr_max_db",
                           lambda: SimConfig(grid_snr_min_db=1e300, grid_snr_max_db=1e300),
                           "grid_snr_max_db", "the grid's last point at inf dB"),
    "grid_m_max past the entry bound": ({"grid_m_max": 10**9}, "grid_m_max",
                                        lambda: SimConfig(grid_m_max=10**9), "grid_m_max",
                                        "grid_m_max=1000000000 exceeds 10000 entries"),
}


@pytest.mark.parametrize(
    "data, path, build, relative, detail", _RULE_REFUSALS.values(), ids=_RULE_REFUSALS
)
def test_every_rule_refusal_starts_with_its_leaf_path_at_both_doors(
    data, path, build, relative, detail
):
    if data is not None:
        with pytest.raises(ConfigError) as exc:
            config_from_dict(data)
        prefix = f"config.{path}" if path else "config"
        assert str(exc.value).startswith(f"{prefix}: "), str(exc.value)
        assert detail in str(exc.value)
    if relative is None:
        with pytest.raises(TypeError):
            build()
        return
    with pytest.raises(ConfigError) as exc:
        build()
    assert str(exc.value).startswith(f"{relative}: "), str(exc.value)
    assert detail in str(exc.value)


def test_field_reads_walk_only_what_changed(monkeypatch):
    """A part already built is not typed again: replacing one scalar of a
    config with 400 explicit nodes casts that config's own fields only, and
    the JSON door casts each leaf at most twice."""
    import jamsense.schema as schema

    config = SimConfig(n_wn=400, placement=SimConfig(n_wn=400).resolved_placement())
    calls = []

    def counted(tp, value, where):
        calls.append(where)
        return cast(tp, value, where)

    cast = schema._cast
    monkeypatch.setattr(schema, "_cast", counted)
    assert dataclasses.replace(config, horizon=1).horizon == 1
    assert len(calls) < 30
    calls.clear()
    assert config_from_dict(config_to_dict(config)) == config
    assert len(calls) <= 2496


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

        def interrupted(path, record):
            Path(path).write_text("t,node,action\n0,0,")
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_write_trace_csv", interrupted)
        config = SimConfig(seed=5, horizon=10, replications=1)
        with pytest.raises(KeyboardInterrupt):
            run_experiment([("pseudo_random", config)], tmp_path / "out", trace=True)
        assert not list((tmp_path / "out").glob("*"))


@pytest.mark.parametrize(
    "seed, replications, jdr_defined, tsr_defined",
    [(47, 2, True, False), (47, 3, False, False), (40, 2, False, True)],
)
def test_degenerate_denominator_flags(
    tmp_path, seed, replications, jdr_defined, tsr_defined
):
    # One node on one channel whose jammer never changes state and is always
    # detected: a replication whose jammer starts active has no transmission,
    # and one that starts idle has no jamming.  A flag holds only if it holds
    # in every replication.
    config = SimConfig(
        n_wn=1, n_fb=1, horizon=30, seed=seed, replications=replications,
        jammer_bounds=(1.0, 1.0), detection=DetectionParams(threshold=0.0),
    )
    batch = run_batch(config)
    assert (batch.jamming_occurred, batch.transmissions_attempted) == (
        jdr_defined, tsr_defined
    )
    records = [run(config, r) for r in range(replications)]
    assert batch.jamming_occurred == all(rec.truth.any() for rec in records)
    assert batch.transmissions_attempted == all(
        (rec.outcomes != SKIPPED).any() for rec in records
    )
    run_experiment([("", config)], tmp_path)
    lines = (tmp_path / "summary.txt").read_text().splitlines()
    assert f"jdr_defined={jdr_defined}" in lines
    assert f"tsr_defined={tsr_defined}" in lines


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
        config = SimConfig(detection=DetectionParams(threshold=0.0))
        export_grid(config, tmp_path)
        values = grid_csv_values(tmp_path / "grid_awgn.csv")
        assert set(values) == {1.0}

    def test_huge_sample_count_exports(self, tmp_path):
        # The Rayleigh closed form sums N/2 - 1 terms per SNR point; all but a
        # few hundred underflow to 0.0 and are not visited.  So much noise
        # energy lies far above the threshold, and every entry of both tables
        # is 1.
        from jamsense.sensing import DetectionParams

        config = SimConfig(detection=DetectionParams(n_samples=10**12))
        export_grid(config, tmp_path)
        for kind in FadingKind:
            values = grid_csv_values(tmp_path / f"grid_{kind.value}.csv")
            assert set(values) == {1.0}


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
    @pytest.mark.parametrize("data", [
        {"seed": 2, "replications": 1},
        # A node whose jammer SNR underflows to 0; nodes whose coordinate difference overflows.
        {"n_wn": 2, "placement": {"nodes": [[1, 0], [1.1, 0]], "path_loss_exponent": -1000.0}},
        {"n_wn": 2, "placement": {"nodes": [[1e308, 0.0], [-1e308, 0.0]]}},
    ], ids=["seed-2", "zero-snr", "far-nodes"])
    def test_run_exit_zero(self, tmp_path, capsys, data):
        cfg = write_config(tmp_path, {"horizon": 20, "replications": 2, **data})
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
            ({"detection": {"threshold": 1e6}}, [], "config.json.detection.threshold:"),
            (
                {"fading": "rayleigh", "grid_snr_max_db": 120.0},
                [],
                "config.json.grid_snr_max_db:",
            ),
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
                "config.json.grid_snr_max_db:",
            ),
            # A preset runs one curve per policy, so --policy would mislabel them.
            (None, ["--preset", "jdr-awgn", "--policy", "uniform"], "--policy"),
            ({}, ["--workers", "0"], "--workers"),
            ({}, ["--workers", "-4"], "--workers"),
            (config_directory, [], "config.json"),
            (config_not_utf8, [], "config.json"),
            (config_deeply_nested, [], "config.json"),
            (config_huge_integer, [], "config.json"),
            # Integers too large for a float in real-valued fields.
            ({"epsilon_n": 10**400}, [], "epsilon_n"),
            ({"false_alarm": {"awgn": {"1": -(10**400)}}}, [], "false_alarm.awgn.1"),
            ({"placement": {"nodes": [[10**400, 0.0]]}}, [], "placement.nodes[0][0]"),
            # Seeds are 64-bit: -1 and 2**64 - 1 would otherwise run alike.
            ({}, ["--seed", "-1"], "seed"),
            ({}, ["--seed", str(2**64)], "seed"),
            ({"seed": -1}, [], "seed"),
            ({"seed": 2**64}, [], "seed"),
            # The echoed value is cut short, so the line stays short.
            ({"epsilon_n": 10**4000}, [], "epsilon_n"),
            ({"x" * 4000: 1}, [], "unknown key 'xxx"),
            ({"qlearning": {"epsilon": 1.5}}, [], "qlearning.epsilon"),
            ({"detection": {"n_samples": 7}}, [], "detection.n_samples"),
            ({"n_wn": 1, "placement": {"nodes": [[0.0, 0.0]]}}, [], "placement.nodes[0]"),
            ({"detection": 3}, [], "config.json.detection:"),
            ({"false_alarm": {"awgn": {"01": 0.2}}}, [], "false_alarm.awgn"),
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
        # One line, short apart from the config file's directory.
        assert err.count("\n") == 1
        assert len(err.replace(str(tmp_path), "").encode()) < 200
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
        # A table the detection model cannot evaluate stops the call as early.
        config = write_config(tmp_path, {"detection": {"threshold": 1e6}})
        out = tmp_path / "out"
        assert main([command, "--out", str(out), "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "config.json.detection.threshold:" in err
        assert not out.exists()
        assert batches == []

    def test_config_validated_once_per_curve(self, tmp_path, monkeypatch):
        calls = []
        post_init = SimConfig.__post_init__

        def counted(config):
            calls.append(config)
            post_init(config)

        monkeypatch.setattr(SimConfig, "__post_init__", counted)
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
        assert "config.json.detection.threshold:" in err
        assert not out_dir.exists()


def test_preset_definitions_consistent():
    assert set(PRESETS) == {
        "jdr-awgn", "jdr-rayleigh", "jdr-awgn-20ch", "tsr-local", "tsr-super"
    }
    labels = [label for label, _ in _POLICY_CURVES]
    assert len(labels) == len(set(labels))
    for name, (_, base) in PRESETS.items():
        for label, deltas in _POLICY_CURVES:
            merged = dict(base)
            merged.update(deltas)
            config_from_dict(merged, where=f"preset {name}")
    assert PRESETS["jdr-awgn-20ch"][1]["n_fb"] == 20
    assert PRESETS["tsr-local"][1]["use_super_decision"] is False
    assert PRESETS["tsr-super"][1]["use_super_decision"] is True


# Traced runs: two presets, a Rayleigh config whose detection tables are both
# computed, and a q-learning config whose row max falls on most updates.
_RESCAN = {"policy": "qlearning", "n_wn": 40, "global_cohort": True,
           "qlearning": {"learning_rate": 1.0, "discount": 0.0}}
_SOURCES = {
    "tsr-super": ["--preset", "tsr-super"],
    "tsr-local-rayleigh": ["--preset", "tsr-local", "--fading", "rayleigh"],
    "computed-tables": {"fading": "rayleigh", "detection": {"threshold": 9.0}},
    "rescan": _RESCAN,
}


def _run_main(tmp_path, source, out, *flags):
    """main's outputs for a preset's flags or a config dict, by file name."""
    if isinstance(source, dict):
        source = ["--config", str(write_config(tmp_path, source))]
    assert main(["run", *source, *flags, "--out", str(tmp_path / out)]) == 0
    return {p.name: p.read_bytes() for p in (tmp_path / out).iterdir()}


@pytest.mark.parametrize("source", _SOURCES.values(), ids=_SOURCES)
def test_output_bytes_do_not_depend_on_workers(tmp_path, source):
    flags = ["--replications", "2", "--horizon", "50", "--trace", "--workers"]
    assert _run_main(tmp_path, source, "w1", *flags, "1") == _run_main(
        tmp_path, source, "w2", *flags, "2")


_ECHO_SOURCES = {**{name: ["--preset", name] for name in PRESETS},
                 "tsr-local-rayleigh": _SOURCES["tsr-local-rayleigh"], "rescan": _RESCAN}


@pytest.mark.parametrize("source", _ECHO_SOURCES.values(), ids=_ECHO_SOURCES)
def test_each_curve_echo_reproduces_its_metrics_and_echo(tmp_path, source):
    first = _run_main(tmp_path, source, "first", "--replications", "2", "--horizon", "20")
    echoes = [name for name in first if name.startswith("config_echo")]
    assert len(echoes) == (len(_POLICY_CURVES) if "--preset" in source else 1)
    for name in echoes:
        suffix = name[len("config_echo"):-len(".json")]
        again = _run_main(tmp_path, ["--config", str(tmp_path / "first" / name)], name)
        assert again["metrics.csv"] == first[f"metrics{suffix}.csv"]
        assert again["config_echo.json"] == first[name]


def test_real_process_exits_through_sys_exit(tmp_path):
    """`python -W error -m jamsense.cli`: 0 for a traced run, 2 and one
    `config error:` line, not a traceback, for a bad config."""
    env = dict(os.environ, PYTHONPATH=str(Path(jamsense.__file__).resolve().parents[1]))
    good = ["--preset", "tsr-super", "--trace", "--replications", "1", "--horizon", "5"]
    bad = ["--config", str(write_config(tmp_path, {"detection": 3}))]
    for args, status in ((good, 0), (bad, 2)):
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "jamsense.cli", "run", *args,
             "--out", str(tmp_path / str(status))],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == status, done.stderr
    assert done.stderr.startswith("config error:") and done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr
