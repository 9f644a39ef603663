"""Per-layer tracing of jamsense from outside the package.

Every layer is one module of `jamsense`.  `Tracer.install()` replaces each
traced function with a wrapper under every name that binds it in a
`jamsense` module, so calls are caught where they are looked up: for
example `jamsense.engine.fuse_observations` as well as
`jamsense.fusion.fuse_observations`, and `jamsense.engine.step_chain`, the
engine's alias of `jamsense.jammers.step`.  `jamsense.rng.substream` is replaced
by a function that returns a counting proxy around the real generator, so
every draw call is a span of its substream's purpose tag.  `uninstall()`
puts the original objects back.

Spans live in memory as parallel arrays (name id, parent index, start,
end) and are written out by `write_spans` once the traced work is done.
Self time is computed while spans close: a span's duration minus the
durations of the spans opened directly inside it.  Wrapper overhead lands
in the enclosing span's self time; `trace.overhead_frac` reports its size.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

# (module, attribute, span name).  The span name is the layer, then the
# function; several functions may share one span name.
TRACED_FUNCTIONS: Tuple[Tuple[str, str, str], ...] = (
    ("engine", "run", "engine.run"),
    ("engine", "run_batch", "engine.run_batch"),
    ("engine", "detection_counts", "engine.metrics"),
    ("engine", "transmission_counts", "engine.metrics"),
    ("engine", "jdr_curve", "engine.metrics"),
    ("engine", "tsr_curve", "engine.metrics"),
    ("fusion", "fuse_observations", "fusion.fuse_observations"),
    ("fusion", "fuse_decisions", "fusion.fuse_decisions"),
    ("fusion", "candidate_channels", "fusion.candidate_channels"),
    ("policies", "choose_action_pseudo_random", "policies.pseudo_random"),
    ("policies", "choose_action_uniform", "policies.uniform"),
    ("policies", "choose_action_qlearning", "policies.qlearning"),
    ("policies", "update_q", "policies.update_q"),
    ("jammers", "step", "jammers.step"),
    ("jammers", "init_chains", "jammers.init_chains"),
    ("network", "build_neighbor_graph", "network.build_neighbor_graph"),
    ("network", "snr_at_node", "network.snr_at_node"),
    ("sensing", "build_awgn_grid", "sensing.build_grid"),
    ("sensing", "build_rayleigh_grid", "sensing.build_grid"),
    ("cli", "run_experiment", "cli.run_experiment"),
    ("cli", "config_from_dict", "cli.config_from_dict"),
    ("cli", "export_grid", "cli.export_grid"),
)

# Methods patched on their class rather than in module namespaces.
TRACED_METHODS: Tuple[Tuple[str, str, str, str], ...] = (
    ("sensing", "ProbabilityGrid", "lookup", "sensing.ProbabilityGrid.lookup"),
)

MODULES = ("rng", "jammers", "network", "sensing", "fusion", "policies", "engine", "cli")

# rng purpose tag -> span name of the draws made on that substream.
RNG_TAGS = {2: "rng.jammer", 3: "rng.sensing", 4: "rng.policy", 5: "rng.transmit"}
SUBSTREAM_SPAN = "rng.substream"
NONEMPTY_SPAN = "fusion.candidate_channels"

# Every span name the tracer can report, in report order.
SPAN_NAMES: Tuple[str, ...] = tuple(
    dict.fromkeys(
        [name for _, _, name in TRACED_FUNCTIONS]
        + [name for *_, name in TRACED_METHODS]
        + list(RNG_TAGS.values())
        + [SUBSTREAM_SPAN]
    )
)


class Tracer:
    """Collects spans for one stretch of traced work."""

    def __init__(self) -> None:
        self.names: List[str] = list(SPAN_NAMES)
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name_id = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.nonempty = 0
        # Open spans: [span index, time spent in its direct children].
        self._stack: List[list] = []
        self._patched: List[Tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def _wrap(self, fn: Callable, name: str,
              on_result: Optional[Callable] = None) -> Callable:
        nid = self._ids[name]
        stack = self._stack
        name_ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        calls, self_s = self.calls, self.self_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            ends.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                ends[idx] = t1
                stack.pop()
                dur = t1 - t0
                calls[nid] += 1
                self_s[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _count_nonempty(self, result) -> None:
        if result:
            self.nonempty += 1

    # -- patching ---------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Patch every name, aliases included, that binds a traced function."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(f"jamsense.{m}") for m in MODULES]
        namespaces = modules + [importlib.import_module("jamsense")]
        for mod_name, attr, name in TRACED_FUNCTIONS:
            original = getattr(importlib.import_module(f"jamsense.{mod_name}"), attr)
            hook = self._count_nonempty if name == NONEMPTY_SPAN else None
            wrapped = self._wrap(original, name, hook)
            for module in namespaces:
                for alias, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, alias, wrapped)
        for mod_name, cls_name, attr, name in TRACED_METHODS:
            cls = getattr(importlib.import_module(f"jamsense.{mod_name}"), cls_name)
            self._set(cls, attr, self._wrap(getattr(cls, attr), name))

        rngmod = modules[MODULES.index("rng")]
        make_stream = self._wrap(rngmod.substream, SUBSTREAM_SPAN)

        def substream(seed, *path):
            gen = make_stream(seed, *path)
            name = RNG_TAGS.get(path[0]) if path else None
            return gen if name is None else _CountingGenerator(gen, name, self)

        self._set(rngmod, "substream", substream)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ----------------------------------------------------------

    def counts(self) -> Dict[str, float]:
        """Deterministic per-layer counts: `<span>.calls`, RNG `.draws`."""
        out: Dict[str, float] = {}
        for nid, name in enumerate(self.names):
            key = "draws" if name in RNG_TAGS.values() else "calls"
            out[f"{name}.{key}"] = self.calls[nid]
        cand = self.calls[self._ids[NONEMPTY_SPAN]]
        out[f"{NONEMPTY_SPAN}.nonempty_ratio"] = self.nonempty / cand if cand else 0.0
        return out

    def self_times(self) -> Dict[str, float]:
        return {f"{name}.self_s": self.self_s[nid] for nid, name in enumerate(self.names)}

    def write_spans(self, path: Path) -> None:
        """Write every span to an .npz file.

        Arrays: `names` (span names), and per span `name_id` (index into
        `names`), `parent` (index of the enclosing span, -1 at top level),
        `start_s` and `end_s` (perf_counter seconds).
        """
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start_s=np.frombuffer(self.start, dtype=np.float64),
            end_s=np.frombuffer(self.end, dtype=np.float64),
        )


class _CountingGenerator:
    """Generator proxy whose draw calls are spans of the substream's tag."""

    def __init__(self, gen, name: str, tracer: Tracer) -> None:
        self._gen = gen
        self.random = tracer._wrap(gen.random, name)
        self.integers = tracer._wrap(gen.integers, name)

    def __getattr__(self, attr):
        return getattr(self._gen, attr)
