"""Spans around the public functions of qrandlab's layers, installed from outside.

``Tracer.install`` replaces every public function of the layer modules
with a wrapper, wherever a qrandlab module holds it (including names
bound by ``from ... import`` and module-level dispatch tables), and
wraps the public methods and constructors of the classes those modules
define.  ``uninstall`` puts every original back.  Spans are kept in
flat arrays and only written out by ``save``.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from array import array

import numpy as np

LAYERS = (
    "rng", "qcore", "tomography", "extraction", "primitives",
    "constructions", "oracles", "experiments", "cli",
)

# Span names the benchmark reports under a shorter or merged name.
ALIASES = {
    "rng.SeededRng.bits": "rng.bits",
    "rng.SeededRng.uniform": "rng.draw",
    "rng.SeededRng.bit": "rng.draw",
    "rng.SeededRng.integers": "rng.draw",
    "rng.SeededRng.standard_normal": "rng.draw",
    "rng.SeededRng.multinomial": "rng.draw",
    "qcore.StateVector.fidelity": "qcore.fidelity",
    "oracles.OracleWorld.o_value": "oracles.o_value",
    "primitives.vote_non_bot": "primitives.vote",
}

# Span flag for calls whose outcome a ratio needs: 1 counts, 0 does not.
OUTCOMES = {
    "extraction.good_set_member": bool,
    "oracles.bot_oracle_eval": lambda value: value.is_bot,
    "constructions.con1_qsamp": lambda key: not key.is_bot,
}


def _public_callables(module):
    """(qualified name, owner, attribute, original) for every wrapped member."""
    layer = module.__name__.rsplit(".", 1)[1]
    for attr, value in vars(module).items():
        if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
            continue
        if isinstance(value, types.FunctionType):
            yield f"{layer}.{attr}", module, attr, value
        elif isinstance(value, type) and not issubclass(value, BaseException):
            for member, raw in vars(value).items():
                if member.startswith("_") and member != "__init__":
                    continue
                if isinstance(raw, (types.FunctionType, classmethod, staticmethod)):
                    # a constructor span is named after its class
                    name = f"{layer}.{attr}" if member == "__init__" else f"{layer}.{attr}.{member}"
                    yield name, value, member, raw


def _set(owner, attr, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.requests = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.flags = array("b")
        self.current = -1
        self.request = -1
        self._patches: list[tuple[object, str, object, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str):
        name_id = self._name_id(ALIASES.get(name, name))
        outcome = OUTCOMES.get(name)
        tracer, clock = self, time.perf_counter_ns
        name_ids, parents, requests = self.name_ids, self.parents, self.requests
        starts, ends, flags = self.starts, self.ends, self.flags

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer.current
            index = len(name_ids)
            name_ids.append(name_id)
            parents.append(parent)
            requests.append(tracer.request)
            ends.append(0)
            flags.append(-1)
            tracer.current = index
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                tracer.current = parent
            if outcome is not None:
                flags[index] = 1 if outcome(result) else 0
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function and method of the layer modules."""
        if not self._patches:
            self._patches = self._plan()
        for owner, attr, _, replacement in self._patches:
            _set(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            _set(owner, attr, original)

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every place to patch."""
        patches = []
        wrapped = {}  # id(original function) -> wrapper
        for layer in LAYERS:
            module = sys.modules[f"qrandlab.{layer}"]
            for name, owner, attr, raw in _public_callables(module):
                if isinstance(owner, type):
                    kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
                    wrapper = self._wrap(raw.__func__ if kind else raw, name)
                    patches.append((owner, attr, raw, kind(wrapper) if kind else wrapper))
                else:
                    wrapped[id(raw)] = self._wrap(raw, name)
        # Rebind the functions wherever any qrandlab module holds them.
        for modname, module in list(sys.modules.items()):
            if modname != "qrandlab" and not modname.startswith("qrandlab."):
                continue
            for attr, value in vars(module).items():
                if id(value) in wrapped:
                    patches.append((module, attr, value, wrapped[id(value)]))
                elif type(value) is dict:
                    for key, item in value.items():
                        if id(item) in wrapped:
                            patches.append((value, key, item, wrapped[id(item)]))
        return patches

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.array(self.name_ids, dtype=np.int32),
            "parent": np.array(self.parents, dtype=np.int32),
            "request": np.array(self.requests, dtype=np.int32),
            "start_ns": np.array(self.starts, dtype=np.int64),
            "end_ns": np.array(self.ends, dtype=np.int64),
            "flag": np.array(self.flags, dtype=np.int8),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def layer_summary(tracer: Tracer) -> dict:
    """Calls and self seconds per span name, the ratios, and self seconds per module.

    Self time is a span's duration minus the durations of its direct
    children; spans nest strictly because calls do.
    """
    spans = tracer.arrays()
    names, name_id, parent = tracer.names, spans["name_id"], spans["parent"]
    dur = (spans["end_ns"] - spans["start_ns"]) / 1e9
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - child_time
    calls = np.bincount(name_id, minlength=len(names))
    self_s = np.bincount(name_id, weights=self_time, minlength=len(names))
    per_name = {n: (int(calls[i]), float(self_s[i])) for i, n in enumerate(names)}

    def ids(*wanted):
        return [names.index(n) for n in wanted if n in names]

    def flagged(name):
        sel = np.isin(name_id, ids(name))
        return int(sel.sum()), int((spans["flag"][sel] == 1).sum())

    def parent_is(child_names, parent_names):
        sel = np.isin(name_id, ids(*child_names)) & has_parent
        return np.isin(name_id[parent[sel]], ids(*parent_names)), parent[sel]

    ratios = {}
    calls_gs, true_gs = flagged("extraction.good_set_member")
    ratios["extraction.good_set_member.true_ratio"] = true_gs / calls_gs if calls_gs else 0.0
    calls_bot, bots = flagged("oracles.bot_oracle_eval")
    ratios["oracles.bot_oracle_eval.abort_ratio"] = bots / calls_bot if calls_bot else 0.0
    _, accepted = flagged("constructions.con1_qsamp")
    under_qsamp, _ = parent_is(["rng.bits"], ["constructions.con1_qsamp"])
    drawn = int(under_qsamp.sum())
    ratios["constructions.con1_qsamp.accept_ratio"] = accepted / drawn if drawn else 0.0
    o_calls = per_name.get("oracles.o_value", (0, 0.0))[0]
    under_o, hashing_parents = parent_is(["rng.derive_int", "rng.derive_bits"], ["oracles.o_value"])
    hashed = len(np.unique(hashing_parents[under_o]))
    ratios["oracles.o_value.hit_ratio"] = (o_calls - hashed) / o_calls if o_calls else 0.0

    modules = {layer: 0.0 for layer in LAYERS}
    for n, (_, s) in per_name.items():
        modules[n.split(".", 1)[0]] += s
    return {"per_name": per_name, "ratios": ratios, "module_self_s": modules}
