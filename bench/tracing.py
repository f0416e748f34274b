"""Spans around calls into the package's modules, for the traced run.

The benchmark wraps public names at the place where callers look them up
(a module global or a class attribute) and restores them afterwards; the
package itself is not changed.  Each span records its name, start, end,
parent span and op id, in CPU seconds; spans stay in memory and are written out when the
traced run ends.  A hooked name that no longer exists is reported as
absent, and its metrics read 0.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

from workloads import FAMILIES, LADDER


def _family(args, kwargs):
    return {"family": args[0].value}


def _verify_call(args, kwargs):
    return {"family": args[1].value, "n": args[0].n}


def _verify_result(cert):
    return {"violated": int(not cert.polychromatic)}


def _found(witness):
    return {"found": int(witness is not None)}


# (owner, attribute, span name, attrs from the call, attrs from the result,
#  materialize a returned generator inside the span)
HOOKS = (
    ("polykn", "build", "constructions.build", None, None, False),
    ("polykn", "comb_certificate", "core.comb_certificate", None, None, False),
    ("polykn.transforms", "comb_certificate", "core.comb_certificate", None, None, False),
    ("polykn", "majority_certificate", "core.majority_certificate", None, None, False),
    ("polykn.cli", "coloring_from_document", "cli.coloring_from_document", None, None, False),
    ("polykn", "is_polychromatic", "verify.is_polychromatic", _verify_call, _verify_result, False),
    ("polykn.search", "is_polychromatic", "verify.is_polychromatic",
     _verify_call, _verify_result, False),
    ("polykn.transforms", "is_polychromatic", "verify.is_polychromatic",
     _verify_call, _verify_result, False),
    ("polykn.families.AllowedGraph", "minus_color", "families.minus_color", None, None, False),
    ("polykn.verify", "find_member", "families.find_member", _family, _found, False),
    ("polykn.transforms", "find_member_containing", "families.find_member_containing",
     _family, _found, False),
    ("polykn.families", "maximum_matching", "families.maximum_matching",
     lambda a, k: {"nodes": a[0], "edges": sum(map(len, a[1])) // 2}, None, False),
    ("polykn.search", "enumerate_members", "families.enumerate_members",
     None, lambda r: {"members": len(r)}, True),
    ("polykn", "brute_force_poly", "search.brute_force_poly",
     None, lambda r: {"nodes": r.nodes}, False),
    ("polykn", "structured_poly", "search.structured_poly",
     None, lambda r: {"nodes": r.nodes}, False),
    ("polykn", "improve_toward_combed", "transforms.improve_toward_combed",
     None, lambda r: {"moves": r.moves}, False),
)


def _per_layer_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = [("families.minus_color.calls", "count", "lower"),
             ("families.minus_color.s", "s", "lower")]
    for fam in FAMILIES:
        specs += [(f"families.maximum_matching.{fam}.calls", "count", "lower"),
                  (f"families.maximum_matching.{fam}.s", "s", "lower"),
                  (f"families.maximum_matching.{fam}.nodes", "count", "lower"),
                  (f"families.maximum_matching.{fam}.edges", "count", "lower")]
    for fam in FAMILIES:
        specs += [(f"families.find_member.{fam}.calls", "count", "lower"),
                  (f"families.find_member.{fam}.s", "s", "lower"),
                  (f"families.find_member.{fam}.self_s", "s", "lower"),
                  (f"families.find_member.{fam}.found_ratio", "ratio", "higher")]
    for fam in FAMILIES:
        specs += [(f"verify.{fam}.n{n}.s", "s", "lower") for n in LADDER[fam]]
    specs += [("families.find_member_containing.calls", "count", "lower"),
              ("families.find_member_containing.s", "s", "lower"),
              ("families.find_member_containing.found_ratio", "ratio", "higher"),
              ("verify.is_polychromatic.calls", "count", "lower"),
              ("verify.is_polychromatic.s", "s", "lower"),
              ("verify.is_polychromatic.self_s", "s", "lower"),
              ("verify.is_polychromatic.violated_ratio", "ratio", "higher")]
    for name in ("search.brute_force_poly", "search.structured_poly"):
        specs += [(f"{name}.s", "s", "lower"), (f"{name}.self_s", "s", "lower"),
                  (f"{name}.nodes", "count", "lower"), (f"{name}.nodes_per_s", "1/s", "higher")]
    specs += [("families.enumerate_members.s", "s", "lower"),
              ("families.enumerate_members.members", "count", "lower"),
              ("transforms.improve_toward_combed.calls", "count", "lower"),
              ("transforms.improve_toward_combed.s", "s", "lower"),
              ("transforms.improve_toward_combed.self_s", "s", "lower"),
              ("transforms.improve_toward_combed.moves", "count", "higher"),
              ("constructions.build.s", "s", "lower"),
              ("core.comb_certificate.s", "s", "lower"),
              ("core.majority_certificate.s", "s", "lower"),
              ("cli.coloring_from_document.s", "s", "lower"),
              ("trace_overhead_ratio", "ratio", "lower")]
    return specs


PER_LAYER = _per_layer_specs()


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "family", "attrs", "child_s")

    def __init__(self, name, start, parent, op, family, attrs):
        self.name, self.start, self.end = name, start, start
        self.parent, self.op, self.family, self.attrs = parent, op, family, attrs
        self.child_s = 0.0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = None  # id of the op in flight
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list = []

    def install(self) -> None:
        for owner_path, attr, name, on_call, on_result, materialize in HOOKS:
            owner = _resolve(owner_path)
            original = None if owner is None else vars(owner).get(attr)
            if original is None:
                self.absent.append(f"{owner_path}.{attr}")
                continue
            static = isinstance(original, staticmethod)
            fn = original.__func__ if static else original
            wrapped = self._wrap(fn, name, on_call, on_result, materialize)
            setattr(owner, attr, staticmethod(wrapped) if static else wrapped)
            self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, fn, name, on_call, on_result, materialize):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = _attrs(on_call, args, kwargs)
            parent = stack[-1] if stack else None
            family = attrs.get("family") or (spans[parent].family if parent is not None else None)
            span = Span(name, time.thread_time(), parent, self.op, family, attrs)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if materialize:
                    result = list(result)
            finally:
                span.end = time.thread_time()
                stack.pop()
                if parent is not None:
                    spans[parent].child_s += span.end - span.start
            attrs.update(_attrs(on_result, result))
            return iter(result) if materialize else result

        return wrapper

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "op": s.op, **s.attrs}) + "\n")

    def per_layer(self, overhead_ratio: float) -> dict[str, float]:
        """Every PER_LAYER metric, summed over the spans recorded."""
        stats: dict = defaultdict(lambda: defaultdict(float))
        for s in self.spans:
            dur = s.end - s.start
            keys = [(s.name,), (s.name, s.family)]
            if "n" in s.attrs:
                keys.append((s.name, s.family, s.attrs["n"]))
            for key in keys:
                st = stats[key]
                st["calls"] += 1
                st["s"] += dur
                st["self_s"] += dur - s.child_s
                for k, v in s.attrs.items():
                    if k not in ("family", "n"):
                        st[k] += v
        out = {}
        for metric, _, _ in PER_LAYER:
            out[metric] = _value(stats, metric, overhead_ratio)
        return out


def _attrs(fn, *args) -> dict:
    """Span attributes read from a call or result; a signature that a later
    refactor changed yields none instead of failing the op."""
    if fn is None:
        return {}
    try:
        return fn(*args)
    except (AttributeError, IndexError, TypeError):
        return {}


def _value(stats, metric: str, overhead_ratio: float) -> float:
    parts = metric.split(".")
    if metric == "trace_overhead_ratio":
        return overhead_ratio
    stat = parts[-1]
    if parts[0] == "verify" and parts[1] in FAMILIES:
        st = stats.get(("verify.is_polychromatic", parts[1], int(parts[2][1:])), {})
    elif len(parts) == 4:
        st = stats.get((f"{parts[0]}.{parts[1]}", parts[2]), {})
    else:
        st = stats.get((f"{parts[0]}.{parts[1]}",), {})
    calls = st.get("calls", 0)
    if stat == "found_ratio":
        return st.get("found", 0) / calls if calls else 0.0
    if stat == "violated_ratio":
        return st.get("violated", 0) / calls if calls else 0.0
    if stat == "nodes_per_s":
        return st.get("nodes", 0) / st["s"] if st.get("s") else 0.0
    return st.get(stat, 0)


def _resolve(path: str):
    """Module or class named by a dotted path, or None if it is gone."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        obj = sys.modules.get(".".join(parts[:cut]))
        if obj is None:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr, None)
        return obj
    return None
