"""Span tracing from outside the program, and the per-layer metrics.

The traced run rebinds the names `find_plan` looks up in `tqaplan.search`
(instantiate, encode, solve, decode) to timing wrappers, so it follows
whatever loop `find_plan` runs.  The benchmark's own calls into the other
layers go through the same wrappers.  Spans stay in memory until the run
ends.  Model compile and search both happen inside `solve` and cannot be
split from here: a solve with zero nodes counts as root work, any other as
search.
"""

from __future__ import annotations

import json
import time
from types import SimpleNamespace


class Tracer:
    """Records one span per wrapped call: name, start, end, parent span
    index, instance id, and counts read from the return value."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.instance: str | None = None

    def wrap(self, name, fn, counts=None):
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            span = {"name": name, "instance": self.instance,
                    "parent": open_[-1] if open_ else None}
            open_.append(len(spans))
            spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                open_.pop()
            if counts is not None:
                span.update(counts(result))
            return result

        return traced

    def write(self, path: str) -> None:
        with open(path, "w") as out:
            for i, span in enumerate(self.spans):
                out.write(json.dumps({"id": i, **span}) + "\n")


def traced_api(tracer: Tracer, tq) -> SimpleNamespace:
    """Wrap the layers and rebind the names find_plan calls through."""
    search = tq.search
    instantiate = tracer.wrap(
        "theory.instantiate", tq.instantiate,
        lambda s: {"vars": len(s.bool_names) + len(s.int_decls)})
    encode = tracer.wrap("encoder.encode", tq.encode, lambda m: {"rows": len(m.constraints)})
    search.instantiate = instantiate
    search.encode = encode
    search.solve = tracer.wrap(
        "solver.solve", tq.solve, lambda r: {"nodes": r.nodes, "status": r.status})
    search.decode = tracer.wrap("search.decode", tq.decode)
    return SimpleNamespace(
        gen_cushing=tracer.wrap("benchgen.gen", tq.gen_cushing),
        serialize_domain=tracer.wrap("domain.serialize", tq.serialize_domain),
        parse_domain=tracer.wrap("domain.parse", tq.parse_domain),
        find_plan=tracer.wrap("search.find_plan", tq.find_plan),
        plan_to_document=tracer.wrap("search.plan_io", tq.plan_to_document),
        plan_from_document=tracer.wrap("search.plan_io", tq.plan_from_document),
        validate_plan=tracer.wrap(
            "validator.validate", tq.validate_plan,
            lambda r: {"violations": len(r.violations)}),
        instantiate=instantiate,
        encode=encode,
        export_model=tracer.wrap(
            "cpmodel.export", tq.export_model, lambda t: {"bytes": len(t.encode())}),
        parse_model=tracer.wrap("cpmodel.parse", tq.parse_model),
    )


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer sums over one traced run (see README.md for the map)."""

    def dur(s):
        return s["end"] - s["start"]

    def pick(name, pred):
        return [s for s in spans if s["name"] == name and (pred is None or pred(s))]

    def total(name, pred=None):
        return sum((dur(s) for s in pick(name, pred)), 0.0)

    def count(name, key, pred=None):
        return sum(s[key] for s in pick(name, pred))

    finds = {i for i, s in enumerate(spans) if s["name"] == "search.find_plan"}

    def in_probe(s):
        return s["parent"] in finds

    child_time = {i: 0.0 for i in finds}
    for s in spans:
        if s["parent"] in child_time:
            child_time[s["parent"]] += dur(s)
    search_s = total("solver.solve", lambda s: s["nodes"] > 0)
    nodes = count("solver.solve", "nodes")
    return {
        "benchgen.gen_s": total("benchgen.gen"),
        "domain.parse_s": total("domain.parse"),
        "theory.instantiate_s": total("theory.instantiate"),
        "theory.vars": count("theory.instantiate", "vars", in_probe),
        "encoder.encode_s": total("encoder.encode"),
        "encoder.constraints": count("encoder.encode", "rows", in_probe),
        "cpmodel.export_s": total("cpmodel.export"),
        "cpmodel.parse_s": total("cpmodel.parse"),
        "cpmodel.text_bytes": count("cpmodel.export", "bytes"),
        "solver.solve_s": total("solver.solve"),
        "solver.root_s": total("solver.solve", lambda s: s["nodes"] == 0),
        "solver.search_s": search_s,
        "solver.nodes": nodes,
        "solver.us_per_node": search_s * 1e6 / nodes if nodes else 0.0,
        "solver.sat_s": total("solver.solve", lambda s: s["status"] == "sat"),
        "solver.unsat_s": total("solver.solve", lambda s: s["status"] == "unsat"),
        "solver.limit_calls": len(pick("solver.solve", lambda s: s["status"] == "limit")),
        "search.probes": len(pick("theory.instantiate", in_probe)),
        "search.self_s": sum((dur(spans[i]) - child_time[i] for i in finds), 0.0),
        "search.decode_s": total("search.decode"),
        "search.plan_io_s": total("search.plan_io"),
        "validator.validate_s": total("validator.validate"),
        "validator.violations": count("validator.validate", "violations"),
        "trace.verdict_s": total("bench.verdict"),
    }


# Counts that must repeat exactly between runs of the same seed.
EXACT_COUNTS = (
    "solver.nodes", "encoder.constraints", "theory.vars", "cpmodel.text_bytes", "search.probes",
)
