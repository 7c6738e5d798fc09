"""One workload run in a fresh process: set-up, then verdict passes.

    python3 perfbench/worker.py MODE WORKLOAD SEED SECONDS [SPANS_FILE]

MODE is `setup` (import tqaplan and build the domains, nothing else),
`plain` (untraced passes over the workload for about SECONDS, at least one)
or `traced` (one pass with every layer wrapped; spans go to SPANS_FILE).
The last line of standard output is one JSON object.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
_t_setup = time.perf_counter()
import tqaplan  # noqa: E402  (timed: it is part of set-up)

import json  # noqa: E402
import resource  # noqa: E402
from types import SimpleNamespace  # noqa: E402

from tracing import EXACT_COUNTS, Tracer, layer_metrics, traced_api  # noqa: E402
from workloads import BUDGET_S, shuffle_document, units  # noqa: E402

# Dumps take tens of milliseconds on small models, so untraced passes repeat
# them up to this much time per unit to steady dump_s.
DUMP_MIN_S = 0.25


def plain_api() -> SimpleNamespace:
    names = (
        "gen_cushing", "serialize_domain", "parse_domain", "find_plan", "plan_to_document",
        "plan_from_document", "validate_plan", "instantiate", "encode", "export_model",
        "parse_model",
    )
    return SimpleNamespace(**{name: getattr(tqaplan, name) for name in names})


def build_domains(api, seed, work):
    """gen_cushing -> serialize_domain -> shuffle -> parse_domain, per unit."""
    domains = {}
    for unit in work:
        inst = unit.instance
        d = api.gen_cushing(tqaplan.GadgetSpec(inst.bench_type, inst.copies, inst.height))
        domains[unit.uid] = api.parse_domain(
            shuffle_document(api.serialize_domain(d), seed, unit))
    return domains


def verdict(api, inst, d):
    """From a parsed domain to a verdict: search, then the plan document
    round trip and validation of the plan read back."""
    limits = tqaplan.SearchLimits(
        max_n=inst.max_n, copy_cap=inst.copy_cap, horizon=inst.horizon, time_budget=BUDGET_S)
    out = api.find_plan(d, inst.objective, limits)
    plan = report = None
    if out.found:
        plan = api.plan_from_document(api.plan_to_document(out.plan))
        report = api.validate_plan(d, plan)
    return out, plan, report


def dump(api, inst, n, d):
    """The model-dump path at one stage count: the model and its text."""
    model = api.encode(api.instantiate(d, n, inst.copy_cap, inst.horizon), inst.objective)
    text = api.export_model(model)
    return model, text, api.parse_model(text)


def run_unit(api, unit, d, dump_min_s):
    """One verdict, then the dump path repeated until it has run for
    dump_min_s (at least once); returns timings, answer checks, signature."""
    inst = unit.instance
    t0 = time.perf_counter()
    out, plan, report = api.verdict(api, inst, d)
    verdict_s = time.perf_counter() - t0
    dump_s = []
    while True:
        t0 = time.perf_counter()
        model, text, back = api.dump(api, inst, out.n_found or inst.max_n, d)
        dump_s.append(time.perf_counter() - t0)
        if sum(dump_s) >= dump_min_s or len(dump_s) == 10:
            break
        # One model alive at a time, so peak memory does not follow the count.
        del model, text, back

    objective = None
    if out.plan is not None and out.plan.objective is not None:
        objective = str(out.plan.objective)
    errors = []
    if (out.status, out.n_found, objective) != (inst.status, inst.n_star, inst.optimum):
        errors.append(f"answer {out.status} n={out.n_found} opt={objective}, expected "
                      f"{inst.status} n={inst.n_star} opt={inst.optimum}")
    decided = not errors
    if out.found:
        if plan != out.plan:
            errors.append("plan_from_document(plan_to_document(p)) != p")
        if not report.is_valid:
            errors.append(f"validate_plan: {[str(v) for v in report.violations][:3]}")
    if back != model:
        errors.append("parse_model(export_model(m)) != m")
    return {
        "uid": unit.uid,
        "verdict_s": BUDGET_S if out.status == "limit" else verdict_s,
        "dump_s": dump_s,
        "decided": decided,
        "errors": errors,
        "signature": [out.status, out.n_found, out.nodes, objective, len(text.encode()),
                      len(model.constraints)],
    }


def main(argv):
    mode, workload, seed, seconds = argv[0], argv[1], int(argv[2]), float(argv[3])
    work = units(workload)
    tracer = Tracer() if mode == "traced" else None
    api = traced_api(tracer, tqaplan) if tracer else plain_api()
    api.verdict = tracer.wrap("bench.verdict", verdict) if tracer else verdict
    api.dump = tracer.wrap("bench.dump", dump) if tracer else dump

    domains = build_domains(api, seed, work)
    result = {"setup_s": time.perf_counter() - _t_setup}
    if mode == "setup":
        print(json.dumps(result))
        return 0

    started = time.perf_counter()
    passes = []
    while True:
        rows = []
        for unit in work:
            if tracer:
                tracer.instance = unit.uid
            rows.append(run_unit(api, unit, domains[unit.uid], 0 if tracer else DUMP_MIN_S))
        passes.append(rows)
        elapsed = time.perf_counter() - started
        # Start another pass only if it is expected to end within SECONDS.
        if mode == "traced" or elapsed * (len(passes) + 1) / len(passes) > seconds:
            break

    first = [row["signature"] for row in passes[0]]
    for rows in passes[1:]:
        for row, sig in zip(rows, first):
            if row["signature"] != sig:
                row["errors"].append(f"not deterministic: {row['signature']} != {sig}")
    result.update(
        passes=passes,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer:
        tracer.write(argv[4])
        layers = layer_metrics(tracer.spans)
        result.update(layers=layers, counts={k: layers[k] for k in EXACT_COUNTS})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
