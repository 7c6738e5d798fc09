"""Sweep the benchmark families and print a scalability table: stacked and
sequenced instances need more stages, which is where the search effort goes."""

import time

from tqaplan import GadgetSpec, SearchLimits, find_plan, gen_cushing, validate_plan


def run(spec: GadgetSpec) -> None:
    domain = gen_cushing(spec)
    started = time.perf_counter()
    outcome = find_plan(
        domain,
        limits=SearchLimits(max_n=24, copy_cap=1, time_budget=120),
    )
    wall = time.perf_counter() - started
    verdict = "-"
    if outcome.found:
        verdict = validate_plan(domain, outcome.plan).verdict
    label = f"{spec.bench_type}-m{spec.copies}" + (
        f"-h{spec.height}" if spec.height else ""
    )
    bools, ints = outcome.model_stats
    print(
        f"{label:<10} {outcome.status:<9} n={outcome.n_found!s:<4} "
        f"vars={bools}+{ints:<5} nodes={outcome.nodes:<6} {wall*1000:7.1f} ms  {verdict}"
    )


def main() -> None:
    print(f"{'instance':<10} {'status':<9} {'stages':<6} {'variables':<12} {'nodes':<8} time")
    for m in (1, 2, 5, 10, 20):
        run(GadgetSpec("I", m))
    for m in (1, 2, 3):
        run(GadgetSpec("II", m, height=3))
    for m in (2, 3):
        run(GadgetSpec("III", m, height=2))


if __name__ == "__main__":
    main()
