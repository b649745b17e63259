#!/usr/bin/env python3
"""Perf-smoke baseline tooling for the bench binaries.

Four subcommands:

  collect   Merge a google-benchmark JSON dump (micro_profiling_overhead
            --benchmark_format=json), engine_throughput's --json
            output, and fig5_dynamo_speedup's --json output into one
            BENCH_sweep.json snapshot. A dump made with
            --benchmark_repetitions=N keeps each row's median
            repetition by per-item time.

  compare   Diff a current BENCH_sweep.json against the checked-in
            baseline (bench/baseline/BENCH_sweep.json). Exits nonzero
            when the run regressed.

  scaling   Render engine_throughput's worker ladder as a markdown
            table (the CI scaling artifact) and gate the scaling
            efficiency: events/s at the top worker row must be at
            least --min-ratio times the serial row. The gate only
            arms when the run's recorded hardware_concurrency is at
            least --min-cores - on a starved runner the ladder
            measures queueing overhead, not parallelism, and the
            ratio is reported informationally instead.

  netcheck  Assert a net_loadgen --json report is healthy: frame
            conservation held across client/server/engine, the
            server actually served predictions, and (when the run
            sampled stage spans) every sampled frame that decoded
            also reached predict, encode, and write-flush. Latency
            percentiles are printed for the log but never gate - on
            shared CI runners they measure queueing, not the server.

What counts as a regression:

  * Deterministic counters (events, points, counters per benchmark;
    events/predictions per engine row) must match the baseline
    EXACTLY - these are seed-derived workload facts, so any drift is a
    behavior change, not noise.
  * Work-rate counters (probes_per_op, ops_per_event) and per-item
    times normalized to BM_ReplayOnly may drift up to --threshold
    (default 15%). Normalizing to the replay-only baseline makes the
    check portable across machines: it compares each scheme's
    overhead RATIO, not absolute nanoseconds.
  * Engine throughput rows are compared on their deterministic fields
    only; events/second is reported but never gates (CI runners vary
    too much run to run).
  * Dynamo fig5 rows gate twice: the policy table's event and link
    counters (flushes, evictions, links made/broken, linked/unlinked
    dispatches, fragments formed, cached/interpreted events) are
    seed-derived and must match EXACTLY, while the modeled speedups
    (cycle arithmetic over those counters) may drift up to
    --fig5-speedup-tol percentage points to absorb FP/compiler
    variation.
  * The self-profiling span_overhead block (engine_throughput
    --spans=N) gates on two facts: the sampled and unsampled runs
    must have produced identical events/predictions, and the
    measured sampling overhead must stay within --span-overhead-max
    (default 5%). The paired best-of-3 runs happen inside one bench
    invocation on one machine, so the percentage is comparable even
    on shared runners.

To refresh the baseline after an intentional perf change:

    ./compare_bench.py collect --micro micro.json --engine engine.json \
        -o baseline/BENCH_sweep.json
"""

import argparse
import json
import sys

# Counters that must not move at all between runs with the same seed.
EXACT_COUNTERS = ("events", "points", "counters")
# Counters allowed to drift within the threshold.
RATE_COUNTERS = ("probes_per_op", "ops_per_event")
# The bench every per-item time is normalized against.
TIME_BASELINE = "BM_ReplayOnly"

TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def collect(args):
    with open(args.micro) as f:
        micro_raw = json.load(f)

    repetitions = {}
    for bench in micro_raw.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        unit = TIME_UNIT_NS[bench.get("time_unit", "ns")]
        entry = {
            "real_time_ns": bench["real_time"] * unit,
            "items_per_second": bench.get("items_per_second"),
            "counters": {},
        }
        for key in EXACT_COUNTERS + RATE_COUNTERS:
            if key in bench:
                entry["counters"][key] = bench[key]
        repetitions.setdefault(bench["name"], []).append(entry)

    # The median repetition, not the last: one slow or fast
    # repetition moves neither a row nor the BM_ReplayOnly floor the
    # compare step divides every row by.
    micro = {}
    for name, entries in repetitions.items():
        entries.sort(key=per_item_ns)
        micro[name] = entries[(len(entries) - 1) // 2]

    out = {"schema": 1, "micro": micro}
    if args.engine:
        with open(args.engine) as f:
            out["engine"] = json.load(f)
    if args.fig5:
        with open(args.fig5) as f:
            out["fig5"] = json.load(f)

    with open(args.output, "w") as f:
        json.dump(out, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {args.output}: {len(micro)} micro benches"
          + (", engine ladder" if args.engine else "")
          + (", fig5 dynamo table" if args.fig5 else ""))
    return 0


def per_item_ns(entry):
    ips = entry.get("items_per_second")
    if ips:
        return 1e9 / ips
    return entry["real_time_ns"]


def compare(args):
    with open(args.baseline) as f:
        base = json.load(f)
    with open(args.current) as f:
        cur = json.load(f)

    failures = []
    notes = []

    base_micro = base.get("micro", {})
    cur_micro = cur.get("micro", {})
    for name in sorted(base_micro):
        if name not in cur_micro:
            failures.append(f"{name}: missing from current run")
    for name in sorted(cur_micro):
        if name not in base_micro:
            notes.append(f"{name}: new bench (no baseline; skipped)")

    common = [n for n in sorted(base_micro) if n in cur_micro]

    # Deterministic and rate counters.
    for name in common:
        bc = base_micro[name]["counters"]
        cc = cur_micro[name]["counters"]
        for key in EXACT_COUNTERS:
            if key in bc:
                if key not in cc:
                    failures.append(f"{name}.{key}: counter vanished")
                elif bc[key] != cc[key]:
                    failures.append(
                        f"{name}.{key}: {bc[key]} -> {cc[key]} "
                        "(deterministic counter changed: behavior "
                        "regression, not noise)")
        for key in RATE_COUNTERS:
            if key in bc and key in cc and bc[key] > 0:
                rel = cc[key] / bc[key] - 1.0
                if rel > args.threshold:
                    failures.append(
                        f"{name}.{key}: {bc[key]:.3f} -> "
                        f"{cc[key]:.3f} (+{100 * rel:.1f}%)")

    # Per-item time, normalized to the replay-only floor.
    if TIME_BASELINE in base_micro and TIME_BASELINE in cur_micro:
        base_floor = per_item_ns(base_micro[TIME_BASELINE])
        cur_floor = per_item_ns(cur_micro[TIME_BASELINE])
        for name in common:
            if name == TIME_BASELINE:
                continue
            base_ratio = per_item_ns(base_micro[name]) / base_floor
            cur_ratio = per_item_ns(cur_micro[name]) / cur_floor
            rel = cur_ratio / base_ratio - 1.0
            line = (f"{name}: {base_ratio:.2f}x -> {cur_ratio:.2f}x "
                    f"replay-only cost ({100 * rel:+.1f}%)")
            if rel > args.threshold:
                failures.append(line)
            else:
                notes.append(line)

    # Engine ladder: deterministic fields gate, throughput informs.
    base_rows = base.get("engine", {}).get("rows", [])
    cur_rows = {r["workers"]: r
                for r in cur.get("engine", {}).get("rows", [])}
    for row in base_rows:
        workers = row["workers"]
        if workers not in cur_rows:
            failures.append(f"engine workers={workers}: row missing")
            continue
        current = cur_rows[workers]
        for key in ("events", "predictions"):
            if row[key] != current[key]:
                failures.append(
                    f"engine workers={workers}.{key}: "
                    f"{row[key]} -> {current[key]} (deterministic)")
        notes.append(
            f"engine workers={workers}: "
            f"{row['events_per_second']:.0f} -> "
            f"{current['events_per_second']:.0f} events/s "
            "(informational)")

    # Dynamo fig5: link/eviction counters are seed-derived facts and
    # gate exactly; the modeled speedups are cycle arithmetic over
    # those counters and get a small percentage-point tolerance.
    FIG5_EXACT = ("flushes", "evictions", "links_made", "links_broken",
                  "linked_dispatches", "unlinked_dispatches",
                  "fragments_formed", "cached_events",
                  "interpreted_events")
    base_fig5 = base.get("fig5")
    cur_fig5 = cur.get("fig5")
    if base_fig5 and not cur_fig5:
        failures.append("fig5: baseline has it, current run does not "
                        "(was fig5_dynamo_speedup run with --json?)")
    if base_fig5 and cur_fig5:
        columns = base_fig5.get("columns", [])
        cur_speedups = {r["benchmark"]: r["speedups"]
                       for r in cur_fig5.get("rows", [])}
        for row in base_fig5.get("rows", []):
            name = row["benchmark"]
            if name not in cur_speedups:
                failures.append(f"fig5 {name}: row missing")
                continue
            for i, speedup in enumerate(row["speedups"]):
                col = columns[i] if i < len(columns) else f"col{i}"
                delta = cur_speedups[name][i] - speedup
                if abs(delta) > args.fig5_speedup_tol:
                    failures.append(
                        f"fig5 {name}.{col}: {speedup:.2f}% -> "
                        f"{cur_speedups[name][i]:.2f}% speedup "
                        f"({delta:+.2f}pp)")
        cur_policy = {(r["benchmark"], r["policy"]): r
                      for r in cur_fig5.get("policy_rows", [])}
        for row in base_fig5.get("policy_rows", []):
            key = (row["benchmark"], row["policy"])
            if key not in cur_policy:
                failures.append(
                    f"fig5 policy {key[0]}/{key[1]}: row missing")
                continue
            current = cur_policy[key]
            for field in FIG5_EXACT:
                if row.get(field) != current.get(field):
                    failures.append(
                        f"fig5 policy {key[0]}/{key[1]}.{field}: "
                        f"{row.get(field)} -> {current.get(field)} "
                        "(deterministic counter changed)")
            delta = current["speedup"] - row["speedup"]
            if abs(delta) > args.fig5_speedup_tol:
                failures.append(
                    f"fig5 policy {key[0]}/{key[1]}.speedup: "
                    f"{row['speedup']:.2f}% -> "
                    f"{current['speedup']:.2f}% ({delta:+.2f}pp)")
        notes.append(
            f"fig5: {len(base_fig5.get('rows', []))} scheme rows and "
            f"{len(base_fig5.get('policy_rows', []))} policy rows "
            "checked")

    # Self-profiling overhead: the paired off-vs-on measurement from
    # engine_throughput --spans=N, gated on its own in-run comparison.
    span = cur.get("engine", {}).get("span_overhead")
    if span:
        if not span.get("events_match", False):
            failures.append(
                "span_overhead.events_match is false: enabling stage "
                "spans changed the engine's outputs")
        pct = span.get("overhead_pct", 0.0)
        line = (f"span overhead 1/{span.get('sample_every')}: "
                f"{pct:+.2f}% at {span.get('workers')} workers "
                f"({span.get('sampled_frames')} frames sampled)")
        if pct > 100.0 * args.span_overhead_max:
            failures.append(
                line + f" exceeds {100 * args.span_overhead_max:.0f}%")
        else:
            notes.append(line)
    elif base.get("engine", {}).get("span_overhead"):
        failures.append(
            "span_overhead: baseline has it, current run does not "
            "(was engine_throughput run without --spans?)")

    for line in notes:
        print(f"  note: {line}")
    if failures:
        print(f"\n{len(failures)} regression(s) vs {args.baseline}:",
              file=sys.stderr)
        for line in failures:
            print(f"  FAIL: {line}", file=sys.stderr)
        return 1
    print(f"\nOK: no regressions vs {args.baseline} "
          f"(threshold {100 * args.threshold:.0f}%)")
    return 0


def scaling(args):
    with open(args.engine) as f:
        run = json.load(f)

    rows = run.get("rows", [])
    if not rows:
        print("scaling: engine report has no rows", file=sys.stderr)
        return 1
    serial = next((r for r in rows if r["workers"] == 0), None)
    if serial is None:
        print("scaling: no serial (workers=0) row to normalize "
              "against", file=sys.stderr)
        return 1
    serial_eps = serial["events_per_second"]
    top = max(rows, key=lambda r: r["workers"])
    hw = run.get("hardware_concurrency", 0)

    lines = [
        "# Engine scaling ladder",
        "",
        f"{run.get('sessions')} sessions, "
        f"{run.get('total_events')} events, "
        f"{run.get('producers', 1)} producer(s), seed "
        f"{run.get('seed')}, hardware_concurrency={hw}",
        "",
        "| Workers | Producers | Events/s | Speedup vs serial | "
        "Backpressure waits |",
        "|---:|---:|---:|---:|---:|",
    ]
    for row in sorted(rows, key=lambda r: r["workers"]):
        speedup = (row["events_per_second"] / serial_eps
                   if serial_eps > 0 else 0.0)
        lines.append(
            f"| {row['workers']} | {row.get('producers', 1)} | "
            f"{row['events_per_second']:,.0f} | {speedup:.2f}x | "
            f"{row.get('backpressure_waits', 0)} |")

    ratio = (top["events_per_second"] / serial_eps
             if serial_eps > 0 else 0.0)
    armed = hw >= args.min_cores
    verdict = (
        f"{top['workers']}-worker row is {ratio:.2f}x serial "
        f"(gate: >= {args.min_ratio:.1f}x, "
        + (f"armed at hardware_concurrency >= {args.min_cores})"
           if armed else
           f"DISARMED: hardware_concurrency {hw} < "
           f"{args.min_cores}, ratio is informational)"))
    lines += ["", verdict, ""]

    text = "\n".join(lines)
    print(text)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
        print(f"wrote {args.out}")

    # Determinism must hold regardless of core count: every worker
    # row processes the same seed-derived workload as serial.
    failures = []
    for row in rows:
        for key in ("events", "predictions"):
            if row[key] != serial[key]:
                failures.append(
                    f"workers={row['workers']}.{key}: "
                    f"{serial[key]} -> {row[key]} (diverged from "
                    "serial: determinism violation)")
    if armed and ratio < args.min_ratio:
        failures.append(
            f"scaling efficiency {ratio:.2f}x below the "
            f"{args.min_ratio:.1f}x gate at "
            f"hardware_concurrency={hw}")
    if failures:
        for line in failures:
            print(f"  FAIL: {line}", file=sys.stderr)
        return 1
    print("OK: worker rows deterministic"
          + (f", scaling gate passed at {ratio:.2f}x" if armed
             else " (scaling gate disarmed on this host)"))
    return 0


def adaptive(args):
    """Gate an ext_adaptive_tau report: the controller must land
    within --best-slack permille of the best static rung AND at
    least --worst-margin permille above the worst one, per workload;
    with --baseline, every counter in the report must also match the
    checked-in baseline exactly (the bench is integer-deterministic,
    so any drift is a behavior change)."""
    with open(args.report) as f:
        current = json.load(f)

    failures = []
    by_workload = {}
    for row in current.get("rows", []):
        cell = by_workload.setdefault(row["workload"],
                                      {"static": [], "adaptive": None})
        if row["mode"] == "static":
            cell["static"].append(row)
        else:
            cell["adaptive"] = row

    if not by_workload:
        failures.append("report has no rows")
    for workload in sorted(by_workload):
        cell = by_workload[workload]
        if not cell["static"] or cell["adaptive"] is None:
            failures.append(f"{workload}: missing static grid or "
                            "adaptive row")
            continue
        covs = {r["tau"]: r["steady_coverage_permille"]
                for r in cell["static"]}
        best = max(covs.values())
        worst = min(covs.values())
        got = cell["adaptive"]["steady_coverage_permille"]
        final_tau = cell["adaptive"].get("final_tau")
        print(f"  {workload}: static {covs} adaptive {got} "
              f"(final tau {final_tau})")
        if got + args.best_slack < best:
            failures.append(
                f"{workload}: adaptive coverage {got} is more than "
                f"{args.best_slack} permille below the best static "
                f"rung ({best})")
        if got < worst + args.worst_margin:
            failures.append(
                f"{workload}: adaptive coverage {got} is not at "
                f"least {args.worst_margin} permille above the "
                f"worst static rung ({worst})")

    controller = current.get("controller", {})
    if controller.get("epochs", 0) <= 0:
        failures.append("controller ran no epochs")

    if args.baseline:
        with open(args.baseline) as f:
            base = json.load(f)
        if base != current:
            for key in sorted(set(base) | set(current)):
                if base.get(key) != current.get(key):
                    failures.append(
                        f"baseline mismatch in '{key}': expected "
                        f"{base.get(key)!r}, got "
                        f"{current.get(key)!r}")

    if failures:
        for line in failures:
            print(f"  FAIL: {line}", file=sys.stderr)
        return 1
    print("OK: adaptive control tracked the per-workload best "
          "static tau"
          + (", counters match baseline exactly"
             if args.baseline else ""))
    return 0


def netcheck(args):
    with open(args.report) as f:
        run = json.load(f)

    failures = []
    if not run.get("conservation_ok", False):
        failures.append(
            "conservation_ok is false: frames were lost between "
            "client, server, and engine counters")
    served = run.get("predictions_served", 0)
    if served <= 0:
        failures.append("predictions_served is 0: the server "
                        "answered frames but never predicted")
    broken = run.get("broken_connections", 0)
    if broken:
        failures.append(f"{broken} connection(s) broke mid-run")

    # Stage-span frame conservation: a sampled frame must traverse
    # the whole pipeline or every per-stage distribution is suspect.
    spans = run.get("stage_spans")
    if spans is not None:
        if not spans.get("conservation_ok", False):
            failures.append(
                "stage_spans.conservation_ok is false: sampled "
                "frames were lost between pipeline stages")
        counts = {s: spans.get(s, 0)
                  for s in ("decode", "predict", "write_flush")}
        if len(set(counts.values())) != 1:
            failures.append(
                f"stage histogram counts diverge: {counts}")
        if spans.get("sampled", 0) <= 0:
            failures.append(
                "stage_spans.sampled is 0: the run claims span "
                "sampling but no frame was ever sampled")
        print(f"  stage spans 1/{spans.get('sample_every')}: "
              f"{spans.get('sampled')} of {spans.get('frames_seen')} "
              f"frames, per-stage counts "
              + " ".join(f"{s}={spans.get(s, 0)}"
                         for s in ("read", "decode", "queue_wait",
                                   "predict", "encode",
                                   "write_flush")))

    # Cluster tier: the router's ledger must close (every accepted
    # frame answered exactly once), every surviving backend must
    # conserve internally, the fleet frame sum must balance on
    # undisturbed runs, the admin plane must have answered mid-run,
    # and a deliberate backend kill must actually drive a failover.
    cl = run.get("cluster")
    if cl is not None:
        router = cl.get("router", {})
        if not cl.get("admin_ok", False):
            failures.append(
                "cluster.admin_ok is false: the router's /metrics "
                "endpoint did not answer during the run")
        for key, what in (
                ("router_ledger_ok", "router ledger did not close"),
                ("backends_ok",
                 "a surviving backend lost frames internally"),
                ("fleet_sum_ok",
                 "fleet frame sum does not balance")):
            if not cl.get(key, False):
                failures.append(f"cluster.{key} is false: {what}")
        if router.get("responses_dropped", 0):
            failures.append(
                f"router dropped "
                f"{router['responses_dropped']} replies")
        if router.get("inflight", 0) or router.get("parked", 0):
            failures.append(
                "router drained with frames still in flight or "
                "parked")
        killed = cl.get("killed_backend", -1)
        if killed >= 0 and router.get("failovers", 0) < 1:
            failures.append(
                f"backend {killed} was killed but the router never "
                "failed over")
        print(f"  cluster: {cl.get('backends')} backends, "
              f"{router.get('frames_routed', 0)} routed, "
              f"{router.get('frames_replayed', 0)} replayed, "
              f"{router.get('responses_synthesized', 0)} "
              f"synthesized, {router.get('failovers', 0)} "
              f"failover(s), killed_backend={killed}")

    lat = run.get("latency_us", {})
    print(f"netcheck {args.report}: "
          f"{run.get('frames_sent', 0)} frames sent, "
          f"{run.get('replies_received', 0)} replies, "
          f"{served} predictions served")
    print(f"  latency us (informational): p50={lat.get('p50')} "
          f"p99={lat.get('p99')} p999={lat.get('p999')} "
          f"max={lat.get('max')} samples={lat.get('samples')}")

    if failures:
        for line in failures:
            print(f"  FAIL: {line}", file=sys.stderr)
        return 1
    print("  OK: conservation held and predictions were served")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_collect = sub.add_parser("collect",
                               help="merge bench output into one "
                                    "BENCH_sweep.json")
    p_collect.add_argument("--micro", required=True,
                           help="google-benchmark JSON from "
                                "micro_profiling_overhead")
    p_collect.add_argument("--engine",
                           help="engine_throughput --json output")
    p_collect.add_argument("--fig5",
                           help="fig5_dynamo_speedup --json output")
    p_collect.add_argument("-o", "--output", required=True)
    p_collect.set_defaults(func=collect)

    p_compare = sub.add_parser("compare",
                               help="diff a run against the baseline")
    p_compare.add_argument("baseline")
    p_compare.add_argument("current")
    p_compare.add_argument("--threshold", type=float, default=0.15,
                           help="allowed relative slowdown "
                                "(default 0.15)")
    p_compare.add_argument("--span-overhead-max", type=float,
                           default=0.05,
                           help="allowed stage-span sampling overhead "
                                "as a fraction (default 0.05)")
    p_compare.add_argument("--fig5-speedup-tol", type=float,
                           default=0.25,
                           help="allowed drift of fig5 modeled "
                                "speedups, in percentage points "
                                "(default 0.25)")
    p_compare.set_defaults(func=compare)

    p_scale = sub.add_parser("scaling",
                             help="render the worker ladder as "
                                  "markdown and gate scaling "
                                  "efficiency")
    p_scale.add_argument("engine",
                         help="engine_throughput --json output")
    p_scale.add_argument("--out",
                         help="write the markdown table here "
                              "(CI artifact)")
    p_scale.add_argument("--min-ratio", type=float, default=3.0,
                         help="required events/s ratio of the top "
                              "worker row vs serial (default 3.0)")
    p_scale.add_argument("--min-cores", type=int, default=4,
                         help="arm the gate only when the run saw at "
                              "least this hardware_concurrency "
                              "(default 4)")
    p_scale.set_defaults(func=scaling)

    p_adapt = sub.add_parser("adaptive",
                             help="gate an ext_adaptive_tau report "
                                  "against the static grid and the "
                                  "checked-in baseline")
    p_adapt.add_argument("report", help="ext_adaptive_tau --json "
                                        "output")
    p_adapt.add_argument("--baseline",
                         help="checked-in baseline report; every "
                              "counter must match exactly")
    p_adapt.add_argument("--best-slack", type=int, default=20,
                         help="allowed permille below the best "
                              "static rung (default 20 = 2pp)")
    p_adapt.add_argument("--worst-margin", type=int, default=50,
                         help="required permille above the worst "
                              "static rung (default 50 = 5pp)")
    p_adapt.set_defaults(func=adaptive)

    p_net = sub.add_parser("netcheck",
                           help="assert a net_loadgen --json report "
                                "is healthy")
    p_net.add_argument("report", help="net_loadgen --json output")
    p_net.set_defaults(func=netcheck)

    args = parser.parse_args()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
