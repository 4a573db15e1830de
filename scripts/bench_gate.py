#!/usr/bin/env python3
"""Bench regression gate: run every gated criterion bench (matcher, churn,
session, net, obs, retain) and fail when a measurement regresses against
its checked-in `BENCH_*.json` baseline.

Usage:
    python3 scripts/bench_gate.py [--skip-run]

Two kinds of checks, because absolute wall-clock numbers do not transfer
between machines:

  * **Within-run ratio gates** (machine-independent, the primary signal):
    pairs measured in the *same* run — indexed vs linear matching, indexed
    vs linear covering — must not regress by more than
    `BENCH_GATE_TOLERANCE` (default 25%) against the same pair's ratio in
    the baseline file.  A pair whose slow reference side is bimodal between
    runs on small hosts (the 100k linear matching scan) is held to a hard
    floor instead — a baseline-relative ratio would flap with the
    reference side's cache mode.
  * **Absolute median gates**: every median under `GATED_PREFIXES` is
    compared against the baseline's ns/iter with `BENCH_GATE_ABS_TOLERANCE`
    (default 25%).  On hardware unlike the reference machine, raise the
    env var (CI uses a looser bound) — the ratio gates still hold exactly.
  * **Hard ratio floors** (machine-independent): a few within-run pairs
    must additionally clear an absolute minimum speedup regardless of the
    baseline: the covering-hit pairs (`matcher/covering/*_hit` and the
    zipf-skewed `matcher/covering_hit/*`) must keep the indexed side at
    least at parity with the linear scan
    (`BENCH_GATE_MIN_COVERING_HIT_SPEEDUP`, default 1.0 — the index may
    never again lose the covering-hit path), the relocation-storm
    control-message pair `churn/link_messages/unscoped vs scoped` must show
    the covering-scoped flood cutting broker-to-broker subscription-control
    traffic by at least 30% (`BENCH_GATE_MIN_CONTROL_REDUCTION`, default
    1.3; the counts are deterministic simulation outputs riding the
    `ns_per_iter` field, so this floor is exact on every machine), and the
    retention store's binary-searched recent-window fetch must beat the
    full-scan oracle at 100k retained records
    (`BENCH_GATE_MIN_FETCH_SPEEDUP`, default 1.3 — the segment time
    indexes may never degenerate into a whole-archive scan).  The
    bimodal-reference pair above rides here too: indexed matching at 100k
    must clear `BENCH_GATE_MIN_MATCH_100K_SPEEDUP` (default 8.0; worst
    observed mode ~14x).
  * **Instrumentation overhead gates**: `obs_bench` measures the journal-on
    vs journal-off quickstart scenario as interleaved pairs (drift cancels
    inside each pair) and reports the median ratio as the synthetic sample
    `obs/quickstart/overhead_x1000/200` (ratio x 1000).  That ratio must
    stay within `BENCH_GATE_OBS_OVERHEAD` (default 5%) of 1.0 — the
    tentpole claim that tracing is cheap enough to leave on.  The
    distributed-tracing layer gets the same discipline:
    `obs/quickstart/trace_overhead_x1000/200` is the interleaved ratio of
    the scenario at the production-typical 1% trace-sampling rate over the
    untraced default (dominated by the unsampled hot path: one hash per
    publication, no allocation), bounded by `BENCH_GATE_TRACE_OVERHEAD`
    (default 5%).  Full sampling (`trace_full_x1000`) records eight spans
    per publication against microseconds of in-memory routing and is
    deliberately not production-rate; it is reported and bounded only by
    the absolute-median gate against its own baseline.

Behaviour:
  1. Runs `cargo bench -p rebeca-bench --bench <name>` for every entry of
     `BENCHES` below with `CRITERION_JSON` set, honouring whatever
     `CRITERION_MEASUREMENT_MS` / `CRITERION_WARMUP_MS` the caller exports
     (pass `--skip-run` to reuse `$BENCH_GATE_DIR` output from a previous
     run).
  2. Applies the checks above and exits 1 on any failure.

Regenerate the baselines on the reference machine with the commands in the
JSON file headers when a deliberate change shifts them.
"""

import json
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOLERANCE = float(os.environ.get("BENCH_GATE_TOLERANCE", "0.25"))
ABS_TOLERANCE = float(os.environ.get("BENCH_GATE_ABS_TOLERANCE", "0.25"))
OBS_OVERHEAD = float(os.environ.get("BENCH_GATE_OBS_OVERHEAD", "0.05"))
TRACE_OVERHEAD = float(os.environ.get("BENCH_GATE_TRACE_OVERHEAD", "0.05"))
MIN_COVERING_HIT_SPEEDUP = float(
    os.environ.get("BENCH_GATE_MIN_COVERING_HIT_SPEEDUP", "1.0")
)
MIN_CONTROL_REDUCTION = float(os.environ.get("BENCH_GATE_MIN_CONTROL_REDUCTION", "1.3"))
MIN_MATCH_100K_SPEEDUP = float(os.environ.get("BENCH_GATE_MIN_MATCH_100K_SPEEDUP", "8.0"))
MIN_FETCH_SPEEDUP = float(os.environ.get("BENCH_GATE_MIN_FETCH_SPEEDUP", "1.3"))
OUT_DIR = os.environ.get("BENCH_GATE_DIR", "/tmp/bench_gate")

BENCHES = {
    "matcher_bench": "BENCH_matcher.json",
    "churn_bench": "BENCH_mobility.json",
    "session_bench": "BENCH_session.json",
    "net_bench": "BENCH_net.json",
    "obs_bench": "BENCH_obs.json",
    "retain_bench": "BENCH_retain.json",
}

# The interleaved instrumented/baseline ratios emitted by obs_bench
# (ratio x 1000 riding the ns_per_iter field).
OBS_OVERHEAD_NAME = "obs/quickstart/overhead_x1000/200"
TRACE_OVERHEAD_NAME = "obs/quickstart/trace_overhead_x1000/200"

# Prefixes of benchmark names whose absolute medians are gated (hot paths;
# maintenance benches are reported but not gated).
GATED_PREFIXES = (
    "matcher/match/",
    "matcher/covering/",
    "matcher/covering_hit/",
    "churn/relocation/",
    "churn/link_messages/",
    "session/quickstart/",
    "net/quickstart/",
    "net/relocation/",
    "net/reconnect/",
    "obs/quickstart/",
    "obs/metrics/",
    "matcher/match_zipf/",
    "retain/append/",
    "retain/fetch/",
    "retain/reattach/",
)

# Within-run pairs gated on their ratio (slow/fast): the optimized side must
# not lose ground against the reference side measured in the same process.
RATIO_GATES = [
    ("matcher/match/linear/1000", "matcher/match/indexed/1000"),
    ("matcher/match/linear/10000", "matcher/match/indexed/10000"),
    # match/100000 is floored, not baseline-gated: the 100k linear scan is
    # bimodal (cache-mode dependent, ~2x between runs on small hosts), so a
    # within-run ratio compared against a single-mode baseline flaps.  See
    # RATIO_FLOORS below.
    ("matcher/covering/linear_miss/1000", "matcher/covering/indexed_miss/1000"),
    ("matcher/covering/linear_miss/10000", "matcher/covering/indexed_miss/10000"),
    ("matcher/covering/linear_hit/1000", "matcher/covering/indexed_hit/1000"),
    ("matcher/covering/linear_hit/10000", "matcher/covering/indexed_hit/10000"),
    ("matcher/covering_hit/linear/1000", "matcher/covering_hit/indexed/1000"),
    ("matcher/covering_hit/linear/10000", "matcher/covering_hit/indexed/10000"),
    # Zipf-skewed matching: the index must keep its advantage when hot
    # groups hold most subscribers (hit = hot posting lists, miss = groups
    # nobody subscribes to).
    ("matcher/match_zipf/linear_hit/10000", "matcher/match_zipf/indexed_hit/10000"),
    ("matcher/match_zipf/linear_hit/100000", "matcher/match_zipf/indexed_hit/100000"),
    ("matcher/match_zipf/linear_miss/10000", "matcher/match_zipf/indexed_miss/10000"),
    ("matcher/match_zipf/linear_miss/100000", "matcher/match_zipf/indexed_miss/100000"),
    # Mobility engine: the full relocation churn must stay within its
    # multiple of the no-relocation event-loop floor.
    # Reference side = the static (no-relocation) floor: the gate trips when
    # the relocation run loses ground against it, i.e. when per-relocation
    # overhead (WAL appends, floods, replays) regresses.
    ("churn/static/2000", "churn/relocation/2000"),
    # Session-API overhead: the interactive session path must stay at parity
    # with the pre-scripted adapter (both replay through the same per-client
    # action queue; the gate trips when the session side picks up overhead).
    ("session/quickstart/scripted/200", "session/quickstart/session/200"),
    # TCP transport overhead: reference side = the in-process ThreadedDriver
    # running the identical completion-driven scenario in the same process.
    # The gate trips when the TCP side loses ground against it, i.e. when
    # per-message transport overhead (framing, socket hops, clamp) or
    # connection setup regresses.
    ("net/quickstart/threaded/40", "net/quickstart/tcp/40"),
    ("net/relocation/threaded/40", "net/relocation/tcp/40"),
    # Self-healing overhead: reference side = the clean tcp quickstart in the
    # same process.  "Speedup" here is a fraction < 1 (the reconnect run is
    # slower by construction — it survives forced drops and publishes one at
    # a time); the gate trips when redial + resend + dedup cost grows the
    # reconnect run relative to the clean run.
    ("net/quickstart/tcp/40", "net/reconnect/tcp/40"),
    # Counter-key satellite: `incr` with an owned String key (the cost every
    # call paid before the Cow<'static, str> rework) vs the zero-allocation
    # &'static str path.  The gate trips when the static path loses its
    # allocation-free advantage.
    ("obs/metrics/incr_owned/8", "obs/metrics/incr_static/8"),
    # Retention-store time-window fetch: the binary-searched fetch_since
    # (skips archived segments via their time-index headers) vs the
    # full-scan oracle in the same process, at 100k retained records.
    # `recent` is the common reattach window (newest 1%); `half` is a
    # parity pair (both sides scan the same records).
    ("retain/fetch/linear_recent/100000", "retain/fetch/indexed_recent/100000"),
    ("retain/fetch/linear_half/100000", "retain/fetch/indexed_half/100000"),
]

# Within-run pairs that must clear an absolute minimum speedup (slow/fast)
# regardless of what the baseline recorded.  Unlike RATIO_GATES these do not
# drift with the checked-in numbers: they encode invariants of the design.
RATIO_FLOORS = [
    # The covering summaries exist so the indexed covering-hit path can
    # never again lose to the linear scan (it did at 10k before them).
    (
        "matcher/covering/linear_hit/10000",
        "matcher/covering/indexed_hit/10000",
        MIN_COVERING_HIT_SPEEDUP,
    ),
    (
        "matcher/covering_hit/linear/10000",
        "matcher/covering_hit/indexed/10000",
        MIN_COVERING_HIT_SPEEDUP,
    ),
    # At 100k subscriptions the linear matching scan is bimodal (~2x between
    # runs depending on cache mode), so the indexed side is held to a hard
    # minimum advantage instead of a baseline-relative ratio: the worst mode
    # observed still clears ~14x, a real index regression lands far below.
    (
        "matcher/match/linear/100000",
        "matcher/match/indexed/100000",
        MIN_MATCH_100K_SPEEDUP,
    ),
    # Covering-scoped relocation floods must cut broker-to-broker
    # subscription-control messages by >= 30% in the relocation storm
    # (deterministic counts, exact on every machine).
    (
        "churn/link_messages/unscoped/400",
        "churn/link_messages/scoped/400",
        MIN_CONTROL_REDUCTION,
    ),
    # The retention store's segment time indexes exist so a recent-window
    # fetch never degenerates into scanning the whole archive: the
    # binary-searched fetch must beat the full-scan oracle outright on the
    # newest-1% window at 100k retained records.
    (
        "retain/fetch/linear_recent/100000",
        "retain/fetch/indexed_recent/100000",
        MIN_FETCH_SPEEDUP,
    ),
]


def load_concat_json(path):
    """The criterion shim appends one JSON array per bench binary; parse all."""
    with open(path) as fh:
        text = fh.read()
    decoder = json.JSONDecoder()
    results, i = [], 0
    while i < len(text):
        while i < len(text) and text[i] != "[":
            i += 1
        if i >= len(text):
            break
        arr, i = decoder.raw_decode(text, i)
        results.extend(arr)
    return {r["name"]: r["ns_per_iter"] for r in results}


def run_bench(bench, out_path):
    env = dict(os.environ, CRITERION_JSON=out_path)
    cmd = ["cargo", "bench", "-p", "rebeca-bench", "--bench", bench]
    print(f"bench-gate: running {' '.join(cmd)}")
    subprocess.run(cmd, cwd=REPO, env=env, check=True)


def main():
    skip_run = "--skip-run" in sys.argv
    os.makedirs(OUT_DIR, exist_ok=True)

    failures = []
    current, baseline = {}, {}
    for bench, baseline_file in BENCHES.items():
        out_path = os.path.join(OUT_DIR, f"{bench}.json")
        if not skip_run:
            if os.path.exists(out_path):
                os.remove(out_path)
            run_bench(bench, out_path)
        current.update(load_concat_json(out_path))
        with open(os.path.join(REPO, baseline_file)) as fh:
            baseline.update(
                {r["name"]: r["ns_per_iter"] for r in json.load(fh)["results"]}
            )

    # Within-run ratio gates (machine-independent).
    for slow, fast in RATIO_GATES:
        missing = [n for n in (slow, fast) if n not in current or n not in baseline]
        if missing:
            failures.append(f"ratio gate {slow} / {fast}: missing {missing}")
            continue
        base_speedup = baseline[slow] / baseline[fast]
        cur_speedup = current[slow] / current[fast]
        # The fast side regresses when the within-run speedup shrinks.
        ratio = base_speedup / cur_speedup
        marker = "OK "
        if ratio > 1.0 + TOLERANCE:
            marker = "FAIL"
            failures.append(
                f"ratio {fast} vs {slow}: speedup {cur_speedup:.2f}x vs baseline "
                f"{base_speedup:.2f}x ({(ratio - 1.0) * 100:+.1f}%, tolerance {TOLERANCE * 100:.0f}%)"
            )
        print(
            f"bench-gate: {marker} ratio {fast:<48} {cur_speedup:>7.2f}x "
            f"(baseline {base_speedup:.2f}x)"
        )

    # Hard ratio floors (design invariants, independent of the baseline).
    for slow, fast, floor in RATIO_FLOORS:
        missing = [n for n in (slow, fast) if n not in current]
        if missing:
            failures.append(f"ratio floor {slow} / {fast}: missing {missing}")
            continue
        speedup = current[slow] / current[fast]
        status = "OK " if speedup >= floor else "FAIL"
        print(
            f"bench-gate: {status} floor {fast:<48} {speedup:>7.2f}x "
            f"(minimum {floor:.2f}x)"
        )
        if speedup < floor:
            failures.append(
                f"ratio floor {fast} vs {slow}: {speedup:.2f}x < {floor:.2f}x"
            )

    # Instrumentation overhead: each interleaved on/off ratio must stay
    # within its bound of parity.
    overhead_gates = [
        (OBS_OVERHEAD_NAME, OBS_OVERHEAD, "journal-on vs journal-off quickstart"),
        (TRACE_OVERHEAD_NAME, TRACE_OVERHEAD, "trace-sampled vs untraced quickstart"),
    ]
    for name, bound, label in overhead_gates:
        overhead_x1000 = current.get(name)
        if overhead_x1000 is None:
            failures.append(f"obs_bench did not report {name}")
            continue
        ratio = overhead_x1000 / 1000.0
        status = "OK " if ratio <= 1.0 + bound else "FAIL"
        print(
            f"bench-gate: {status} {label}: {(ratio - 1.0) * 100:+.2f}% "
            f"(bound {bound * 100:.0f}%)"
        )
        if ratio > 1.0 + bound:
            failures.append(
                f"instrumentation overhead {(ratio - 1.0) * 100:+.2f}% exceeds "
                f"{bound * 100:.0f}% ({label})"
            )

    # Absolute median gates.
    checked = 0
    for name, base_ns in sorted(baseline.items()):
        if not name.startswith(GATED_PREFIXES):
            continue
        if name not in current:
            failures.append(f"{name}: present in the baseline but not measured")
            continue
        checked += 1
        ratio = current[name] / base_ns
        marker = "OK "
        if ratio > 1.0 + ABS_TOLERANCE:
            marker = "FAIL"
            failures.append(
                f"{name}: {current[name]:.0f} ns vs baseline {base_ns:.0f} ns "
                f"({(ratio - 1.0) * 100:+.1f}%, tolerance {ABS_TOLERANCE * 100:.0f}%)"
            )
        print(
            f"bench-gate: {marker} {name:<55} {current[name]:>12.0f} ns "
            f"(baseline {base_ns:.0f}, {(ratio - 1.0) * 100:+.1f}%)"
        )

    print(
        f"bench-gate: checked {len(RATIO_GATES)} ratios + {len(RATIO_FLOORS)} floors "
        f"+ {checked} absolute medians"
    )
    if failures:
        print("bench-gate: FAILED")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("bench-gate: all gated benches within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
