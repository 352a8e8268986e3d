#!/usr/bin/env python3
"""Schema + contract validators for the BENCH_*.json files the bench
binaries emit (field meanings in docs/BENCH_SCHEMA.md).

One subcommand per schema, so CI and local runs share one versioned
checker instead of inline workflow scripts:

    python3 tools/validate_bench.py engine    BENCH_engine_scaling.json
    python3 tools/validate_bench.py build     BENCH_build_scaling.json
    python3 tools/validate_bench.py join      BENCH_join_scaling.json
    python3 tools/validate_bench.py streaming BENCH_streaming.json
    python3 tools/validate_bench.py query_families BENCH_query_families.json
    python3 tools/validate_bench.py fault_injection BENCH_fault_injection.json

Each validator asserts the schema (required fields per row) and the
behavioural contracts the sweep is supposed to prove — IO overlap under
deep queues, codec compression, batch dedup, join determinism, streaming
batch equivalence. Exits non-zero with the failed assertion on any
violation.
"""

import argparse
import json
import sys


def load_rows(path):
    with open(path) as f:
        rows = json.load(f)
    assert isinstance(rows, list) and rows, "no rows"
    return rows


def check_required(rows, required):
    for row in rows:
        missing = required - row.keys()
        assert not missing, f"row missing {missing}: {row}"


def validate_engine(path):
    rows = load_rows(path)
    check_required(rows, {
        "backend", "threads", "shards", "depth", "codec",
        "traversal_threads", "batch_sources",
        "qps", "io_per_query", "total_reads",
        "reads_per_source", "mean_inflight",
        "batched_reads", "build_seconds",
        "build_pages_written", "build_batched_writes",
        "build_mean_write_inflight", "encoded_bytes",
        "decoded_bytes", "compression_ratio"})
    deep = [r for r in rows if r["depth"] > 1]
    assert deep, "no deep-queue cells in the sweep"
    overlapped = [r for r in deep if r["mean_inflight"] > 1.0]
    assert overlapped, "depth>1 cells never overlapped IO"
    # Write side: every index was built with deep write queues, so
    # each row must carry a real build profile whose batched writes
    # overlapped and covered every written page.
    for row in rows:
        assert row["build_seconds"] > 0, f"no build time: {row}"
        assert row["build_pages_written"] > 0, f"no build pages: {row}"
        assert row["build_batched_writes"] == row["build_pages_written"], \
            f"deep-queue build did not batch every write: {row}"
    write_overlapped = [r for r in rows
                        if r["build_mean_write_inflight"] > 1.0]
    assert write_overlapped, "builds never overlapped writes"
    # Codec contract: for ReachGrid and SPJ, the delta-varint twin
    # of every raw cell must compress > 1.5x and read strictly
    # fewer pages.
    cells = {(r["backend"], r["threads"], r["shards"], r["depth"],
              r["codec"]): r for r in rows}
    for backend in ("ReachGrid", "SPJ(scan-join)"):
        pairs = 0
        for key, raw in cells.items():
            if key[0] != backend or key[4] != "raw":
                continue
            delta = cells.get(key[:4] + ("delta-varint",))
            assert delta, f"missing delta twin for {key}"
            pairs += 1
            assert delta["compression_ratio"] > 1.5, \
                f"{backend}: ratio {delta['compression_ratio']}"
            assert delta["total_reads"] < raw["total_reads"], \
                f"{backend}: delta reads {delta['total_reads']} not < " \
                f"raw {raw['total_reads']} at {key[:4]}"
        assert pairs, f"no codec pairs for {backend}"
    # Multi-source dedup contract: growing the shared-frontier
    # batch strictly cuts the per-source read bill, for every
    # backend with a batch closure path.
    for backend in ("ReachGrid(multi-source)",
                    "ReachGraph(multi-source)", "SPJ(multi-source)"):
        series = sorted(((r["batch_sources"], r["reads_per_source"])
                         for r in rows if r["backend"] == backend))
        assert len(series) >= 3, f"{backend}: sweep too small {series}"
        for (b0, reads0), (b1, reads1) in zip(series, series[1:]):
            assert reads1 < reads0, \
                f"{backend}: reads/source {reads1} at batch {b1} " \
                f"not < {reads0} at batch {b0}"
    # Intra-query parallelism never changes the IO bill: the
    # closure cells' reads_per_source is one value across the
    # whole traversal_threads axis.
    closure = [r for r in rows if r["backend"] == "ReachGrid(closure)"]
    assert len(closure) >= 2, "no closure-scaling cells"
    assert len({r["reads_per_source"] for r in closure}) == 1, \
        f"traversal_threads changed the read bill: {closure}"
    print(f"{len(rows)} cells OK; "
          f"max inflight {max(r['mean_inflight'] for r in deep):.2f}; "
          f"max write inflight "
          f"{max(r['build_mean_write_inflight'] for r in rows):.2f}; "
          f"max ratio "
          f"{max(r['compression_ratio'] for r in rows):.2f}")


def validate_build(path):
    rows = load_rows(path)
    check_required(rows, {
        "backend", "workers", "depth", "shards",
        "build_seconds", "pages_written", "batched_writes",
        "mean_write_inflight"})
    for row in rows:
        assert row["build_seconds"] > 0, f"no build time: {row}"
        assert row["pages_written"] > 0, f"no pages: {row}"
        if row["depth"] == 1:
            assert row["batched_writes"] == 0, \
                f"depth-1 build batched writes: {row}"
        else:
            assert row["batched_writes"] == row["pages_written"], \
                f"deep build did not batch every write: {row}"
            assert row["mean_write_inflight"] > 1.0, \
                f"deep build never overlapped: {row}"
    backends = {r["backend"] for r in rows}
    assert backends == {"ReachGrid", "ReachGraph", "GRAIL", "SPJ"}, \
        f"unexpected backend set {backends}"
    axes = {(r["workers"], r["depth"]) for r in rows}
    assert {(1, 1), (0, 1), (1, 8), (0, 8)} <= axes, \
        f"workers x depth sweep incomplete: {axes}"
    print(f"{len(rows)} build cells OK; max write inflight "
          f"{max(r['mean_write_inflight'] for r in rows):.2f}")


def validate_join(path):
    rows = load_rows(path)
    check_required(rows, {
        "objects", "ticks", "dt", "join_threads",
        "extract_seconds", "ticks_per_sec", "contacts",
        "seed_seconds", "hardware_concurrency"})
    for row in rows:
        assert row["extract_seconds"] > 0, f"no extract time: {row}"
        assert row["seed_seconds"] > 0, f"no seed time: {row}"
        assert row["contacts"] > 0, f"no contacts: {row}"
    # Determinism contract: the contact count of a (objects, dt)
    # dataset is one value across the whole join_threads axis.
    # (The binary itself STREACH_CHECKs full contact-set equality
    # against the seed joiner; this re-checks what the JSON
    # records.)
    groups = {}
    for r in rows:
        groups.setdefault((r["objects"], r["dt"]), []).append(r)
    for key, cells in groups.items():
        counts = {r["contacts"] for r in cells}
        assert len(counts) == 1, \
            f"join_threads changed the contact set at {key}: {counts}"
    # Perf contract: the CSR cell list beats the seed joiner at the
    # largest object count even at 1 thread, for every dT.
    largest = max(r["objects"] for r in rows)
    seed_beaten = [r for r in rows
                   if r["objects"] == largest and r["join_threads"] == 1]
    assert seed_beaten, "no 1-thread cells at the largest object count"
    for r in seed_beaten:
        assert r["extract_seconds"] < r["seed_seconds"], \
            f"CSR {r['extract_seconds']:.6f}s not beating seed " \
            f"{r['seed_seconds']:.6f}s at {largest} objects dt {r['dt']}"
    # Scaling contract, multi-core runners only (a 1-core host just
    # has to stay flat): ticks/sec non-decreasing in join_threads,
    # with a 0.85 noise floor, for thread counts the host can
    # actually run in parallel.
    cores = rows[0]["hardware_concurrency"]
    if cores > 1:
        for key, cells in groups.items():
            series = sorted((r["join_threads"], r["ticks_per_sec"])
                            for r in cells)
            usable = [(t, tps) for t, tps in series if t <= cores]
            for (t0, tps0), (t1, tps1) in zip(usable, usable[1:]):
                assert tps1 >= 0.85 * tps0, \
                    f"{key}: {tps1:.0f} ticks/s at {t1} threads " \
                    f"regressed from {tps0:.0f} at {t0}"
    print(f"{len(rows)} join cells OK; largest {largest} objects; "
          f"best speedup vs seed "
          f"{max(r['seed_seconds'] / r['extract_seconds'] for r in seed_beaten):.2f}x")


def validate_streaming(path):
    rows = load_rows(path)
    check_required(rows, {
        "seal_interval", "shards", "codec", "contacts",
        "ingest_seconds", "contacts_per_sec", "sealed_segments",
        "sealed_contacts", "head_contacts", "stored_bytes",
        "matches_batch", "contacts_scanned", "query_seconds"})
    for row in rows:
        # The tentpole invariant: every seal schedule / shard count /
        # codec answers the workload byte-identically to the one-shot
        # batch build.
        assert row["matches_batch"] is True, \
            f"cell diverged from the batch build: {row}"
        assert row["contacts"] > 0, f"no contacts ingested: {row}"
        assert row["ingest_seconds"] > 0, f"no ingest time: {row}"
        assert row["contacts_per_sec"] > 0, f"no ingest throughput: {row}"
        assert row["sealed_segments"] >= 1, f"nothing sealed: {row}"
        assert row["stored_bytes"] > 0, f"no sealed bytes: {row}"
        # Conservation: every appended contact is in a sealed segment or
        # still in the head — never both, never dropped.
        assert row["sealed_contacts"] + row["head_contacts"] == row["contacts"], \
            f"sealed + head != appended: {row}"
    # The contact stream is one dataset: every cell ingested the same
    # number of contacts.
    assert len({r["contacts"] for r in rows}) == 1, \
        f"cells disagree on the contact stream: {rows}"
    # Every run lives in exactly one segment, so the contacts a query
    # scans cannot depend on seal interval, shards or codec: one count
    # across the sweep, or a load path dropped or duplicated contacts.
    scanned = {(r["seal_interval"], r["shards"], r["codec"]):
               r["contacts_scanned"] for r in rows}
    assert len(set(scanned.values())) == 1, \
        f"cells disagree on contacts scanned: {scanned}"
    # Finer seal grids mean more sealed segments (same shards/codec).
    groups = {}
    for r in rows:
        groups.setdefault((r["shards"], r["codec"]), []).append(r)
    for key, cells in groups.items():
        series = sorted((r["seal_interval"], r["sealed_segments"])
                        for r in cells)
        for (s0, n0), (s1, n1) in zip(series, series[1:]):
            assert n1 <= n0, \
                f"{key}: coarser grid {s1} sealed more segments " \
                f"({n1}) than {s0} ({n0})"
    # Codec contract: delta-varint cells store strictly fewer bytes
    # than their raw twins.
    cells = {(r["seal_interval"], r["shards"], r["codec"]): r for r in rows}
    pairs = 0
    for key, raw in cells.items():
        if key[2] != "raw":
            continue
        delta = cells.get(key[:2] + ("delta-varint",))
        assert delta, f"missing delta twin for {key}"
        pairs += 1
        assert delta["stored_bytes"] < raw["stored_bytes"], \
            f"delta {delta['stored_bytes']}B not < raw " \
            f"{raw['stored_bytes']}B at {key[:2]}"
    assert pairs, "no codec pairs in the sweep"
    print(f"{len(rows)} streaming cells OK; all match batch; "
          f"best ingest {max(r['contacts_per_sec'] for r in rows):.0f} "
          f"contacts/s; max segments "
          f"{max(r['sealed_segments'] for r in rows)}")


def validate_query_families(path):
    rows = load_rows(path)
    check_required(rows, {
        "family", "backend", "num_queries", "num_reachable",
        "relaxed_reachable", "answers_hash", "wall_seconds",
        "queries_per_second", "mean_io_cost", "p50_latency",
        "p95_latency"})
    families = {"boolean", "decay", "khop", "topk", "threshold"}
    backends = {"ReachGrid", "ReachGraph", "SPJ"}
    for row in rows:
        assert row["family"] in families, f"unknown family: {row}"
        assert row["backend"] in backends, f"unknown backend: {row}"
        assert row["num_queries"] > 0, f"empty cell: {row}"
        assert row["queries_per_second"] > 0, f"no throughput: {row}"
        assert row["wall_seconds"] > 0, f"no wall time: {row}"
        # The family invariant: relaxing the constraint (decay 0,
        # unbounded hops, probability floor 0) can only grow the
        # reachable count, never shrink it.
        assert row["num_reachable"] <= row["relaxed_reachable"], \
            f"constrained reach exceeds its relaxation: {row}"
        int(row["answers_hash"], 16)  # Well-formed hex digest.
    assert {r["family"] for r in rows} == families, \
        f"family sweep incomplete: {set(r['family'] for r in rows)}"
    assert {r["backend"] for r in rows} == backends, \
        f"backend sweep incomplete: {set(r['backend'] for r in rows)}"
    # The equivalence contract: within one family, every backend answers
    # the same specs with byte-identical results — one hash, one
    # reachable count, one query count per family across the sweep.
    groups = {}
    for r in rows:
        groups.setdefault(r["family"], []).append(r)
    for family, cells in groups.items():
        assert len({r["answers_hash"] for r in cells}) == 1, \
            f"{family}: backends disagree on answers: " \
            f"{[(r['backend'], r['answers_hash']) for r in cells]}"
        assert len({r["num_reachable"] for r in cells}) == 1, \
            f"{family}: backends disagree on reach counts"
        assert len({r["num_queries"] for r in cells}) == 1, \
            f"{family}: backends ran different workloads"
    print(f"{len(rows)} family cells OK; "
          f"{len(groups)} families agree across "
          f"{len(backends)} backends; best "
          f"{max(r['queries_per_second'] for r in rows):.0f} q/s")


def validate_fault_injection(path):
    rows = load_rows(path)
    check_required(rows, {
        "fault_rate", "retries", "queries", "failed_queries",
        "success_rate", "transient_faults", "read_retries",
        "ok_answers_match", "stored_bytes", "footer_bytes",
        "payload_bytes", "checksum_overhead", "query_seconds"})
    for row in rows:
        assert row["queries"] > 0, f"empty cell: {row}"
        assert 0 <= row["failed_queries"] <= row["queries"], \
            f"failure count out of range: {row}"
        expected = (row["queries"] - row["failed_queries"]) / row["queries"]
        assert abs(row["success_rate"] - expected) < 1e-3, \
            f"success_rate inconsistent with failed_queries: {row}"
        # The detection contract: a query that completes under faults is
        # never silently wrong — every OK answer matches the fault-free
        # reference in every cell.
        assert row["ok_answers_match"] is True, \
            f"surviving answers diverged from fault-free run: {row}"
        # Integrity tax: 4 footer bytes per blob must stay under 5% of
        # the payload they protect.
        assert row["footer_bytes"] + row["payload_bytes"] == \
            row["stored_bytes"], f"footer + payload != stored: {row}"
        assert row["checksum_overhead"] < 0.05, \
            f"checksum overhead not under 5%: {row}"
        # A fault the retry loop did not reissue is a fault that failed
        # its query, so failures never exceed observed faults.
        assert row["failed_queries"] <= row["transient_faults"], \
            f"more failures than injected faults: {row}"
        assert row["read_retries"] <= row["transient_faults"], \
            f"more retries than faults to mask: {row}"
        if row["retries"] == 0:
            assert row["read_retries"] == 0, \
                f"zero-budget cell reissued reads: {row}"
    # Healthy-media contract: with fault_rate 0 nothing is injected and
    # nothing fails, at every retry budget.
    healthy = [r for r in rows if r["fault_rate"] == 0]
    assert healthy, "no fault_rate=0 rows in the sweep"
    for row in healthy:
        assert row["transient_faults"] == 0, \
            f"faults injected on healthy media: {row}"
        assert row["failed_queries"] == 0, \
            f"queries failed on healthy media: {row}"
    # Masking contract: a budget >= the per-page failure count (the
    # bench uses 2) retries every observed fault and fails nothing.
    masked = [r for r in rows if r["retries"] >= 2]
    assert masked, "no cells with a masking retry budget"
    for row in masked:
        assert row["failed_queries"] == 0, \
            f"masking budget still failed queries: {row}"
        assert row["read_retries"] == row["transient_faults"], \
            f"masking budget left faults unretried: {row}"
    # Growing the budget never fails more queries at the same rate.
    groups = {}
    for r in rows:
        groups.setdefault(r["fault_rate"], []).append(r)
    for rate, cells in groups.items():
        series = sorted((r["retries"], r["failed_queries"]) for r in cells)
        for (b0, f0), (b1, f1) in zip(series, series[1:]):
            assert f1 <= f0, \
                f"rate {rate}: budget {b1} failed {f1} > budget {b0}'s {f0}"
    # One build behind every cell: the stored image never changes with
    # the fault schedule.
    assert len({r["stored_bytes"] for r in rows}) == 1, \
        f"cells disagree on stored bytes: {rows}"
    faulted = [r for r in rows if r["fault_rate"] > 0]
    assert faulted, "no faulted cells in the sweep"
    assert any(r["transient_faults"] > 0 for r in faulted), \
        "fault schedule never hit a read"
    print(f"{len(rows)} fault cells OK; checksum overhead "
          f"{max(r['checksum_overhead'] for r in rows) * 100:.2f}%; "
          f"max masked faults "
          f"{max(r['read_retries'] for r in masked)}")


VALIDATORS = {
    "engine": validate_engine,
    "build": validate_build,
    "join": validate_join,
    "streaming": validate_streaming,
    "query_families": validate_query_families,
    "fault_injection": validate_fault_injection,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("schema", choices=sorted(VALIDATORS))
    parser.add_argument("path", help="BENCH_*.json file to validate")
    args = parser.parse_args()
    try:
        VALIDATORS[args.schema](args.path)
    except AssertionError as failure:
        print(f"validate_bench {args.schema}: {failure}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
