package main

import "fmt"

// metricDef declares one metric: BENCHMARK.json repeats name, unit, better
// and (end to end) bound, and the smoke test holds the two together.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the median it may worsen by
}

// endToEnd is what a host program sees. Measured with tracing off, two
// closed-loop clients over the wire.
var endToEnd = []metricDef{
	{"ops_per_s", "op/s", "higher", 0.25},  // verified ops / measured wall time
	{"p50_ms", "ms", "lower", 0.25},        // median client-observed latency of an op
	{"p99_ms", "ms", "lower", 0.25},        // 99th percentile of the same
	{"cpu_ms_per_op", "ms", "lower", 0.25}, // process user+sys CPU / ops; the two client goroutines included
	{"setup_s", "s", "lower", 0.25},        // open, load, reopen, serve, dial, login, warm-up; median of setUps
}

// perLayer is reported by the traced run. Times come from the ladder,
// counts from DB.Stats() deltas; per op unless the name says otherwise.
// README.md says which end-to-end metric each should move, and where.
var perLayer = []metricDef{
	{"wire.self_ms", "ms", "lower", 0},
	{"wire.bytes_in_per_op", "B", "lower", 0},
	{"wire.bytes_out_per_op", "B", "lower", 0},
	{"wire.frames_per_op", "count", "lower", 0},
	{"wire.queue_wait_ms", "ms", "lower", 0},
	{"wire.coalesced_mean", "count", "higher", 0},
	{"wire.shed_share", "ratio", "lower", 0},
	{"executor.self_ms", "ms", "lower", 0},
	{"executor.execute_ns_mean", "ns", "lower", 0},
	{"opal.execute_ms", "ms", "lower", 0},
	{"opal.allocs_per_op", "count", "lower", 0},
	{"calculus.parse_ms", "ms", "lower", 0},
	{"algebra.optimize_ms", "ms", "lower", 0},
	{"algebra.exec_ms", "ms", "lower", 0},
	{"algebra.members_per_row", "count", "lower", 0},
	{"algebra.cursor_opens", "count", "lower", 0},
	{"algebra.member_counts", "count", "lower", 0},
	{"directory.lookups_per_op", "count", "higher", 0},
	{"directory.scans_per_op", "count", "lower", 0},
	{"core.commit_ms", "ms", "lower", 0},
	{"core.fetch_at_ms", "ms", "lower", 0},
	{"txn.group_size_mean", "count", "higher", 0},
	{"txn.fastpath_share", "ratio", "higher", 0},
	{"txn.validate_ns_mean", "ns", "lower", 0},
	{"txn.gather_spins_mean", "count", "lower", 0},
	{"txn.abort_share", "ratio", "lower", 0},
	{"store.apply_ns_mean", "ns", "lower", 0},
	{"store.syncs_per_commit", "count", "lower", 0},
	{"store.track_writes_per_commit", "count", "lower", 0},
	{"store.bytes_written_per_commit", "B", "lower", 0},
	{"store.write_amp", "ratio", "lower", 0},
	{"store.track_reads_per_op", "count", "lower", 0},
	{"store.cache_hit_share", "ratio", "higher", 0},
	{"store.slab_grows", "count", "lower", 0},
	{"store.encode_ms", "ms", "lower", 0},
	{"store.db_bytes", "B", "lower", 0},
	{"process.alloc_kb_per_op", "KiB", "lower", 0},
	{"process.allocs_per_op", "count", "lower", 0},
	{"process.gc_pause_ms_total", "ms", "lower", 0},
	{"process.rss_mb_peak", "MiB", "lower", 0},
	{"trace.overhead_share", "ratio", "lower", 0},
	// The wire rung's raw counts: one client, a fixed op count, so they
	// repeat exactly for one seed. These are the counts a later change may
	// cite (choosing-metrics §8); repeat.sh fails if two runs differ.
	{"count.txn_commits", "count", "lower", 0},
	{"count.store_applies", "count", "lower", 0},
	{"count.store_track_writes", "count", "lower", 0},
	{"count.store_bytes_written", "B", "lower", 0},
	{"count.query_cursor_members", "count", "lower", 0},
	{"count.directory_lookups", "count", "lower", 0},
	{"count.wire_frames", "count", "lower", 0},
}

// report builds a result's metrics from measured values, one per def.
func report(defs []metricDef, vals map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metric{v, d.unit}
	}
	if len(vals) != len(defs) {
		return nil, fmt.Errorf("%d values measured, %d metrics declared", len(vals), len(defs))
	}
	return out, nil
}
