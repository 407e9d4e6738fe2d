package main

import (
	"fmt"
	"sort"
	"strings"
)

// metricSpec declares one reported metric. BENCHMARK.json at the
// repository root lists the same names, units and directions (a test
// keeps the two in step); bounds live only there.
type metricSpec struct {
	Name, Unit, Better string
}

// e2eMetrics are printed by every untraced run, on every workload.
var e2eMetrics = []metricSpec{
	{"setup_s", "s", "lower"},
	{"cpu_ns_per_item", "ns", "lower"},
	{"ok_frac", "ratio", "higher"},
	{"point_fpr", "ratio", "lower"},
	{"range_fpr", "ratio", "lower"},
	{"rss_mb", "MiB", "lower"},
	{"recovery_s", "s", "lower"},
	{"catchup_s", "s", "lower"},
}

// layerMetrics are printed by every traced run, on every workload. The
// open-loop latencies and the closed-loop throughput lead the list: they
// are end-to-end figures, but on a shared two-CPU host a stretch in which
// the hypervisor steals a third of the CPUs multiplies the p50s several
// times over, and fsync speed moves durable-mix's throughput by a quarter
// from run to run, so they are reported without a bound.
var layerMetrics = []metricSpec{
	{"read_p50_ms", "ms", "lower"},
	{"range_p50_ms", "ms", "lower"},
	{"write_p50_ms", "ms", "lower"},
	{"keys_per_s", "1/s", "higher"},
	{"read_p99_ms", "ms", "lower"},
	{"range_p99_ms", "ms", "lower"},
	{"write_p99_ms", "ms", "lower"},
	{"core.point_ns_per_key", "ns", "lower"},
	{"core.range_ns_per_range", "ns", "lower"},
	{"core.insert_ns_per_key", "ns", "lower"},
	{"wire.decode_ns_per_key", "ns", "lower"},
	{"wire.encode_ns_per_key", "ns", "lower"},
	{"server.sharded_point_ns_per_item", "ns", "lower"},
	{"server.sharded_range_ns_per_item", "ns", "lower"},
	{"server.sharded_insert_ns_per_item", "ns", "lower"},
	{"server.phase.decode_us", "us", "lower"},
	{"server.phase.admission-wait_us", "us", "lower"},
	{"server.phase.shard-dispatch_us", "us", "lower"},
	{"server.phase.probe_us", "us", "lower"},
	{"server.phase.wal-append_us", "us", "lower"},
	{"server.phase.wal-fsync_us", "us", "lower"},
	{"server.phase.encode_us", "us", "lower"},
	{"server.phase.unattributed_us", "us", "lower"},
	{"server.admission_rejected", "count", "lower"},
	{"server.vmhwm_mb", "MiB", "lower"},
	{"http.overhead_us", "us", "lower"},
	{"http.roundtrip_us", "us", "lower"},
	{"client.queue_us", "us", "lower"},
	{"client.build_us", "us", "lower"},
	{"client.verify_us", "us", "lower"},
	{"gen.late_p99_ms", "ms", "lower"},
	{"trace.client_service_us", "us", "lower"},
	{"trace.server_total_us", "us", "lower"},
	{"trace.reconcile_ratio", "ratio", "higher"},
	{"trace.overhead_us", "us", "lower"},
	{"trace.record_us", "us", "lower"},
	{"wal.append_us_p50", "us", "lower"},
	{"wal.append_us_p99", "us", "lower"},
	{"wal.fsync_us_p50", "us", "lower"},
	{"wal.fsync_us_p99", "us", "lower"},
	{"wal.records_per_commit", "records", "higher"},
	{"wal.bytes_per_key", "B", "lower"},
	{"store.snapshot_s", "s", "lower"},
	{"store.snapshot_mb_per_s", "MB/s", "higher"},
	{"store.snapshot_reused_shards", "count", "higher"},
	{"store.stall_write_p99_ms", "ms", "lower"},
	{"store.restore_s", "s", "lower"},
	{"store.replay_records_per_s", "1/s", "higher"},
	{"repl.bootstrap_s", "s", "lower"},
	{"repl.apply_records_per_s", "1/s", "higher"},
}

// checkMetrics fails when a run produced a different metric set, or other
// units, than the declared one: a result line must carry every declared
// metric and nothing else.
func checkMetrics(got map[string]metric, want []metricSpec) error {
	var problems []string
	seen := map[string]bool{}
	for _, m := range want {
		seen[m.Name] = true
		g, ok := got[m.Name]
		switch {
		case !ok:
			problems = append(problems, "missing "+m.Name)
		case g.Unit != m.Unit:
			problems = append(problems, fmt.Sprintf("%s in %s, declared %s", m.Name, g.Unit, m.Unit))
		}
	}
	for name := range got {
		if !seen[name] {
			problems = append(problems, "undeclared "+name)
		}
	}
	if len(problems) == 0 {
		return nil
	}
	sort.Strings(problems)
	return fmt.Errorf("metric set differs from the declaration: %s", strings.Join(problems, ", "))
}
