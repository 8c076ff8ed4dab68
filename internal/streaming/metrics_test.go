package streaming

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/vectors"
)

// sample returns the current value of name in the registry snapshot, where
// want is a label subset to match, or -1 when absent.
func sample(reg *obs.Registry, name string, want map[string]string) float64 {
	for _, s := range reg.Snapshot() {
		if s.Name != name {
			continue
		}
		match := true
		for k, v := range want {
			if s.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return s.Value
		}
	}
	return -1
}

// TestEngineMetricsMoveUnderReplay replays a small stream and checks every
// engine instrument registers and tracks the work: apply counters count
// records and batches, the latency histogram accumulates observations, and
// the live gauges agree with the engine's own snapshots.
func TestEngineMetricsMoveUnderReplay(t *testing.T) {
	reg := obs.NewRegistry()
	eng := New(Config{Registry: reg, AMIRefreshEvery: -1})
	defer eng.Close()

	const users, perUser = 10, 3
	var batches int
	for u := 0; u < users; u++ {
		recs := make([]storage.Record, 0, perUser)
		for i := 0; i < perUser; i++ {
			recs = append(recs, storage.Record{
				UserID: fmt.Sprintf("u%02d", u),
				Vector: vectors.DC.String(),
				Hash:   fmt.Sprintf("%04x", u), // stable per user
			})
		}
		eng.Apply(recs)
		batches++
	}

	if got := sample(reg, "streaming_records_applied_total", nil); got != users*perUser {
		t.Errorf("records_applied_total = %v, want %d", got, users*perUser)
	}
	if got := sample(reg, "streaming_batches_applied_total", nil); got != float64(batches) {
		t.Errorf("batches_applied_total = %v, want %d", got, batches)
	}
	if got := sample(reg, "streaming_apply_seconds_count", nil); got != float64(batches) {
		t.Errorf("apply_seconds histogram count = %v, want %d", got, batches)
	}
	if got := sample(reg, "streaming_users", nil); got != users {
		t.Errorf("streaming_users gauge = %v, want %d", got, users)
	}
	// Ten users with distinct stable hashes: ten DC clusters, and the
	// per-vector gauge must agree with the cluster snapshot.
	var snapDC ClusterRow
	for _, row := range eng.Clusters().Rows {
		if row.Vector == vectors.DC.String() {
			snapDC = row
		}
	}
	if got := sample(reg, "streaming_clusters",
		map[string]string{"vector": vectors.DC.String()}); got != float64(snapDC.Clusters) {
		t.Errorf("streaming_clusters{DC} gauge = %v, snapshot says %d", got, snapDC.Clusters)
	}
	if snapDC.Clusters != users {
		t.Errorf("DC clusters = %d, want %d", snapDC.Clusters, users)
	}
	// Queue drained by Apply's synchronous round trip.
	if got := sample(reg, "streaming_queue_depth", nil); got != 0 {
		t.Errorf("streaming_queue_depth = %v, want 0", got)
	}
	if got := sample(reg, "streaming_queue_full_waits_total", nil); got != 0 {
		t.Errorf("queue_full_waits_total = %v, want 0 for a synchronous replay", got)
	}
}

// TestQueueBackpressureCounted wedges a one-slot queue and checks the
// engine counts the enqueue that had to wait.
func TestQueueBackpressureCounted(t *testing.T) {
	reg := obs.NewRegistry()
	eng := New(Config{Registry: reg, QueueDepth: 1, AMIRefreshEvery: -1})
	defer eng.Close()

	// Flood faster than the applier can drain; with a single-batch queue
	// at least one of these enqueues must block and be counted.
	for i := 0; i < 200; i++ {
		eng.EnqueueContext(context.Background(), []storage.Record{{
			UserID: fmt.Sprintf("u%03d", i),
			Vector: vectors.DC.String(),
			Hash:   fmt.Sprintf("%06x", i),
		}})
	}
	if err := eng.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := sample(reg, "streaming_records_applied_total", nil); got != 200 {
		t.Errorf("records_applied_total = %v, want 200", got)
	}
	if got := sample(reg, "streaming_queue_full_waits_total", nil); got < 1 {
		t.Errorf("queue_full_waits_total = %v, want >= 1 under a one-slot queue flood", got)
	}
}
