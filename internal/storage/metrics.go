package storage

import "rain/internal/telemetry"

// backendMetrics are the registry series a Backend reports into. Gauges are
// maintained as deltas, so several backends sharing one scope (package
// default) aggregate naturally while per-node scopes stay exact.
type backendMetrics struct {
	objects       *telemetry.Gauge
	bytes         *telemetry.Gauge
	stagedBytes   *telemetry.Gauge
	quarantined   *telemetry.Gauge
	reads         *telemetry.Counter
	writes        *telemetry.Counter
	deletes       *telemetry.Counter
	commits       *telemetry.Counter
	corruptions   *telemetry.Counter
	commitLatency *telemetry.Histogram
	stageAborts   *telemetry.Counter
	filesCreated  *telemetry.Counter
}

func newBackendMetrics(scope *telemetry.Scope) *backendMetrics {
	if scope == nil {
		scope = telemetry.Default().Root()
	}
	return &backendMetrics{
		objects:       scope.Gauge("storage.backend.objects", "shards held"),
		bytes:         scope.Gauge("storage.backend.bytes", "shard bytes held"),
		stagedBytes:   scope.Gauge("storage.backend.staged_bytes", "bytes in uncommitted stages"),
		quarantined:   scope.Gauge("storage.backend.quarantined", "corrupt shards sidelined awaiting repair"),
		reads:         scope.Counter("storage.backend.reads", "shard reads (whole or ranged-from-zero)"),
		writes:        scope.Counter("storage.backend.writes", "shard writes (puts + commits)"),
		deletes:       scope.Counter("storage.backend.deletes", "shard deletes"),
		commits:       scope.Counter("storage.backend.commits", "staged writes published"),
		corruptions:   scope.Counter("storage.backend.corruptions", "checksum verifications failed (shard quarantined)"),
		commitLatency: scope.Histogram("storage.backend.commit_latency_ns", "wall time of stage commits"),
		stageAborts:   scope.Counter("storage.backend.stage_aborts", "stages discarded before commit"),
		filesCreated:  scope.Counter("storage.files_created", "files the backend created (log segments and their sidecars)"),
	}
}
