package dstore

import "rain/internal/telemetry"

// daemonMetrics are the registry series one storage daemon reports into,
// labeled by node.
type daemonMetrics struct {
	chunksStored *telemetry.Counter
	commits      *telemetry.Counter
	chunksServed *telemetry.Counter
	lists        *telemetry.Counter
	errors       *telemetry.Counter
	reaped       *telemetry.Counter
	assemblies   *telemetry.Gauge
	getSessions  *telemetry.Gauge

	// Background integrity scrub (ScrubStep): the latent-error detection
	// term of the MTTDL model.
	scrubBlocks      *telemetry.Counter
	scrubBytes       *telemetry.Counter
	scrubPasses      *telemetry.Counter
	scrubCorruptions *telemetry.Counter
}

func newDaemonMetrics(s *telemetry.Scope) *daemonMetrics {
	return &daemonMetrics{
		chunksStored: s.Counter("dstore.daemon.chunks_stored", "put chunks accepted"),
		commits:      s.Counter("dstore.daemon.commits", "shards committed to the backend"),
		chunksServed: s.Counter("dstore.daemon.chunks_served", "get chunks streamed out"),
		lists:        s.Counter("dstore.daemon.lists", "inventory pages answered"),
		errors:       s.Counter("dstore.daemon.errors", "error responses sent"),
		reaped:       s.Counter("dstore.daemon.reaped", "orphaned sessions swept"),
		assemblies:   s.Gauge("dstore.daemon.assemblies", "in-progress put transfers"),
		getSessions:  s.Gauge("dstore.daemon.get_sessions", "open windowed get streams"),

		scrubBlocks:      s.Counter("scrub.blocks_verified", "checksum blocks verified by the background scrub"),
		scrubBytes:       s.Counter("scrub.bytes_verified", "shard bytes verified by the background scrub"),
		scrubPasses:      s.Counter("scrub.passes", "complete scrub sweeps over the local shard set"),
		scrubCorruptions: s.Counter("scrub.corruptions_found", "corrupt shards detected (and quarantined) by the scrub"),
	}
}

// clientMetrics are the registry series one store client reports into,
// labeled by node. Latencies are in the client's clock — virtual nanoseconds
// under the simulator, wall nanoseconds over real sockets. The rebalance.*
// families cover every reconciliation pass, whatever triggered it (a view
// change, a hot swap or detected corruption); the per-pass gauges make a
// long rebalance visible while it runs instead of only through the done
// callback.
type clientMetrics struct {
	putLatency   *telemetry.Histogram
	getLatency   *telemetry.Histogram
	quorumWait   *telemetry.Histogram
	putBytes     *telemetry.Counter
	getBytes     *telemetry.Counter
	hedgesFired  *telemetry.Counter
	hedgesWon    *telemetry.Counter
	creditStalls *telemetry.Counter
	corruptNaks  *telemetry.Counter
	pipesFresh   *telemetry.Counter

	passes             *telemetry.Counter
	repairDuration     *telemetry.Histogram
	objectsTotal       *telemetry.Gauge
	objectsDone        *telemetry.Gauge
	bytesInFlight      *telemetry.Gauge
	shardsCopied       *telemetry.Counter
	shardsRebuilt      *telemetry.Counter
	shardsDeleted      *telemetry.Counter
	bytesCopied        *telemetry.Counter
	bytesReconstructed *telemetry.Counter
}

func newClientMetrics(s *telemetry.Scope) *clientMetrics {
	return &clientMetrics{
		putLatency:   s.Histogram("dstore.client.put_latency_ns", "successful put duration"),
		getLatency:   s.Histogram("dstore.client.get_latency_ns", "successful get duration"),
		quorumWait:   s.Histogram("dstore.client.quorum_wait_ns", "put start to k-th shard stored"),
		putBytes:     s.Counter("dstore.client.put_bytes", "object bytes stored"),
		getBytes:     s.Counter("dstore.client.get_bytes", "object bytes retrieved"),
		hedgesFired:  s.Counter("dstore.client.hedges_fired", "spare get streams opened on stall or error"),
		hedgesWon:    s.Counter("dstore.client.hedges_won", "hedged streams whose data fed a decode"),
		creditStalls: s.Counter("dstore.client.credit_stalls", "stream pauses waiting for flow-control credit"),
		corruptNaks:  s.Counter("dstore.client.corrupt_naks", "corruption NAKs received (shard treated as erased)"),
		pipesFresh:   s.Counter("dstore.put.pipes_fresh", "put-feed pipes allocated: the recycle list was empty or its pipe was outgrown"),

		passes:             s.Counter("rebalance.passes", "reconciliation passes started"),
		repairDuration:     s.Histogram("rebalance.repair_duration_ns", "per-object shard repair duration (the MTTDL numerator)"),
		objectsTotal:       s.Gauge("rebalance.objects_total", "objects in the current reconciliation pass"),
		objectsDone:        s.Gauge("rebalance.objects_done", "objects reconciled so far in the current pass"),
		bytesInFlight:      s.Gauge("rebalance.bytes_inflight", "shard bytes being moved or rebuilt right now"),
		shardsCopied:       s.Counter("rebalance.shards_copied", "shards moved holder-to-holder"),
		shardsRebuilt:      s.Counter("rebalance.shards_rebuilt", "shards reconstructed from survivors"),
		shardsDeleted:      s.Counter("rebalance.shards_deleted", "stale shards deleted after moves"),
		bytesCopied:        s.Counter("rebalance.bytes_copied", "shard bytes moved holder-to-holder"),
		bytesReconstructed: s.Counter("rebalance.bytes_reconstructed", "shard bytes rebuilt from survivors"),
	}
}
