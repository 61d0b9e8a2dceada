// Package dstore is the distributed object store of §4.2 — the only one in
// the tree — run as an actual message protocol: the store/retrieve/rebuild
// operations cross the RUDP mesh as chunked datagrams, so every experiment
// and application exercises the real interleaving of erasure coding with a
// lossy, laggy, partitionable network.
//
// A RAIN node contributes a Daemon — a storage server loop registered as a
// mesh service, backed by the node-local storage.Backend — and may run a
// Client, the session layer that
//
//   - stores by encoding with any ecc.Code and fanning the n shard streams
//     out to the daemons in parallel, each transfer a windowed stream of
//     chunks sized under the datagram limit (a PutFeed — behind Put,
//     PutStream and the gateway alike — encodes one block codeword at a
//     time, gated on the slowest peer's acks);
//   - retrieves by ranking reachable daemons with the §4.2 selection
//     policies (least-loaded, nearest, random), racing credit-windowed
//     shard streams from a chosen k-subset, hedging to the remaining n-k
//     when peers stall, and decoding each block codeword the moment k
//     pieces of it assemble (GetStream writes data out as it decodes); and
//   - repairs through one reconciliation pass: each object's n shard
//     holders come from a rendezvous placement map over the node universe
//     (internal/placement), and Rebalance streams exactly the shards whose
//     target holder moved or went missing — after a membership change, a
//     node's replacement or a quarantined corruption — copying from a
//     current holder or reconstructing from k survivors block codeword by
//     block codeword, entirely over the mesh, several objects pipelined
//     under a memory budget with survivor read load spread across
//     k-subsets, and deleting stale copies only after their replacements
//     commit.
//
// # Bounded memory
//
// The streaming operations hold O(BlockSize × n) on the client — a put's
// feed buffers at most a block plus the offer in hand, a get's per-stream
// buffers are bounded by the flow-control window the client itself grants
// via GetAck credits — and the daemon never materialises a shard: put
// chunks append to a storage.Stage and get chunks are ranged reads. The
// enforced bound is the RAIN_SMOKE CI test (a 256 MiB object under a
// 128 MiB runtime memory limit). Whole-buffer Put/Get hold the object in
// client memory but write and read the same block layout. Every stored
// entry records the shard index it holds, the object length and the block
// length, and readers trust only those.
//
// Liveness comes from the membership layer (a view callback), not from
// poking failure flags on server objects: a crashed node is one the
// membership protocol has excised, and the client's hedging covers the
// detection gap. Transfer state abandoned by crashed clients is reclaimed
// by the owner-driven Daemon.SweepOrphans.
package dstore

import "rain/internal/netbuf"

// Service names on the RUDP mesh. Daemons listen on ServiceDaemon; clients
// listen for responses on ServiceClient. A node may run both.
const (
	ServiceDaemon = "dstore"
	ServiceClient = "dstore.client"
)

// Mesh is the transport the store runs over: per-service registration and
// addressed sends. *rudp.Endpoint (one node, on UDP sockets or the simulator)
// and *rudp.Mesh (a simulated cluster: N endpoints) implement it.
//
// Handler payloads are borrowed: they may alias a pooled transport buffer
// and are valid only until the handler returns. SendFrame consumes the
// caller's frame reference (the zero-copy SendService); the frame must leave
// netbuf.Headroom room for the transport's service and wire headers.
type Mesh interface {
	Handle(node, service string, fn func(from string, payload []byte))
	SendService(from, to, service string, payload []byte)
	SendFrame(from, to, service string, f *netbuf.Frame)
}
