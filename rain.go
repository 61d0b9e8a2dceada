// Package rain is a Go implementation of the RAIN system — "Computing in
// the RAIN: A Reliable Array of Independent Nodes" (Bohossian, Fan,
// LeMahieu, Riedel, Xu, Bruck; IPPS 2000 / IEEE TPDS Feb 2001): reliable
// distributed computing and storage from inexpensive off-the-shelf
// components, with no single point of failure.
//
// The library provides the paper's three building blocks and the systems
// built on them:
//
//   - Communication: fault-tolerant interconnect topology analysis
//     (internal/topology), the consistent-history link-state protocol
//     (internal/linkstate), the RUDP reliable datagram layer with bundled
//     interfaces (internal/rudp) and an MPI-style API (internal/mpi).
//
//   - Fault management: token-ring group membership with the 911 mechanism
//     (internal/membership), whose view also names the leader: its
//     smallest name.
//
//   - Storage: the B-Code, X-Code and EVENODD MDS array codes plus
//     Reed-Solomon and RAID baselines (internal/ecc), the node-local shard
//     backends and selection policies (internal/storage), and the one
//     distributed store, running store/retrieve/rebuild as chunked messages
//     over the RUDP mesh (internal/dstore).
//
//   - Applications: RAINVideo (internal/video) and RAINCheck distributed
//     checkpointing (internal/checkpoint), both running on a Cluster — its
//     store, membership-derived leader, messaging and fault injection; the SNOW web cluster
//     (internal/snow) and the Rainwall firewall cluster
//     (internal/rainwall).
//
// This package is the facade: erasure codes for standalone use, and the one
// RAIN stack on its two transports — Node is one node of a deployed cluster
// on UDP sockets, Cluster is N of that same node on the simulated network.
// Both run one per-node assembly (internal/core): the same engines, drivers,
// self-heal controller and scrub pacer. DESIGN.md
// documents the layer diagram, the dstore wire protocol, and the mapping
// from benchmarks to the paper's tables and figures.
package rain

import (
	"io"
	"net/http"

	"rain/internal/core"
	"rain/internal/dstore"
	"rain/internal/ecc"
	"rain/internal/gateway"
	"rain/internal/placement"
	"rain/internal/storage"
)

// Code is an (n, k) erasure code: Encode produces n shards of which any k
// reconstruct the data. All implementations are safe for concurrent use.
// Encode may return data shards that alias the input buffer; callers that
// mutate the input afterwards must copy first (see ecc.Code).
type Code = ecc.Code

// NewBCode returns the (n, n-2) B-Code of §4.1/Table 1: an MDS array code
// with XOR-only encode/decode and optimal update complexity. n must be even
// with n+1 prime.
func NewBCode(n int) (Code, error) { return ecc.NewBCode(n) }

// NewXCode returns the (n, n-2) X-Code for prime n: diagonal-parity MDS
// array code with optimal encoding complexity.
func NewXCode(n int) (Code, error) { return ecc.NewXCode(n) }

// NewEvenOdd returns the (p+2, p) EVENODD code for prime p, the classic
// double-erasure array code the paper's codes improve upon.
func NewEvenOdd(p int) (Code, error) { return ecc.NewEvenOdd(p) }

// NewReedSolomon returns a systematic (n, k) Reed-Solomon code over
// GF(2^8), the general MDS baseline. Encode and reconstruct run on the
// fused slice kernels of internal/gf (with a RAID-6-style P+Q fast path
// when n-k <= 2) and fan out across goroutines for large blocks.
func NewReedSolomon(n, k int) (Code, error) { return ecc.NewReedSolomon(n, k) }

// NewMirror returns r-way replication (n = r, k = 1), the traditional RAID
// baseline.
func NewMirror(r int) (Code, error) { return ecc.NewMirror(r) }

// NewSingleParity returns the (k+1, k) XOR-parity code, the other
// traditional RAID baseline.
func NewSingleParity(k int) (Code, error) { return ecc.NewSingleParity(k) }

// EncodeReader encodes an io.Reader through a Code one block at a time, so
// multi-GiB objects encode with memory bounded by blockSize: fn receives
// every block's n shards in order. See ecc.StreamEncoder for the iterator
// form. Block b's shard i is the b-th piece of shard stream i — the
// block-codeword layout DecodeStreams and RebuildStream consume, documented
// in DESIGN.md.
func EncodeReader(code Code, r io.Reader, blockSize int, fn func(block int, shards [][]byte, dataLen int) error) error {
	return ecc.EncodeReader(code, r, blockSize, fn)
}

// DecodeStreams reconstructs an object of dataLen bytes from any k of its
// shard streams (nil entries mark missing shards), writing decoded data to
// w one block codeword at a time: memory stays bounded by the block size
// regardless of object size. It returns the number of bytes written. See
// ecc.StreamDecoder for the push-style form the networked store drives.
func DecodeStreams(code Code, w io.Writer, readers []io.Reader, dataLen int64, blockSize int) (int64, error) {
	return ecc.DecodeStreams(code, w, readers, dataLen, blockSize)
}

// RebuildStream regenerates shard stream target from k survivor streams,
// writing it to w block by block — the hot-swap repair operation of §4.2 as
// a bounded-memory stream. The target entry of readers must be nil. It
// returns the number of shard bytes written.
func RebuildStream(code Code, target int, w io.Writer, readers []io.Reader, dataLen int64, blockSize int) (int64, error) {
	return ecc.RebuildStream(code, target, w, readers, dataLen, blockSize)
}

// Cluster is a full RAIN deployment: a simulated set of nodes with bundled
// network interfaces, each running what a deployed Node runs — membership
// ring (whose smallest name leads), RUDP communication, erasure-coded
// storage and the self-heal controller — with fault injection for every
// layer. Put, Get, ReplaceNode and Rebalance are distributed operations
// whose shard traffic crosses the simulated network as dstore protocol
// messages; PutStream and GetStream are their bounded-memory forms, moving
// one block codeword at a time so the cluster serves objects far larger than
// any node's RAM (set ClusterOptions.StorageDir to also keep stored shards
// on disk).
//
// Each object's n shard holders are chosen by rendezvous placement over the
// whole cluster (see Placement), so the cluster may be wider than the code:
// pass a ClusterOptions.Code with N below the node count and many objects
// spread over all nodes. One reconciliation pass, pipelining several objects
// under ClusterOptions.RebuildBudget, is the one repair path, and the
// leader's controller is its one driver. It runs the pass when the
// membership view settles (a paused node's missed writes are rebuilt when
// it resumes), when a holder quarantines a corrupt shard (the scrub or a
// read found it), and when a caller asks: Rebalance is that request, and
// ReplaceNode wipes and revives a node and makes it, the pass's delta being
// that node's shards. See internal/core.
type Cluster = core.Platform

// Placement returns the ordered n-node assignment rendezvous hashing gives
// an object over a node universe: Placement(id, nodes, n)[i] is the node
// that holds shard i. Deterministic in (id, set-of-nodes, n); a single node
// join or leave moves only ~1/(m-n) of all shard placements (tending to the
// ideal 1/m as the cluster grows past the code width), which is what makes
// rebalancing traffic proportional to membership churn rather than to
// cluster size.
func Placement(id string, nodes []string, n int) []string {
	return placement.Assign(id, nodes, n)
}

// ClusterOptions configures NewCluster.
type ClusterOptions = core.Options

// NewCluster builds and starts a RAIN cluster on the named nodes.
func NewCluster(nodes []string, opts ClusterOptions) (*Cluster, error) {
	return core.New(nodes, opts)
}

// Storage node-selection policies for retrieves (§4.2): any k of the n
// symbols suffice, so the client may pick the least-loaded or nearest nodes.
const (
	PolicyFirstK      = storage.FirstK
	PolicyLeastLoaded = storage.LeastLoaded
	PolicyNearest     = storage.Nearest
	PolicyRandom      = storage.RandomK
)

// Typed operation outcomes, shared by the simulated Cluster, the deployed
// Node and the gateway's HTTP status mapping (404/503/429/499):
var (
	// ErrNotFound: the object does not exist anywhere in the cluster.
	ErrNotFound = dstore.ErrNotFound
	// ErrQuorum: too few daemons answered to commit or decode.
	ErrQuorum = dstore.ErrQuorum
	// ErrOverloaded: the node shed the operation; retry later.
	ErrOverloaded = dstore.ErrOverloaded
	// ErrCanceled: the operation's context was cancelled mid-flight.
	ErrCanceled = dstore.ErrCanceled
)

// NodeConfig configures one deployed cluster process (see StartNode).
type NodeConfig = core.NodeConfig

// Node is one running process of a deployed cluster: the dial-by-address
// UDP mesh under the same per-node assembly a simulated Cluster runs N of —
// storage daemon, store client, membership, the self-heal controller
// (SelfHealStats and the selfheal.* counters report it) and the scrub pacer.
// Its context-taking methods (Put, Get, PutStream, Delete, List, Stat — the
// embedded dstore.Bridge, shared with the gateway) are goroutine-safe and
// abort shard fan-out when the context dies.
type Node = core.RealNode

// GatewayConfig tunes a node's HTTP object gateway.
type GatewayConfig = gateway.Config

// StartNode builds and starts one deployed cluster process over real UDP
// sockets. `rainnode serve` is this function behind flags.
func StartNode(cfg NodeConfig) (*Node, error) { return core.StartRealNode(cfg) }

// NewGateway mounts the S3-flavored HTTP object API (PUT/GET/HEAD/DELETE
// /o/{key}, paginated list, ranged and conditional reads, admission
// control) over a node's store client.
func NewGateway(n *Node, cfg GatewayConfig) http.Handler {
	return gateway.New(n.Call, n.Client, cfg)
}
