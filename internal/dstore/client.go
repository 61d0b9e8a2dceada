package dstore

import (
	"errors"
	"fmt"
	"io"
	"time"

	"rain/internal/ecc"
	"rain/internal/placement"
	"rain/internal/sim"
	"rain/internal/storage"
	"rain/internal/telemetry"
)

// Defaults for the client session layer.
const (
	// DefaultChunkSize keeps every chunk comfortably under datagram limits.
	DefaultChunkSize = 32 << 10
	// DefaultWindow bounds un-acked chunks in flight per peer transfer.
	DefaultWindow = 4
	// DefaultBlockSize is the block-codeword size every put writes: the
	// unit of independent decode, and the granularity at which retrieves
	// and rebuilds bound their memory. It is k × DefaultChunkSize for the
	// k = 4 codes the product runs (RS(6,4), B-Code(6)), so each block's
	// shard piece fills one put datagram (withDefaults trims it to whole
	// cells for an array code).
	DefaultBlockSize = 4 * DefaultChunkSize
	// DefaultReqTimeout is how long a request may stall before the client
	// gives up on the peer (and, on retrieves, hedges to another).
	DefaultReqTimeout = 500 * time.Millisecond
	// DefaultOpTimeout bounds one whole store/retrieve/rebuild operation.
	DefaultOpTimeout = 15 * time.Second
	// DefaultRebuildBudget bounds the memory of concurrent rebuild and
	// rebalance: objects are pipelined while the sum of their block-buffer
	// costs (block × n each) stays under this many bytes.
	DefaultRebuildBudget = 8 << 20
)

// Errors returned by the client.
var (
	// ErrNotEnoughDaemons reports fewer than k shards stored or retrieved.
	ErrNotEnoughDaemons = errors.New("dstore: quorum not reached")
	// ErrUnknownSize reports a retrieve or rebuild whose first chunk or
	// inventory entry carried no usable layout — a negative object length or
	// a block length below one. Every stored entry records both.
	ErrUnknownSize = errors.New("dstore: object size unknown")
	// ErrTimeout reports an operation that hit its deadline.
	ErrTimeout = errors.New("dstore: operation deadline exceeded")
	// ErrShortSource reports a streaming put whose reader ended before the
	// declared object length.
	ErrShortSource = errors.New("dstore: source ended before declared length")
	// ErrLongSource reports a streaming put whose reader kept delivering
	// past the declared object length.
	ErrLongSource = errors.New("dstore: source longer than declared length")
	// ErrYielded reports a reconciliation pass that stopped early because
	// the rebalance gate closed — the driving node resigned its coordinator
	// role mid-pass. Completed moves stand (they are delta-exact); the new
	// coordinator's pass re-derives the remaining work and re-driving done
	// moves is a no-op.
	ErrYielded = errors.New("dstore: rebalance pass yielded")
)

// Config parameterises a Client. Zero fields take the defaults above.
type Config struct {
	// Code is the erasure code.
	Code ecc.Code
	// Nodes is the cluster node universe (len >= Code.N()): each object's n
	// shard holders are chosen from it by per-object rendezvous hashing
	// (internal/placement), so many objects spread over an arbitrarily wide
	// cluster. SetNodes updates the view on membership change; Rebalance
	// streams the shards whose target holder moved.
	Nodes []string
	// Weights maps node -> relative capacity weight for placement (missing
	// or non-positive means 1); see placement.AssignSpec.
	Weights map[string]float64
	// Domains maps node -> failure-domain label (a rack). With enough
	// domains in the universe, no two shards of an object land in one
	// domain, so a correlated rack loss costs at most one shard per object.
	Domains map[string]string
	// Policy ranks daemons for retrieves (§4.2 selection freedom).
	Policy storage.Policy
	// Alive reports whether a peer is currently believed reachable —
	// typically the membership layer's view. nil means always alive; the
	// hedging machinery covers stale answers either way.
	Alive func(peer string) bool
	// Distance is the abstract cost to a peer for the Nearest policy. nil
	// falls back to shard-index order.
	Distance func(peer string) int
	// ChunkSize bounds the bytes per datagram on shard transfers.
	ChunkSize int
	// Window bounds un-acked chunks in flight per peer transfer, both
	// directions: put transfers stop sending and get streams stop being fed
	// by the daemon when the window is full.
	Window int
	// BlockSize is the block-codeword size every put writes. Zero means
	// DefaultBlockSize, trimmed to a multiple of the code's cell count.
	BlockSize int
	// RebuildBudget bounds concurrent rebuild/rebalance memory in bytes:
	// objects are pipelined while the sum of their block × n buffer costs
	// stays under it. At most one object is always admitted.
	RebuildBudget int64
	// ReqTimeout and OpTimeout are the stall and operation deadlines.
	ReqTimeout, OpTimeout time.Duration
	// Telemetry routes the client's metrics into a specific registry (the
	// platform's, under the simulator). nil means the process default.
	Telemetry *telemetry.Registry
	// Tracer records per-operation span traces. nil disables tracing.
	Tracer *telemetry.Tracer
}

func (c Config) withDefaults() Config {
	if c.ChunkSize <= 0 {
		c.ChunkSize = DefaultChunkSize
	}
	if c.Window <= 0 {
		c.Window = DefaultWindow
	}
	if c.BlockSize <= 0 {
		c.BlockSize = DefaultBlockSize
		// An array code rounds a block up to whole cells (B-Code(6) cuts
		// 128 KiB into 12 cells of 10,923 bytes, a 32,769-byte piece that
		// spills a 1-byte chunk): step down to a cell multiple, whose piece
		// fits the chunk again.
		for c.Code != nil && c.Code.K()*c.Code.ShardSize(c.BlockSize) > c.BlockSize {
			c.BlockSize--
		}
	}
	if c.RebuildBudget <= 0 {
		c.RebuildBudget = DefaultRebuildBudget
	}
	if c.ReqTimeout <= 0 {
		c.ReqTimeout = DefaultReqTimeout
	}
	if c.OpTimeout <= 0 {
		c.OpTimeout = DefaultOpTimeout
	}
	return c
}

// Client is the store/retrieve/rebuild session layer running on one mesh
// node. All operations are asynchronous state machines driven by the
// simulator's scheduler: requests carry ids, responses are demultiplexed to
// per-request handlers, stalled peers time out, and retrieves hedge to spare
// daemons. The streaming operations (PutStream, GetStream, a rebalance's
// rebuilds) move one block codeword at a time, so client memory stays
// bounded by O(BlockSize × n) regardless of object size. The blocking
// wrappers (Put/Get/Rebalance/...) pump the scheduler and must only be
// called from outside scheduler callbacks.
type Client struct {
	s    *sim.Scheduler
	mesh Mesh
	node string
	cfg  Config

	// nodes is the current placement universe; SetNodes swaps it on
	// membership change. specs mirrors nodes with the configured weights
	// and domains attached; it is non-nil only when the config actually
	// sets either, so unconfigured clusters keep the exact unweighted
	// Assign path.
	nodes []string
	specs []placement.Spec

	// rebalGate, when set, is consulted before each reconciliation task: a
	// false return yields the pass with ErrYielded. The self-healing
	// controller points it at "still leader, view still serviceable" so a
	// deposed coordinator stops driving moves mid-pass.
	rebalGate func() bool

	nextReq uint64
	pending map[uint64]func(m Msg)
	loads   map[string]int // per-peer requests issued, for LeastLoaded

	// streamBufs recycles shard-stream receive windows across get operations.
	streamBufs [][]byte
	// resultBufs recycles whole-object assembly buffers across GetAsync
	// calls; the caller gets a copy, so the assembly area never escapes.
	resultBufs [][]byte
	// pipes recycles put-feed pipes across puts (getPipe/putPipe).
	pipes [][]byte
	// encBufs is the put side's shard scratch, one block codeword's shards
	// reused by every feed; encShards are the per-block views into it.
	encBufs, encShards [][]byte
	// decScratch is where every get and rebuild stream of this client
	// reconstructs a block: the loop runs one NextBlock at a time.
	decScratch ecc.Scratch

	// taskHighWater is the peak budgeted cost admitted by concurrent
	// rebuild/rebalance pipelines — the enforced memory bound, for tests.
	taskHighWater int64

	met    *clientMetrics
	tracer *telemetry.Tracer
}

// NewClient registers a client session on the mesh node.
func NewClient(s *sim.Scheduler, mesh Mesh, node string, cfg Config) (*Client, error) {
	cfg = cfg.withDefaults()
	if cfg.Code == nil {
		return nil, errors.New("dstore: config needs a code")
	}
	if len(cfg.Nodes) < cfg.Code.N() {
		return nil, fmt.Errorf("dstore: %d nodes for an n=%d code", len(cfg.Nodes), cfg.Code.N())
	}
	c := &Client{
		s:       s,
		mesh:    mesh,
		node:    node,
		cfg:     cfg,
		nodes:   append([]string(nil), cfg.Nodes...),
		pending: make(map[uint64]func(Msg)),
		loads:   make(map[string]int),
		tracer:  cfg.Tracer,
	}
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.Default()
	}
	c.rebuildSpecs()
	c.met = newClientMetrics(reg.Node(node))
	mesh.Handle(node, ServiceClient, c.onMessage)
	return c, nil
}

// rebuildSpecs refreshes the weighted placement specs from the current node
// universe; a no-op unless the config sets weights or domains.
func (c *Client) rebuildSpecs() {
	if len(c.cfg.Weights) == 0 && len(c.cfg.Domains) == 0 {
		return
	}
	c.specs = c.specs[:0]
	for _, node := range c.nodes {
		c.specs = append(c.specs, placement.Spec{
			Node:   node,
			Weight: c.cfg.Weights[node],
			Domain: c.cfg.Domains[node],
		})
	}
}

// nowNS is the client's clock as trace/histogram nanoseconds — virtual under
// the simulator, wall over real sockets.
func (c *Client) nowNS() int64 { return int64(c.s.Now()) }

// trace opens a span trace for one operation (nil when tracing is off).
func (c *Client) trace(op, id string) *telemetry.Trace {
	return c.tracer.Start(op, c.node, id, c.nowNS())
}

// Node returns the mesh node the client runs on.
func (c *Client) Node() string { return c.node }

// BlockSize returns the streaming block-codeword size in effect — what the
// gateway records in object metadata so later ranged reads can aim their
// shard streams at the right block.
func (c *Client) BlockSize() int { return c.cfg.BlockSize }

// Code returns the erasure code in effect.
func (c *Client) Code() ecc.Code { return c.cfg.Code }

// Universe returns the node set placements are computed over.
func (c *Client) Universe() []string { return append([]string(nil), c.nodes...) }

// SetNodes replaces the placement universe — the client's copy of the
// membership view. It only changes where *future* operations look for
// shards; call Rebalance to move stored shards onto their new targets.
func (c *Client) SetNodes(nodes []string) error {
	if len(nodes) < c.cfg.Code.N() {
		return fmt.Errorf("dstore: %d nodes for an n=%d code", len(nodes), c.cfg.Code.N())
	}
	c.nodes = append(c.nodes[:0], nodes...)
	c.rebuildSpecs()
	return nil
}

// SetRebalanceGate installs the predicate RebalanceAsync consults before
// each reconciliation task; nil (the default) keeps the gate always open.
// See ErrYielded.
func (c *Client) SetRebalanceGate(gate func() bool) { c.rebalGate = gate }

// gateOpen reports whether reconciliation may keep driving moves.
func (c *Client) gateOpen() bool { return c.rebalGate == nil || c.rebalGate() }

// peersFor returns the object's shard holders in shard order: the rendezvous
// placement over the node universe (weighted and domain-constrained when the
// config says so).
func (c *Client) peersFor(id string) []string {
	if len(c.specs) > 0 {
		return placement.AssignSpec(id, c.specs, c.cfg.Code.N())
	}
	return placement.Assign(id, c.nodes, c.cfg.Code.N())
}

// PendingRequests reports requests with registered response handlers —
// zero once every operation has fully resolved (a leak check).
func (c *Client) PendingRequests() int { return len(c.pending) }

// Loads returns a copy of the per-peer request counters the LeastLoaded
// policy balances on.
func (c *Client) Loads() map[string]int {
	out := make(map[string]int, len(c.loads))
	for k, v := range c.loads {
		out[k] = v
	}
	return out
}

func (c *Client) onMessage(from string, payload []byte) {
	m, err := Unmarshal(payload)
	if err != nil {
		return
	}
	if h := c.pending[m.Req]; h != nil {
		h(m)
	}
}

func (c *Client) alive(peer string) bool {
	return c.cfg.Alive == nil || c.cfg.Alive(peer)
}

func (c *Client) distance(peer string, i int) int {
	if c.cfg.Distance != nil {
		return c.cfg.Distance(peer)
	}
	return i
}

// rank orders the shard indices of currently-alive holders by retrieval
// preference, excluding any in skip. peers is the object's placement (shard
// i on peers[i]); empty entries mark unknown holders.
func (c *Client) rank(peers []string, skip map[int]bool) []int {
	var cands []storage.Candidate
	for i, peer := range peers {
		if peer == "" || skip[i] || !c.alive(peer) {
			continue
		}
		cands = append(cands, storage.Candidate{Idx: i, Load: c.loads[peer], Distance: c.distance(peer, i)})
	}
	return storage.Rank(c.cfg.Policy, cands, c.s.Rand())
}

func (c *Client) send(to string, m Msg) {
	c.mesh.SendFrame(c.node, to, ServiceDaemon, m.MarshalFrame())
}

// writerFunc adapts a function to io.Writer.
type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// ---- blocking wrappers ----

// drive pumps the scheduler until *done or the event queue drains. Only for
// use from outside scheduler callbacks.
func (c *Client) drive(done *bool) {
	for !*done && c.s.Step() {
	}
}

// Put stores an object from a buffer, blocking in virtual time until the
// operation resolves. It returns the number of shards stored.
func (c *Client) Put(id string, data []byte) (stored int, err error) {
	finished := false
	c.PutAsync(id, data, func(s int, e error) { stored, err, finished = s, e, true })
	c.drive(&finished)
	return stored, err
}

// PutStream stores an object from a reader through the block-codeword
// streaming layout, blocking in virtual time. Memory stays bounded by the
// block size times the shard count.
func (c *Client) PutStream(id string, r io.Reader, dataLen int64) (stored int, err error) {
	finished := false
	c.PutStreamAsync(id, r, dataLen, func(s int, e error) { stored, err, finished = s, e, true })
	c.drive(&finished)
	return stored, err
}

// Get retrieves an object into memory, blocking in virtual time.
func (c *Client) Get(id string) (data []byte, err error) {
	finished := false
	c.GetAsync(id, func(d []byte, e error) { data, err, finished = d, e, true })
	c.drive(&finished)
	return data, err
}

// GetStream retrieves an object into w block by block, blocking in virtual
// time. It returns the number of bytes written.
func (c *Client) GetStream(id string, w io.Writer) (n int64, err error) {
	finished := false
	c.GetStreamAsync(id, w, func(written int64, e error) { n, err, finished = written, e, true })
	c.drive(&finished)
	return n, err
}
