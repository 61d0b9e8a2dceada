// Package storage implements the RAIN distributed store/retrieve operations
// of §4.2: a block of data is encoded with an (n, k) MDS code into n
// symbols, one stored per node; retrieval collects the symbols from any k
// nodes and decodes.
//
// The scheme's attractions, all reproduced here and exercised by experiment
// E16: reliability (survives up to n-k node failures), dynamic
// reconfigurability and hot swapping (failed nodes can be replaced and their
// symbols rebuilt from the surviving k), and load balancing through the
// freedom to pick which k nodes serve a read (least-loaded, geographically
// nearest, or random).
//
// The node-local state is a Backend: one shard per object id plus the
// recorded object length and block-codeword size (the dstore layout
// contract). Backends are memory-backed or file-backed (NewFileBackend) and
// support the bounded-memory transfer primitives the networked daemon
// streams through — staged chunk-by-chunk writes (NewStage/Append/Commit,
// atomic at commit) and ranged ReadAt reads — so a node's heap never scales
// with the size of what it stores or serves. Server and Store are the
// direct-call (no network) form of the same operations over private
// backends; Rank implements the selection policies shared with the networked
// client.
package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"rain/internal/ecc"
)

// Errors returned by the store.
var (
	// ErrObjectNotFound reports a retrieve of an unknown object.
	ErrObjectNotFound = errors.New("storage: object not found")
	// ErrNotEnoughReplicas reports fewer than k reachable symbols.
	ErrNotEnoughReplicas = errors.New("storage: fewer than k symbols reachable")
	// ErrServerDown reports an operation against a down server.
	ErrServerDown = errors.New("storage: server down")
)

// Server is a storage node frontend for direct in-process calls: a Backend
// holding one symbol per object, plus the fault-injection and
// instrumentation hooks the experiments need (down/up, request counters, a
// location for the geographic policy).
type Server struct {
	mu       sync.Mutex
	name     string
	distance int // abstract distance for the "geographically closest" policy
	down     bool
	backend  *Backend
}

// NewServer creates an empty storage server. distance is an abstract cost
// used by the Nearest selection policy (e.g. network hops).
func NewServer(name string, distance int) *Server {
	return &Server{name: name, distance: distance, backend: NewBackend()}
}

// Name returns the server's identity.
func (s *Server) Name() string { return s.name }

// SetDown injects or clears a failure.
func (s *Server) SetDown(down bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.down = down
}

// Down reports the injected failure state.
func (s *Server) Down() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.down
}

// Put stores the symbol for an object without recording which shard index
// it is (the positional layout: readers assume node i holds symbol i).
func (s *Server) Put(id string, shard []byte) error {
	return s.PutShard(id, shard, UnknownShard)
}

// PutShard stores the symbol for an object together with the shard index it
// represents — the placement-mapped layout, where a node may hold a
// different index per object.
func (s *Server) PutShard(id string, shard []byte, shardIdx int) error {
	if s.Down() {
		return fmt.Errorf("%w: %s", ErrServerDown, s.name)
	}
	return s.backend.Put(id, shard, shardIdx, UnknownSize, 0)
}

// Get fetches the symbol for an object.
func (s *Server) Get(id string) ([]byte, error) {
	shard, _, err := s.GetShard(id)
	return shard, err
}

// GetShard fetches the symbol for an object along with its recorded shard
// index (UnknownShard for positional entries).
func (s *Server) GetShard(id string) (shard []byte, shardIdx int, err error) {
	if s.Down() {
		return nil, UnknownShard, fmt.Errorf("%w: %s", ErrServerDown, s.name)
	}
	shard, _, err = s.backend.Get(id)
	if err != nil {
		return nil, UnknownShard, fmt.Errorf("%w on %s", err, s.name)
	}
	info, err := s.backend.Info(id)
	if err != nil {
		return nil, UnknownShard, fmt.Errorf("%w on %s", err, s.name)
	}
	return shard, info.Shard, nil
}

// Delete removes an object's symbol.
func (s *Server) Delete(id string) { s.backend.Delete(id) }

// Loads returns the cumulative read and write counts (the load-balancing
// experiments read these).
func (s *Server) Loads() (reads, writes int) { return s.backend.Loads() }

// Objects returns the number of symbols held.
func (s *Server) Objects() int { return s.backend.Objects() }

// Wipe discards all symbols (a replaced blank node).
func (s *Server) Wipe() { s.backend.Wipe() }

// Policy selects which k servers serve a retrieve.
type Policy int

// Selection policies of §4.2.
const (
	// FirstK picks the first k reachable servers in index order.
	FirstK Policy = iota
	// LeastLoaded picks the k reachable servers with the fewest reads
	// ("select the k nodes with the smallest load").
	LeastLoaded
	// Nearest picks the k reachable servers with the smallest distance
	// ("the k nodes that are geographically closest").
	Nearest
	// RandomK picks k reachable servers uniformly at random.
	RandomK
)

func (p Policy) String() string {
	switch p {
	case FirstK:
		return "firstk"
	case LeastLoaded:
		return "leastloaded"
	case Nearest:
		return "nearest"
	case RandomK:
		return "random"
	}
	return "unknown"
}

// Store is the client-side distributed store: an (n, k) code plus n servers.
type Store struct {
	code    ecc.Code
	servers []*Server
	policy  Policy
	rng     *rand.Rand

	mu    sync.Mutex
	sizes map[string]int // object id -> original length
}

// New builds a Store. The number of servers must equal the code's n.
func New(code ecc.Code, servers []*Server, policy Policy, seed int64) (*Store, error) {
	if len(servers) != code.N() {
		return nil, fmt.Errorf("storage: %d servers for an n=%d code", len(servers), code.N())
	}
	return &Store{
		code:    code,
		servers: servers,
		policy:  policy,
		rng:     rand.New(rand.NewSource(seed)),
		sizes:   make(map[string]int),
	}, nil
}

// Code returns the store's erasure code.
func (st *Store) Code() ecc.Code { return st.code }

// Servers returns the backing servers (index i holds symbol i).
func (st *Store) Servers() []*Server { return st.servers }

// Put encodes data and stores one symbol per node (the distributed store
// operation). It succeeds if at least k symbols were stored, returning the
// number stored; with fewer than k it returns ErrNotEnoughReplicas and
// removes any partial symbols.
func (st *Store) Put(id string, data []byte) (stored int, err error) {
	shards, err := st.code.Encode(data)
	if err != nil {
		return 0, err
	}
	var placed []int
	for i, shard := range shards {
		if err := st.servers[i].Put(id, shard); err == nil {
			placed = append(placed, i)
		}
	}
	if len(placed) < st.code.K() {
		for _, i := range placed {
			st.servers[i].Delete(id)
		}
		return len(placed), fmt.Errorf("%w: stored %d of required %d", ErrNotEnoughReplicas, len(placed), st.code.K())
	}
	st.mu.Lock()
	st.sizes[id] = len(data)
	st.mu.Unlock()
	return len(placed), nil
}

// Candidate is one reachable shard holder offered to Rank: its index in the
// code's shard order plus the policy inputs.
type Candidate struct {
	Idx      int
	Load     int // cumulative reads, for LeastLoaded
	Distance int // abstract distance, for Nearest
}

// Rank orders candidate indices by preference under the policy — the §4.2
// "any k of n" selection freedom, shared by the in-process Store and the
// networked dstore client. rng is consulted only by RandomK.
func Rank(p Policy, cands []Candidate, rng *rand.Rand) []int {
	type weighted struct {
		idx    int
		weight int
	}
	ws := make([]weighted, len(cands))
	for i, c := range cands {
		w := weighted{idx: c.Idx}
		switch p {
		case LeastLoaded:
			w.weight = c.Load
		case Nearest:
			w.weight = c.Distance
		case RandomK:
			w.weight = rng.Int()
		case FirstK:
			w.weight = c.Idx
		}
		ws[i] = w
	}
	sort.Slice(ws, func(a, b int) bool {
		if ws[a].weight != ws[b].weight {
			return ws[a].weight < ws[b].weight
		}
		return ws[a].idx < ws[b].idx
	})
	out := make([]int, len(ws))
	for i, w := range ws {
		out[i] = w.idx
	}
	return out
}

// selectServers orders reachable server indices according to the policy.
func (st *Store) selectServers() []int {
	var cands []Candidate
	for i, s := range st.servers {
		if s.Down() {
			continue
		}
		reads, _ := s.Loads()
		cands = append(cands, Candidate{Idx: i, Load: reads, Distance: s.distance})
	}
	return Rank(st.policy, cands, st.rng)
}

// Get retrieves and decodes an object from any k reachable symbols (the
// distributed retrieve operation). Servers that fail mid-read are skipped
// and further candidates tried.
func (st *Store) Get(id string) ([]byte, error) {
	st.mu.Lock()
	size, known := st.sizes[id]
	st.mu.Unlock()
	if !known {
		return nil, fmt.Errorf("%w: %s", ErrObjectNotFound, id)
	}
	shards := make([][]byte, st.code.N())
	have := 0
	for _, idx := range st.selectServers() {
		if have == st.code.K() {
			break
		}
		shard, shardIdx, err := st.servers[idx].GetShard(id)
		if err != nil {
			continue
		}
		// Placement-mapped entries record which symbol they hold; positional
		// entries (UnknownShard) fall back to the node index.
		if shardIdx < 0 {
			shardIdx = idx
		}
		if shardIdx >= len(shards) || shards[shardIdx] != nil {
			continue
		}
		shards[shardIdx] = shard
		have++
	}
	if have < st.code.K() {
		return nil, fmt.Errorf("%w: have %d, need %d", ErrNotEnoughReplicas, have, st.code.K())
	}
	return st.code.Decode(shards, size)
}

// Rebuild reconstructs server i's symbols for every known object from the
// surviving nodes and stores them on (a possibly replacement) server i —
// the hot-swap path of §4.2.
func (st *Store) Rebuild(i int) error {
	st.mu.Lock()
	ids := make([]string, 0, len(st.sizes))
	for id := range st.sizes {
		ids = append(ids, id)
	}
	st.mu.Unlock()
	sort.Strings(ids)
	for _, id := range ids {
		shards := make([][]byte, st.code.N())
		have := 0
		for j, s := range st.servers {
			if j == i || s.Down() {
				continue
			}
			shard, shardIdx, err := s.GetShard(id)
			if err != nil {
				continue
			}
			if shardIdx < 0 {
				shardIdx = j
			}
			if shardIdx >= len(shards) || shards[shardIdx] != nil {
				continue
			}
			shards[shardIdx] = shard
			have++
			if have == st.code.K() {
				break
			}
		}
		if have < st.code.K() {
			return fmt.Errorf("%w: rebuilding %s", ErrNotEnoughReplicas, id)
		}
		if err := st.code.Reconstruct(shards); err != nil {
			return fmt.Errorf("storage: rebuild %s: %w", id, err)
		}
		if err := st.servers[i].PutShard(id, shards[i], i); err != nil {
			return fmt.Errorf("storage: rebuild %s: %w", id, err)
		}
	}
	return nil
}

// ReplaceServer swaps in a blank replacement at index i and rebuilds its
// symbols (dynamic reconfiguration / hot swap).
func (st *Store) ReplaceServer(i int, replacement *Server) error {
	st.servers[i] = replacement
	return st.Rebuild(i)
}

// Objects lists the stored object ids, sorted.
func (st *Store) Objects() []string {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]string, 0, len(st.sizes))
	for id := range st.sizes {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}
