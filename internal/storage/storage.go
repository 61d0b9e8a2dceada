// Package storage holds the node-local half of the RAIN distributed
// store/retrieve operations of §4.2 — a block of data is encoded with an
// (n, k) MDS code into n symbols, one stored per node; retrieval collects the
// symbols from any k nodes and decodes — and the policy that spends the
// "any k of n" freedom. The operations themselves are internal/dstore's: they
// run over the mesh, between a client session and the daemons serving these
// backends.
//
// The node-local state is a Backend: one shard per object id plus the shard
// index it holds, the object length and block-codeword size (the dstore
// layout contract) and the object's digest, with per-block checksums
// verified on every read (integrity.go). Backends are memory-backed or
// file-backed (NewFileBackend) and support the bounded-memory transfer
// primitives the daemon streams through — staged chunk-by-chunk writes
// (NewStage/Append/Commit, atomic at commit) and ranged ReadAt reads — so a
// node's heap never scales with the size of what it stores or serves.
//
// Rank implements the §4.2 selection policies (first-k, least-loaded,
// geographically nearest, random) the client ranks shard holders with;
// experiment E16 reads their effect off Backend.Loads.
package storage

import (
	"errors"
	"math/rand"
	"sort"
)

// ErrObjectNotFound reports a read of an object the backend does not hold.
var ErrObjectNotFound = errors.New("storage: object not found")

// Policy selects which k shard holders serve a retrieve.
type Policy int

// Selection policies of §4.2.
const (
	// FirstK picks the first k reachable holders in shard-index order.
	FirstK Policy = iota
	// LeastLoaded picks the k reachable holders with the fewest reads
	// ("select the k nodes with the smallest load").
	LeastLoaded
	// Nearest picks the k reachable holders with the smallest distance
	// ("the k nodes that are geographically closest").
	Nearest
	// RandomK picks k reachable holders uniformly at random.
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

// Candidate is one reachable shard holder offered to Rank: its index in the
// code's shard order plus the policy inputs.
type Candidate struct {
	Idx      int
	Load     int // cumulative reads, for LeastLoaded
	Distance int // abstract distance, for Nearest
}

// Rank orders candidate indices by preference under the policy — the §4.2
// "any k of n" selection freedom. rng is consulted only by RandomK.
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
