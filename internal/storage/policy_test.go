package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// TestRank pins each §4.2 selection policy's ordering on one candidate set:
// holders 0..5 with shard 1's holder unreachable (absent), loads skewed
// toward the low indices and distances toward the high ones.
func TestRank(t *testing.T) {
	cands := []Candidate{
		{Idx: 0, Load: 9, Distance: 5},
		{Idx: 2, Load: 4, Distance: 3},
		{Idx: 3, Load: 4, Distance: 2},
		{Idx: 4, Load: 0, Distance: 1},
		{Idx: 5, Load: 7, Distance: 0},
	}
	for _, tc := range []struct {
		policy Policy
		want   []int // nil: any permutation, checked statistically below
	}{
		// FirstK skews reads: always the lowest reachable indices, whatever
		// their load or distance.
		{FirstK, []int{0, 2, 3, 4, 5}},
		// LeastLoaded balances: fewest reads first, index breaking ties.
		{LeastLoaded, []int{4, 2, 3, 5, 0}},
		// Nearest prefers close holders: the far ones only serve as spares.
		{Nearest, []int{5, 4, 3, 2, 0}},
		{RandomK, nil},
	} {
		t.Run(tc.policy.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			if tc.want != nil {
				if got := Rank(tc.policy, cands, rng); !reflect.DeepEqual(got, tc.want) {
					t.Fatalf("rank = %v, want %v", got, tc.want)
				}
				return
			}
			// RandomK spreads: every draw is a permutation of the candidates
			// and over 300 draws every holder makes the first k=4 often.
			inFirstK := map[int]int{}
			for i := 0; i < 300; i++ {
				got := Rank(tc.policy, cands, rng)
				seen := map[int]bool{}
				for _, idx := range got {
					seen[idx] = true
				}
				if len(got) != len(cands) || len(seen) != len(cands) || seen[1] {
					t.Fatalf("draw %d is not a permutation of the candidates: %v", i, got)
				}
				for _, idx := range got[:4] {
					inFirstK[idx]++
				}
			}
			for _, c := range cands {
				if n := inFirstK[c.Idx]; n < 180 || n > 300 { // mean 240
					t.Fatalf("holder %d ranked in the first k %d of 300 times: %v", c.Idx, n, inFirstK)
				}
			}
		})
	}
}

// TestParallelClientReads exercises the backend's concurrency safety — it is
// what stays "safe for concurrent use" under a daemon's loop and its scrub:
// many goroutines reading one shard through ReadAt, Get and Info at once
// while another overwrites a neighbour (the race detector patrols this).
func TestParallelClientReads(t *testing.T) {
	b := NewBackend()
	shard := make([]byte, 64*1024)
	rand.New(rand.NewSource(2)).Read(shard)
	if err := b.Put("shared", shard, 3, 4*len(shard), 0); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, 8*1024)
			for i := 0; i < 20; i++ {
				off := int64((g*20+i)%8) * int64(len(buf))
				if err := b.ReadAt("shared", buf, off); err != nil || !bytes.Equal(buf, shard[off:off+int64(len(buf))]) {
					errs <- fmt.Errorf("ReadAt at %d: corrupt read or %v", off, err)
					return
				}
				if got, _, err := b.Get("shared"); err != nil || !bytes.Equal(got, shard) {
					errs <- fmt.Errorf("Get: corrupt read or %v", err)
					return
				}
				if info, err := b.Info("shared"); err != nil || info.Shard != 3 || info.ShardLen != len(shard) {
					errs <- fmt.Errorf("Info = %+v, %v", info, err)
					return
				}
				if err := b.Put(fmt.Sprintf("other-%d", g), buf, 0, len(buf), 0); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
