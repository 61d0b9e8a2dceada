package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"rain/internal/ecc"
)

func newTestStore(t *testing.T, policy Policy) (*Store, []*Server) {
	t.Helper()
	code, err := ecc.NewBCode(6)
	if err != nil {
		t.Fatal(err)
	}
	servers := make([]*Server, code.N())
	for i := range servers {
		servers[i] = NewServer(fmt.Sprintf("node%d", i), i) // distance = index
	}
	st, err := New(code, servers, policy, 42)
	if err != nil {
		t.Fatal(err)
	}
	return st, servers
}

func TestPutGetRoundTrip(t *testing.T) {
	st, _ := newTestStore(t, FirstK)
	data := []byte("distributed store and retrieve operations, RAIN §4.2")
	stored, err := st.Put("obj", data)
	if err != nil {
		t.Fatal(err)
	}
	if stored != 6 {
		t.Fatalf("stored on %d nodes, want 6", stored)
	}
	got, err := st.Get("obj")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
}

// TestParallelClientReads exercises the store's concurrency safety: many
// goroutines reading one object through a shared Store simultaneously (the
// servers and the size cache are mutex-guarded; the race detector patrols
// this test).
func TestParallelClientReads(t *testing.T) {
	st, _ := newTestStore(t, FirstK)
	data := make([]byte, 64*1024)
	rand.New(rand.NewSource(2)).Read(data)
	if _, err := st.Put("shared", data); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		go func() {
			for i := 0; i < 20; i++ {
				got, err := st.Get("shared")
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, data) {
					errs <- fmt.Errorf("corrupt read")
					return
				}
			}
			errs <- nil
		}()
	}
	for g := 0; g < 16; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestSurvivesMaxNodeFailures(t *testing.T) {
	st, servers := newTestStore(t, FirstK)
	data := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(data)
	if _, err := st.Put("obj", data); err != nil {
		t.Fatal(err)
	}
	// n-k = 2 failures: every pair of downed servers must still decode.
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			servers[i].SetDown(true)
			servers[j].SetDown(true)
			got, err := st.Get("obj")
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("failed with nodes %d,%d down: %v", i, j, err)
			}
			servers[i].SetDown(false)
			servers[j].SetDown(false)
		}
	}
}

func TestTooManyFailures(t *testing.T) {
	st, servers := newTestStore(t, FirstK)
	if _, err := st.Put("obj", []byte("data")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		servers[i].SetDown(true)
	}
	if _, err := st.Get("obj"); !errors.Is(err, ErrNotEnoughReplicas) {
		t.Fatalf("want ErrNotEnoughReplicas, got %v", err)
	}
}

func TestGetUnknownObject(t *testing.T) {
	st, _ := newTestStore(t, FirstK)
	if _, err := st.Get("ghost"); !errors.Is(err, ErrObjectNotFound) {
		t.Fatalf("want ErrObjectNotFound, got %v", err)
	}
}

func TestPutWithSomeNodesDown(t *testing.T) {
	st, servers := newTestStore(t, FirstK)
	servers[1].SetDown(true)
	servers[4].SetDown(true)
	stored, err := st.Put("obj", []byte("partial placement"))
	if err != nil {
		t.Fatal(err)
	}
	if stored != 4 {
		t.Fatalf("stored = %d, want 4", stored)
	}
	servers[0].SetDown(true) // now only 3 of the 4 placed symbols reachable... still >= k? k=4
	if _, err := st.Get("obj"); !errors.Is(err, ErrNotEnoughReplicas) {
		t.Fatalf("want ErrNotEnoughReplicas with 3 of 4 symbols, got %v", err)
	}
	servers[0].SetDown(false)
	got, err := st.Get("obj")
	if err != nil || string(got) != "partial placement" {
		t.Fatalf("get after recovery: %v", err)
	}
}

func TestPutFailsBelowK(t *testing.T) {
	st, servers := newTestStore(t, FirstK)
	for i := 0; i < 3; i++ {
		servers[i].SetDown(true)
	}
	if _, err := st.Put("obj", []byte("x")); !errors.Is(err, ErrNotEnoughReplicas) {
		t.Fatalf("want ErrNotEnoughReplicas, got %v", err)
	}
	// Partial symbols must have been cleaned up.
	for i := 3; i < 6; i++ {
		if servers[i].Objects() != 0 {
			t.Fatalf("server %d retains partial symbol", i)
		}
	}
}

func TestLeastLoadedBalancesReads(t *testing.T) {
	st, servers := newTestStore(t, LeastLoaded)
	if _, err := st.Put("obj", make([]byte, 1200)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if _, err := st.Get("obj"); err != nil {
			t.Fatal(err)
		}
	}
	// 300 reads x k=4 symbols over 6 servers: ~200 each under balance.
	for i, s := range servers {
		r, _ := s.Loads()
		if r < 150 || r > 250 {
			t.Fatalf("server %d served %d reads; load not balanced", i, r)
		}
	}
}

func TestFirstKSkewsReads(t *testing.T) {
	// The ablation counterpart: FirstK hammers the first k servers.
	st, servers := newTestStore(t, FirstK)
	if _, err := st.Put("obj", make([]byte, 1200)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := st.Get("obj"); err != nil {
			t.Fatal(err)
		}
	}
	r0, _ := servers[0].Loads()
	r5, _ := servers[5].Loads()
	if r0 != 100 || r5 != 0 {
		t.Fatalf("firstk loads: server0=%d server5=%d, want 100/0", r0, r5)
	}
}

func TestNearestPolicyPrefersClose(t *testing.T) {
	st, servers := newTestStore(t, Nearest) // distance == index
	if _, err := st.Put("obj", make([]byte, 600)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := st.Get("obj"); err != nil {
			t.Fatal(err)
		}
	}
	rNear, _ := servers[0].Loads()
	rFar, _ := servers[5].Loads()
	if rNear != 50 || rFar != 0 {
		t.Fatalf("nearest loads: near=%d far=%d", rNear, rFar)
	}
}

func TestRandomPolicySpreads(t *testing.T) {
	st, servers := newTestStore(t, RandomK)
	if _, err := st.Put("obj", make([]byte, 600)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if _, err := st.Get("obj"); err != nil {
			t.Fatal(err)
		}
	}
	for i, s := range servers {
		r, _ := s.Loads()
		if r == 0 {
			t.Fatalf("random policy never touched server %d", i)
		}
	}
}

func TestHotSwapRebuild(t *testing.T) {
	st, servers := newTestStore(t, FirstK)
	var want [][]byte
	for i := 0; i < 10; i++ {
		data := make([]byte, 100+i*37)
		rand.New(rand.NewSource(int64(i))).Read(data)
		want = append(want, data)
		if _, err := st.Put(fmt.Sprintf("obj%d", i), data); err != nil {
			t.Fatal(err)
		}
	}
	// Node 2 dies and is replaced by blank hardware.
	servers[2].SetDown(true)
	replacement := NewServer("node2b", 2)
	if err := st.ReplaceServer(2, replacement); err != nil {
		t.Fatal(err)
	}
	if replacement.Objects() != 10 {
		t.Fatalf("replacement rebuilt %d objects, want 10", replacement.Objects())
	}
	// The rebuilt symbols must be byte-identical to a fresh encode: kill
	// two other nodes and decode through the replacement.
	st.Servers()[0].SetDown(true)
	st.Servers()[1].SetDown(true)
	for i, data := range want {
		got, err := st.Get(fmt.Sprintf("obj%d", i))
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("obj%d after hot swap: %v", i, err)
		}
	}
}

func TestRebuildFailsWithoutK(t *testing.T) {
	st, servers := newTestStore(t, FirstK)
	if _, err := st.Put("obj", []byte("x")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		servers[i].SetDown(true)
	}
	if err := st.Rebuild(5); !errors.Is(err, ErrNotEnoughReplicas) {
		t.Fatalf("want ErrNotEnoughReplicas, got %v", err)
	}
}

func TestServerCountMismatch(t *testing.T) {
	code, err := ecc.NewBCode(6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(code, []*Server{NewServer("a", 0)}, FirstK, 1); err == nil {
		t.Fatal("mismatched server count accepted")
	}
}

func TestObjectsListing(t *testing.T) {
	st, _ := newTestStore(t, FirstK)
	for _, id := range []string{"c", "a", "b"} {
		if _, err := st.Put(id, []byte(id)); err != nil {
			t.Fatal(err)
		}
	}
	got := st.Objects()
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("objects = %v", got)
	}
}

func TestQuickRandomObjectsAndFailures(t *testing.T) {
	st, servers := newTestStore(t, RandomK)
	rng := rand.New(rand.NewSource(77))
	f := func(data []byte) bool {
		if len(data) == 0 {
			data = []byte{1}
		}
		id := fmt.Sprintf("q%d", rng.Int())
		if _, err := st.Put(id, data); err != nil {
			return false
		}
		// Kill up to 2 random servers for the read.
		downs := rng.Intn(3)
		idx := rng.Perm(6)[:downs]
		for _, i := range idx {
			servers[i].SetDown(true)
		}
		got, err := st.Get(id)
		for _, i := range idx {
			servers[i].SetDown(false)
		}
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}
