package rain

import (
	"bytes"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestFacadeCodes(t *testing.T) {
	msg := []byte("facade round trip")
	ctors := []func() (Code, error){
		func() (Code, error) { return NewBCode(6) },
		func() (Code, error) { return NewXCode(5) },
		func() (Code, error) { return NewEvenOdd(5) },
		func() (Code, error) { return NewReedSolomon(6, 4) },
		func() (Code, error) { return NewMirror(3) },
		func() (Code, error) { return NewSingleParity(4) },
	}
	for _, ctor := range ctors {
		c, err := ctor()
		if err != nil {
			t.Fatal(err)
		}
		shards, err := c.Encode(msg)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		shards[0] = nil
		got, err := c.Decode(shards, len(msg))
		if err != nil || !bytes.Equal(got, msg) {
			t.Fatalf("%s: decode: %v", c.Name(), err)
		}
	}
}

func TestFacadeCluster(t *testing.T) {
	cl, err := NewCluster([]string{"n1", "n2", "n3", "n4", "n5", "n6"},
		ClusterOptions{Seed: 1, Policy: PolicyLeastLoaded})
	if err != nil {
		t.Fatal(err)
	}
	cl.Run(time.Second)
	if err := cl.Put("hello", []byte("world")); err != nil {
		t.Fatal(err)
	}
	if err := cl.Pause("n3"); err != nil {
		t.Fatal(err)
	}
	got, err := cl.Get("hello")
	if err != nil || string(got) != "world" {
		t.Fatalf("get after crash: %v", err)
	}
	cl.Run(2 * time.Second)
	view, ok := cl.Consensus()
	if !ok || len(view) != 5 {
		t.Fatalf("membership after crash: %v ok=%v", view, ok)
	}
}

// TestFacadeStreaming drives the streaming halves end to end through the
// facade: EncodeReader's shard streams decode with DecodeStreams and rebuild
// with RebuildStream, and a Cluster round-trips an object through
// PutStream/GetStream.
func TestFacadeStreaming(t *testing.T) {
	code, err := NewReedSolomon(6, 4)
	if err != nil {
		t.Fatal(err)
	}
	const block = 4 << 10
	data := make([]byte, 41<<10)
	for i := range data {
		data[i] = byte(i*7 + 3)
	}
	streams := make([][]byte, code.N())
	if err := EncodeReader(code, bytes.NewReader(data), block, func(b int, shards [][]byte, dataLen int) error {
		for i, s := range shards {
			streams[i] = append(streams[i], s...)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Decode from k streams, two missing.
	readers := make([]io.Reader, code.N())
	for i := 2; i < code.N(); i++ {
		readers[i] = bytes.NewReader(streams[i])
	}
	var out bytes.Buffer
	if n, err := DecodeStreams(code, &out, readers, int64(len(data)), block); err != nil || n != int64(len(data)) {
		t.Fatalf("decode streams: n=%d err=%v", n, err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("stream decode corrupted")
	}
	// Rebuild shard 0 from four survivors.
	readers = make([]io.Reader, code.N())
	for i := 1; i <= code.K(); i++ {
		readers[i] = bytes.NewReader(streams[i])
	}
	var shard bytes.Buffer
	if _, err := RebuildStream(code, 0, &shard, readers, int64(len(data)), block); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(shard.Bytes(), streams[0]) {
		t.Fatal("rebuilt shard stream differs")
	}

	cl, err := NewCluster([]string{"n1", "n2", "n3", "n4", "n5", "n6"},
		ClusterOptions{Seed: 2, BlockSize: block})
	if err != nil {
		t.Fatal(err)
	}
	cl.Run(time.Second)
	if err := cl.PutStream("obj", bytes.NewReader(data), int64(len(data))); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if n, err := cl.GetStream("obj", &out); err != nil || n != int64(len(data)) || !bytes.Equal(out.Bytes(), data) {
		t.Fatalf("cluster stream roundtrip: n=%d err=%v", n, err)
	}
}

// TestFacadePlacedCluster runs a cluster wider than its code: eight nodes
// over rs(6,4), so each object's six shard holders come from the rendezvous
// placement map. Once n7 crashes, the leader's pass re-places its slots over
// the seven survivors; the hot swap then moves back exactly the slots whose
// holder differs between the seven- and eight-node placements
// (concurrently), and a Rebalance pass finds nothing left to fix.
func TestFacadePlacedCluster(t *testing.T) {
	code, err := NewReedSolomon(6, 4)
	if err != nil {
		t.Fatal(err)
	}
	nodes := []string{"n1", "n2", "n3", "n4", "n5", "n6", "n7", "n8"}
	cl, err := NewCluster(nodes, ClusterOptions{Seed: 3, Code: code})
	if err != nil {
		t.Fatal(err)
	}
	cl.Run(time.Second)
	objects := map[string][]byte{}
	for i := 0; i < 12; i++ {
		id := string(rune('a'+i)) + "-obj"
		data := bytes.Repeat([]byte{byte(i + 1)}, 9<<10)
		if err := cl.Put(id, data); err != nil {
			t.Fatal(err)
		}
		objects[id] = data
	}
	// Shards spread beyond any fixed six: every node holds some.
	for _, n := range nodes {
		if cl.Backends[n].Objects() == 0 {
			t.Fatalf("node %s holds no shards; placement is not spreading", n)
		}
	}
	for id := range objects {
		if got := len(Placement(id, nodes, code.N())); got != code.N() {
			t.Fatalf("placement of %d nodes for %s", got, id)
		}
	}
	if err := cl.Pause("n7"); err != nil {
		t.Fatal(err)
	}
	cl.Run(2 * time.Second)
	rebuilt, err := cl.ReplaceNode("n7")
	if err != nil {
		t.Fatalf("replace: %v", err)
	}
	survivors := []string{"n1", "n2", "n3", "n4", "n5", "n6", "n8"}
	want := 0
	for id := range objects {
		without := Placement(id, survivors, code.N())
		for i, n := range Placement(id, nodes, code.N()) {
			if n != without[i] {
				want++
			}
		}
	}
	if rebuilt != want {
		t.Fatalf("moved or rebuilt %d shards, want the %d slots n7's return re-places", rebuilt, want)
	}
	stats, err := cl.Rebalance()
	if err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	if stats.Moved+stats.Rebuilt+stats.Deleted != 0 {
		t.Fatalf("rebalance after full rebuild still found work: %+v", stats)
	}
	for id, want := range objects {
		got, err := cl.Get(id)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s after hot swap: %v", id, err)
		}
	}
}

// TestExperimentIndexNamesTests keeps DESIGN.md's per-experiment index
// honest: every backticked Test/Benchmark/Fuzz name in its table is a
// function declared in some _test.go of the module, and every experiment
// E1-E23 sits in a row that names at least one test.
func TestExperimentIndexNamesTests(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, index, ok := strings.Cut(string(design), "\n## Per-experiment index\n")
	if !ok {
		t.Fatal("DESIGN.md has no per-experiment index")
	}
	index, _, _ = strings.Cut(index, "\n## ")

	declared := map[string]bool{}
	funcRE := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range funcRE.FindAllSubmatch(src, -1) {
			declared[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	nameRE := regexp.MustCompile(`^(Test|Benchmark|Fuzz)\w*$`)
	tickRE := regexp.MustCompile("`([^`]+)`")
	idRE := regexp.MustCompile(`E(\d+)(?:-E(\d+))?`)
	tested := map[int]bool{}
	for _, row := range strings.Split(index, "\n") {
		cells := strings.Split(row, "|")
		if len(cells) < 4 {
			continue
		}
		namesTest := false
		for _, m := range tickRE.FindAllStringSubmatch(strings.Join(cells[2:], "|"), -1) {
			name := m[1]
			if !strings.HasPrefix(name, "Test") && !strings.HasPrefix(name, "Benchmark") && !strings.HasPrefix(name, "Fuzz") {
				continue
			}
			if !nameRE.MatchString(name) || !declared[name] {
				t.Errorf("index names %q, which no _test.go declares", name)
			}
			namesTest = namesTest || strings.HasPrefix(name, "Test")
		}
		if !namesTest {
			continue
		}
		for _, m := range idRE.FindAllStringSubmatch(cells[1], -1) {
			lo, _ := strconv.Atoi(m[1])
			hi := lo
			if m[2] != "" {
				hi, _ = strconv.Atoi(m[2])
			}
			for e := lo; e <= hi; e++ {
				tested[e] = true
			}
		}
	}
	for e := 1; e <= 23; e++ {
		if !tested[e] {
			t.Errorf("experiment E%d has no index row naming a test", e)
		}
	}
}
