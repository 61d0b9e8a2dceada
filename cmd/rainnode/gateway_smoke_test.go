package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestGatewayClusterSmoke is the end-to-end proof of the PR's surface: three
// `rainnode serve` processes on real UDP loopback sockets form a cluster
// (mesh handshakes, token membership and the leader it names, self-heal),
// objects round trip bit-exact through any node's HTTP gateway — whole,
// ranged and deleted — and the cluster keeps serving while one node is
// SIGKILLed and rejoins. Gated on RAIN_GW_SMOKE because it binds dozens of real sockets
// and shells out to the toolchain; CI runs it as the gateway e2e job.
func TestGatewayClusterSmoke(t *testing.T) {
	if os.Getenv("RAIN_GW_SMOKE") == "" {
		t.Skip("set RAIN_GW_SMOKE=1 to run the rainnode gateway cluster smoke test")
	}
	bin := filepath.Join(t.TempDir(), "rainnode")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	// Every node gets two bundled UDP paths and one HTTP port, reserved up
	// front so the peer book can be complete and static: ephemeral-port
	// discovery cannot introduce b and c to each other before they have
	// spoken to the seed.
	names := []string{"a", "b", "c"}
	udp := make(map[string][]string)
	httpAddr := make(map[string]string)
	dir := make(map[string]string)
	var bookEnts []string
	for _, n := range names {
		udp[n] = []string{
			fmt.Sprintf("127.0.0.1:%d", freePort(t, "udp")),
			fmt.Sprintf("127.0.0.1:%d", freePort(t, "udp")),
		}
		httpAddr[n] = fmt.Sprintf("127.0.0.1:%d", freePort(t, "tcp"))
		dir[n] = filepath.Join(t.TempDir(), n)
		bookEnts = append(bookEnts, n+"="+strings.Join(udp[n], "|"))
	}
	book := strings.Join(bookEnts, ",")

	// start launches node n; ready closes when the process prints its
	// "cluster ready" line (its membership view spans the code width).
	start := func(n string) (cmd *exec.Cmd, ready chan struct{}) {
		cmd = exec.Command(bin, "serve",
			"-name", n,
			"-ring", strings.Join(names, ","),
			"-local", strings.Join(udp[n], ","),
			"-peers", book,
			"-dir", dir[n],
			"-http", httpAddr[n])
		out, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		ready = make(chan struct{})
		go func(ready chan struct{}) {
			sc := bufio.NewScanner(out)
			for sc.Scan() {
				fmt.Fprintln(os.Stderr, sc.Text())
				if ready != nil && strings.HasPrefix(sc.Text(), "cluster ready: view") {
					close(ready)
					ready = nil
				}
			}
		}(ready)
		return cmd, ready
	}
	procs := map[string]*exec.Cmd{}
	for _, n := range names {
		procs[n], _ = start(n)
	}
	defer func() {
		for _, cmd := range procs {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}()

	gw := func(n string) string { return "http://" + httpAddr[n] }
	client := &http.Client{Timeout: 30 * time.Second}
	put := func(n, key string, body []byte) (*http.Response, error) {
		req, err := http.NewRequest(http.MethodPut, gw(n)+"/o/"+key, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		return client.Do(req)
	}
	get := func(n, key, rng string) (*http.Response, []byte, error) {
		req, err := http.NewRequest(http.MethodGet, gw(n)+"/o/"+key, nil)
		if err != nil {
			return nil, nil, err
		}
		if rng != "" {
			req.Header.Set("Range", rng)
		}
		resp, err := client.Do(req)
		if err != nil {
			return nil, nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return resp, body, err
	}

	// The cluster is up when a probe PUT commits: membership has assembled a
	// full view, so the seed's client can reach a write quorum.
	readyBy := time.Now().Add(30 * time.Second)
	for {
		resp, err := put("a", "probe", []byte("ready?"))
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(readyBy) {
			t.Fatalf("cluster never became ready: last err %v", err)
		}
		time.Sleep(200 * time.Millisecond)
	}

	// Bit-exact round trip across distinct gateways: PUT through a, ranged
	// and whole GETs through b, DELETE through c.
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(42)).Read(data)
	resp, err := put("a", "movie", data)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("put movie: %s", resp.Status)
	}
	if resp.Header.Get("ETag") == "" {
		t.Error("put response has no ETag")
	}
	resp, body, err := get("b", "movie", "")
	if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(body, data) {
		t.Fatalf("whole get via b: status %v err %v exact=%v", resp.Status, err, bytes.Equal(body, data))
	}
	resp, body, err = get("b", "movie", "bytes=65535-131073")
	if err != nil || resp.StatusCode != http.StatusPartialContent || !bytes.Equal(body, data[65535:131074]) {
		t.Fatalf("ranged get via b: status %v err %v", resp.Status, err)
	}
	req, _ := http.NewRequest(http.MethodDelete, gw("c")+"/o/movie", nil)
	if resp, err := client.Do(req); err != nil || resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete via c: %v %v", resp, err)
	} else {
		resp.Body.Close()
	}
	if resp, _, err := get("a", "movie", ""); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get after delete: status %v err %v", resp.Status, err)
	}

	// The debug surface exports the gateway route families next to the rest
	// of the stack's metrics.
	metrics := string(fetchEventually(t, gw("a")+"/debug/metrics", 5*time.Second))
	for _, fam := range []string{"rain_gateway_put_requests", "rain_gateway_get_requests", "rain_gateway_delete_requests", "rain_gateway_admission_inflight_bytes"} {
		if !strings.Contains(metrics, fam) {
			t.Errorf("/debug/metrics is missing %s", fam)
		}
	}

	// Kill-and-rejoin under load: concurrent PUTs through a and GETs (whole
	// and ranged) through b must all succeed while c is SIGKILLed and later
	// restarted — rs(3,2) keeps both quorums at two nodes, stalled shard
	// streams hedge to the survivor, and membership evicts the corpse.
	if resp, err := put("a", "kr", data); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("put kr: %v %v", resp, err)
	} else {
		resp.Body.Close()
	}
	var failures atomic.Int64
	fail := func(format string, args ...any) {
		failures.Add(1)
		t.Errorf(format, args...)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // writer: fresh objects through a
		defer wg.Done()
		chunk := data[:128<<10]
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := put("a", fmt.Sprintf("load-%d", i%4), chunk)
			if err != nil {
				fail("load put: %v", err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				fail("load put: %s", resp.Status)
				return
			}
		}
	}()
	go func() { // reader: whole and ranged GETs through b
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			rng, want := "", data
			if i%2 == 1 {
				rng, want = "bytes=131071-262145", data[131071:262146]
			}
			resp, body, err := get("b", "kr", rng)
			if err != nil {
				fail("load get: %v", err)
				return
			}
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusPartialContent {
				fail("load get: %s", resp.Status)
				return
			}
			if !bytes.Equal(body, want) {
				fail("load get: body mismatch (%d bytes, want %d)", len(body), len(want))
				return
			}
		}
	}()

	time.Sleep(1 * time.Second)
	procs["c"].Process.Kill()
	procs["c"].Wait()
	t.Log("killed c under load")
	time.Sleep(4 * time.Second)
	var cReady chan struct{}
	procs["c"], cReady = start("c")
	t.Log("restarted c")
	// A restarted process must be readmitted promptly: its peers still
	// remember its previous life's control messages, and must not mistake
	// the new life's for duplicates.
	select {
	case <-cReady:
	case <-time.After(5 * time.Second):
		t.Error("restarted c did not print \"cluster ready: view\" within 5s")
	}
	// c has rejoined when its own gateway serves the object bit-exact: its
	// membership view readmitted the holders and its client reads a quorum.
	rejoinBy := time.Now().Add(30 * time.Second)
	for {
		resp, body, err := get("c", "kr", "")
		if err == nil && resp.StatusCode == http.StatusOK && bytes.Equal(body, data) {
			break
		}
		if time.Now().After(rejoinBy) {
			t.Errorf("c never rejoined: last status %v err %v", resp, err)
			break
		}
		time.Sleep(300 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d client requests failed across the kill/rejoin window, want 0", n)
	}

	// The full inventory survived: every load object still reads bit-exact
	// through the rejoined node's gateway.
	for i := 0; i < 4; i++ {
		resp, body, err := get("c", fmt.Sprintf("load-%d", i), "")
		if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(body, data[:128<<10]) {
			t.Errorf("load-%d via rejoined c: status %v err %v", i, resp.Status, err)
		}
	}
}
