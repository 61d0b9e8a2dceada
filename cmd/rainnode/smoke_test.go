package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rain/internal/telemetry"
)

// freePort reserves an ephemeral port on the given network and returns it.
// The tiny close-to-bind race is acceptable for a smoke test.
func freePort(t *testing.T, network string) int {
	t.Helper()
	switch network {
	case "udp":
		c, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		return c.LocalAddr().(*net.UDPAddr).Port
	default:
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		return l.Addr().(*net.TCPAddr).Port
	}
}

// TestDebugSurfaceSmoke builds the real binary, starts one `rainnode serve`
// node with its HTTP listener, and asserts /debug/metrics serves well-formed
// Prometheus text spanning every instrumented layer. The node's ring names
// peers that never start: the debug surface must not wait for a cluster.
// Gated on RAIN_SMOKE because it binds real sockets and shells out to the
// toolchain; CI runs it as the telemetry smoke job.
func TestDebugSurfaceSmoke(t *testing.T) {
	if os.Getenv("RAIN_SMOKE") == "" {
		t.Skip("set RAIN_SMOKE=1 to run the rainnode debug-surface smoke test")
	}
	bin := filepath.Join(t.TempDir(), "rainnode")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	debugAddr := fmt.Sprintf("127.0.0.1:%d", freePort(t, "tcp"))
	cmd := exec.Command(bin, "serve",
		"-name", "a", "-ring", "a,b,c",
		"-local", fmt.Sprintf("127.0.0.1:%d", freePort(t, "udp")),
		"-http", debugAddr)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()

	base := "http://" + debugAddr
	body := fetchEventually(t, base+"/debug/metrics", 10*time.Second)

	fams, err := telemetry.ParsePromText(body)
	if err != nil {
		t.Fatalf("/debug/metrics is not valid Prometheus text: %v", err)
	}
	if len(fams) < 25 {
		t.Errorf("only %d metric families exported, want >= 25", len(fams))
	}
	layers := map[string]bool{}
	for name := range fams {
		for _, p := range []string{"rain_rudp_", "rain_netbuf_", "rain_dstore_", "rain_storage_", "rain_rebalance_"} {
			if strings.HasPrefix(name, p) {
				layers[p] = true
			}
		}
	}
	if len(layers) != 5 {
		t.Errorf("families span %d layers %v, want all of rudp, netbuf, dstore, storage, rebalance", len(layers), layers)
	}

	var snap telemetry.Snapshot
	if err := json.Unmarshal(fetchEventually(t, base+"/debug/metrics.json", 5*time.Second), &snap); err != nil {
		t.Fatalf("/debug/metrics.json: %v", err)
	}
	if len(snap.Families) < 25 {
		t.Errorf("JSON snapshot has %d families, want >= 25", len(snap.Families))
	}

	var traces []telemetry.TraceSnapshot
	if err := json.Unmarshal(fetchEventually(t, base+"/debug/traces?n=8", 5*time.Second), &traces); err != nil {
		t.Fatalf("/debug/traces: %v", err)
	}
}

// fetchEventually polls a URL until it answers 200, tolerating the window
// before the freshly exec'd process binds its listener.
func fetchEventually(t *testing.T, url string, within time.Duration) []byte {
	t.Helper()
	deadline := time.Now().Add(within)
	var lastErr error
	for time.Now().Before(deadline) {
		resp, err := http.Get(url)
		if err == nil {
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil && resp.StatusCode == http.StatusOK {
				return body
			}
			lastErr = fmt.Errorf("status %d: %v", resp.StatusCode, rerr)
		} else {
			lastErr = err
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("GET %s never succeeded: %v", url, lastErr)
	return nil
}
