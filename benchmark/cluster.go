package main

import (
	"context"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"rain"
	"rain/internal/telemetry"
)

// ring is the cluster roster. The names are fixed because rendezvous
// placement hashes them with the object keys: which shard of which key lives
// on node f — and so which keys a degraded read must reconstruct — is the
// same on every run and every seed.
var ring = []string{"a", "b", "c", "d", "e", "f"}

const (
	codeN, codeK = 6, 4
	gateways     = 2 // on ring nodes a and b
)

// cluster is the system under test: six rain.Nodes on real loopback UDP
// sockets with file backends, plus HTTP gateways on real TCP listeners, all
// in this process and all reporting into one telemetry registry.
type cluster struct {
	dir   string
	reg   *telemetry.Registry
	nodes []*rain.Node
	down  []bool
	srvs  []*http.Server
	serve sync.WaitGroup
	urls  []string // gateway base URLs, "http://127.0.0.1:port/o/"
}

// startCluster brings the whole stack up the way a deployment does — a
// static address book, every node started through the public facade — and
// returns once all six report a full membership view and the gateways
// listen. A port that was reserved and released can be taken by another
// process before its node binds it, so a failed start is tried again with
// fresh ports.
func startCluster(ctx context.Context, root string, seed int64) (c *cluster, err error) {
	for attempt := 0; attempt < 3 && ctx.Err() == nil; attempt++ {
		if c, err = startOnce(ctx, root, seed); err == nil {
			return c, nil
		}
	}
	return nil, err
}

func startOnce(ctx context.Context, root string, seed int64) (*cluster, error) {
	// Reserve two UDP ports per node up front so the address book is
	// complete before the first node starts, as `rainnode serve` expects.
	book := make(map[string][]string)
	var held []*net.UDPConn
	for _, name := range ring {
		for path := 0; path < 2; path++ {
			s, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
			if err != nil {
				for _, h := range held {
					h.Close()
				}
				return nil, fmt.Errorf("reserving a UDP port: %w", err)
			}
			held = append(held, s)
			book[name] = append(book[name], s.LocalAddr().String())
		}
	}
	for _, h := range held {
		h.Close()
	}

	dir, err := os.MkdirTemp(root, "cluster-")
	if err != nil {
		return nil, err
	}
	code, err := rain.NewReedSolomon(codeN, codeK)
	if err != nil {
		return nil, err
	}
	c := &cluster{dir: dir, reg: telemetry.NewRegistry(), down: make([]bool, len(ring))}
	for _, name := range ring {
		n, err := rain.StartNode(rain.NodeConfig{
			Name:       name,
			Ring:       ring,
			Locals:     book[name],
			Peers:      book,
			Code:       code,
			StorageDir: filepath.Join(dir, name),
			Telemetry:  c.reg,
			Seed:       seed,
		})
		if err != nil {
			c.close()
			return nil, fmt.Errorf("starting node %s: %w", name, err)
		}
		c.nodes = append(c.nodes, n)
	}
	ready, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	for i, n := range c.nodes {
		if err := n.WaitReady(ready); err != nil {
			c.close()
			return nil, fmt.Errorf("node %s never saw a full view: %w", ring[i], err)
		}
	}
	for i := 0; i < gateways; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.close()
			return nil, err
		}
		srv := &http.Server{Handler: rain.NewGateway(c.nodes[i], rain.GatewayConfig{Telemetry: c.reg})}
		c.serve.Add(1)
		go func() {
			defer c.serve.Done()
			srv.Serve(ln) // returns http.ErrServerClosed once close() runs
		}()
		c.srvs = append(c.srvs, srv)
		c.urls = append(c.urls, "http://"+ln.Addr().String()+"/o/")
	}
	return c, nil
}

// stopNode halts one ring node and waits until every survivor's membership
// view has dropped it: from then on reads of its shards are degraded reads,
// not reads that first have to discover the failure.
func (c *cluster) stopNode(ctx context.Context, i int) error {
	c.nodes[i].Stop()
	c.down[i] = true
	deadline := time.Now().Add(30 * time.Second)
	for {
		seen := false
		for j, n := range c.nodes {
			if c.down[j] {
				continue
			}
			for _, v := range n.View() {
				if v == ring[i] {
					seen = true
				}
			}
		}
		if !seen {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("survivors still list %s after 30s", ring[i])
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// control is every live node's sorted membership view and its leader, one
// string each, for counting control-plane changes across a window.
func (c *cluster) control() (views, leaders []string) {
	views, leaders = make([]string, len(c.nodes)), make([]string, len(c.nodes))
	for i, n := range c.nodes {
		if !c.down[i] {
			v := n.View()
			sort.Strings(v)
			views[i], leaders[i] = strings.Join(v, ","), n.Leader()
		}
	}
	return views, leaders
}

// diskBytes sums the sizes of all files under the six storage directories.
func (c *cluster) diskBytes() (int64, error) {
	var total int64
	err := filepath.WalkDir(c.dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// close stops everything the cluster started and removes its files.
func (c *cluster) close() {
	for _, s := range c.srvs {
		s.Close()
	}
	c.serve.Wait()
	for i, n := range c.nodes {
		if !c.down[i] {
			n.Stop()
			c.down[i] = true
		}
	}
	os.RemoveAll(c.dir)
}
