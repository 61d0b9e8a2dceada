package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rain/internal/core"
	"rain/internal/gateway"
	"rain/internal/telemetry"
)

// runServe runs one full cluster node from a single config: the
// dial-by-address UDP mesh, the storage daemon, membership, the self-heal
// loop gated on the view's leader, and the HTTP object gateway with the /debug
// telemetry surface on the same listener.
func runServe(args []string) {
	fs := flag.NewFlagSet("rainnode serve", flag.ExitOnError)
	name := fs.String("name", "", "this node's cluster identity (required, must appear in -ring)")
	ring := fs.String("ring", "", "comma-separated full cluster roster; the first entry seeds the membership token (required)")
	local := fs.String("local", "", "comma-separated local UDP bind addresses, one per bundled path (required)")
	advertise := fs.String("advertise", "", "addresses advertised to peers (default: the resolved binds)")
	peers := fs.String("peers", "", `peer address book "name=addr|addr,name=addr" — one addr per path; the seed at minimum, the rest is learned from hellos`)
	dir := fs.String("dir", "", "shard store directory (default: in-memory)")
	blockSize := fs.Int("block", 0, "streaming block-codeword size in bytes (0 = dstore default)")
	httpAddr := fs.String("http", "", "HTTP listen address for the object gateway (/o/) and /debug surface")
	inflight := fs.Int64("inflight", 0, "gateway admission bound on in-flight buffer bytes (0 = default)")
	fs.Parse(args)

	if *name == "" || *ring == "" || *local == "" {
		fmt.Fprintln(os.Stderr, "rainnode serve: -name, -ring and -local are required")
		os.Exit(2)
	}
	book, err := parsePeerBook(*peers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rainnode serve:", err)
		os.Exit(2)
	}

	node, err := core.StartRealNode(core.NodeConfig{
		Name:       *name,
		Ring:       splitCSV(*ring),
		Locals:     splitCSV(*local),
		Advertise:  splitCSV(*advertise),
		Peers:      book,
		BlockSize:  *blockSize,
		StorageDir: *dir,
		Seed:       time.Now().UnixNano(),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "rainnode serve:", err)
		os.Exit(1)
	}
	defer node.Stop()
	fmt.Printf("node %s up on %v, ring %v\n", *name, node.Mesh.LocalAddrs(), splitCSV(*ring))
	if asked, rcv, snd := node.Mesh.SocketBuffers(); rcv < asked || snd < asked {
		fmt.Fprintf(os.Stderr, "rainnode serve: kernel granted %d B receive / %d B send UDP socket buffers of %d asked: "+
			"raise net.core.rmem_max and net.core.wmem_max to at least %d, or RUDP retransmits what the sockets drop\n",
			rcv, snd, asked, asked)
	}

	if *httpAddr != "" {
		gw := gateway.New(node.Call, node.Client, gateway.Config{MaxInflightBytes: *inflight})
		mux := http.NewServeMux()
		mux.Handle("/o/", gw)
		mux.Handle("/debug/", telemetry.Handler(node.Telemetry, node.Tracer))
		srv := &http.Server{Addr: *httpAddr, Handler: mux}
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "gateway listener:", err)
				os.Exit(1)
			}
		}()
		defer srv.Close()
		fmt.Println("object gateway on", *httpAddr)
	}
	watchDumpSignal(node.Telemetry)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := node.WaitReady(ctx); err == nil {
		fmt.Printf("cluster ready: view %v, leader %s\n", node.View(), node.Leader())
	}
	<-ctx.Done()
	fmt.Println("shutting down")
}

// splitCSV splits a comma-separated flag, mapping "" to nil.
func splitCSV(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

// parsePeerBook parses "name=addr|addr,name=addr" into the mesh's peer
// address book ("|" separates one peer's bundled paths, "," separates
// peers).
func parsePeerBook(s string) (map[string][]string, error) {
	book := make(map[string][]string)
	if s == "" {
		return book, nil
	}
	for _, ent := range strings.Split(s, ",") {
		name, addrs, ok := strings.Cut(ent, "=")
		if !ok || name == "" || addrs == "" {
			return nil, fmt.Errorf("bad -peers entry %q (want name=addr|addr)", ent)
		}
		book[name] = strings.Split(addrs, "|")
	}
	return book, nil
}
