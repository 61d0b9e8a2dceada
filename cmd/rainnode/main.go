// Command rainnode is one RAIN cluster process and its tooling, behind
// subcommands:
//
//	rainnode serve   run one cluster node: the dial-by-address UDP mesh,
//	                 storage daemon, membership, self-heal and the
//	                 HTTP object gateway, all from a single config
//	rainnode put     store stdin or a file through a gateway
//	rainnode get     fetch an object (optionally a byte range) from a gateway
//	rainnode scrub   verify a node's stored shards offline
//
// A three-node cluster on loopback (each node bundles two paths):
//
//	rainnode serve -name a -ring a,b,c -local 127.0.0.1:7000,127.0.0.1:7001 -http :8080
//	rainnode serve -name b -ring a,b,c -local 127.0.0.1:7010,127.0.0.1:7011 \
//	               -peers a=127.0.0.1:7000|127.0.0.1:7001 -http :8081
//	rainnode serve -name c -ring a,b,c -local 127.0.0.1:7020,127.0.0.1:7021 \
//	               -peers a=127.0.0.1:7000|127.0.0.1:7001 -http :8082
//	rainnode put -gw http://127.0.0.1:8080 -key movie -file movie.mp4
//	rainnode get -gw http://127.0.0.1:8081 -key movie -range bytes=0-1048575
//
// While a client runs, drop one of a node's two paths with a firewall rule
// and watch the traffic fail over; kill a node and the survivors evict it,
// keep serving, and readmit it when it restarts — the behaviour the paper
// demonstrated by pulling Myrinet cables.
package main

import (
	"fmt"
	"io"
	"os"
)

func main() {
	cmd, rest := "", os.Args[1:]
	if len(rest) > 0 {
		cmd, rest = rest[0], rest[1:]
	}
	switch cmd {
	case "serve":
		runServe(rest)
	case "put":
		runPutCmd(rest)
	case "get":
		runGetCmd(rest)
	case "scrub":
		runScrubCmd(rest)
	case "help":
		usage(os.Stdout)
	default:
		if cmd != "" {
			fmt.Fprintf(os.Stderr, "rainnode: unknown command %q\n\n", cmd)
		}
		usage(os.Stderr)
		os.Exit(2)
	}
}

func usage(w io.Writer) {
	fmt.Fprint(w, `rainnode — one RAIN cluster process and its tooling

Usage:

  rainnode serve -name a -ring a,b,c -local addr[,addr] [flags]
      run one cluster node: UDP mesh, storage daemon, membership, self-heal
      and the HTTP object gateway, from a single config
  rainnode put -gw http://host:8080 -key k [-file path]
      store stdin or a file through a gateway
  rainnode get -gw http://host:8080 -key k [-out path] [-range bytes=a-b]
      fetch an object (optionally a byte range) through a gateway
  rainnode scrub -dir path [-v]
      verify every record in a node's store directory against the checksums
      its log's sidecars hold, offline; exits 1 if any record is corrupt
  rainnode help
      print this text
`)
}
