// The gateway client subcommands: put/get speak plain HTTP to any
// node's object gateway, so they double as living documentation of the wire
// surface — everything they do can be done with curl.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"
)

// runPutCmd stores stdin or a file through a gateway.
func runPutCmd(args []string) {
	fs := flag.NewFlagSet("rainnode put", flag.ExitOnError)
	gw := fs.String("gw", "http://127.0.0.1:8080", "gateway base URL")
	key := fs.String("key", "", "object key (required)")
	file := fs.String("file", "", "input file (default: stdin, buffered to size)")
	fs.Parse(args)
	if *key == "" {
		fmt.Fprintln(os.Stderr, "rainnode put: -key is required")
		os.Exit(2)
	}
	var body io.Reader
	var size int64
	if *file != "" {
		f, err := os.Open(*file)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rainnode put:", err)
			os.Exit(1)
		}
		defer f.Close()
		st, err := f.Stat()
		if err != nil {
			fmt.Fprintln(os.Stderr, "rainnode put:", err)
			os.Exit(1)
		}
		body, size = f, st.Size()
	} else {
		// The gateway needs Content-Length up front (the erasure layout is
		// sized by it), so stdin is buffered.
		data, err := io.ReadAll(os.Stdin)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rainnode put:", err)
			os.Exit(1)
		}
		body, size = bytes.NewReader(data), int64(len(data))
	}
	req, err := http.NewRequest(http.MethodPut, objURL(*gw, *key), body)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rainnode put:", err)
		os.Exit(1)
	}
	req.ContentLength = size
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rainnode put:", err)
		os.Exit(1)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		fmt.Fprintf(os.Stderr, "rainnode put: %s: %s", resp.Status, msg)
		os.Exit(1)
	}
	io.Copy(io.Discard, resp.Body)
	took := time.Since(start)
	fmt.Printf("stored %s: %d bytes in %v (%.1f MB/s), etag %s\n",
		*key, size, took.Round(time.Millisecond), mbps(size, took), resp.Header.Get("ETag"))
}

// runGetCmd fetches an object (optionally a byte range) through a gateway.
func runGetCmd(args []string) {
	fs := flag.NewFlagSet("rainnode get", flag.ExitOnError)
	gw := fs.String("gw", "http://127.0.0.1:8080", "gateway base URL")
	key := fs.String("key", "", "object key (required)")
	out := fs.String("out", "", "output file (default: stdout)")
	rng := fs.String("range", "", `byte range, e.g. "bytes=0-1048575" or "0-1048575"`)
	fs.Parse(args)
	if *key == "" {
		fmt.Fprintln(os.Stderr, "rainnode get: -key is required")
		os.Exit(2)
	}
	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rainnode get:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	req, err := http.NewRequest(http.MethodGet, objURL(*gw, *key), nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rainnode get:", err)
		os.Exit(1)
	}
	if *rng != "" {
		h := *rng
		if !strings.HasPrefix(h, "bytes=") {
			h = "bytes=" + h
		}
		req.Header.Set("Range", h)
	}
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rainnode get:", err)
		os.Exit(1)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusPartialContent {
		msg, _ := io.ReadAll(resp.Body)
		fmt.Fprintf(os.Stderr, "rainnode get: %s: %s", resp.Status, msg)
		os.Exit(1)
	}
	n, err := io.Copy(w, resp.Body)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rainnode get:", err)
		os.Exit(1)
	}
	took := time.Since(start)
	fmt.Fprintf(os.Stderr, "fetched %s: %d bytes in %v (%.1f MB/s)\n",
		*key, n, took.Round(time.Millisecond), mbps(n, took))
}

func objURL(gw, key string) string {
	return strings.TrimSuffix(gw, "/") + "/o/" + key
}

func mbps(n int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds() / 1e6
}
