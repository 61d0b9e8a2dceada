package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"rain/internal/storage"
)

// runScrubCmd is the offline integrity pass: it walks a node's store
// directory and verifies every record its log's sidecars list against the
// checksums the backend recorded at commit time — the same CRCs the online
// scrub and the read path verify — without needing the node up. A record
// that fails leaves the store unchanged (quarantining is the live backend's
// job); the command reports and exits nonzero so an operator or cron job
// can act before the node next serves the bytes.
func runScrubCmd(args []string) {
	fs := flag.NewFlagSet("rainnode scrub", flag.ExitOnError)
	dir := fs.String("dir", "", "node store directory (the serve -dir)")
	verbose := fs.Bool("v", false, "print every record verified, not just failures")
	fs.Parse(args)
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "rainnode scrub: -dir is required")
		os.Exit(2)
	}
	os.Exit(scrub(*dir, *verbose, os.Stdout))
}

// scrub verifies dir, reports to out and returns the exit status: 0 clean,
// 1 if any record is corrupt, 2 if the directory cannot be walked. Records
// are named segment@offset: the log does not store object ids.
func scrub(dir string, verbose bool, out io.Writer) int {
	var records, blocks int
	var bytes int64
	var corrupt, unchecked int
	err := storage.VerifyDir(dir, func(r storage.Scrubbed) {
		switch {
		case r.Err == nil:
			records++
			blocks += r.Blocks
			bytes += r.Payload
			if verbose {
				fmt.Fprintf(out, "ok       %s  %d bytes, %d blocks\n", r.Name, r.Payload, r.Blocks)
			}
		case errors.Is(r.Err, storage.ErrNoChecksum):
			// A torn or damaged sidecar tail: the records it listed have
			// nothing left to verify against, which is worth telling the
			// operator about.
			unchecked++
			fmt.Fprintf(out, "no-sums  %s\n", r.Name)
		default:
			corrupt++
			fmt.Fprintf(out, "CORRUPT  %s  %v\n", r.Name, r.Err)
		}
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "rainnode scrub: %v\n", err)
		return 2
	}
	fmt.Fprintf(out, "scrub %s: %d records ok (%d bytes, %d blocks), %d corrupt, %d unchecked\n",
		dir, records, bytes, blocks, corrupt, unchecked)
	if corrupt > 0 {
		return 1
	}
	return 0
}
