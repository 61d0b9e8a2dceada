package dstore

import (
	"errors"
	"strings"
)

// Typed sentinels at the client boundary. The wire keeps carrying error
// strings (daemons are version-skew tolerant that way); the client folds
// them back into these sentinels so callers — the HTTP gateway above all —
// branch with errors.Is instead of substring matching, and the
// error-to-status mapping lives in exactly one place (gateway.statusOf).
var (
	// ErrNotFound reports an object no reachable daemon has any shard of.
	// It maps to HTTP 404.
	ErrNotFound = errors.New("dstore: object not found")
	// ErrQuorum is the canonical name for ErrNotEnoughDaemons: fewer than k
	// shards could be stored or retrieved. It maps to HTTP 503 — the
	// cluster is degraded, retrying later can succeed.
	ErrQuorum = ErrNotEnoughDaemons
	// ErrOverloaded reports work refused by admission control (the gateway
	// sheds it before it reaches the store). It maps to HTTP 429.
	ErrOverloaded = errors.New("dstore: overloaded")
	// ErrCanceled reports an operation aborted by its caller — a gateway
	// client that disconnected mid-transfer. The abort is active: put
	// stages are poisoned and get sessions cancelled, not leaked.
	ErrCanceled = errors.New("dstore: operation canceled")
	// ErrBadRequest is how a daemon refuses a well-formed message that asks
	// for something no client sends: a get without a credit window, a put
	// chunk without a shard index. Its text leads the wire error string.
	ErrBadRequest = errors.New("dstore: bad request")
	// ErrCorrupt reports a retrieve that failed after verified corruption
	// was detected on at least one holder: the object exists but could not
	// be read back bit-exact right now. It maps to HTTP 502 — the store
	// itself, not the request, is at fault, and repair is underway.
	ErrCorrupt = errors.New("dstore: object unreadable: shard corruption detected")
)

// isNotFoundText recognises a daemon's "no such object" error string
// (ultimately storage.ErrObjectNotFound's text) on the wire.
func isNotFoundText(s string) bool {
	return strings.Contains(s, "object not found")
}

// isCorruptText recognises a daemon's corruption NAK on the wire
// (storage.CorruptError's text). The shard is already quarantined on the
// holder, which reports it to its owner for repair; the client treats it
// exactly like a missing shard — one more erasure.
func isCorruptText(s string) bool {
	return strings.Contains(s, "shard corrupt")
}

// Handle cancels one in-flight asynchronous operation. Cancel is
// idempotent and must be invoked on the client's scheduler goroutine (real
// nodes post it through their loop); the operation's done callback fires
// with ErrCanceled, put stages abort and daemon get sessions are
// cancelled. Resume re-drives a retrieve whose decode paused on a
// downstream Ready gate; it is a no-op for other operations.
type Handle struct {
	cancel func()
	resume func()
}

// Cancel aborts the operation; its done callback reports ErrCanceled.
func (h *Handle) Cancel() {
	if h != nil && h.cancel != nil {
		h.cancel()
	}
}

// Resume re-checks a retrieve's downstream Ready gate and continues
// decoding — the backpressure counterpart of GetOptions.Ready.
func (h *Handle) Resume() {
	if h != nil && h.resume != nil {
		h.resume()
	}
}
