package dstore

import (
	"fmt"
	"sort"

	"rain/internal/ecc"
	"rain/internal/placement"
	"rain/internal/sim"
	"rain/internal/storage"
)

// This file is the placement-reconciliation half of the client: the paged
// cluster inventory walk, the budget-bounded concurrent task pipeline, the
// reconciler that decides which shards go where, and the one shard mover
// that puts them there. The mover builds a copy and a rebuild alike from the
// client's one reader (get.go's streamGetOp) and one writer (put.go's
// transfer); they differ only in how many pieces per block the read takes
// (one or k) and how its sink turns them into the shard. Reconciliation is
// the store's one repair path, RebalanceAsync over reconcileObject, and every
// trigger is one more pass: a membership change ("every object whose
// rendezvous placement changed"), a hot swap (core's ReplaceNode: the delta
// of "one node lost everything") and detected corruption (a quarantined
// shard leaves its holder's inventory, so the object falls short of its
// placement like any other). Who drives the pass is the caller's business;
// core runs it from the view's leader.

// invEntry aggregates what the queried daemons report about one object.
type invEntry struct {
	info    storage.ObjectInfo // layout metadata, from the first holder to report
	holders map[string]int     // node -> shard index currently held
}

// listInventory walks the inventories of the given nodes page by page
// (KindListReq with a resume-after token) and merges them into per-object
// entries. Dead nodes and nodes that stop answering mid-walk contribute
// what they managed to report. done receives the merged entries; it is an
// error when no node answered a single page.
func (c *Client) listInventory(nodes []string, done func(entries map[string]*invEntry, err error)) {
	entries := make(map[string]*invEntry)
	waiting, responded := 1, 0 // 1: the loop below, until it has sent every request
	finished := false
	nodeDone := func() {
		waiting--
		if waiting > 0 || finished {
			return
		}
		finished = true
		if responded == 0 {
			done(nil, fmt.Errorf("%w: no inventory responses", ErrNotEnoughDaemons))
			return
		}
		done(entries, nil)
	}
	merge := func(node string, infos []storage.ObjectInfo) {
		for _, in := range infos {
			e := entries[in.ID]
			if e == nil {
				e = &invEntry{info: in, holders: make(map[string]int)}
				entries[in.ID] = e
			}
			if in.Shard >= 0 && in.Shard < c.cfg.Code.N() {
				e.holders[node] = in.Shard
			}
		}
	}
	for _, node := range nodes {
		if !c.alive(node) {
			continue
		}
		waiting++
		node := node
		first := true
		var requestPage func(after string)
		requestPage = func(after string) {
			c.nextReq++
			req := c.nextReq
			answered := false
			c.pending[req] = func(m Msg) {
				if m.Kind != KindListResp || answered || finished {
					return
				}
				answered = true
				delete(c.pending, req)
				infos, err := decodeInventory(m.Data)
				if err != nil {
					nodeDone()
					return
				}
				if first {
					first = false
					responded++
				}
				merge(node, infos)
				if m.Win == 1 && len(infos) > 0 {
					requestPage(infos[len(infos)-1].ID)
					return
				}
				nodeDone()
			}
			c.send(node, Msg{Kind: KindListReq, Req: req, ID: after})
			c.s.After(c.cfg.ReqTimeout, func() {
				if answered || finished {
					return
				}
				answered = true
				delete(c.pending, req)
				nodeDone()
			})
		}
		requestPage("")
	}
	nodeDone()
}

// runTasks drives n asynchronous tasks through a budgeted concurrency
// window: task i occupies cost(i) bytes of the rebuild budget while in
// flight, and new tasks are admitted while the in-flight sum stays within
// Config.RebuildBudget — with at least one task always admitted, so a task
// larger than the whole budget still runs (alone). Every task runs even if
// earlier ones fail — one unreconcilable object must not strand the rest —
// and done fires once with the first error after all have resolved.
func (c *Client) runTasks(n int, cost func(int) int64, run func(i int, taskDone func(error)), done func(error)) {
	// Per-pass progress gauges: the latest pass owns them, so a long
	// rebalance is visible from a registry snapshot while it runs. They
	// settle at done == total when the pass completes.
	c.met.objectsTotal.Set(int64(n))
	c.met.objectsDone.Set(0)
	if n == 0 {
		done(nil)
		return
	}
	var (
		next, active int
		inflight     int64
		completed    int64
		firstErr     error
		finished     bool
	)
	var launch func()
	launch = func() {
		for !finished && next < n &&
			(active == 0 || inflight+cost(next) <= c.cfg.RebuildBudget) {
			i := next
			next++
			ci := cost(i)
			active++
			inflight += ci
			if inflight > c.taskHighWater {
				c.taskHighWater = inflight
			}
			resolved := false
			run(i, func(err error) {
				if resolved || finished {
					return
				}
				resolved = true
				active--
				inflight -= ci
				completed++
				c.met.objectsDone.Set(completed)
				if err != nil && firstErr == nil {
					firstErr = err
				}
				if active == 0 && next >= n {
					finished = true
					done(firstErr)
					return
				}
				launch()
			})
		}
	}
	launch()
}

// TaskBytesHighWater reports the peak budgeted cost the concurrent
// rebuild/rebalance pipelines ever held in flight — the enforced memory
// bound, exposed for the budget tests.
func (c *Client) TaskBytesHighWater() int64 { return c.taskHighWater }

// taskCost is the budget charge of pipelining one object: its largest block
// codeword — a whole block, or the object when it is shorter — across all n
// shards, the working set its rebuild holds.
func (c *Client) taskCost(e *invEntry) int64 {
	return int64(max(min(e.info.BlockLen, e.info.DataLen), 1)) * int64(c.cfg.Code.N())
}

// spreadRank orders one object's survivor shard indices for rebuild reads:
// ascending current request load, tie-broken by a per-object hash. Across a
// pipeline of many objects this spreads the k-subsets over all survivors —
// the declustered-rebuild load balance — whatever the retrieve policy.
func (c *Client) spreadRank(id string, peers []string, skip map[int]bool) []int {
	type cand struct {
		idx  int
		load int
		h    uint64
	}
	var cands []cand
	for i, peer := range peers {
		if peer == "" || skip[i] || !c.alive(peer) {
			continue
		}
		cands = append(cands, cand{idx: i, load: c.loads[peer], h: placement.Score(id, i, peer)})
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].load != cands[b].load {
			return cands[a].load < cands[b].load
		}
		if cands[a].h != cands[b].h {
			return cands[a].h > cands[b].h
		}
		return cands[a].idx < cands[b].idx
	})
	out := make([]int, len(cands))
	for i, cd := range cands {
		out[i] = cd.idx
	}
	return out
}

// srcPeersFor lays the observed holders over the target placement: shard j
// is fetched from the node actually holding it when the inventory saw one,
// falling back to the placement's expectation; slot targetIdx stays the
// rebuild destination. Every observed holder, including the destination's
// own stale entry, is valid source data: the staged write only replaces it
// after every source byte has been read.
func srcPeersFor(peers []string, holders map[string]int, targetIdx int) []string {
	src := append([]string(nil), peers...)
	// Two nodes can hold the same shard index mid-rebalance; visit holders
	// in name order so which one serves as the source is not left to map
	// iteration (a seed must reproduce a run).
	nodes := make([]string, 0, len(holders))
	for node := range holders {
		nodes = append(nodes, node)
	}
	sort.Strings(nodes)
	for _, node := range nodes {
		if sh := holders[node]; sh >= 0 && sh < len(src) && sh != targetIdx {
			src[sh] = node
		}
	}
	// Blank placement-fallback slots whose node is known to hold a
	// different shard: leaving them would query one node for two indices,
	// and the duplicate answer wastes a read the op then has to hedge
	// around. An empty slot just means "no known holder".
	for i, node := range src {
		if i == targetIdx || node == "" {
			continue
		}
		if sh, ok := holders[node]; ok && sh != i {
			src[i] = ""
		}
	}
	return src
}

func sortedIDs(entries map[string]*invEntry) []string {
	ids := make([]string, 0, len(entries))
	for id := range entries {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// ---- the shard mover and delete ----

// moveShard puts shard idx of the object info describes onto peers[idx]. With
// src set it copies the shard from src, a node that holds it: one piece per
// block, written through as stored, one shard of network traffic. Otherwise
// it rebuilds the shard from k of the other holders in peers (shard j on
// peers[j]; "" = unknown), ranked by spreadRank. Either way one streamGetOp
// feeds one transfer: the inventory gives the layout up front, the
// transfer's backlog gates the read, and the first leg to fail ends the
// other. A failed read aborts the destination's staged write; a failed
// transfer finishes the read, cancelling every daemon session it opened. The
// mover records info's layout and digest, so a source holding another
// version fails it.
func (c *Client) moveShard(info storage.ObjectInfo, peers []string, idx int, src string, done func(error)) {
	copying := src != ""
	meta := infoMeta(info)
	info.Shard = idx
	dest := peers[idx]
	kind := "rebuild"
	if copying {
		kind = "copy"
	}
	began := c.s.Now()
	tr := c.trace(kind, info.ID)
	var (
		op       *streamGetOp
		out      *transfer
		deadline sim.Timer
		finished bool
	)
	c.met.bytesInFlight.Add(meta.shardLen)
	end := func(err error) {
		if finished {
			return
		}
		finished = true
		deadline.Stop()
		if err != nil {
			// The leg that failed is already over; these end the other one.
			op.finish(err)
			out.resolve(false)
		}
		c.met.bytesInFlight.Add(-meta.shardLen)
		switch {
		case err != nil:
		case copying:
			c.met.shardsCopied.Inc()
			c.met.bytesCopied.Add(meta.shardLen)
		default:
			c.met.shardsRebuilt.Inc()
			c.met.bytesReconstructed.Add(meta.shardLen)
			c.met.repairDuration.Observe(int64(c.s.Now() - began))
		}
		tr.Finish(c.nowNS(), err)
		done(err)
	}
	out = c.startTransfer(dest, info, func(ok bool) {
		if !ok {
			end(fmt.Errorf("%w: %s of %s to %s: transfer failed", ErrNotEnoughDaemons, kind, info.ID, dest))
			return
		}
		end(nil) // every byte acked: the read finished first
	})
	write := writerFunc(func(p []byte) (int, error) {
		out.offer(p)
		return len(p), nil
	})
	// A rebuild reads k pieces per block from the other holders and
	// reconstructs the target's piece from them. A copy reads one piece per
	// block from src alone and writes it through: src is its one candidate,
	// every other index is excluded (a stream reporting another shard fails
	// rather than being adopted), and the strays are never asked.
	from, exclude, need := peers, map[int]bool{idx: true}, c.cfg.Code.K()
	mkSink := func(m objMeta, dataLen int64) (blockSink, error) {
		rb, err := ecc.NewShardRebuilder(c.cfg.Code, idx, write, dataLen, int(m.blockLen))
		if err == nil {
			rb.UseScratch(&c.decScratch)
		}
		return rb, err
	}
	if copying {
		from = make([]string, len(peers))
		from[idx] = src
		exclude = make(map[int]bool, len(peers))
		for j := range peers {
			exclude[j] = j != idx
		}
		need = 1
		mkSink = func(objMeta, int64) (blockSink, error) {
			return sinkFunc(func(shards [][]byte) error {
				_, err := write(shards[idx])
				return err
			}), nil
		}
	}
	highWater := int64(c.cfg.Window) * int64(c.cfg.ChunkSize)
	op = &streamGetOp{c: c, id: info.ID, peers: from, exclude: exclude, need: need, spilled: copying,
		candidates: c.spreadRank(info.ID, from, exclude), trace: tr, mkSink: mkSink,
		ready: func() bool { return out.backlog() < highWater },
		done: func(_ objMeta, err error) {
			if err != nil {
				end(err)
			}
			// On success the final pieces are already offered; the transfer's
			// completion (all bytes acked by dest) ends the move.
		}}
	op.start(&meta)
	if finished {
		return // the read failed outright and took the transfer with it
	}
	out.onAck = op.resumeDecode
	// The outgoing transfer only stall-fails with bytes in flight; a
	// destination that never acks an idle transfer (or a read that wedges)
	// is resolved by the operation deadline.
	deadline = c.s.After(c.cfg.OpTimeout, func() {
		end(fmt.Errorf("%w: %s transfer (%w)", ErrNotEnoughDaemons, kind, ErrTimeout))
	})
}

// deleteShard asks a daemon to drop its shard of an object.
func (c *Client) deleteShard(node, id string, done func(error)) {
	c.nextReq++
	req := c.nextReq
	resolved := false
	c.pending[req] = func(m Msg) {
		if resolved || m.Kind != KindDeleteResp {
			return
		}
		resolved = true
		delete(c.pending, req)
		if m.Err != "" {
			done(fmt.Errorf("dstore: delete %s on %s: %s", id, node, m.Err))
			return
		}
		c.met.shardsDeleted.Inc()
		done(nil)
	}
	c.send(node, Msg{Kind: KindDeleteReq, Req: req, ID: id})
	c.s.After(c.cfg.ReqTimeout, func() {
		if resolved {
			return
		}
		resolved = true
		delete(c.pending, req)
		done(fmt.Errorf("dstore: delete %s on %s: %w", id, node, ErrTimeout))
	})
}

// ---- rebalance ----

// RebalanceStats counts the work one reconciliation pass performed.
type RebalanceStats struct {
	Objects int // objects that needed any work
	Moved   int // shards copied holder-to-holder (placement moved)
	Rebuilt int // shards reconstructed from k pieces (no copy source)
	Deleted int // stale shards dropped after their replacement committed
}

// RebalanceAsync reconciles every stored object with its target placement
// over the current node universe: shards whose target holder changed are
// streamed to it (copied from their current holder when one survives,
// reconstructed from k otherwise), and stale copies are deleted only after
// every target slot of the object has committed — so no object loses
// availability mid-move. Objects are pipelined under the same budget as
// rebuild. The usual trigger is SetNodes after a membership change; on an
// unchanged universe it is a scrub, re-materialising any missing shards —
// among them every shard a holder quarantined as corrupt.
//
// drain names nodes outside the universe that are still reachable — a
// graceful decommission. Their inventories are consulted, their shards
// serve as copy sources (repair bandwidth 1 instead of k), and they are
// emptied as their shards land on the new holders.
// A pass is coordinator work: when a rebalance gate is installed
// (SetRebalanceGate), it is consulted before each object and a closed gate
// yields the rest of the pass with ErrYielded — committed moves stand, and
// whoever drives next re-derives exactly the remaining delta.
func (c *Client) RebalanceAsync(drain []string, done func(RebalanceStats, error)) {
	c.met.passes.Inc()
	if !c.gateOpen() {
		done(RebalanceStats{}, ErrYielded)
		return
	}
	sources := c.Universe()
	for _, node := range drain {
		if placement.ShardOf(sources, node) < 0 {
			sources = append(sources, node)
		}
	}
	c.listInventory(sources, func(entries map[string]*invEntry, err error) {
		if err != nil {
			done(RebalanceStats{}, err)
			return
		}
		var stats RebalanceStats
		var jobs []string
		for _, id := range sortedIDs(entries) {
			if c.reconcileNeeded(id, entries[id]) {
				jobs = append(jobs, id)
			}
		}
		c.runTasks(len(jobs),
			func(i int) int64 { return c.taskCost(entries[jobs[i]]) },
			func(i int, taskDone func(error)) {
				if !c.gateOpen() {
					taskDone(ErrYielded)
					return
				}
				stats.Objects++
				c.reconcileObject(jobs[i], entries[jobs[i]], &stats, taskDone)
			},
			func(err error) { done(stats, err) })
	})
}

// reconcileNeeded reports whether an object's observed holders differ from
// its target placement.
func (c *Client) reconcileNeeded(id string, e *invEntry) bool {
	peers := c.peersFor(id)
	for i, dest := range peers {
		if sh, ok := e.holders[dest]; (!ok || sh != i) && c.alive(dest) {
			return true
		}
	}
	for node := range e.holders {
		if placement.ShardOf(peers, node) < 0 {
			return true
		}
	}
	return false
}

// reconcileObject walks one object's placement slot by slot, sequentially:
// each slot whose holder is missing or stale is filled by copying the shard
// from a node that currently holds it, or reconstructing it from k live
// pieces when none does. The live holder map is updated after every commit,
// so later steps (and the swap case, where two nodes exchange indices) read
// only entries that are still valid. Stale copies are deleted last; a
// failed delete is tolerated — the recorded-shard-index guard keeps readers
// off stale entries, and the next pass retries.
func (c *Client) reconcileObject(id string, e *invEntry, stats *RebalanceStats, done func(error)) {
	peers := c.peersFor(id)
	holders := make(map[string]int, len(e.holders))
	for node, sh := range e.holders {
		holders[node] = sh
	}
	info := e.info
	info.ID = id

	// landed reports whether shard sh already sits on its target holder;
	// distinct counts the different shard indices currently live — the
	// object's effective redundancy. Both consult the liveness view, not
	// just the inventory-time holder map: a holder that died since the
	// walk must not count as redundancy (a false-dead merely defers work
	// to the next pass; a false-alive could let an overwrite destroy the
	// last live copy of a shard).
	landed := func(sh int) bool {
		got, ok := holders[peers[sh]]
		return ok && got == sh && c.alive(peers[sh])
	}
	distinct := func() int {
		seen := make(map[int]bool, len(peers))
		for node, sh := range holders {
			if c.alive(node) {
				seen[sh] = true
			}
		}
		return len(seen)
	}

	// Schedule the slots so no destination's still-needed shard is
	// overwritten before it lands at its own target: non-destructive slots
	// (destination empty or already correct) run first, then destructive
	// slots peel off once their displaced shard's slot is scheduled ahead
	// of them. Residual cycles run last — and at execution time a cycle
	// slot whose overwrite would drop the object's last copy of a shard at
	// minimum redundancy is skipped for a future pass (a permutation at
	// exactly k live shards cannot be applied without buffering a whole
	// shard; reads stay correct meanwhile because streams carry their true
	// index).
	var order, rest []int
	scheduled := make(map[int]bool)
	for i, dest := range peers {
		if sh, ok := holders[dest]; ok && sh != i && sh >= 0 && sh < len(peers) {
			rest = append(rest, i)
			continue
		}
		order = append(order, i)
		scheduled[i] = true
	}
	for progress := true; progress && len(rest) > 0; {
		progress = false
		var still []int
		for _, i := range rest {
			if sh := holders[peers[i]]; scheduled[sh] || landed(sh) {
				order = append(order, i)
				scheduled[i] = true
				progress = true
				continue
			}
			still = append(still, i)
		}
		rest = still
	}
	order = append(order, rest...) // cycles, guarded again at execution

	var fillSlot func(pos int)
	var finishDeletes func()
	rebuildTo := func(i int, next func(error)) {
		c.moveShard(info, srcPeersFor(peers, holders, i), i, "", next)
	}
	var slotErr error
	fillSlot = func(pos int) {
		if pos == len(order) {
			if slotErr != nil {
				done(fmt.Errorf("rebalancing %s: %w", id, slotErr))
				return
			}
			finishDeletes()
			return
		}
		i := order[pos]
		dest := peers[i]
		sh, hasEntry := holders[dest]
		if (hasEntry && sh == i) || !c.alive(dest) {
			fillSlot(pos + 1)
			return
		}
		src := ""
		for node, held := range holders {
			if held == i && node != dest && c.alive(node) && (src == "" || node < src) {
				src = node
			}
		}
		if src != "" && hasEntry && sh >= 0 && sh < len(peers) && !landed(sh) && distinct() <= c.cfg.Code.K() {
			// The fill would duplicate shard i while destroying the last
			// copy of shard sh, dropping the object below k distinct shards
			// for good. (Rebuilding a shard that is missing cluster-wide is
			// fine even here: it consumes dest's entry before the commit
			// replaces it, trading sh for i at constant redundancy.) Leave
			// the slot for a pass after redundancy recovers.
			fillSlot(pos + 1)
			return
		}
		step := func(err error, rebuilt bool) {
			if err != nil {
				if slotErr == nil {
					slotErr = err
				}
				fillSlot(pos + 1) // other slots may still be fixable
				return
			}
			holders[dest] = i
			if rebuilt {
				stats.Rebuilt++
			} else {
				stats.Moved++
			}
			fillSlot(pos + 1)
		}
		if src == "" {
			rebuildTo(i, func(err error) { step(err, true) })
			return
		}
		c.moveShard(info, peers, i, src, func(err error) {
			if err != nil {
				// The copy source died or went stale mid-move: fall back to
				// reconstruction from whatever still answers.
				rebuildTo(i, func(err error) { step(err, true) })
				return
			}
			step(nil, false)
		})
	}
	finishDeletes = func() {
		var stale []string
		for node, sh := range holders {
			if placement.ShardOf(peers, node) >= 0 || !c.alive(node) {
				continue
			}
			// Only drop a stale copy whose shard has landed on its (still
			// live) target holder: if the slot could not be filled — or its
			// holder has died since — this copy may be the shard's last and
			// deleting it would shrink the object's redundancy.
			if sh < 0 || sh >= len(peers) || !landed(sh) {
				continue
			}
			stale = append(stale, node)
		}
		sort.Strings(stale)
		var del func(i int)
		del = func(i int) {
			if i == len(stale) {
				done(nil)
				return
			}
			c.deleteShard(stale[i], id, func(err error) {
				if err == nil {
					stats.Deleted++
				}
				del(i + 1)
			})
		}
		del(0)
	}
	fillSlot(0)
}

// Rebalance reconciles placements, blocking in virtual time. drain names
// still-reachable nodes being decommissioned. See RebalanceAsync.
func (c *Client) Rebalance(drain ...string) (RebalanceStats, error) {
	var (
		stats    RebalanceStats
		err      error
		finished bool
	)
	c.RebalanceAsync(drain, func(s RebalanceStats, e error) { stats, err, finished = s, e, true })
	c.drive(&finished)
	return stats, err
}
