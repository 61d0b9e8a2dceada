package dstore

// Repair-in-place: when verified corruption surfaces — a corruption NAK on
// the read path, or the background scrub — the bad shard has already been
// quarantined on its holder, which drops it from that holder's inventory.
// The object is then one erasure further from its placement, so the repair
// queue runs the same per-object reconciliation a rebalance pass does
// (reconcile): the missing shard is re-created on whichever node the
// placement now names for it, under the pass's byte budget, so a burst of
// detected corruption cannot blow the client's memory bound any more than a
// rebalance pass can.

// repairJob is one corrupt shard awaiting re-creation: object id's shard,
// quarantined by target. Which shard index it was does not matter: the
// object's reconciliation finds every slot its placement leaves empty.
type repairJob struct {
	id     string
	target string
}

func (j repairJob) key() string { return j.id + "\x00" + j.target }

// QueueRepair schedules an asynchronous repair of one shard. It is
// idempotent per (object, holder) while the repair is pending — a scrub
// discovery and a concurrent read NAK collapse into one job. Must run on
// the client's scheduler goroutine; the platform wires daemon scrub
// callbacks (same goroutine) straight here.
func (c *Client) QueueRepair(id, target string) {
	if id == "" || target == "" {
		return
	}
	job := repairJob{id: id, target: target}
	if c.repairing[job.key()] {
		return
	}
	if c.repairing == nil {
		c.repairing = make(map[string]bool)
	}
	c.repairing[job.key()] = true
	c.repairQ = append(c.repairQ, job)
	c.met.repairsQueued.Inc()
	if !c.repairActive {
		c.repairActive = true
		c.s.After(0, c.drainRepairs)
	}
}

// drainRepairs runs the queued batch as one ungated reconciliation over the
// batch's objects: one inventory walk, then each object reconciled once,
// with every job of that object settling on its outcome. Jobs queued while
// a batch is in flight drain in the next round.
func (c *Client) drainRepairs() {
	if len(c.repairQ) == 0 {
		c.repairActive = false
		return
	}
	batch := c.repairQ
	c.repairQ = nil
	var ids []string
	byObject := make(map[string][]repairJob)
	for _, job := range batch {
		if byObject[job.id] == nil {
			ids = append(ids, job.id)
		}
		byObject[job.id] = append(byObject[job.id], job)
	}
	settle := func(id string, err error) {
		for _, job := range byObject[id] {
			delete(c.repairing, job.key())
			if err != nil {
				c.met.repairsFailed.Inc()
			} else {
				c.met.repairsDone.Inc()
			}
		}
	}
	next := func(RebalanceStats, error) { c.s.After(0, c.drainRepairs) }
	c.listInventory(c.Universe(), func(entries map[string]*invEntry, _ int, err error) {
		if err != nil {
			for _, id := range ids {
				settle(id, err)
			}
			next(RebalanceStats{}, err)
			return
		}
		c.reconcile(entries, ids, false, settle, next)
	})
}
