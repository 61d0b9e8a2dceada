package dstore

import "fmt"

// ObjectStat is one stored object as reported by the cluster inventory.
type ObjectStat struct {
	ID      string
	DataLen int64 // original object length
	Shards  int   // distinct holders currently reporting a shard
}

// ListAsync walks every reachable daemon's inventory (paged, see
// listInventory) and merges it into one listing sorted by object id — the
// substrate for the gateway's paginated bucket listing. done fires once; it
// is an error only when no daemon answered at all, so a degraded cluster
// still lists what its survivors hold.
func (c *Client) ListAsync(done func(objs []ObjectStat, err error)) {
	c.listInventory(c.Universe(), func(entries map[string]*invEntry, err error) {
		if err != nil {
			done(nil, err)
			return
		}
		objs := make([]ObjectStat, 0, len(entries))
		for _, id := range sortedIDs(entries) {
			e := entries[id]
			objs = append(objs, ObjectStat{
				ID:      id,
				DataLen: int64(e.info.DataLen),
				Shards:  len(e.holders),
			})
		}
		done(objs, nil)
	})
}

// List walks the cluster inventory, blocking in virtual time.
func (c *Client) List() (objs []ObjectStat, err error) {
	finished := false
	c.ListAsync(func(o []ObjectStat, e error) { objs, err, finished = o, e, true })
	c.drive(&finished)
	return objs, err
}

// DeleteAsync removes an object from the cluster: the delete fans out to
// every reachable node in the universe (shards can sit off their placement
// mid-rebalance, and daemon deletes are idempotent), and the object counts
// as deleted once enough of its placement holders confirmed that fewer than
// k shards can remain — n−k+1 acks, the destruction quorum mirroring the
// k-of-n read quorum. Holders that are down miss the delete and their
// shards linger as stale entries; with fewer than k of them the object is
// unreconstructable regardless.
func (c *Client) DeleteAsync(id string, done func(err error)) {
	peers := c.peersFor(id)
	target := make(map[string]bool, len(peers))
	for _, p := range peers {
		target[p] = true
	}
	need := c.cfg.Code.N() - c.cfg.Code.K() + 1
	acked, waiting := 0, 0
	finished := false
	finish := func(err error) {
		if finished {
			return
		}
		finished = true
		done(err)
	}
	resolve := func(node string, err error) {
		waiting--
		if err == nil && target[node] {
			acked++
			if acked >= need {
				finish(nil)
				return
			}
		}
		if waiting == 0 {
			finish(fmt.Errorf("%w: deleted on %d of %d holders", ErrNotEnoughDaemons, acked, len(peers)))
		}
	}
	for _, node := range c.Universe() {
		if !c.alive(node) {
			continue
		}
		waiting++
		node := node
		c.deleteShard(node, id, func(err error) { resolve(node, err) })
	}
	if waiting == 0 {
		finish(fmt.Errorf("%w: no reachable daemons", ErrNotEnoughDaemons))
	}
}

// Delete removes an object's shards cluster-wide, blocking in virtual time.
func (c *Client) Delete(id string) error {
	finished := false
	var err error
	c.DeleteAsync(id, func(e error) { err, finished = e, true })
	c.drive(&finished)
	return err
}
