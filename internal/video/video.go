// Package video implements RAINVideo (§5.1): a highly-available video
// server. Videos are erasure-encoded block by block and written to all n
// storage nodes with the cluster's distributed store operation; each client
// performs a distributed retrieve of k symbols per block over the mesh,
// decodes and "displays" it. If network connections break or nodes go down,
// playback continues without interruption provided each client can still
// reach at least k servers — the property experiment E17 measures.
//
// The paper's testbed streamed real video files; block payloads here are
// seeded pseudo-random bytes, since availability under faults depends only
// on whether a block decodes before its deadline, not on its content (see
// DESIGN.md substitutions).
package video

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"rain/internal/core"
)

// Config parameterises the video system.
type Config struct {
	// BlockSize is the size in bytes of one video block.
	BlockSize int
	// BlocksPerSecond is the playback rate: Play fetches one block every
	// 1/BlocksPerSecond of the cluster's virtual time.
	BlocksPerSecond int
}

func (c Config) withDefaults() Config {
	if c.BlockSize == 0 {
		c.BlockSize = 64 * 1024
	}
	if c.BlocksPerSecond == 0 {
		c.BlocksPerSecond = 4
	}
	return c
}

// System is a RAINVideo deployment: a RAIN cluster holding videos.
type System struct {
	cfg   Config
	p     *core.Platform
	metas map[string]videoMeta
}

type videoMeta struct {
	blocks int
	seed   int64
	sums   [][32]byte // per-block checksum for playback verification
}

// NewSystem builds a video system over a running cluster.
func NewSystem(p *core.Platform, cfg Config) *System {
	return &System{cfg: cfg.withDefaults(), p: p, metas: make(map[string]videoMeta)}
}

// blockID names the stored symbol group for one block.
func blockID(name string, i int) string { return fmt.Sprintf("video/%s/%06d", name, i) }

// syntheticBlock generates block i of a video deterministically from seed.
func syntheticBlock(seed int64, i, size int) []byte {
	rng := rand.New(rand.NewSource(seed + int64(i)*7919))
	b := make([]byte, size)
	rng.Read(b)
	// Stamp the block index so corruption or misdelivery is detectable.
	binary.BigEndian.PutUint64(b, uint64(i))
	return b
}

// AddVideo encodes and stores a synthetic video of the given number of
// blocks. Every block is written to all n nodes with a distributed store
// operation.
func (sys *System) AddVideo(name string, blocks int, seed int64) error {
	meta := videoMeta{blocks: blocks, seed: seed, sums: make([][32]byte, blocks)}
	for i := 0; i < blocks; i++ {
		block := syntheticBlock(seed, i, sys.cfg.BlockSize)
		meta.sums[i] = sha256.Sum256(block)
		if err := sys.p.Put(blockID(name, i), block); err != nil {
			return fmt.Errorf("video: storing %s block %d: %w", name, i, err)
		}
	}
	sys.metas[name] = meta
	return nil
}

// Report summarises one playback session.
type Report struct {
	// BlocksPlayed counts blocks retrieved, verified and displayed.
	BlocksPlayed int
	// Stalls counts blocks whose retrieve failed (fewer than k servers
	// reachable) — a visible interruption.
	Stalls int
	// Corrupt counts blocks that decoded but failed checksum verification
	// (must be zero: erasure decode is exact).
	Corrupt int
	// BytesServed totals the payload delivered to the viewer.
	BytesServed int64
}

// FaultScript injects faults during playback: one block period before block
// i is fetched, the nodes listed in Down[i] (indices into the cluster's node
// list) crash and those in Up[i] recover — the period is what membership gets
// to readmit a recovered node before the viewer needs it.
type FaultScript struct {
	Down map[int][]int
	Up   map[int][]int
}

// Play streams the named video, applying the fault script, and reports the
// outcome. A stalled block is skipped (the viewer sees a glitch) rather
// than ending playback, matching the demo's behaviour of videos continuing
// to run as nodes are taken down.
func (sys *System) Play(name string, script FaultScript) (Report, error) {
	meta, ok := sys.metas[name]
	if !ok {
		return Report{}, fmt.Errorf("video: unknown video %q", name)
	}
	var rep Report
	period := time.Second / time.Duration(sys.cfg.BlocksPerSecond)
	for i := 0; i < meta.blocks; i++ {
		for _, s := range script.Down[i] {
			if err := sys.p.Pause(sys.p.Nodes[s]); err != nil {
				return rep, err
			}
		}
		for _, s := range script.Up[i] {
			if err := sys.p.Resume(sys.p.Nodes[s]); err != nil {
				return rep, err
			}
		}
		sys.p.Run(period)
		block, err := sys.p.Get(blockID(name, i))
		if err != nil {
			rep.Stalls++
			continue
		}
		if sha256.Sum256(block) != meta.sums[i] {
			rep.Corrupt++
			continue
		}
		rep.BlocksPlayed++
		rep.BytesServed += int64(len(block))
	}
	return rep, nil
}

// Blocks returns the number of blocks of a stored video.
func (sys *System) Blocks(name string) int { return sys.metas[name].blocks }
