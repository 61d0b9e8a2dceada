// Package snow implements SNOW, the Strong Network Of Web servers of §5.2:
// a highly-available web-server cluster built on the RAIN building blocks.
// The reliable token-based membership layer establishes the set of servers
// in the cluster, and the HTTP request queue rides on the token itself, so
// that for every request received by SNOW one — and only one — server
// replies. High availability and (coarse) load balancing follow without any
// external load-balancing device.
//
// Mechanics: a client may deliver a request to any server; the server banks
// it in a local inbox. Each time a server holds the membership token it (1)
// merges its inbox into the queue attached to the token, deduplicating
// against pending and recently-served requests, (2) serves up to
// MaxPerHold pending requests, recording them as done on the token before
// passing it on. Exclusive possession of the token makes claim-and-serve
// atomic across the cluster.
package snow

import (
	"encoding/json"

	"rain/internal/membership"
	"rain/internal/rudp"
	"rain/internal/sim"
)

// queueState is the HTTP queue attached to the token (§5.2: "the latest
// information about the HTTP queue is attached to the token").
type queueState struct {
	Pending []string `json:"pending"`
	Done    []string `json:"done"` // bounded service history for dedup
}

// maxDoneHistory bounds the served-request history kept on the token.
const maxDoneHistory = 4096

// Config parameterises a SNOW cluster.
type Config struct {
	// Membership configures the underlying token protocol.
	Membership membership.Config
	// MaxPerHold caps requests served per token possession; lower values
	// spread work across more servers.
	MaxPerHold int
}

// Server is one SNOW web server.
type Server struct {
	name    string
	inbox   []string
	served  int
	cluster *Cluster
}

// Name returns the server's identity.
func (s *Server) Name() string { return s.name }

// Served counts requests this server has replied to.
func (s *Server) Served() int { return s.served }

// onHold is the token hook: merge the inbox, serve pending requests, and
// update the queue on the token.
func (s *Server) onHold(tok *membership.Token) {
	var q queueState
	if len(tok.Payload) > 0 {
		if err := json.Unmarshal(tok.Payload, &q); err != nil {
			q = queueState{}
		}
	}
	known := make(map[string]bool, len(q.Pending)+len(q.Done))
	for _, id := range q.Pending {
		known[id] = true
	}
	for _, id := range q.Done {
		known[id] = true
	}
	for _, id := range s.inbox {
		if !known[id] {
			q.Pending = append(q.Pending, id)
			known[id] = true
		}
	}
	s.inbox = s.inbox[:0]

	max := s.cluster.cfg.MaxPerHold
	nServed := 0
	rest := q.Pending[:0]
	for _, id := range q.Pending {
		if nServed < max {
			s.served++
			nServed++
			q.Done = append(q.Done, id)
			s.cluster.recordReply(s.name, id)
			continue
		}
		rest = append(rest, id)
	}
	q.Pending = rest
	if len(q.Done) > maxDoneHistory {
		q.Done = q.Done[len(q.Done)-maxDoneHistory:]
	}
	payload, err := json.Marshal(q)
	if err == nil {
		tok.Payload = payload
	}
}

// Cluster is a running SNOW deployment: the servers' membership ring runs
// as a service on a simulated RUDP mesh, two bundled paths per pair (the
// paper's testbed layout) — the transport a deployed node runs it on.
type Cluster struct {
	M       *membership.MeshCluster
	mesh    *rudp.Mesh
	Servers map[string]*Server
	cfg     Config

	replies map[string][]string // request id -> servers that replied
	onReply func(server, reqID string)
}

// New builds a SNOW cluster of the named servers on net.
func New(s *sim.Scheduler, net *sim.Network, names []string, cfg Config) (*Cluster, error) {
	if cfg.MaxPerHold == 0 {
		cfg.MaxPerHold = 4
	}
	mesh, err := rudp.NewMesh(s, net, names, rudp.Config{Paths: 2})
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		M:       membership.NewMeshCluster(s, mesh, names, cfg.Membership),
		mesh:    mesh,
		Servers: make(map[string]*Server),
		cfg:     cfg,
		replies: make(map[string][]string),
	}
	for _, name := range names {
		srv := &Server{name: name, cluster: c}
		c.Servers[name] = srv
		c.M.Members[name].OnHold(srv.onHold)
	}
	return c, nil
}

// Stop crashes a server: its membership engine and mesh endpoint freeze and
// its links are cut, so the ring excludes it and its inbox is lost.
func (c *Cluster) Stop(name string) {
	c.M.Stop(name)
	c.mesh.StopNode(name)
}

// OnReply registers an observer invoked for every reply (server, request).
func (c *Cluster) OnReply(fn func(server, reqID string)) { c.onReply = fn }

func (c *Cluster) recordReply(server, reqID string) {
	c.replies[reqID] = append(c.replies[reqID], server)
	if c.onReply != nil {
		c.onReply(server, reqID)
	}
}

// Submit delivers a client request to the named server (clients may target
// any cluster member, e.g. via DNS round robin).
func (c *Cluster) Submit(server, reqID string) {
	c.Servers[server].inbox = append(c.Servers[server].inbox, reqID)
}

// Replies returns, for each request id, the servers that replied to it.
// The §5.2 guarantee is exactly one entry per submitted request.
func (c *Cluster) Replies() map[string][]string {
	out := make(map[string][]string, len(c.replies))
	for k, v := range c.replies {
		out[k] = append([]string(nil), v...)
	}
	return out
}
