package rudp

// Backlog reports a peer's unacknowledged-plus-pending datagrams, the count
// the send path caps at maxBacklog. Loop-callback only.
func (m *Endpoint) Backlog(to string) int {
	p := m.peers[to]
	if p == nil {
		return 0
	}
	return p.backlog()
}
