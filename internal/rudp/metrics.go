package rudp

import "rain/internal/telemetry"

// connMetrics are the registry series a Conn reports into. Every Conn of
// one endpoint shares the endpoint's series (per-conn series would be N²
// cardinality): node-labeled in a simulated mesh, the unlabeled root scope
// on sockets. All handles are created at construction, so the families export
// even at zero.
type connMetrics struct {
	sent          *telemetry.Counter
	retransmits   *telemetry.Counter
	delivered     *telemetry.Counter
	duplicates    *telemetry.Counter
	acksSent      *telemetry.Counter
	acksCoalesced *telemetry.Counter
	failovers     *telemetry.Counter
	rtt           *telemetry.Histogram
}

func newConnMetrics(s *telemetry.Scope) *connMetrics {
	return &connMetrics{
		sent:          s.Counter("rudp.conn.sent", "datagrams first transmitted"),
		retransmits:   s.Counter("rudp.conn.retransmits", "datagram retransmissions"),
		delivered:     s.Counter("rudp.conn.delivered", "datagrams delivered in order"),
		duplicates:    s.Counter("rudp.conn.duplicates", "duplicate data arrivals"),
		acksSent:      s.Counter("rudp.conn.acks_sent", "cumulative acks transmitted"),
		acksCoalesced: s.Counter("rudp.conn.acks_coalesced", "in-order arrivals whose ack was deferred"),
		failovers:     s.Counter("rudp.conn.failover_sends", "retransmissions that switched paths"),
		rtt:           s.Histogram("rudp.conn.rtt_ns", "ack round-trip time of never-retransmitted datagrams"),
	}
}

// registry resolves the configured registry, defaulting to the process-wide
// one.
func (c Config) registry() *telemetry.Registry {
	if c.Telemetry != nil {
		return c.Telemetry
	}
	return telemetry.Default()
}
