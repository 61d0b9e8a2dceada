package rudp

import (
	"testing"
	"time"

	"rain/internal/sim"
)

// notifyPeriod is one SendNotify report period at the default RTO.
const notifyPeriod = 2*DefaultRTO + 10*time.Millisecond

// report is one delivery report and when it fired, after the send.
type report struct {
	ok bool
	at time.Duration
}

// newNotifyMesh is a settled two-node simulated mesh (a, b) on links
// configured as link, with b's "t" service counting deliveries.
func newNotifyMesh(t *testing.T, link sim.LinkConfig, cfg Config) (*Mesh, *int) {
	t.Helper()
	s := sim.New(5)
	net := sim.NewNetwork(s)
	sim.ApplyProfile(net, []string{"a", "b"}, 2, link)
	m, err := NewMesh(s, net, []string{"a", "b"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	delivered := new(int)
	m.Handle("b", "t", func(string, []byte) { *delivered++ })
	s.RunFor(time.Second) // handshakes done, path monitors Up
	return m, delivered
}

// notifyOnce sends one datagram from a to b and returns the reports it
// fires, stamped relative to the send.
func notifyOnce(m *Mesh) *[]report {
	var reports []report
	start := m.S.Now()
	m.SendNotify("a", "b", "t", []byte("x"), func(ok bool) {
		reports = append(reports, report{ok, time.Duration(m.S.Now() - start)})
	})
	return &reports
}

// Every send on a clean link and on a 10%-loss link reports true exactly
// once and never false: a lost datagram or ack costs a retransmission, well
// inside the report budget.
func TestSendNotifyReportsDelivery(t *testing.T) {
	for _, link := range []sim.LinkConfig{sim.ProfileLAN, sim.Lossy(sim.ProfileLAN, 0.10)} {
		m, delivered := newNotifyMesh(t, link, Config{})
		const sends = 200
		trues, falses := make([]int, sends), 0
		for i := 0; i < sends; i++ {
			i := i
			m.SendNotify("a", "b", "t", []byte{byte(i)}, func(ok bool) {
				if ok {
					trues[i]++
				} else {
					falses++
				}
			})
			m.S.RunFor(5 * time.Millisecond)
		}
		m.S.RunFor(2 * time.Second)
		if falses != 0 {
			t.Fatalf("loss %.2f: %d sends reported false", link.Loss, falses)
		}
		for i, n := range trues {
			if n != 1 {
				t.Fatalf("loss %.2f: send %d reported true %d times", link.Loss, i, n)
			}
		}
		if *delivered != sends {
			t.Fatalf("loss %.2f: delivered %d of %d", link.Loss, *delivered, sends)
		}
		if st := m.Conn("a", "b").Stats(); link.Loss > 0 && st.Retransmits == 0 {
			t.Fatalf("loss %.2f: no retransmission, the link lost nothing", link.Loss)
		}
	}
}

// A send to a paused peer whose paths still read Up (a ping timeout longer
// than the budget keeps the peer-down shortcut out of it) reports false
// once, after notifyPeriods unacked periods. The datagram stays in the
// reliable stream: the thawed peer gets it exactly once, and no late true
// follows.
func TestSendNotifyUnackedBudget(t *testing.T) {
	m, delivered := newNotifyMesh(t, sim.ProfileLAN, Config{PingTimeout: 2 * time.Second})
	m.StopNode("b")
	reports := notifyOnce(m)
	m.S.RunFor(time.Second)
	want := []report{{false, notifyPeriods * notifyPeriod}}
	if len(*reports) != 1 || (*reports)[0] != want[0] {
		t.Fatalf("reports %+v, want %+v", *reports, want)
	}
	m.StartNode("b")
	m.S.RunFor(time.Second)
	if *delivered != 1 {
		t.Fatalf("thawed peer got the datagram %d times, want 1", *delivered)
	}
	if len(*reports) != 1 {
		t.Fatalf("reports %+v after the thaw, want only the first", *reports)
	}
}

// With every path to the peer cut, PeerUp goes false inside the first
// period and the send reports false at its end.
func TestSendNotifyPeerDown(t *testing.T) {
	m, _ := newNotifyMesh(t, sim.ProfileLAN, Config{})
	m.CutLink("a", "b")
	reports := notifyOnce(m)
	m.S.RunFor(time.Second)
	want := report{false, notifyPeriod}
	if len(*reports) != 1 || (*reports)[0] != want {
		t.Fatalf("reports %+v, want [%+v]", *reports, want)
	}
}

// A send shed at the backlog cap is never acked, so it reports false, and
// nothing changes when the peer comes back.
func TestSendNotifyShed(t *testing.T) {
	m, _ := newNotifyMesh(t, sim.ProfileLAN, Config{})
	m.StopNode("b")
	a := m.ep("a")
	for a.Backlog("b") < maxBacklog {
		m.SendService("a", "b", "t", nil)
	}
	shed := a.shed.Value()
	reports := notifyOnce(m)
	if a.shed.Value() != shed+1 {
		t.Fatalf("rudp.mesh.sends_shed %d → %d, want the notified send shed", shed, a.shed.Value())
	}
	m.S.RunFor(time.Second)
	m.StartNode("b")
	m.S.RunFor(2 * time.Second)
	if len(*reports) != 1 || (*reports)[0].ok {
		t.Fatalf("reports %+v, want one false", *reports)
	}
}
