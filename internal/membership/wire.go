package membership

import "encoding/binary"

// Wire codec of the membership protocol, the same on every transport: a
// one-byte message kind, then the body fields as uvarints and
// length-prefixed strings. Delivery, ordering and acknowledgement are the
// transport's, so there is no envelope.

// Message kinds on the wire; 0 is never sent.
const (
	wireToken = iota + 1
	wireNine11
	wireApprove
	wireProbe
)

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendStrings(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = appendString(b, s)
	}
	return b
}

func appendBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// wireReader consumes the encoded fields; any malformation sets bad and
// every later read returns zero values, so decoders need a single check.
type wireReader struct {
	b   []byte
	bad bool
}

func (r *wireReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.bad = true
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *wireReader) string() string {
	n := r.uvarint()
	if r.bad || uint64(len(r.b)) < n {
		r.bad = true
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

func (r *wireReader) strings() []string {
	n := r.uvarint()
	if r.bad || n > uint64(len(r.b)) { // each string costs >= 1 byte
		r.bad = true
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]string, 0, n)
	for i := uint64(0); i < n && !r.bad; i++ {
		out = append(out, r.string())
	}
	return out
}

func (r *wireReader) bytes() []byte {
	n := r.uvarint()
	if r.bad || uint64(len(r.b)) < n {
		r.bad = true
		return nil
	}
	if n == 0 {
		return nil
	}
	out := append([]byte(nil), r.b[:n]...)
	r.b = r.b[n:]
	return out
}

// encodeMessage encodes a protocol message.
func encodeMessage(msg any) []byte {
	switch m := msg.(type) {
	case *Token:
		b := binary.AppendUvarint([]byte{wireToken}, m.Seq)
		b = appendStrings(b, m.Ring)
		b = binary.AppendUvarint(b, uint64(len(m.Failures)))
		for _, node := range sortedKeys(m.Failures) {
			b = appendString(b, node)
			b = binary.AppendUvarint(b, uint64(m.Failures[node]))
		}
		return appendBytes(b, m.Payload)
	case *Nine11:
		b := appendString([]byte{wireNine11}, m.Requester)
		b = binary.AppendUvarint(b, m.ReqSeq)
		b = appendStrings(b, m.Visited)
		return appendStrings(b, m.Failed)
	case *Approve911:
		b := binary.AppendUvarint([]byte{wireApprove}, m.ReqSeq)
		return appendStrings(b, m.Failed)
	case *Probe:
		b := appendString([]byte{wireProbe}, m.From)
		return binary.AppendUvarint(b, m.Seq)
	}
	panic("membership: unknown wire message")
}

func sortedKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ { // insertion sort: maps are tiny
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// decodeMessage decodes a protocol message; ok is false for malformed
// datagrams.
func decodeMessage(b []byte) (msg any, ok bool) {
	if len(b) < 1 {
		return nil, false
	}
	r := &wireReader{b: b[1:]}
	switch b[0] {
	case wireToken:
		t := &Token{Seq: r.uvarint(), Ring: r.strings()}
		if n := r.uvarint(); n > 0 && !r.bad {
			t.Failures = make(map[string]int, n)
			for i := uint64(0); i < n && !r.bad; i++ {
				node := r.string()
				t.Failures[node] = int(r.uvarint())
			}
		}
		t.Payload = r.bytes()
		return t, !r.bad
	case wireNine11:
		m := &Nine11{Requester: r.string(), ReqSeq: r.uvarint()}
		m.Visited = r.strings()
		m.Failed = r.strings()
		return m, !r.bad
	case wireApprove:
		m := &Approve911{ReqSeq: r.uvarint()}
		m.Failed = r.strings()
		return m, !r.bad
	case wireProbe:
		m := &Probe{From: r.string(), Seq: r.uvarint()}
		return m, !r.bad
	}
	return nil, false
}
