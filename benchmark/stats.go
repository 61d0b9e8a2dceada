package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"sync"
	"time"
)

// metric is one reported number; the name is the key it is stored under.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

// ratio is a/b with 0/0 = 0, so a layer that did no work reports zero
// instead of poisoning the JSON with NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// median of a sample of durations or plain numbers; 0 for an empty one.
func median[T ~int64 | ~float64](v []T) T {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func maxOf(d []time.Duration) (m time.Duration) {
	for _, v := range d {
		if v > m {
			m = v
		}
	}
	return m
}

// tail returns the highest percentile that still has ten samples beyond it,
// and that percentile. Below twenty samples there is no such percentile
// above the median, and the median is returned with pct 50; an empty sample
// gives 0, 0.
func tail(d []time.Duration) (v time.Duration, pct float64) {
	if len(d) == 0 {
		return 0, 0
	}
	if len(d) < 20 {
		return median(d), 50
	}
	s := slices.Clone(d)
	slices.Sort(s)
	i := len(s) - 11
	return s[i], 100 * float64(i+1) / float64(len(s))
}

// quartiles reproduces Python's statistics.quantiles(values, n=4), the
// exclusive method the driver uses for its spread check. It needs two
// values; with fewer the spread is unknown and ok is false.
func quartiles(v []float64) (q1, q2, q3 float64, ok bool) {
	if len(v) < 2 {
		return 0, 0, 0, false
	}
	s := slices.Clone(v)
	slices.Sort(s)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3), true
}

// span is one timed interval the benchmark recorded around its own calls.
// Spans of one request share Req; Parent names the span that caused this one
// (0 for a root). Times are nanoseconds since the process started measuring.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog records
// nothing, which is how the untraced run pays no tracing cost.
type spanLog struct {
	epoch time.Time
	mu    sync.Mutex
	next  uint64
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// newID hands out a span id before the span ends, so children that finish
// first can name their parent.
func (l *spanLog) newID() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	return l.next
}

func (l *spanLog) add(id, parent, req uint64, name string, start, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(l.epoch)), End: int64(end.Sub(l.epoch))})
	l.mu.Unlock()
}

func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(l.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
