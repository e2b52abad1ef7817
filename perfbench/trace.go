package main

import (
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. N is the number of operations the call covered (tuples,
// topologies), so a layer's cost per operation is its self time over N.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
	N      int64  `json:"n"`
}

// spans keeps every span in memory; they are written out when the run
// ends. A recorder is used from one goroutine: begin opens a child of the
// innermost open span, end closes it.
type spans struct {
	t0    time.Time
	list  []span
	stack []int
}

func newSpans() *spans { return &spans{t0: time.Now()} }

func (s *spans) begin(name string) int {
	parent := -1
	if len(s.stack) > 0 {
		parent = s.stack[len(s.stack)-1]
	}
	id := len(s.list)
	s.list = append(s.list, span{ID: id, Parent: parent, Name: name, Start: int64(time.Since(s.t0))})
	s.stack = append(s.stack, id)
	return id
}

// end closes span id, recording that it covered n operations.
func (s *spans) end(id int, n int64) {
	s.list[id].End = int64(time.Since(s.t0))
	s.list[id].N = n
	s.stack = s.stack[:len(s.stack)-1]
}

// selfTime sums, per span name, the spans' durations minus the part their
// children cover, and the operations they covered.
func (s *spans) selfTime() (selfNs, ops map[string]int64) {
	child := make([]int64, len(s.list))
	for _, sp := range s.list {
		if sp.Parent >= 0 {
			child[sp.Parent] += sp.End - sp.Start
		}
	}
	selfNs, ops = map[string]int64{}, map[string]int64{}
	for i, sp := range s.list {
		selfNs[sp.Name] += sp.End - sp.Start - child[i]
		ops[sp.Name] += sp.N
	}
	return selfNs, ops
}

// perOp returns the mean self time per operation of the spans named name,
// in nanoseconds.
func (s *spans) perOp(name string) float64 {
	selfNs, ops := s.selfTime()
	if ops[name] == 0 {
		return 0
	}
	return float64(selfNs[name]) / float64(ops[name])
}

// maxStations bounds the station indices the station tracer tracks; the
// traced plans have well under this many stations even mid-rescale.
const maxStations = 64

// stationTracer is the obs.Tracer of traced runtime segments: it sums
// per-station service time and receive sizes.
type stationTracer struct {
	serveNs  [maxStations]atomic.Int64
	recvs    [maxStations]atomic.Int64
	recvTups [maxStations]atomic.Int64
}

func (t *stationTracer) OnReceive(station, n int) {
	if station < maxStations {
		t.recvs[station].Add(1)
		t.recvTups[station].Add(int64(n))
	}
}

func (t *stationTracer) OnServe(station, n int, elapsed time.Duration) {
	if station < maxStations {
		t.serveNs[station].Add(int64(elapsed))
	}
}

func (t *stationTracer) OnEmit(station, n int)                  {}
func (t *stationTracer) OnRestart(station int, restarts uint64) {}
func (t *stationTracer) OnDegrade(station int)                  {}

// snapshot copies the tracer's counters.
func (t *stationTracer) snapshot() (serveNs, recvs, recvTups [maxStations]int64) {
	for i := range serveNs {
		serveNs[i] = t.serveNs[i].Load()
		recvs[i] = t.recvs[i].Load()
		recvTups[i] = t.recvTups[i].Load()
	}
	return
}
