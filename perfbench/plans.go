package main

import (
	"sort"
	"sync/atomic"
	"time"

	"spinstreams/internal/core"
	"spinstreams/internal/operators"
	"spinstreams/internal/stats"
)

// Plan shapes shared by the runtime workloads and the traced ledger.
const (
	// keyedRate is the source rate (tuples/s) the keyed plan declares. The
	// traced ledger's open-loop keyed-rate segments run at it with padding
	// on; the end-to-end keyed workloads run the plan unpadded and unpaced.
	keyedRate = 200_000.0
	// numCards and cardSkew shape the keyed plan's key domain: 200 keys
	// drawn from a Zipf-1.4 law, as in examples/fraud.
	numCards = 200
	cardSkew = 1.4
	// workerProfile is the service time declared for every keyed-plan
	// worker: far below the operators' real cost, so under padding only
	// the source is paced.
	workerProfile = 1e-8
	// chainStampEvery is the chain's latency sampling period in tuples
	// (a power of two: the stamping operator tests it with a mask).
	chainStampEvery = 256
)

// chainPlan is the 4-operator unit-gain linear chain of chain-max: an
// unpaced source, two stateless stages and a sink.
type chainPlan struct {
	topo                     *core.Topology
	src, stage1, stage2, snk core.OpID
}

func buildChain() *chainPlan {
	t := core.NewTopology()
	c := &chainPlan{topo: t}
	c.src = t.MustAddOperator(core.Operator{Name: "src", Kind: core.KindSource, ServiceTime: 0.001})
	c.stage1 = t.MustAddOperator(core.Operator{Name: "stage1", Kind: core.KindStateless, ServiceTime: 0.001})
	c.stage2 = t.MustAddOperator(core.Operator{Name: "stage2", Kind: core.KindStateless, ServiceTime: 0.001})
	c.snk = t.MustAddOperator(core.Operator{Name: "sink", Kind: core.KindSink, ServiceTime: 0.001})
	t.MustConnect(c.src, c.stage1, 1)
	t.MustConnect(c.stage1, c.stage2, 1)
	t.MustConnect(c.stage2, c.snk, 1)
	return c
}

// chainGenConfig is the lean generator of chain-max: one field, four keys.
func chainGenConfig(seed uint64) operators.GeneratorConfig {
	return operators.GeneratorConfig{Seed: seed, NumKeys: 4, NumFields: 1}
}

// keyedPlan is the fraud-shaped plan of keyed-max and rescale-live:
//
//	source -> ingress -> affine -> score(magnitude, x2) -+-> filter -> topk --+-> sink
//	                                                     +-> wma (keyed, x2) -+
type keyedPlan struct {
	topo                                                *core.Topology
	replicas                                            []int
	src, ingress, affine, score, filter, topk, wma, snk core.OpID
}

func buildKeyed() *keyedPlan {
	t := core.NewTopology()
	k := &keyedPlan{topo: t}
	cards := &core.KeyDistribution{Freq: stats.ZipfWeights(numCards, cardSkew)}
	k.src = t.MustAddOperator(core.Operator{Name: "source", Kind: core.KindSource, ServiceTime: 1 / keyedRate})
	k.ingress = t.MustAddOperator(core.Operator{Name: "ingress", Kind: core.KindStateless, ServiceTime: workerProfile})
	k.affine = t.MustAddOperator(core.Operator{Name: "affine", Kind: core.KindStateless, ServiceTime: workerProfile, Impl: "affine"})
	k.score = t.MustAddOperator(core.Operator{Name: "score", Kind: core.KindStateless, ServiceTime: workerProfile, Impl: "magnitude"})
	k.filter = t.MustAddOperator(core.Operator{Name: "filter", Kind: core.KindStateless, ServiceTime: workerProfile, OutputSelectivity: 0.5, Impl: "threshold-filter"})
	k.topk = t.MustAddOperator(core.Operator{Name: "topk", Kind: core.KindStateful, ServiceTime: workerProfile, InputSelectivity: 5, Impl: "topk"})
	k.wma = t.MustAddOperator(core.Operator{Name: "wma", Kind: core.KindPartitionedStateful, ServiceTime: workerProfile, InputSelectivity: 10, Impl: "wma", Keys: cards})
	k.snk = t.MustAddOperator(core.Operator{Name: "sink", Kind: core.KindSink, ServiceTime: workerProfile, Impl: "identity"})
	t.MustConnect(k.src, k.ingress, 1)
	t.MustConnect(k.ingress, k.affine, 1)
	t.MustConnect(k.affine, k.score, 1)
	t.MustConnect(k.score, k.filter, 0.55)
	t.MustConnect(k.score, k.wma, 0.45)
	t.MustConnect(k.filter, k.topk, 1)
	t.MustConnect(k.topk, k.snk, 1)
	t.MustConnect(k.wma, k.snk, 1)
	k.replicas = make([]int, t.Len())
	for i := range k.replicas {
		k.replicas[i] = 1
	}
	k.replicas[k.score] = 2
	k.replicas[k.wma] = 2
	return k
}

// keyedGenConfig draws the keyed plan's input: three fields, 200 cards.
func keyedGenConfig(seed uint64) operators.GeneratorConfig {
	return operators.GeneratorConfig{Seed: seed, NumKeys: numCards, KeySkew: cardSkew}
}

// keyedSpecs are the catalog operators behind the keyed plan's workers.
func (k *keyedPlan) specs() map[core.OpID]operators.Spec {
	return map[core.OpID]operators.Spec{
		k.affine: {Impl: "affine"},
		k.score:  {Impl: "magnitude"},
		// affine maps field 0 into [1, 2.5); 1.75 passes about half.
		k.filter: {Impl: "threshold-filter", Param: 1.75},
		k.topk:   {Impl: "topk", WindowLen: 25, Slide: 5, K: 3},
		k.wma:    {Impl: "wma", WindowLen: 30, Slide: 10, NumKeys: numCards},
		k.snk:    {Impl: "identity"},
	}
}

// samples is a fixed-capacity, concurrency-safe record of nanosecond
// durations; samples beyond capacity are counted but not kept.
type samples struct {
	n    atomic.Int64
	vals []int64
}

func newSamples(capacity int) *samples { return &samples{vals: make([]int64, capacity)} }

func (s *samples) add(v int64) {
	i := s.n.Add(1) - 1
	if int(i) < len(s.vals) {
		s.vals[i] = v
	}
}

// len returns how many samples are kept so far.
func (s *samples) len() int {
	n := int(s.n.Load())
	if n > len(s.vals) {
		n = len(s.vals)
	}
	return n
}

// kept returns the kept samples in recording order. Call it only once
// every writer has stopped.
func (s *samples) kept() []int64 { return s.vals[:s.len()] }

// sorted returns a sorted copy of xs.
func sorted(xs []int64) []int64 {
	out := append([]int64(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// stampRing holds the time each recent tuple passed a stamping operator,
// indexed by sequence number; sinks read it to time a tuple's trip.
type stampRing [1 << 16]atomic.Int64

func (r *stampRing) stamp(seq uint64, now int64) { r[seq%uint64(len(r))].Store(now) }

// since returns how long ago tuple seq was stamped, or false if its slot
// holds no stamp.
func (r *stampRing) since(seq uint64, now int64) (int64, bool) {
	at := r[seq%uint64(len(r))].Load()
	return now - at, at != 0
}

// ingressOp is the keyed plan's pass-through ingress. It stamps every
// tuple for the sink's latency and, on a paced source (rate > 0) while
// recording, samples how late each 16th tuple reached it against the
// open-loop schedule: tuple seq is due at t0 + (seq-1)/rate, where t0 is
// when tuple 1 passed (source lag plus one hop). The ingress is never
// replicated, so t0 has one writer.
type ingressOp struct {
	rate   float64
	t0     int64
	stamps *stampRing
	lag    *samples
	rec    *atomic.Bool
}

func (o *ingressOp) Name() string { return "ingress" }
func (o *ingressOp) Meta() operators.Meta {
	return operators.Meta{Kind: core.KindStateless}
}
func (o *ingressOp) Clone() operators.Operator { return o }
func (o *ingressOp) Process(in operators.Tuple, emit operators.Emit) {
	now := time.Now().UnixNano()
	o.stamps.stamp(in.Seq, now)
	if in.Seq == 1 {
		o.t0 = now
	} else if o.rate > 0 && in.Seq&15 == 0 && o.t0 != 0 && o.rec.Load() {
		o.lag.add(now - o.t0 - int64(float64(in.Seq-1)*1e9/o.rate))
	}
	emit(in)
}

// stampOp is chain-max's first stage: a pass-through that stamps every
// chainStampEvery-th tuple so the sink can time its trip down the chain.
type stampOp struct{ stamps *stampRing }

func (o *stampOp) Name() string { return "stamp" }
func (o *stampOp) Meta() operators.Meta {
	return operators.Meta{Kind: core.KindStateless}
}
func (o *stampOp) Clone() operators.Operator { return o }
func (o *stampOp) Process(in operators.Tuple, emit operators.Emit) {
	if in.Seq&(chainStampEvery-1) == 0 {
		o.stamps.stamp(in.Seq/chainStampEvery, time.Now().UnixNano())
	}
	emit(in)
}
