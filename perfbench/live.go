package main

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"syscall"
	"time"

	"spinstreams/internal/core"
	"spinstreams/internal/mailbox"
	"spinstreams/internal/obs"
	"spinstreams/internal/operators"
	"spinstreams/internal/opt"
	"spinstreams/internal/runtime"
)

// Measurement pacing shared by every live segment.
const (
	tick        = 10 * time.Millisecond  // control-loop period
	rateWindow  = 250 * time.Millisecond // one throughput sample
	applyPeriod = 60 * time.Millisecond  // rescale-live schedule step
	firstWait   = 10 * time.Second       // bound on the wait for the first result
)

// liveSpec is one live segment: a topology started under runtime
// defaults for every Config field the segment does not name.
type liveSpec struct {
	kind     string // "chain" or "keyed"
	seed     uint64
	mode     mailbox.Mode // transport, only when setMode (the sweep)
	setMode  bool
	tracer   *stationTracer // non-nil: traced segment; also polls queue depths
	rescale  bool           // run the rescale-live schedule while measuring
	warmup   time.Duration
	measure  time.Duration
	stamped  bool // chain: bind a stamping first stage and time tuples to the sink
	paced    bool // keyed: padding on, so the source runs open loop at keyedRate
	noRecord bool // set-up only: stop right after the first result
}

// applyRec is one ApplyDelta of the rescale schedule.
type applyRec struct {
	wall     time.Duration
	stall    time.Duration
	migrated int
	demoted  int
}

// liveResult is everything one segment measured.
type liveResult struct {
	setup      time.Duration
	rates      []float64 // source departures per rate window (tuples/s)
	rss        float64   // live resident set (MB) at the end of the measured window
	generated  uint64    // source departures over the measured window
	seconds    float64   // measured window length
	cpuNs      int64     // process CPU time over the measured window
	lat        []int64   // end-to-end latencies (ns) in arrival order
	lag        []int64   // sorted ingress lateness (ns), keyed plans
	totals     runtime.Totals
	degraded   int
	applies    []applyRec
	applyErrs  int
	replicas   []int // final Controller.Replicas()
	expect     []int // replicas the schedule should have left
	config     map[string]string
	queueDepth [][]float64 // per station, polled depths (traced segments)
	blocked    []uint64    // per station, blocked sends over the window
	// Traced segments: per station, tracer totals over the window.
	serveNs, recvs, recvTups [maxStations]int64
}

// rescaleSteps is rescale-live's cyclic schedule: grow then shrink the
// stateless scorer and the keyed wma, one change per step.
var rescaleSteps = []opt.ReplicaChange{
	{Operator: "score", From: 2, To: 3},
	{Operator: "wma", From: 2, To: 3},
	{Operator: "score", From: 3, To: 2},
	{Operator: "wma", From: 3, To: 2},
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// runLive starts the segment's topology, waits for its first result (the
// set-up time), warms up, measures, and stops.
func runLive(s liveSpec) (*liveResult, error) {
	var (
		topo     *core.Topology
		replicas []int
		binding  *runtime.Binding
		genCfg   operators.GeneratorConfig
		rec      atomic.Bool
		lat      = newSamples(0)
		lag      = newSamples(0)
		onSink   func(core.OpID, operators.Tuple)
	)
	res := &liveResult{config: map[string]string{"Seed": fmt.Sprint(s.seed)}}
	switch s.kind {
	case "chain":
		c := buildChain()
		topo = c.topo
		genCfg = chainGenConfig(s.seed)
		if s.stamped {
			stamps := new(stampRing)
			binding = &runtime.Binding{Ops: map[core.OpID]operators.Operator{
				c.stage1: &stampOp{stamps: stamps},
				c.stage2: operators.MustBuild(operators.Spec{Impl: "identity"}),
			}}
			lat = newSamples(int(s.measure.Seconds() * 50_000))
			onSink = func(_ core.OpID, t operators.Tuple) {
				if t.Seq&(chainStampEvery-1) == 0 && rec.Load() {
					if d, ok := stamps.since(t.Seq/chainStampEvery, time.Now().UnixNano()); ok {
						lat.add(d)
					}
				}
			}
			res.config["Binding"] = "stage1 stamps every 256th tuple, stage2 identity"
		}
	case "keyed":
		k := buildKeyed()
		topo, replicas = k.topo, k.replicas
		genCfg = keyedGenConfig(s.seed)
		binding = &runtime.Binding{Ops: map[core.OpID]operators.Operator{}}
		for id, spec := range k.specs() {
			binding.Ops[id] = operators.MustBuild(spec)
		}
		// Results carry the Seq of their last contributing input; timing
		// those with Seq%4 == 0 samples a quarter of them evenly.
		lat = newSamples(int(s.measure.Seconds() * 50_000))
		stamps := new(stampRing)
		ingress := &ingressOp{stamps: stamps, lag: lag, rec: &rec}
		if s.paced {
			lag = newSamples(int(s.measure.Seconds() * keyedRate / 16 * 1.5))
			ingress.rate, ingress.lag = keyedRate, lag
			res.config["source rate"] = fmt.Sprint(keyedRate)
		}
		binding.Ops[k.ingress] = ingress
		onSink = func(_ core.OpID, t operators.Tuple) {
			if t.Seq&3 == 0 && rec.Load() {
				if d, ok := stamps.since(t.Seq, time.Now().UnixNano()); ok {
					lat.add(d)
				}
			}
		}
		res.config["Binding"] = "catalog operators; ingress stamps every tuple"
	default:
		return nil, fmt.Errorf("unknown plan %q", s.kind)
	}
	gen, err := operators.NewGenerator(genCfg)
	if err != nil {
		return nil, err
	}
	cfg := runtime.Config{Seed: s.seed, Generator: gen, OnSink: onSink}
	res.config["Generator"] = fmt.Sprintf("%+v", genCfg)
	if onSink != nil {
		res.config["OnSink"] = "latency recorder"
	}
	if !s.paced {
		cfg.NoServicePadding = true
		res.config["NoServicePadding"] = "true"
	}
	if s.setMode {
		cfg.Mailbox = s.mode
		res.config["Mailbox"] = s.mode.String()
	}
	if s.tracer != nil {
		reg := obs.New()
		reg.AddTracer(s.tracer)
		cfg.Obs = reg
		res.config["Obs"] = "registry with benchmark tracer"
	}

	start := time.Now()
	c, err := runtime.StartTopology(topo, replicas, binding, cfg)
	if err != nil {
		return nil, err
	}
	reg := c.Registry()
	var src *obs.Station
	var sinks []*obs.Station
	for _, st := range reg.Stations() {
		if st.Info.Source {
			src = st
		}
		if st.Info.Sink {
			sinks = append(sinks, st)
		}
	}
	delivered := func() (n uint64) {
		for _, st := range sinks {
			n += st.Emitted.Load()
		}
		return n
	}
	for src != nil && delivered() == 0 {
		if time.Since(start) > firstWait {
			break
		}
		time.Sleep(20 * time.Microsecond)
	}
	res.setup = time.Since(start)
	if src == nil || delivered() == 0 {
		_, _ = c.Stop() // the segment already failed; its metrics are moot
		return nil, errors.New("no result reached a sink")
	}
	if s.noRecord {
		m, err := c.Stop()
		if err != nil {
			return nil, err
		}
		res.totals, res.degraded = m.Totals, m.Degraded
		return res, nil
	}
	// Start every measured segment from the same heap state: earlier
	// segments' garbage would otherwise set when the first collections
	// run and how much memory the process keeps resident.
	debug.FreeOSMemory()
	time.Sleep(s.warmup)

	snap0 := reg.Snapshot()
	expect := append([]int(nil), replicas...)
	var serve0, recvs0, tups0 [maxStations]int64
	if s.tracer != nil {
		res.queueDepth = make([][]float64, len(snap0.Stations))
		serve0, recvs0, tups0 = s.tracer.snapshot()
	}
	rec.Store(true)
	cpu0 := cpuTime()
	t0 := time.Now()
	lastN, lastT := src.Consumed.Load(), t0
	gen0 := lastN
	step := 0
	for i := 1; ; i++ {
		next := t0.Add(time.Duration(i) * tick)
		if next.Sub(t0) > s.measure {
			break
		}
		time.Sleep(time.Until(next))
		if s.tracer != nil {
			for j, st := range reg.Snapshot().Stations {
				if j < len(res.queueDepth) {
					res.queueDepth[j] = append(res.queueDepth[j], float64(st.Queued))
				}
			}
		}
		if s.rescale && time.Duration(i)*tick%applyPeriod == 0 {
			ch := rescaleSteps[step%len(rescaleSteps)]
			step++
			a0 := time.Now()
			rep, err := c.ApplyDelta(&opt.DeltaPlan{Changes: []opt.ReplicaChange{ch}})
			ar := applyRec{wall: time.Since(a0)}
			if err != nil {
				res.applyErrs++
			} else {
				ar.stall, ar.migrated, ar.demoted = rep.Stall, rep.MigratedKeys, rep.Demoted
				if id, ok := topo.Lookup(ch.Operator); ok {
					expect[id] = ch.To
				}
			}
			res.applies = append(res.applies, ar)
		}
		if time.Duration(i)*tick%rateWindow == 0 {
			n, now := src.Consumed.Load(), time.Now()
			res.rates = append(res.rates, float64(n-lastN)/now.Sub(lastT).Seconds())
			lastN, lastT = n, now
		}
	}
	rec.Store(false)
	res.seconds = time.Since(t0).Seconds()
	res.generated = src.Consumed.Load() - gen0
	res.cpuNs = cpuTime() - cpu0
	if s.tracer != nil {
		res.serveNs, res.recvs, res.recvTups = s.tracer.snapshot()
		for j := range res.serveNs {
			res.serveNs[j] -= serve0[j]
			res.recvs[j] -= recvs0[j]
			res.recvTups[j] -= tups0[j]
		}
	}
	snap1 := reg.Snapshot()
	res.blocked = make([]uint64, len(snap1.Stations))
	for j, st := range snap1.Stations {
		res.blocked[j] = st.BlockedSends
		if j < len(snap0.Stations) {
			res.blocked[j] -= snap0.Stations[j].BlockedSends
		}
	}
	if s.rescale {
		res.replicas = c.Replicas()
		res.expect = expect
	}
	res.rss = liveRSSMB() // the engine is still running
	m, err := c.Stop()
	if err != nil {
		return nil, err
	}
	res.totals, res.degraded = m.Totals, m.Degraded
	res.lat = lat.kept()
	res.lag = sorted(lag.kept())
	return res, nil
}

// checkLive applies the workload's output checks to a segment and returns
// one message per violation.
func checkLive(kind string, r *liveResult) []string {
	var bad []string
	t := r.totals
	if kind == "chain" {
		if t.Generated != t.Delivered+t.Shed+t.Failed+t.Drained+t.Abandoned {
			bad = append(bad, fmt.Sprintf("conservation broken: %+v", t))
		}
	}
	if t.Failed != 0 || t.Shed != 0 {
		bad = append(bad, fmt.Sprintf("lost tuples: failed %d, shed %d", t.Failed, t.Shed))
	}
	if r.degraded != 0 {
		bad = append(bad, fmt.Sprintf("%d degraded stations", r.degraded))
	}
	if r.applyErrs != 0 {
		bad = append(bad, fmt.Sprintf("%d ApplyDelta calls failed", r.applyErrs))
	}
	for i := range r.expect {
		if r.replicas[i] != r.expect[i] {
			bad = append(bad, fmt.Sprintf("final replicas %v, schedule expects %v", r.replicas, r.expect))
			break
		}
	}
	if len(r.rates) == 0 || t.Delivered == 0 {
		bad = append(bad, "nothing measured")
	}
	return bad
}
