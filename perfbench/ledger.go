package main

// The traced run (--trace 1) is the per-layer ledger. Every figure comes
// from timing calls into one module's exported functions from this
// package, each call wrapped in a span; a layer's cost is its spans' self
// time over the operations they covered. Runtime figures come from live
// segments run with a benchmark obs.Tracer, interleaved with untraced
// segments so the tracing overhead is measured, not assumed.

import (
	"bytes"
	"fmt"
	"math"
	goruntime "runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"spinstreams/internal/core"
	"spinstreams/internal/keypart"
	"spinstreams/internal/lint"
	"spinstreams/internal/mailbox"
	"spinstreams/internal/operators"
	"spinstreams/internal/opt"
	"spinstreams/internal/plan"
	"spinstreams/internal/stats"
	"spinstreams/internal/xmlio"
)

// Ledger shape. unit scales every timed section with --seconds.
const (
	ledgerPairs   = 3       // traced/untraced segment pairs per runtime workload
	ledgerTopos   = 8       // corpus topologies the static layers are timed on
	mailboxCap    = 64      // runtime.Config's default MailboxSize
	streamLen     = 4096    // pre-generated tuples per operator stream
	mailboxStream = 1 << 16 // pre-generated tuples the mailbox producers cycle through
)

// opImpls are the catalog operators whose Process the ledger times: the
// keyed plan's workers and the chain's pass-through stage.
var opImpls = []string{"affine", "magnitude", "threshold-filter", "wma", "topk", "identity"}

// transportModes are the transports the mailbox ledger and the sweep cover.
var transportModes = []struct {
	name string
	mode mailbox.Mode
}{{"tuple", mailbox.PerTuple}, {"batched", mailbox.Batched}, {"auto", mailbox.Auto}}

// runtimeWorkloads are the live workloads the tracing overhead is
// measured on.
var runtimeWorkloads = []string{"chain-max", "keyed-max", "rescale-live"}

// planStations returns the stations of a workload plan as the runtime
// deploys them, with metric-safe names.
func planStations(kind string) (names []string, source []bool) {
	var p *plan.Plan
	var err error
	if kind == "chain" {
		p, err = plan.Build(buildChain().topo, plan.Options{})
	} else {
		k := buildKeyed()
		p, err = plan.Build(k.topo, plan.Options{Replicas: k.replicas})
	}
	if err != nil {
		panic(fmt.Sprintf("plan %s: %v", kind, err)) // the plans are fixed in this package
	}
	for _, st := range p.Stations {
		names = append(names, kind+"."+strings.ReplaceAll(st.Name, "/", "."))
		source = append(source, st.Role == plan.RoleSource)
	}
	return names, source
}

// perLayerSpecs lists every per-layer metric, with the end-to-end metric
// and workload it should move.
func perLayerSpecs() []metricSpec {
	var s []metricSpec
	add := func(name, unit, better, moves string) {
		s = append(s, metricSpec{Name: name, Unit: unit, Better: better, Moves: moves})
	}
	// operators
	add("gen_ns_per_tuple.chain", "ns", "lower", "throughput_per_s@chain-max")
	add("gen_ns_per_tuple.keyed", "ns", "lower", "latency_p50_us@keyed-max")
	for _, impl := range opImpls {
		add("op_ns_per_tuple."+impl, "ns", "lower", "latency_p50_us@keyed-max")
	}
	// mailbox
	for _, m := range []string{"tuple", "batched", "spsc", "mpsc2"} {
		add("sendrecv_ns_per_tuple."+m, "ns", "lower", "throughput_per_s@chain-max")
		add("blocked_sends_per_ktuple."+m, "count", "lower", "latency_p95_us@keyed-max")
	}
	add("send_ns_per_tuple.tuple", "ns", "lower", "throughput_per_s@chain-max")
	add("recv_ns_per_tuple.tuple", "ns", "lower", "throughput_per_s@chain-max")
	// runtime dataplane
	for _, kind := range []string{"chain", "keyed"} {
		moves := "throughput_per_s@chain-max"
		if kind == "keyed" {
			moves = "latency_p95_us@keyed-max"
		}
		names, source := planStations(kind)
		for i, n := range names {
			add("busy_frac."+n, "fraction", "lower", moves)
			if source[i] {
				continue
			}
			add("queue_depth_p50."+n, "count", "lower", moves)
			add("blocked_sends."+n, "1/s", "lower", moves)
			add("batch_mean."+n, "count", "higher", moves)
		}
	}
	add("source_lag_p99_us", "us", "lower", "none: open-loop keyed-rate segment")
	// runtime reconfiguration
	add("apply_us_p50", "us", "lower", "latency_p95_us@rescale-live")
	add("migrated_keys_per_apply", "count", "lower", "latency_p95_us@rescale-live")
	add("demoted_per_apply", "count", "lower", "latency_p95_us@rescale-live")
	add("stall_p50_us", "us", "lower", "latency_p95_us@rescale-live")
	add("stall_p90_us", "us", "lower", "latency_p95_us@rescale-live")
	// keypart, plan
	add("partition_us", "us", "lower", "latency_p95_us@keyed-max")
	add("pmax", "fraction", "lower", "latency_p95_us@keyed-max")
	add("plan_build_us", "us", "lower", "setup_s@keyed-max")
	// static tool
	add("steady_state_us", "us", "lower", "latency_p50_us@optimize-corpus")
	add("fission_ms", "ms", "lower", "latency_p50_us@optimize-corpus")
	add("autofuse_ms", "ms", "lower", "latency_p50_us@optimize-corpus")
	add("solves_per_topo", "count", "lower", "latency_p50_us@optimize-corpus")
	add("cache_ratio", "ratio", "higher", "latency_p50_us@optimize-corpus")
	add("fingerprint_unstable", "count", "lower", "none: counts topologies whose FinalFingerprint changed between two optimizations")
	add("lint_pre_ms", "ms", "lower", "latency_p50_us@optimize-corpus")
	add("verify_plan_ms", "ms", "lower", "latency_p95_us@optimize-corpus")
	add("xml_decode_us", "us", "lower", "setup_s@optimize-corpus")
	// obs and the ledger itself
	for _, w := range runtimeWorkloads {
		add("trace_overhead_pct."+w, "%", "lower", "none: keeps the traced run honest")
		add("trace_overhead_spread_pct."+w, "%", "lower", "none: run-to-run spread of the overhead")
	}
	add("span_overhead_pct", "%", "lower", "none: the span recorder's own cost")
	add("ledger_pred_tps", "1/s", "higher", "throughput_per_s@chain-max")
	add("ledger_err_pct", "%", "lower", "none: the ledger's prediction error on chain-max")
	add("inline_tps", "1/s", "higher", "throughput_per_s@chain-max")
	// transport sweep
	for _, m := range transportModes {
		add("chain-max.throughput_tps."+m.name, "1/s", "higher", "throughput_per_s@chain-max")
	}
	for _, m := range transportModes {
		add("keyed-rate.throughput_tps."+m.name, "1/s", "higher", "none: open loop at 200k tuples/s, below it means a backlog")
		add("keyed-rate.latency_p99_us."+m.name, "us", "lower", "none: open-loop latency at 200k tuples/s")
	}
	return s
}

// ledger accumulates one traced run.
type ledger struct {
	seed uint64
	unit time.Duration
	sp   *spans
	o    *outcome
	m    map[string]float64
	// chainTPS is chain-max's measured throughput over the untraced
	// segments, the ledger prediction's reference.
	chainTPS float64
}

// runLedger runs every ledger section; the sections' lengths scale with
// measure so the run takes a few times --seconds.
func runLedger(seed uint64, measure time.Duration) (*outcome, *spans, error) {
	unit := measure / 20
	if unit < 200*time.Millisecond {
		unit = 200 * time.Millisecond
	} else if unit > 2*time.Second {
		unit = 2 * time.Second
	}
	o := newOutcome()
	l := &ledger{seed: seed, unit: unit, sp: newSpans(), o: o, m: o.metrics}
	o.config["ledger unit"] = unit.String()
	o.config["mailbox microbenchmarks"] = fmt.Sprintf("Capacity %d, Batch %d, Linger %v", mailboxCap, mailbox.DefaultBatch, mailbox.DefaultLinger)
	start := time.Now()
	for _, section := range []func() error{
		l.operators, l.mailboxes, l.keypartAndPlan, l.staticTool, l.live, l.sweep, l.predict,
	} {
		if err := section(); err != nil {
			return nil, nil, err
		}
	}
	l.spanOverhead(time.Since(start))
	return o, l.sp, nil
}

// timed runs body(chunk) under a span named name until d has elapsed and
// returns the span's mean self time per operation in ns.
func (l *ledger) timed(name string, d time.Duration, chunk int, body func(n int)) float64 {
	id := l.sp.begin(name)
	start := time.Now()
	ops := 0
	for time.Since(start) < d {
		body(chunk)
		ops += chunk
	}
	l.sp.end(id, int64(ops))
	return l.sp.perOp(name)
}

func (l *ledger) operators() error {
	var t operators.Tuple
	for _, c := range []struct {
		name string
		cfg  operators.GeneratorConfig
	}{{"chain", chainGenConfig(l.seed)}, {"keyed", keyedGenConfig(l.seed)}} {
		g, err := operators.NewGenerator(c.cfg)
		if err != nil {
			return err
		}
		l.m["gen_ns_per_tuple."+c.name] = l.timed("operators.Generator.NextInto."+c.name, l.unit/4, 1024, func(n int) {
			for i := 0; i < n; i++ {
				g.NextInto(&t)
			}
		})
	}
	// Each operator's input is the previous stage's output on a
	// pre-generated keyed stream, so every Process sees realistic fields.
	k := buildKeyed()
	specs := k.specs()
	g, err := operators.NewGenerator(keyedGenConfig(l.seed))
	if err != nil {
		return err
	}
	raw := make([]operators.Tuple, streamLen)
	for i := range raw {
		g.NextInto(&raw[i])
	}
	through := func(spec operators.Spec, in []operators.Tuple) []operators.Tuple {
		op := operators.MustBuild(spec)
		var out []operators.Tuple
		for _, t := range in {
			op.Process(t, func(o operators.Tuple) { out = append(out, o) })
		}
		return out
	}
	afterAffine := through(specs[k.affine], raw)
	afterScore := through(specs[k.score], afterAffine)
	afterFilter := through(specs[k.filter], afterScore)
	inputs := map[string][]operators.Tuple{
		"affine": raw, "magnitude": afterAffine, "threshold-filter": afterScore,
		"wma": afterScore, "topk": afterFilter, "identity": raw,
	}
	implSpec := map[string]operators.Spec{"identity": {Impl: "identity"}}
	for _, s := range specs {
		implSpec[s.Impl] = s
	}
	for _, impl := range opImpls {
		in := inputs[impl]
		if len(in) == 0 {
			return fmt.Errorf("no input stream for %s", impl)
		}
		op := operators.MustBuild(implSpec[impl])
		emitted := 0
		emit := func(operators.Tuple) { emitted++ }
		pos := 0
		l.m["op_ns_per_tuple."+impl] = l.timed("operators.Process."+impl, l.unit/8, 256, func(n int) {
			for i := 0; i < n; i++ {
				op.Process(in[pos], emit)
				if pos++; pos == len(in) {
					pos = 0
				}
			}
		})
		l.o.attempted++
		if emitted == 0 {
			l.o.problems = append(l.o.problems, impl+" emitted nothing")
		}
	}
	return nil
}

// sendRecv moves n pre-generated tuples through one mailbox from the given
// number of producers to one consumer, the way station loops do: Send/Recv
// per tuple on the per-tuple transport, SendMany/RecvBatch in batches
// otherwise.
func sendRecv(mode mailbox.Mode, producers int, tuples []operators.Tuple, n int) (time.Duration, uint64, error) {
	m, err := mailbox.New[operators.Tuple](mailbox.Config{Capacity: mailboxCap, Mode: mode, Batch: mailbox.DefaultBatch, Linger: mailbox.DefaultLinger})
	if err != nil {
		return 0, 0, err
	}
	done := make(chan struct{})
	defer close(done)
	per := n / producers / mailbox.DefaultBatch * mailbox.DefaultBatch
	var wg sync.WaitGroup
	start := time.Now()
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(off int) {
			defer wg.Done()
			s := m.NewSender(0)
			for i := 0; i < per; i += mailbox.DefaultBatch {
				chunk := tuples[(off+i)%len(tuples):][:mailbox.DefaultBatch]
				if mode == mailbox.PerTuple {
					for _, t := range chunk {
						s.Send(t, done) // no timeout and done stays open: always Sent
					}
				} else {
					s.SendMany(chunk, done) // likewise admits every tuple
				}
			}
			s.Flush()
		}(p * 97 * mailbox.DefaultBatch)
	}
	for got := 0; got < per*producers; {
		if mode == mailbox.PerTuple {
			if _, ok := m.Recv(done); ok {
				got++
			}
			continue
		}
		b, ok := m.RecvBatch(done)
		if ok {
			got += len(b)
			m.Recycle(b)
		}
	}
	elapsed := time.Since(start)
	wg.Wait()
	return elapsed, m.Blocked(), nil
}

func (l *ledger) mailboxes() error {
	g, err := operators.NewGenerator(chainGenConfig(l.seed))
	if err != nil {
		return err
	}
	tuples := make([]operators.Tuple, mailboxStream)
	for i := range tuples {
		g.NextInto(&tuples[i])
	}
	for _, c := range []struct {
		name      string
		mode      mailbox.Mode
		producers int
		n         int
	}{
		{"tuple", mailbox.PerTuple, 1, 1 << 19},
		{"batched", mailbox.Batched, 1, 1 << 21},
		{"spsc", mailbox.SPSC, 1, 1 << 21},
		{"mpsc2", mailbox.Batched, 2, 1 << 21},
	} {
		var total time.Duration
		var blocked uint64
		id := l.sp.begin("mailbox.sendrecv." + c.name)
		ops := 0
		for total < l.unit/4 {
			d, b, err := sendRecv(c.mode, c.producers, tuples, c.n)
			if err != nil {
				return err
			}
			total += d
			blocked += b
			ops += c.n / c.producers / mailbox.DefaultBatch * mailbox.DefaultBatch * c.producers
		}
		l.sp.end(id, int64(ops))
		l.m["sendrecv_ns_per_tuple."+c.name] = l.sp.perOp("mailbox.sendrecv." + c.name)
		l.m["blocked_sends_per_ktuple."+c.name] = float64(blocked) * 1000 / float64(ops)
		l.o.attempted += int64(ops)
	}
	// Uncontended per-tuple costs: one goroutine fills the mailbox to
	// capacity, then drains it.
	m, err := mailbox.New[operators.Tuple](mailbox.Config{Capacity: mailboxCap, Mode: mailbox.PerTuple})
	if err != nil {
		return err
	}
	s := m.NewSender(0)
	done := make(chan struct{})
	defer close(done)
	for start := time.Now(); time.Since(start) < l.unit/8; {
		id := l.sp.begin("mailbox.send.tuple")
		for i := 0; i < mailboxCap; i++ {
			s.Send(tuples[i], done) // capacity is free: always Sent
		}
		l.sp.end(id, mailboxCap)
		id = l.sp.begin("mailbox.recv.tuple")
		for i := 0; i < mailboxCap; i++ {
			m.Recv(done) // the mailbox holds mailboxCap tuples
		}
		l.sp.end(id, mailboxCap)
	}
	l.m["send_ns_per_tuple.tuple"] = l.sp.perOp("mailbox.send.tuple")
	l.m["recv_ns_per_tuple.tuple"] = l.sp.perOp("mailbox.recv.tuple")
	return nil
}

func (l *ledger) keypartAndPlan() error {
	freq := stats.ZipfWeights(numCards, cardSkew)
	var asg keypart.Assignment
	var perr error
	l.m["partition_us"] = l.timed("keypart.Greedy.Partition", l.unit/8, 16, func(n int) {
		for i := 0; i < n; i++ {
			asg, perr = keypart.Greedy{}.Partition(freq, 2)
		}
	}) / 1e3
	if perr != nil {
		return perr
	}
	l.m["pmax"] = asg.PMax
	k := buildKeyed()
	var berr error
	l.m["plan_build_us"] = l.timed("plan.Build", l.unit/8, 16, func(n int) {
		for i := 0; i < n; i++ {
			_, berr = plan.Build(k.topo, plan.Options{Replicas: k.replicas})
		}
	}) / 1e3
	return berr
}

// staticTool times the optimizer's layers one by one on the first corpus
// topologies, then the pipeline that chains them.
func (l *ledger) staticTool() error {
	docs, err := corpusDocs()
	if err != nil {
		return err
	}
	docs = docs[:ledgerTopos]
	call := func(name string, f func() error) error {
		id := l.sp.begin(name)
		err := f()
		l.sp.end(id, 1)
		return err
	}
	var solves, ratio []float64
	unstable := 0
	for _, d := range docs {
		x, err := generateDoc(d.seed)
		if err != nil {
			return err
		}
		var t *core.Topology
		var res *opt.Result
		top := l.sp.begin("corpus.topology")
		steps := []struct {
			name string
			f    func() error
		}{
			{"xmlio.Read", func() (err error) { t, err = xmlio.Read(bytes.NewReader(x)); return }},
			{"lint.Run", func() error { return lint.Run(t, lint.Config{}).Err() }},
			{"core.SteadyState", func() error { _, err := core.SteadyState(t); return err }},
			{"core.EliminateBottlenecks", func() error { _, err := core.EliminateBottlenecks(t, core.FissionOptions{}); return err }},
			{"core.AutoFuse", func() error { _, err := core.AutoFuse(t, core.AutoFuseOptions{}); return err }},
			{"opt.Pipeline.Run", func() (err error) { res, err = opt.Run(t, opt.Options{}); return }},
			{"lint.VerifyPlan", func() error {
				return lint.VerifyPlan(res.Final.Topology(), lint.Config{Replicas: res.Replicas()}).Err()
			}},
		}
		for _, s := range steps {
			if err := call(s.name, s.f); err != nil {
				return fmt.Errorf("topology %d: %s: %w", d.seed, s.name, err)
			}
		}
		l.sp.end(top, 1)
		l.o.attempted++
		if bad := checkOptimized(res, d.want); len(bad) > 0 {
			l.o.failed++
			l.o.problems = append(l.o.problems, fmt.Sprintf("topology %d: %s", d.seed, strings.Join(bad, "; ")))
		}
		cs := res.CacheStats
		solves = append(solves, float64(cs.Misses))
		ratio = append(ratio, cs.Ratio())
		stable, err := fingerprintStable(t, res)
		if err != nil {
			return err
		}
		if !stable {
			unstable++
		}
	}
	l.m["xml_decode_us"] = l.sp.perOp("xmlio.Read") / 1e3
	l.m["lint_pre_ms"] = l.sp.perOp("lint.Run") / 1e6
	l.m["steady_state_us"] = l.sp.perOp("core.SteadyState") / 1e3
	l.m["fission_ms"] = l.sp.perOp("core.EliminateBottlenecks") / 1e6
	l.m["autofuse_ms"] = l.sp.perOp("core.AutoFuse") / 1e6
	l.m["verify_plan_ms"] = l.sp.perOp("lint.VerifyPlan") / 1e6
	l.m["solves_per_topo"] = mean(solves)
	l.m["cache_ratio"] = mean(ratio)
	l.m["fingerprint_unstable"] = float64(unstable)
	l.o.note("static tool on %d topologies: opt.Pipeline.Run %.2fms each, %d with a FinalFingerprint that changed between two optimizations",
		len(docs), l.sp.perOp("opt.Pipeline.Run")/1e6, unstable)
	return nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// segment runs one live segment under a span and checks its outputs.
func (l *ledger) segment(name string, s liveSpec) (*liveResult, error) {
	id := l.sp.begin("runtime.segment." + name)
	r, err := runLive(s)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	l.sp.end(id, int64(r.generated))
	l.o.attempted += int64(r.totals.Generated)
	l.o.failed += int64(r.totals.Failed + r.totals.Shed + uint64(r.applyErrs))
	for _, p := range checkLive(s.kind, r) {
		l.o.problems = append(l.o.problems, name+": "+p)
	}
	return r, nil
}

// cpuPerTuple is a segment's process CPU time per generated tuple.
func cpuPerTuple(r *liveResult) float64 {
	if r.generated == 0 {
		return 0
	}
	return float64(r.cpuNs) / float64(r.generated)
}

// live runs each runtime workload's traced/untraced pairs, alternating
// which side goes first, and derives the dataplane, reconfiguration and
// tracing-overhead figures.
func (l *ledger) live() error {
	specs := map[string]liveSpec{
		"chain-max":    {kind: "chain", measure: l.unit},
		"keyed-max":    {kind: "keyed", measure: l.unit},
		"rescale-live": {kind: "keyed", rescale: true, measure: 2 * l.unit},
	}
	traced := map[string][]*liveResult{}
	var applies []applyRec
	var chainRates []float64
	for _, w := range runtimeWorkloads {
		var overheads []float64
		for p := 0; p < ledgerPairs; p++ {
			s := specs[w]
			s.seed = l.seed + uint64(p)
			s.warmup = l.unit / 2
			var plain, tr *liveResult
			for side := 0; side < 2; side++ {
				ts := s
				name := w + ".untraced"
				if (side+p)%2 == 1 {
					ts.tracer, name = &stationTracer{}, w+".traced"
				}
				r, err := l.segment(name, ts)
				if err != nil {
					return err
				}
				if ts.tracer != nil {
					tr = r
				} else {
					plain = r
					if w == "chain-max" {
						chainRates = append(chainRates, median(r.rates))
					}
				}
				applies = append(applies, r.applies...)
			}
			traced[w] = append(traced[w], tr)
			if base := cpuPerTuple(plain); base > 0 {
				overheads = append(overheads, (cpuPerTuple(tr)/base-1)*100)
			}
		}
		sort.Float64s(overheads)
		l.m["trace_overhead_pct."+w] = median(overheads)
		if len(overheads) > 0 {
			l.m["trace_overhead_spread_pct."+w] = overheads[len(overheads)-1] - overheads[0]
		}
		l.o.note("trace overhead on %s (CPU per tuple, traced vs untraced, per pair): %.1f%%", w, overheads)
	}
	l.chainTPS = median(chainRates)
	l.stationFigures("chain", traced["chain-max"])
	l.stationFigures("keyed", traced["keyed-max"])

	var wall, stall []float64
	migrated, demoted := 0, 0
	for _, a := range applies {
		wall = append(wall, float64(a.wall)/1e3)
		stall = append(stall, float64(a.stall)/1e3)
		migrated += a.migrated
		demoted += a.demoted
	}
	if len(applies) == 0 {
		return fmt.Errorf("rescale-live segments applied no change")
	}
	sort.Float64s(wall)
	sort.Float64s(stall)
	l.m["apply_us_p50"] = quantile(wall, 0.5)
	l.m["stall_p50_us"] = quantile(stall, 0.5)
	l.m["stall_p90_us"] = quantile(stall, 0.9)
	l.m["migrated_keys_per_apply"] = float64(migrated) / float64(len(applies))
	l.m["demoted_per_apply"] = float64(demoted) / float64(len(applies))
	l.o.note("%d ApplyDelta calls over the rescale-live segments; stall p90 has %d samples beyond it", len(applies), len(applies)/10)
	return nil
}

// stationFigures derives each station's busy fraction, queue depth,
// blocked-send rate and mean receive batch from the traced segments,
// as the median over segments.
func (l *ledger) stationFigures(kind string, rs []*liveResult) {
	names, source := planStations(kind)
	for j, n := range names {
		var busy, depth, blocked, batch []float64
		for _, r := range rs {
			busy = append(busy, float64(r.serveNs[j])/(r.seconds*1e9))
			if source[j] {
				continue
			}
			if j < len(r.queueDepth) {
				depth = append(depth, median(r.queueDepth[j]))
			}
			if j < len(r.blocked) {
				blocked = append(blocked, float64(r.blocked[j])/r.seconds)
			}
			if r.recvs[j] > 0 {
				batch = append(batch, float64(r.recvTups[j])/float64(r.recvs[j]))
			}
		}
		l.m["busy_frac."+n] = median(busy)
		if !source[j] {
			l.m["queue_depth_p50."+n] = median(depth)
			l.m["blocked_sends."+n] = median(blocked)
			l.m["batch_mean."+n] = median(batch)
		}
	}
}

// sweep runs chain-max, and the keyed plan open loop at keyedRate
// (keyed-rate), once per transport, recording what a change of the
// default transport would do. Open-loop latency is where batching linger
// shows; the per-tuple segment also gives the source's lag.
func (l *ledger) sweep() error {
	for _, m := range transportModes {
		r, err := l.segment("chain-max.sweep."+m.name, liveSpec{kind: "chain", seed: l.seed, mode: m.mode, setMode: true, warmup: l.unit / 2, measure: l.unit})
		if err != nil {
			return err
		}
		l.m["chain-max.throughput_tps."+m.name] = median(r.rates)
	}
	for _, m := range transportModes {
		r, err := l.segment("keyed-rate.sweep."+m.name, liveSpec{kind: "keyed", seed: l.seed, paced: true, mode: m.mode, setMode: true, warmup: l.unit / 2, measure: 3 * l.unit / 2})
		if err != nil {
			return err
		}
		l.m["keyed-rate.throughput_tps."+m.name] = median(r.rates)
		l.m["keyed-rate.latency_p99_us."+m.name] = float64(quantile(sorted(r.lat), 0.99)) / 1e3
		if m.mode == mailbox.PerTuple {
			l.m["source_lag_p99_us"] = float64(quantile(r.lag, 0.99)) / 1e3
		}
	}
	return nil
}

// predict is the ledger check on chain-max: each station's service time is
// the sum of its layer costs (the source generates and sends, the two
// pass-through stages receive and send, the sink receives), and the chain
// runs at the slower of its bottleneck station and its CPU budget
// (GOMAXPROCS cores shared by all stations). It also runs the
// single-goroutine baseline: generator, then an identity Process per
// stage, with no mailboxes.
func (l *ledger) predict() error {
	gen, send, recv := l.m["gen_ns_per_tuple.chain"], l.m["send_ns_per_tuple.tuple"], l.m["recv_ns_per_tuple.tuple"]
	stations := []float64{gen + send, recv + send, recv + send, recv}
	worst, sum := 0.0, 0.0
	for _, c := range stations {
		worst = math.Max(worst, c)
		sum += c
	}
	pred := math.Min(1e9/worst, float64(goruntime.GOMAXPROCS(0))*1e9/sum)
	l.m["ledger_pred_tps"] = pred
	if l.chainTPS > 0 {
		l.m["ledger_err_pct"] = math.Abs(pred-l.chainTPS) / l.chainTPS * 100
	}
	l.o.note("ledger on chain-max: station costs %.0f ns (generator+send, recv+send x2, recv), predicted %.0f tuples/s, measured %.0f",
		stations, pred, l.chainTPS)
	g, err := operators.NewGenerator(chainGenConfig(l.seed))
	if err != nil {
		return err
	}
	ident := operators.MustBuild(operators.Spec{Impl: "identity"})
	delivered := 0
	sink := func(operators.Tuple) { delivered++ }
	stage2 := func(t operators.Tuple) { ident.Process(t, sink) }
	var t operators.Tuple
	id := l.sp.begin("inline.chain")
	start := time.Now()
	for time.Since(start) < l.unit/2 {
		for i := 0; i < 4096; i++ {
			g.NextInto(&t)
			ident.Process(t, stage2)
		}
	}
	l.sp.end(id, int64(delivered))
	l.m["inline_tps"] = float64(delivered) / time.Since(start).Seconds()
	return nil
}

// spanOverhead estimates the recorder's own share of the run: the cost of
// one begin/end pair times the spans recorded, over the run's length.
func (l *ledger) spanOverhead(run time.Duration) {
	probe := newSpans()
	const n = 1 << 16
	start := time.Now()
	for i := 0; i < n; i++ {
		probe.end(probe.begin("probe"), 1)
	}
	perSpan := float64(time.Since(start)) / n
	l.m["span_overhead_pct"] = perSpan * float64(len(l.sp.list)) / float64(run) * 100
}
