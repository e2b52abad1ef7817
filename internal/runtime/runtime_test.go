package runtime

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spinstreams/internal/core"
	"spinstreams/internal/mailbox"
	"spinstreams/internal/operators"
	"spinstreams/internal/plan"
	"spinstreams/internal/stats"
)

func shortCfg(seed uint64) Config {
	return Config{
		Seed:     seed,
		Duration: 1500 * time.Millisecond,
		Warmup:   500 * time.Millisecond,
	}
}

func pipeline(t *testing.T, times ...float64) *core.Topology {
	t.Helper()
	topo := core.NewTopology()
	var prev core.OpID
	for i, st := range times {
		kind := core.KindStateless
		switch i {
		case 0:
			kind = core.KindSource
		case len(times) - 1:
			kind = core.KindSink
		}
		id := topo.MustAddOperator(core.Operator{
			Name: "s" + string(rune('A'+i)), Kind: kind, ServiceTime: st,
		})
		if i > 0 {
			topo.MustConnect(prev, id, 1)
		}
		prev = id
	}
	return topo
}

func TestRunPipelineMatchesModel(t *testing.T) {
	// Source at 200/s, stages faster: predicted throughput 200/s.
	topo := pipeline(t, 0.005, 0.002, 0.001)
	a, err := core.SteadyState(topo)
	if err != nil {
		t.Fatal(err)
	}
	m, err := RunTopology(context.Background(), topo, nil, nil, shortCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	if e := stats.RelErr(m.Throughput, a.Throughput()); e > 0.15 {
		t.Errorf("throughput = %v, predicted %v (err %.3f)", m.Throughput, a.Throughput(), e)
	}
}

func TestRunBackpressure(t *testing.T) {
	// Middle stage at 100/s throttles the 500/s source via blocking sends.
	topo := pipeline(t, 0.002, 0.010, 0.001)
	m, err := RunTopology(context.Background(), topo, nil, nil, shortCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	if e := stats.RelErr(m.Throughput, 100); e > 0.15 {
		t.Errorf("throughput = %v, want ~100 (err %.3f)", m.Throughput, e)
	}
}

func TestRunFissionSpeedup(t *testing.T) {
	topo := pipeline(t, 0.002, 0.008, 0.001)
	fis, err := core.EliminateBottlenecks(topo, core.FissionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	base, err := RunTopology(context.Background(), topo, nil, nil, shortCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	opt, err := RunTopology(context.Background(), topo, fis.Analysis.Replicas, nil, shortCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	if opt.Throughput < base.Throughput*1.5 {
		t.Errorf("fission speedup too small: %v -> %v", base.Throughput, opt.Throughput)
	}
	tol := 0.2
	if raceEnabled {
		tol = 0.4 // the race detector slows pacing by 5-20x
	}
	if e := stats.RelErr(opt.Throughput, fis.Analysis.Throughput()); e > tol {
		t.Errorf("optimized throughput = %v, predicted %v", opt.Throughput, fis.Analysis.Throughput())
	}
}

func TestRunFunctionalOperators(t *testing.T) {
	// Without padding, real operators transform data end to end: a scale
	// stage doubles the first field before the sink observes it.
	topo := core.NewTopology()
	src := topo.MustAddOperator(core.Operator{Name: "src", Kind: core.KindSource, ServiceTime: 0.0005})
	sc := topo.MustAddOperator(core.Operator{Name: "scale", Kind: core.KindStateless, ServiceTime: 0.0001})
	sink := topo.MustAddOperator(core.Operator{Name: "sink", Kind: core.KindSink, ServiceTime: 0.0001})
	topo.MustConnect(src, sc, 1)
	topo.MustConnect(sc, sink, 1)

	binding := &Binding{Ops: map[core.OpID]operators.Operator{
		sc: operators.MustBuild(operators.Spec{Impl: "scale", Param: 2}),
	}}
	var mu sync.Mutex
	var seen []operators.Tuple
	cfg := shortCfg(4)
	cfg.NoServicePadding = true
	cfg.Duration = 600 * time.Millisecond
	cfg.Warmup = 100 * time.Millisecond
	cfg.OnSink = func(op core.OpID, tp operators.Tuple) {
		mu.Lock()
		if len(seen) < 100 {
			seen = append(seen, tp)
		}
		mu.Unlock()
	}
	if _, err := RunTopology(context.Background(), topo, nil, binding, cfg); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) == 0 {
		t.Fatal("sink observed no tuples")
	}
	for _, tp := range seen {
		if tp.Field(0) < 0 || tp.Field(0) >= 2 {
			t.Fatalf("scaled field = %v, want in [0, 2)", tp.Field(0))
		}
	}
}

func TestRunKeyedFission(t *testing.T) {
	freq := make([]float64, 32)
	for i := range freq {
		freq[i] = 1.0 / 32
	}
	topo := core.NewTopology()
	src := topo.MustAddOperator(core.Operator{Name: "src", Kind: core.KindSource, ServiceTime: 0.002})
	ps := topo.MustAddOperator(core.Operator{
		Name: "agg", Kind: core.KindPartitionedStateful, ServiceTime: 0.005,
		Keys: &core.KeyDistribution{Freq: freq},
	})
	sink := topo.MustAddOperator(core.Operator{Name: "sink", Kind: core.KindSink, ServiceTime: 0.0005})
	topo.MustConnect(src, ps, 1)
	topo.MustConnect(ps, sink, 1)

	fis, err := core.EliminateBottlenecks(topo, core.FissionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fis.Analysis.Replicas[ps] < 2 {
		t.Fatalf("replicas = %d, want >= 2", fis.Analysis.Replicas[ps])
	}
	m, err := RunTopology(context.Background(), topo, fis.Analysis.Replicas, nil, shortCfg(5))
	if err != nil {
		t.Fatal(err)
	}
	if e := stats.RelErr(m.Throughput, fis.Analysis.Throughput()); e > 0.25 {
		t.Errorf("throughput = %v, predicted %v", m.Throughput, fis.Analysis.Throughput())
	}
}

func TestRunMetaOperatorPaperExample(t *testing.T) {
	// Execute the Table 1 fusion live: the meta-operator actor applies
	// the member functions along the item's path (Algorithm 4) padded to
	// their profiled service times; throughput must stay ~1000/s and the
	// fused topology must not lose items.
	topo, sub := core.PaperExampleTopology(core.PaperExampleTable1)
	fused, report, err := core.Fuse(topo, sub, "F")
	if err != nil {
		t.Fatal(err)
	}
	protos := map[core.OpID]operators.Operator{}
	for _, m := range sub {
		protos[m] = operators.MustBuild(operators.Spec{Impl: "identity"})
	}
	meta, err := NewMetaOperator(topo, report, protos, 6)
	if err != nil {
		t.Fatal(err)
	}
	binding := &Binding{Meta: map[core.OpID]*MetaOperator{report.FusedID: meta}}
	m, err := RunTopology(context.Background(), fused, nil, binding, shortCfg(6))
	if err != nil {
		t.Fatal(err)
	}
	if e := stats.RelErr(m.Throughput, report.ThroughputAfter); e > 0.2 {
		t.Errorf("throughput = %v, predicted %v (err %.3f)", m.Throughput, report.ThroughputAfter, e)
	}
	// Flow conservation: the sink's arrival rate tracks the source rate.
	sinkID, _ := fused.Lookup("op6")
	if e := stats.RelErr(m.Arrival[sinkID], m.Throughput); e > 0.1 {
		t.Errorf("sink arrival %v vs throughput %v", m.Arrival[sinkID], m.Throughput)
	}
}

func TestNewMetaOperatorValidation(t *testing.T) {
	topo, sub := core.PaperExampleTopology(core.PaperExampleTable1)
	_, report, err := core.Fuse(topo, sub, "F")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewMetaOperator(topo, nil, nil, 0); err == nil {
		t.Error("nil report accepted")
	}
	if _, err := NewMetaOperator(topo, report, map[core.OpID]operators.Operator{}, 0); err == nil {
		t.Error("missing prototypes accepted")
	}
}

func TestRunRejectsEmptyPlan(t *testing.T) {
	if _, err := Run(context.Background(), nil, nil, Config{}); err == nil {
		t.Error("nil plan accepted")
	}
	if _, err := Run(context.Background(), &plan.Plan{}, nil, Config{}); err == nil {
		t.Error("empty plan accepted")
	}
}

func TestBindingValidate(t *testing.T) {
	topo := pipeline(t, 0.001, 0.001)
	p, err := plan.Build(topo, plan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bad := &Binding{Ops: map[core.OpID]operators.Operator{
		core.OpID(99): operators.MustBuild(operators.Spec{Impl: "identity"}),
	}}
	if _, err := Run(context.Background(), p, bad, shortCfg(7)); err == nil {
		t.Error("out-of-range binding accepted")
	}
}

func TestRunContextCancel(t *testing.T) {
	topo := pipeline(t, 0.001, 0.001)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	cfg := Config{Seed: 8, Duration: 30 * time.Second, Warmup: 10 * time.Second}
	if _, err := RunTopology(ctx, topo, nil, nil, cfg); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("cancellation did not shorten the run")
	}
}

func TestRunStationMetrics(t *testing.T) {
	topo := pipeline(t, 0.002, 0.004, 0.0005)
	fis, err := core.EliminateBottlenecks(topo, core.FissionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := RunTopology(context.Background(), topo, fis.Analysis.Replicas, nil, shortCfg(9))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Stations) == 0 {
		t.Fatal("no station metrics")
	}
	var emitters, workers int
	var replicaRate float64
	for _, st := range m.Stations {
		switch st.Role {
		case plan.RoleEmitter:
			emitters++
		case plan.RoleWorker:
			workers++
			if st.Name == "sB/replica0" {
				replicaRate = st.ConsumeRate
			}
		}
	}
	if emitters != 1 {
		t.Errorf("emitters = %d, want 1", emitters)
	}
	if workers < 3 {
		t.Errorf("workers = %d, want replicas visible", workers)
	}
	// Each replica of the 250/s stage handles roughly half the 500/s flow.
	if replicaRate < 150 || replicaRate > 350 {
		t.Errorf("replica rate = %v, want ~250", replicaRate)
	}
}

func TestRunBandJoinPorts(t *testing.T) {
	// A band-join fed by two distinct upstream operators must receive
	// tuples tagged with distinct ports, so matches only occur across
	// sides. With both sides carrying identical values, every right-side
	// tuple matches the left window content.
	topo := core.NewTopology()
	src := topo.MustAddOperator(core.Operator{Name: "src", Kind: core.KindSource, ServiceTime: 0.0005})
	left := topo.MustAddOperator(core.Operator{Name: "left", Kind: core.KindStateless, ServiceTime: 0.0001})
	right := topo.MustAddOperator(core.Operator{Name: "right", Kind: core.KindStateless, ServiceTime: 0.0001})
	join := topo.MustAddOperator(core.Operator{Name: "join", Kind: core.KindStateful, ServiceTime: 0.0001})
	sink := topo.MustAddOperator(core.Operator{Name: "sink", Kind: core.KindSink, ServiceTime: 0.0001})
	topo.MustConnect(src, left, 0.5)
	topo.MustConnect(src, right, 0.5)
	topo.MustConnect(left, join, 1)
	topo.MustConnect(right, join, 1)
	topo.MustConnect(join, sink, 1)

	binding := &Binding{Ops: map[core.OpID]operators.Operator{
		// Wide band: everything within the window matches.
		join: operators.MustBuild(operators.Spec{Impl: "bandjoin", WindowLen: 16, Param: 1.0}),
	}}
	var matches atomic.Uint64
	cfg := shortCfg(50)
	cfg.NoServicePadding = true
	cfg.Duration = 700 * time.Millisecond
	cfg.Warmup = 200 * time.Millisecond
	cfg.OnSink = func(op core.OpID, tp operators.Tuple) { matches.Add(1) }
	if _, err := RunTopology(context.Background(), topo, nil, binding, cfg); err != nil {
		t.Fatal(err)
	}
	if matches.Load() == 0 {
		t.Fatal("band-join produced no matches across its two ports")
	}
}

func TestRunPreserveOrder(t *testing.T) {
	// Four replicas process in parallel; with PreserveOrder the collector
	// must release items in the emitter's sequence order.
	topo := pipeline(t, 0.001, 0.004, 0.0001)
	fis, err := core.EliminateBottlenecks(topo, core.FissionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fis.Analysis.Replicas[1] != 4 {
		t.Fatalf("replicas = %d, want 4", fis.Analysis.Replicas[1])
	}
	var mu sync.Mutex
	var seqs []uint64
	cfg := shortCfg(60)
	cfg.PreserveOrder = true
	cfg.OnSink = func(op core.OpID, tp operators.Tuple) {
		mu.Lock()
		seqs = append(seqs, tp.Seq)
		mu.Unlock()
	}
	m, err := RunTopology(context.Background(), topo, fis.Analysis.Replicas, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seqs) < 100 {
		t.Fatalf("sink observed only %d items", len(seqs))
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] != seqs[i-1]+1 {
			t.Fatalf("order violated at %d: seq %d after %d", i, seqs[i], seqs[i-1])
		}
	}
	// Order restoration must not cost throughput.
	if e := stats.RelErr(m.Throughput, 1000); e > 0.2 {
		t.Errorf("throughput = %v, want ~1000", m.Throughput)
	}
}

func TestRunPreserveOrderSkipsNonUnitGain(t *testing.T) {
	// A replicated filter (gain 0.5) must not use the reorder buffer: the
	// run completes and delivers roughly half the items.
	topo := core.NewTopology()
	src := topo.MustAddOperator(core.Operator{Name: "src", Kind: core.KindSource, ServiceTime: 0.001})
	fil := topo.MustAddOperator(core.Operator{
		Name: "fil", Kind: core.KindStateless, ServiceTime: 0.003, OutputSelectivity: 0.5,
	})
	sink := topo.MustAddOperator(core.Operator{Name: "sink", Kind: core.KindSink, ServiceTime: 0.0001})
	topo.MustConnect(src, fil, 1)
	topo.MustConnect(fil, sink, 1)
	fis, err := core.EliminateBottlenecks(topo, core.FissionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := shortCfg(61)
	cfg.PreserveOrder = true
	m, err := RunTopology(context.Background(), topo, fis.Analysis.Replicas, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e := stats.RelErr(m.Arrival[sink], 500); e > 0.25 {
		t.Errorf("sink arrival = %v, want ~500 (reorder buffer must not stall)", m.Arrival[sink])
	}
}

func TestRunSendTimeoutSheds(t *testing.T) {
	// A short send timeout turns backpressure into load shedding: the
	// source runs at full speed and the bottleneck's mailbox discards the
	// excess (Akka BoundedMailbox semantics with a small timeout).
	topo := pipeline(t, 0.001, 0.004, 0.0001)
	model, err := core.SteadyStateShedding(topo)
	if err != nil {
		t.Fatal(err)
	}
	cfg := shortCfg(70)
	cfg.SendTimeout = time.Millisecond
	cfg.MailboxSize = 8
	m, err := RunTopology(context.Background(), topo, nil, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Akka's timeout semantics stall the sender for up to the timeout per
	// dropped item, so the source does not reach its full 1000/s; it must
	// still run far above the 250/s the pure-backpressure steady state
	// would allow.
	if m.Throughput < 400 {
		t.Errorf("source rate = %v, want well above the backpressure 250/s", m.Throughput)
	}
	if m.Dropped[1] < 100 {
		t.Errorf("drop rate = %v, want substantial shedding", m.Dropped[1])
	}
	// The sink still receives roughly the bottleneck-limited flow.
	if e := stats.RelErr(m.Arrival[2], model.SinkRate); e > 0.3 {
		t.Errorf("sink arrival = %v, model %v", m.Arrival[2], model.SinkRate)
	}
}

func TestConfigRejectsNonsense(t *testing.T) {
	// Invalid configurations must surface as errors, not be silently
	// coerced into something runnable.
	bad := map[string]Config{
		"warmup >= duration":   {Duration: time.Second, Warmup: time.Second},
		"warmup > duration":    {Duration: time.Second, Warmup: 2 * time.Second},
		"negative duration":    {Duration: -time.Second},
		"negative warmup":      {Warmup: -time.Second},
		"negative sendtimeout": {SendTimeout: -time.Millisecond},
		"negative mailbox":     {MailboxSize: -1},
		"negative batch":       {Batch: -8},
		"negative linger":      {Linger: -time.Millisecond},

		"negative reconfig stall budget": {ReconfigStallBudget: -time.Second},
		"negative autotune interval":     {AutotuneInterval: -time.Second},
	}
	for name, cfg := range bad {
		if _, err := cfg.withDefaults(); err == nil {
			t.Errorf("%s: accepted", name)
		}
		// The same rejection must reach every public entry point.
		topo := pipeline(t, 0.001, 0.001)
		if _, err := RunTopology(context.Background(), topo, nil, nil, cfg); err == nil {
			t.Errorf("%s: RunTopology accepted", name)
		}
		p, err := plan.Build(topo, plan.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RunDistributed(context.Background(), p, nil, DistributedConfig{Config: cfg}); err == nil {
			t.Errorf("%s: RunDistributed accepted", name)
		}
	}
	// Zero values still take defaults.
	got, err := Config{}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if got.MailboxSize != 64 || got.Duration != 3*time.Second || got.Warmup != got.Duration/4 {
		t.Errorf("defaults not applied: %+v", got)
	}
	if got.Batch == 0 || got.Linger == 0 {
		t.Errorf("batch/linger defaults not applied: %+v", got)
	}
	if got.ReconfigStallBudget != time.Second || got.AutotuneInterval != 2*time.Second {
		t.Errorf("reconfiguration defaults not applied: %+v", got)
	}
}

func batchedCfg(seed uint64) Config {
	cfg := shortCfg(seed)
	cfg.Mailbox = mailbox.Batched
	return cfg
}

func TestRunBatchedMatchesModel(t *testing.T) {
	// The batched transport must carry the same steady state as the
	// per-tuple one: tuple-accounted credits keep BAS blocking identical.
	topo := pipeline(t, 0.005, 0.002, 0.001)
	a, err := core.SteadyState(topo)
	if err != nil {
		t.Fatal(err)
	}
	m, err := RunTopology(context.Background(), topo, nil, nil, batchedCfg(80))
	if err != nil {
		t.Fatal(err)
	}
	if e := stats.RelErr(m.Throughput, a.Throughput()); e > 0.15 {
		t.Errorf("throughput = %v, predicted %v (err %.3f)", m.Throughput, a.Throughput(), e)
	}
}

func TestRunBatchedBackpressure(t *testing.T) {
	// A bottleneck must throttle the source through blocked batched sends
	// exactly as through blocked channel sends.
	topo := pipeline(t, 0.002, 0.010, 0.001)
	m, err := RunTopology(context.Background(), topo, nil, nil, batchedCfg(81))
	if err != nil {
		t.Fatal(err)
	}
	if e := stats.RelErr(m.Throughput, 100); e > 0.15 {
		t.Errorf("throughput = %v, want ~100 (err %.3f)", m.Throughput, e)
	}
}

func TestRunBatchedPreserveOrder(t *testing.T) {
	// Order restoration composes with the batched transport: batches
	// preserve per-edge FIFO, so the collector's sequence logic is
	// unchanged.
	topo := pipeline(t, 0.001, 0.004, 0.0001)
	fis, err := core.EliminateBottlenecks(topo, core.FissionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var seqs []uint64
	cfg := batchedCfg(82)
	cfg.PreserveOrder = true
	cfg.OnSink = func(op core.OpID, tp operators.Tuple) {
		mu.Lock()
		seqs = append(seqs, tp.Seq)
		mu.Unlock()
	}
	if _, err := RunTopology(context.Background(), topo, fis.Analysis.Replicas, nil, cfg); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seqs) < 100 {
		t.Fatalf("sink observed only %d items", len(seqs))
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] != seqs[i-1]+1 {
			t.Fatalf("order violated at %d: seq %d after %d", i, seqs[i], seqs[i-1])
		}
	}
}

func TestBatchedSheddingParity(t *testing.T) {
	// Regression for the drop-accounting contract: with a send timeout,
	// every transport (batch-1, batched, and the Auto policy's rings) sheds
	// per tuple — only tuples awaiting admission are dropped, never tuples
	// a mailbox (or a partial batch) already accepted. If admitted tuples were lost, the
	// bottleneck would consume less than its measured admissions and the
	// sink would fall below the shedding model's rate.
	topo := pipeline(t, 0.001, 0.004, 0.0001)
	model, err := core.SteadyStateShedding(topo)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []mailbox.Mode{mailbox.PerTuple, mailbox.Batched, mailbox.Auto} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := shortCfg(83)
			cfg.Mailbox = mode
			cfg.SendTimeout = time.Millisecond
			cfg.MailboxSize = 8
			m, err := RunTopology(context.Background(), topo, nil, nil, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if m.Dropped[1] < 100 {
				t.Errorf("drop rate = %v, want substantial shedding", m.Dropped[1])
			}
			// Conservation after admission: everything admitted into the
			// bottleneck's mailbox is consumed (the queue residue over the
			// window is at most MailboxSize items, negligible as a rate).
			var bottleneck *StationMetrics
			for i := range m.Stations {
				if m.Stations[i].Name == "sB" {
					bottleneck = &m.Stations[i]
				}
			}
			if bottleneck == nil {
				t.Fatal("bottleneck station not found")
			}
			if e := stats.RelErr(bottleneck.ConsumeRate, m.Arrival[1]); e > 0.1 {
				t.Errorf("bottleneck consumed %v/s of %v/s admitted (err %.3f): admitted tuples were lost",
					bottleneck.ConsumeRate, m.Arrival[1], e)
			}
			// And the sink still sees the bottleneck-limited flow.
			if e := stats.RelErr(m.Arrival[2], model.SinkRate); e > 0.3 {
				t.Errorf("sink arrival = %v, model %v", m.Arrival[2], model.SinkRate)
			}
		})
	}
}
