package runtime

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"spinstreams/internal/core"
	"spinstreams/internal/lint"
	"spinstreams/internal/obs"
	"spinstreams/internal/operators"
	"spinstreams/internal/opt"
	"spinstreams/internal/profiler"
)

// slowOp is a unit-gain stateless operator whose real cost exceeds
// whatever the model declares: the drift injection for autotune tests.
type slowOp struct{ d time.Duration }

func (s *slowOp) Name() string              { return "slow" }
func (s *slowOp) Meta() operators.Meta      { return operators.Meta{Kind: core.KindStateless} }
func (s *slowOp) Clone() operators.Operator { return &slowOp{d: s.d} }

func (s *slowOp) Process(in operators.Tuple, emit operators.Emit) {
	time.Sleep(s.d)
	emit(in)
}

// TestControllerAutotuneEndToEnd closes the paper's autonomic loop live:
// a deployment whose hot operator runs 3x slower than declared is
// measured, re-optimized, and rescaled in-flight — no restart — after
// which the measured throughput recovers and the applied delta's
// provenance trace replays cleanly under the linter.
func TestControllerAutotuneEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second autonomic loop")
	}
	model, hot := driftedModel()

	// Declared: 1ms (rho 0.5 at the 500/s source). Deployed: 3ms.
	binding := &Binding{Ops: map[core.OpID]operators.Operator{
		hot: &slowOp{d: 3 * time.Millisecond},
	}}
	reg := obs.New()
	cfg := Config{
		Seed:                31,
		Warmup:              300 * time.Millisecond,
		ReconfigStallBudget: 5 * time.Second,
		Obs:                 reg,
	}
	c, err := StartTopology(model, nil, binding, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Autotune(context.Background(), AutotuneOptions{
		Interval: 700 * time.Millisecond,
		Rounds:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Applied() < 1 {
		t.Fatalf("autotune applied no delta in %d rounds", len(rep.Rounds))
	}
	var applied *AutotuneRound
	for i := range rep.Rounds {
		if rep.Rounds[i].Apply != nil {
			applied = &rep.Rounds[i]
			break
		}
	}
	if applied.Delta.Empty() || applied.Apply.Rescaled < 1 {
		t.Errorf("applied round: delta %s, report %+v", applied.Delta, applied.Apply)
	}
	if applied.Drift == nil || applied.Drift.MeasuredProfiles == nil {
		t.Error("applied round carries no drift profiles")
	}
	if got := c.Replicas()[hot]; got < 2 {
		t.Errorf("hot replicas = %d, want >= 2 after autotune", got)
	}

	// The replica change is visible in the live observability snapshot.
	snap := reg.Snapshot()
	found := false
	for _, ss := range snap.Stations {
		if strings.HasPrefix(ss.Name, "hot/replica") {
			found = true
			break
		}
	}
	if !found {
		t.Error("no hot/replica* station in the obs snapshot")
	}

	// The live_apply trace replays cleanly against the deployed topology.
	if applied.Trace == nil {
		t.Fatal("applied round has no live trace")
	}
	traceJSON, err := applied.Trace.JSON()
	if err != nil {
		t.Fatal(err)
	}
	lrep := lint.Run(model, lint.Config{Trace: traceJSON})
	if lrep.HasErrors() {
		t.Errorf("live trace replay has errors:\n%+v", lrep.Diagnostics)
	}

	// Stop measures the final (post-apply) window: throughput must have
	// recovered past the single-instance ceiling of 1/3ms.
	m := mustStop(t, c)
	if m.Throughput < 370 {
		t.Errorf("post-apply throughput = %.1f/s, want > 370/s (pre-apply ceiling ~333/s)", m.Throughput)
	}
	checkConserved(t, m)
}

// TestAutotuneEstimatorProbeFree closes the same autonomic loop with
// Config.Estimator: the drift that drives each round comes from
// occupancy-sampled service-rate estimates, and no timed probe may run —
// after the loop, every station's Service histogram must be empty (the
// probe path is the only writer). The misdeclared hot operator must still
// be caught and rescaled in-flight, proving the estimator's profiles are
// strong enough to drive reoptimization, not just to report drift.
func TestAutotuneEstimatorProbeFree(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second autonomic loop")
	}
	model, hot := driftedModel()

	binding := &Binding{Ops: map[core.OpID]operators.Operator{
		hot: &slowOp{d: 3 * time.Millisecond},
	}}
	reg := obs.New()
	cfg := Config{
		Seed:                37,
		Warmup:              300 * time.Millisecond,
		ReconfigStallBudget: 5 * time.Second,
		Obs:                 reg,
		Estimator:           true,
	}
	c, err := StartTopology(model, nil, binding, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Autotune(context.Background(), AutotuneOptions{
		Interval: 700 * time.Millisecond,
		Rounds:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Applied() < 1 {
		t.Fatalf("estimator-driven autotune applied no delta in %d rounds", len(rep.Rounds))
	}
	for i := range rep.Rounds {
		if dr := rep.Rounds[i].Drift; dr == nil || dr.ProfileConfidence == nil {
			t.Errorf("round %d: drift report missing estimator confidences (probe path used?)", i)
		}
	}
	if got := c.Replicas()[hot]; got < 2 {
		t.Errorf("hot replicas = %d, want >= 2 after estimator-driven autotune", got)
	}
	m := mustStop(t, c)
	// Zero timed probes: the Service histograms have exactly one writer —
	// the probe sampler — and Config.Estimator must have disabled it.
	for _, ss := range reg.Snapshot().Stations {
		if ss.Service.Count != 0 {
			t.Errorf("station %s recorded %d timed probes; estimator mode must be probe-free", ss.Name, ss.Service.Count)
		}
	}
	if m.Throughput < 370 {
		t.Errorf("post-apply throughput = %.1f/s, want > 370/s (pre-apply ceiling ~333/s)", m.Throughput)
	}
	checkConserved(t, m)
}

// driftedModel is the autotune tests' 3-operator topology: a 500/s source
// feeding a stage declared at 1 ms (rho 0.5) into a sink.
func driftedModel() (*core.Topology, core.OpID) {
	model := core.NewTopology()
	src := model.MustAddOperator(core.Operator{Name: "source", Kind: core.KindSource, ServiceTime: 2e-3})
	hot := model.MustAddOperator(core.Operator{Name: "hot", Kind: core.KindStateless, ServiceTime: 1e-3})
	sink := model.MustAddOperator(core.Operator{Name: "sink", Kind: core.KindSink, ServiceTime: 0.2e-3})
	model.MustConnect(src, hot, 1)
	model.MustConnect(hot, sink, 1)
	return model, hot
}

// fakeDeployment measures a fixed reality — the drifted model's hot stage
// really costs 3 ms — at its current replicas, and applies deltas by
// rewriting the replica vector; apply number failAt fails without a
// report, as a stopped controller's does.
type fakeDeployment struct {
	topo       *core.Topology
	replicas   []int
	windows    int
	applies    int
	failAt     int
	measureErr error
}

func newFakeDeployment() *fakeDeployment {
	model, _ := driftedModel()
	return &fakeDeployment{topo: model, replicas: []int{1, 1, 1}, failAt: -1}
}

func (f *fakeDeployment) Topology() *core.Topology { return f.topo }

func (f *fakeDeployment) MeasureWindow(_ context.Context, _ time.Duration) (*obs.DriftReport, error) {
	f.windows++
	if f.measureErr != nil {
		return nil, f.measureErr
	}
	tps := 333.0
	if f.replicas[1] > 1 {
		tps = 500
	}
	rates := []float64{tps, tps, tps}
	m := &obs.MeasuredRates{Seconds: 1, Departure: rates, Arrival: rates, Dropped: make([]float64, 3), Consumed: rates, Throughput: tps}
	profiles := []profiler.Profile{{ServiceTime: 2e-3}, {ServiceTime: 3e-3}, {ServiceTime: 0.2e-3}}
	return obs.DriftFromProfiles(f.topo, f.replicas, m, profiles, nil)
}

func (f *fakeDeployment) ApplyDelta(d *opt.DeltaPlan) (*ApplyReport, error) {
	if f.applies == f.failAt {
		return nil, errors.New("fake apply failure")
	}
	f.applies++
	for _, ch := range d.Changes {
		id, _ := f.topo.Lookup(ch.Operator)
		f.replicas[id] = ch.To
	}
	return &ApplyReport{Epoch: uint64(f.applies), Rescaled: len(d.Changes)}, nil
}

// TestAutotuneLoopContract pins the shared loop through a fake
// deployment: it runs exactly Rounds rounds, applies the one delta the
// drift calls for and then proposes nothing, and reports every round to
// OnRound.
func TestAutotuneLoopContract(t *testing.T) {
	f := newFakeDeployment()
	var seen []int
	rep, err := Autotune(context.Background(), f, AutotuneOptions{
		Rounds:  4,
		OnRound: func(r AutotuneRound) { seen = append(seen, r.Round) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rounds) != 4 || f.windows != 4 {
		t.Fatalf("rounds = %d, windows = %d, want 4 each", len(rep.Rounds), f.windows)
	}
	if rep.Applied() != 1 || f.applies != 1 {
		t.Fatalf("applied = %d (deployment saw %d), want 1", rep.Applied(), f.applies)
	}
	first := rep.Rounds[0]
	if len(first.Delta.Changes) != 1 || first.Delta.Changes[0] != (opt.ReplicaChange{Operator: "hot", From: 1, To: 2}) {
		t.Errorf("first delta = %v, want hot 1 -> 2", first.Delta.Changes)
	}
	if first.Trace == nil {
		t.Error("applied round carries no live trace")
	}
	for _, r := range rep.Rounds[1:] {
		if !r.Delta.Empty() || r.Apply != nil {
			t.Errorf("round %d: delta %v applied %v after convergence", r.Round, r.Delta.Changes, r.Apply)
		}
	}
	if len(seen) != 4 || seen[3] != 3 {
		t.Errorf("OnRound saw rounds %v, want 0..3", seen)
	}
}

// TestAutotuneLoopErrors checks error propagation: a measurement error
// stops the loop before any round is recorded, and a failed apply is
// recorded, reported to OnRound and returned.
func TestAutotuneLoopErrors(t *testing.T) {
	f := newFakeDeployment()
	f.measureErr = errors.New("fake measure failure")
	rep, err := Autotune(context.Background(), f, AutotuneOptions{Rounds: 3})
	if !errors.Is(err, f.measureErr) || len(rep.Rounds) != 0 {
		t.Fatalf("measure failure: err %v, %d rounds", err, len(rep.Rounds))
	}

	f = newFakeDeployment()
	f.failAt = 0
	var seen []AutotuneRound
	rep, err = Autotune(context.Background(), f, AutotuneOptions{
		Rounds:  3,
		OnRound: func(r AutotuneRound) { seen = append(seen, r) },
	})
	if err == nil || !strings.Contains(err.Error(), "fake apply failure") {
		t.Fatalf("apply failure not returned: %v", err)
	}
	if len(rep.Rounds) != 1 || f.windows != 1 {
		t.Fatalf("rounds = %d, windows = %d after a failed apply, want 1 each", len(rep.Rounds), f.windows)
	}
	// The failed round is what the CLI prints as "delta proposed but not
	// applied": a non-empty delta, no apply report, no trace.
	if len(seen) != 1 || seen[0].Delta.Empty() || seen[0].Apply != nil || seen[0].Trace != nil {
		t.Fatalf("OnRound saw %d rounds, want the failed one (delta proposed, not applied)", len(seen))
	}
	if rep.Applied() != 0 {
		t.Errorf("applied = %d after a failed apply, want 0", rep.Applied())
	}

	if _, err := Autotune(context.Background(), &fakeDeployment{}, AutotuneOptions{}); err == nil {
		t.Error("a deployment without a topology was accepted")
	}
}

// TestAutotuneCancelMidWindow cancels the live loop halfway through its
// first window: the cut-short window must not be measured or acted on,
// so no round is recorded and the deployment keeps its replicas.
func TestAutotuneCancelMidWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("live autonomic loop")
	}
	model, hot := driftedModel()
	binding := &Binding{Ops: map[core.OpID]operators.Operator{
		hot: &slowOp{d: 3 * time.Millisecond},
	}}
	c, err := StartTopology(model, nil, binding, Config{
		Seed:                41,
		Warmup:              200 * time.Millisecond,
		ReconfigStallBudget: 5 * time.Second,
		Obs:                 obs.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 700*time.Millisecond)
	defer cancel()
	rep, err := c.Autotune(ctx, AutotuneOptions{Interval: time.Second, Rounds: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Applied() != 0 || len(rep.Rounds) != 0 {
		t.Errorf("cancelled loop recorded %d rounds and applied %d", len(rep.Rounds), rep.Applied())
	}
	if got := c.Replicas()[hot]; got != 1 || c.Epoch() != 0 {
		t.Errorf("hot replicas = %d at epoch %d after a cancelled loop, want 1 at 0", got, c.Epoch())
	}
	checkConserved(t, mustStop(t, c))
}
