package experiments

import (
	"context"
	"testing"
	"time"

	"spinstreams/internal/core"
	"spinstreams/internal/obs"
	"spinstreams/internal/operators"
	"spinstreams/internal/opt"
	"spinstreams/internal/qsim"
	"spinstreams/internal/runtime"
)

// TestSimDeploymentMatchesLive is the differential test of the one
// autoscaling loop: on the walkthrough topology (hot declared at 1 ms,
// really 3 ms) the simulated deployment and a live estimator-driven
// controller propose the same first delta, and the simulated loop then
// stays quiet.
func TestSimDeploymentMatchesLive(t *testing.T) {
	if testing.Short() {
		t.Skip("live autonomic loop")
	}
	want := opt.ReplicaChange{Operator: "hot", From: 1, To: 2}
	same := func(got []opt.ReplicaChange) bool { return len(got) == 1 && got[0] == want }

	model, hot := autotuneDemoModel()
	deployed := model.Clone()
	deployed.Op(hot).ServiceTime = 3e-3
	dep := newSimDeployment(model, deployed, func(n int) qsim.Config {
		return qsim.Config{Seed: uint64(n + 1), Horizon: 10}
	})
	sim, err := runtime.Autotune(context.Background(), dep, runtime.AutotuneOptions{Rounds: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := sim.Rounds[0].Delta.Changes; !same(got) {
		t.Fatalf("simulated first delta = %v, want %v", got, want)
	}
	for _, r := range sim.Rounds[1:] {
		if !r.Delta.Empty() {
			t.Errorf("simulated round %d proposed %v after convergence", r.Round, r.Delta.Changes)
		}
	}

	c, err := runtime.StartTopology(model, nil, &runtime.Binding{Ops: map[core.OpID]operators.Operator{
		hot: &slowStage{cost: 3 * time.Millisecond},
	}}, runtime.Config{
		Seed:                1,
		Warmup:              300 * time.Millisecond,
		ReconfigStallBudget: 5 * time.Second,
		Obs:                 obs.New(),
		Estimator:           true,
	})
	if err != nil {
		t.Fatal(err)
	}
	live, err := c.Autotune(context.Background(), runtime.AutotuneOptions{Interval: 700 * time.Millisecond})
	if _, serr := c.Stop(); serr != nil {
		t.Fatal(serr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got := live.Rounds[0].Delta.Changes; !same(got) {
		t.Fatalf("live first delta = %v, want %v (simulated agreed)", got, want)
	}
}
