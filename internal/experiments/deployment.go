package experiments

import (
	"context"
	"fmt"
	"time"

	"spinstreams/internal/core"
	"spinstreams/internal/obs"
	"spinstreams/internal/opt"
	"spinstreams/internal/qsim"
	"spinstreams/internal/runtime"
)

// simDeployment is the simulator standing in for the live runtime under
// runtime.Autotune. Measuring simulates the deployed reality at the
// current replicas for one window and reads it through the occupancy
// estimator the live controller uses, reporting drift against the
// declared topology, the only model the live controller knows. Applying
// a delta rewrites the replica vector.
type simDeployment struct {
	declared, deployed *core.Topology
	replicas           []int
	// cfg is the simulation config of the n-th window.
	cfg     func(n int) qsim.Config
	windows int
	// last is the most recent window's simulation.
	last *qsim.Result
}

// newSimDeployment deploys with one replica everywhere.
func newSimDeployment(declared, deployed *core.Topology, cfg func(n int) qsim.Config) *simDeployment {
	replicas := make([]int, declared.Len())
	for i := range replicas {
		replicas[i] = 1
	}
	return &simDeployment{declared: declared, deployed: deployed, replicas: replicas, cfg: cfg}
}

func (d *simDeployment) Topology() *core.Topology { return d.declared }

// MeasureWindow simulates one window of interval (the config's horizon
// when <= 0), sampling occupancy at the runtime estimator's default 1 ms
// tick unless the config sets one.
func (d *simDeployment) MeasureWindow(_ context.Context, interval time.Duration) (*obs.DriftReport, error) {
	cfg := d.cfg(d.windows)
	d.windows++
	if interval > 0 {
		cfg.Horizon = interval.Seconds()
	}
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = 1e-3
	}
	m, sim, err := estimatorSimulate(d.deployed, d.replicas, cfg)
	if err != nil {
		return nil, err
	}
	d.last = sim
	return obs.DriftFromProfiles(d.declared, d.replicas, m.Rates, m.Profiles, m.Confidence)
}

// ApplyDelta sets the delta's replica degrees.
func (d *simDeployment) ApplyDelta(p *opt.DeltaPlan) (*runtime.ApplyReport, error) {
	for _, ch := range p.Changes {
		id, ok := d.declared.Lookup(ch.Operator)
		if !ok {
			return nil, fmt.Errorf("sim deployment: unknown operator %q", ch.Operator)
		}
		d.replicas[id] = ch.To
	}
	return &runtime.ApplyReport{Rescaled: len(p.Changes)}, nil
}
