package experiments

import (
	"context"
	"fmt"
	"strings"

	"spinstreams/internal/core"
	"spinstreams/internal/qsim"
	"spinstreams/internal/randtopo"
	"spinstreams/internal/runtime"
)

// ElasticStep records one round of the reactive controller.
type ElasticStep struct {
	// Round is the round index (0 measures the initial deployment).
	Round int
	// TotalReplicas deployed during this round's observation interval.
	TotalReplicas int
	// Throughput measured during this round's observation interval.
	Throughput float64
}

// ElasticityResult compares the paper's static one-shot optimization
// against a reactive elastic controller — the "joint combination of static
// and dynamic optimizations" the paper leaves as future work (Section 7).
// The reactive controller is the shipped autonomic loop
// (runtime.Autotune) on the simulator: deploy with one replica
// everywhere, measure an interval, re-optimize on the measured profiles,
// apply the delta, repeat. The static tool reaches its configuration in
// zero reconfigurations because the cost model predicts the optimum
// before deployment.
type ElasticityResult struct {
	// StaticThroughput is the simulator-measured throughput of the static
	// optimizer's one-shot configuration.
	StaticThroughput float64
	// StaticReplicas is the static configuration's total replica count.
	StaticReplicas int
	// Steps traces the reactive controller.
	Steps []ElasticStep
	// Reconfigurations counts the reactive rounds that changed the
	// topology (each implies an operator restart / state migration in a
	// real SPS).
	Reconfigurations int
	// ElasticThroughput is the reactive controller's final measured
	// throughput; ElasticReplicas its final replica count.
	ElasticThroughput float64
	ElasticReplicas   int
	// IntervalSeconds is the observation interval per round, so the
	// reactive time-to-converge is Reconfigurations * IntervalSeconds.
	IntervalSeconds float64
}

// ElasticityOptions tunes the comparison.
type ElasticityOptions struct {
	// TopologySeed picks the testbed topology (default: the setup seed).
	TopologySeed uint64
	// Interval is the simulated observation window per reactive round
	// (default 10 s).
	Interval float64
	// Rounds is the number of reactive measure/re-optimize/apply rounds
	// (default 8).
	Rounds int
}

// Elasticity runs the comparison on one random topology.
func Elasticity(s Setup, opts ElasticityOptions) (*ElasticityResult, error) {
	s = s.withDefaults()
	if opts.Interval <= 0 {
		opts.Interval = 10
	}
	if opts.Rounds <= 0 {
		opts.Rounds = 8
	}
	topoSeed := opts.TopologySeed
	if topoSeed == 0 {
		topoSeed = s.Seed
	}
	cfg := s.Topo
	cfg.Seed = topoSeed
	g, err := randtopo.Generate(cfg)
	if err != nil {
		return nil, err
	}
	t := g.Topology

	// Static: one-shot model-driven configuration.
	fis, err := core.EliminateBottlenecks(t, core.FissionOptions{})
	if err != nil {
		return nil, err
	}
	simCfg := s.simConfig(0)
	simCfg.Horizon = opts.Interval * 2
	static, err := qsim.SimulateTopology(t, fis.Analysis.Replicas, simCfg)
	if err != nil {
		return nil, err
	}
	res := &ElasticityResult{
		StaticThroughput: static.Throughput,
		StaticReplicas:   fis.TotalReplicas,
		IntervalSeconds:  opts.Interval,
	}

	// Reactive: the autonomic loop on the simulated deployment.
	dep := newSimDeployment(t, t, func(n int) qsim.Config {
		c := s.simConfig(n + 1)
		c.Horizon = opts.Interval
		c.Warmup = opts.Interval / 4
		return c
	})
	rep, err := runtime.Autotune(context.Background(), dep, runtime.AutotuneOptions{
		Rounds: opts.Rounds,
		OnRound: func(r runtime.AutotuneRound) {
			total := 0
			for _, n := range r.Drift.Replicas {
				total += n
			}
			res.Steps = append(res.Steps, ElasticStep{Round: r.Round, TotalReplicas: total, Throughput: dep.last.Throughput})
		},
	})
	if err != nil {
		return nil, err
	}
	last := res.Steps[len(res.Steps)-1]
	res.Reconfigurations = rep.Applied()
	res.ElasticThroughput, res.ElasticReplicas = last.Throughput, last.TotalReplicas
	return res, nil
}

// String renders the comparison.
func (r *ElasticityResult) String() string {
	var b strings.Builder
	b.WriteString("Static one-shot optimization vs reactive elasticity\n")
	fmt.Fprintf(&b, "static: %d replicas, %.1f t/s, 0 reconfigurations\n",
		r.StaticReplicas, r.StaticThroughput)
	b.WriteString("reactive rounds:\n  round  replicas  throughput(t/s)\n")
	for _, s := range r.Steps {
		fmt.Fprintf(&b, "  %5d  %8d  %15.1f\n", s.Round, s.TotalReplicas, s.Throughput)
	}
	fmt.Fprintf(&b, "reactive: %d replicas, %.1f t/s after %d reconfigurations (~%.0f s of adaptation)\n",
		r.ElasticReplicas, r.ElasticThroughput, r.Reconfigurations,
		float64(r.Reconfigurations)*r.IntervalSeconds)
	ratio := 0.0
	if r.StaticThroughput > 0 {
		ratio = r.ElasticThroughput / r.StaticThroughput
	}
	fmt.Fprintf(&b, "reactive/static throughput ratio: %.2f\n", ratio)
	return b.String()
}

// Header implements Tabular.
func (r *ElasticityResult) Header() []string {
	return []string{"round", "replicas", "throughput"}
}

// TableRows implements Tabular.
func (r *ElasticityResult) TableRows() [][]string {
	rows := make([][]string, 0, len(r.Steps))
	for _, s := range r.Steps {
		rows = append(rows, []string{d(s.Round), d(s.TotalReplicas), f(s.Throughput)})
	}
	return rows
}
