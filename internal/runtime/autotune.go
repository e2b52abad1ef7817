package runtime

import (
	"context"
	"errors"
	"time"

	"spinstreams/internal/core"
	"spinstreams/internal/obs"
	"spinstreams/internal/opt"
)

// AutotuneOptions tunes the controller's autonomic loop.
type AutotuneOptions struct {
	// Interval is one round's measurement-window length (default: the
	// deployment's own, Config.AutotuneInterval for a Controller).
	Interval time.Duration
	// Rounds is the number of measure/re-optimize/apply rounds (default 1).
	Rounds int
	// Opt configures the re-optimization (budgets, thresholds).
	Opt opt.Options
	// OnRound, when set, observes each recorded round, including one whose
	// apply failed.
	OnRound func(AutotuneRound)
}

// AutotuneRound is one iteration of the loop: what was measured, what the
// optimizer proposed, and what the runtime did about it.
type AutotuneRound struct {
	// Round numbers the iteration, starting at 0.
	Round int
	// Drift compares the window's measured rates against the model.
	Drift *obs.DriftReport
	// Delta is the re-optimizer's proposal (empty when the deployment is
	// already optimal under the measured profiles).
	Delta *opt.DeltaPlan
	// Apply reports the live application of a non-empty delta.
	Apply *ApplyReport
	// Trace is the provenance trace of the applied delta, anchored at the
	// deployed topology (a live_apply step per spinstreams vet's replay).
	Trace *opt.Trace
}

// AutotuneReport collects the loop's rounds.
type AutotuneReport struct {
	Rounds []AutotuneRound
}

// Applied counts the rounds that applied a non-empty delta.
func (r *AutotuneReport) Applied() int {
	n := 0
	for _, round := range r.Rounds {
		if round.Apply != nil {
			n++
		}
	}
	return n
}

// Deployment is what the autonomic loop drives: a running topology that
// measures one window at a time and applies re-optimization deltas. The
// live Controller implements it, and the simulator and test fakes stand
// in for it, so every autoscaling decision goes through one policy.
type Deployment interface {
	// Topology is the declared logical topology the policy plans on.
	Topology() *core.Topology
	// MeasureWindow measures one window of the given length (the
	// deployment's default when <= 0) and reports the drift of the
	// current configuration against Topology. A cancelled ctx may cut
	// the window short; the loop then discards the report.
	MeasureWindow(ctx context.Context, interval time.Duration) (*obs.DriftReport, error)
	// ApplyDelta moves the deployment to the delta's configuration.
	ApplyDelta(*opt.DeltaPlan) (*ApplyReport, error)
}

// Autotune runs the paper's autonomic loop on a deployment: measure a
// window, build the drift report, re-optimize on the measured profiles,
// and apply the resulting DeltaPlan — then measure again. Each applied
// delta is recorded as a live_apply step on the re-optimization's rewrite
// trace (and as a standalone trace in the round), so provenance replay
// covers live runs. It returns after Rounds iterations, a context cancel
// (without acting on the cut-short window), or the first error.
func Autotune(ctx context.Context, d Deployment, o AutotuneOptions) (*AutotuneReport, error) {
	topo := d.Topology()
	if topo == nil {
		return nil, errors.New("runtime: Autotune needs a deployment with a logical topology (start the controller with StartTopology)")
	}
	rep := &AutotuneReport{}
	for r := 0; r < max(o.Rounds, 1); r++ {
		dr, err := d.MeasureWindow(ctx, o.Interval)
		if ctx.Err() != nil {
			return rep, nil
		}
		if err != nil {
			return rep, err
		}
		delta, err := opt.Reoptimize(opt.NewSnapshot(topo), dr, o.Opt)
		if err != nil {
			return rep, err
		}
		round := AutotuneRound{Round: r, Drift: dr, Delta: delta}
		if !delta.Empty() {
			round.Apply, err = d.ApplyDelta(delta)
			if err == nil {
				round.Trace = opt.LiveTrace(topo, delta)
				if delta.Result != nil && delta.Result.Trace != nil {
					delta.Result.Trace.AppendLiveApply(delta)
				}
			}
		}
		rep.Rounds = append(rep.Rounds, round)
		if o.OnRound != nil {
			o.OnRound(round)
		}
		if err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// Autotune runs the autonomic loop on the live topology, applying each
// delta in-flight. The controller must have been started with
// StartTopology; the topology keeps running when the loop returns (call
// Stop for metrics).
func (c *Controller) Autotune(ctx context.Context, o AutotuneOptions) (*AutotuneReport, error) {
	return Autotune(ctx, c, o)
}

// Topology returns the deployed logical topology (nil when the controller
// was started from a raw plan).
func (c *Controller) Topology() *core.Topology { return c.topo }

// MeasureWindow waits out Config.Warmup from the controller's start, then
// measures a window of interval (Config.AutotuneInterval when <= 0): from
// the online estimator when Config.Estimator is set (occupancy-derived
// rates and profiles with confidence weights, no timed probes), from the
// registry's window marks and probe histograms otherwise. It returns
// ctx's error, without measuring, when ctx ends the wait early.
func (c *Controller) MeasureWindow(ctx context.Context, interval time.Duration) (*obs.DriftReport, error) {
	if interval <= 0 {
		interval = c.e.cfg.AutotuneInterval
	}
	if err := sleepCtx(ctx, c.e.cfg.Warmup-time.Since(c.started)); err != nil {
		return nil, err
	}
	c.beginWindow()
	if c.e.est != nil {
		c.e.est.BeginWindow()
	}
	if err := sleepCtx(ctx, interval); err != nil {
		return nil, err
	}
	c.e.reg.MarkWindowEnd()
	if c.e.est == nil {
		return obs.Drift(c.topo, c.Replicas(), c.e.reg)
	}
	m, err := c.e.est.Measure()
	if err != nil {
		return nil, err
	}
	return obs.DriftFromProfiles(c.topo, c.Replicas(), m.Rates, m.Profiles, m.Confidence)
}
