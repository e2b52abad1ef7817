package obs_test

import (
	"context"
	"fmt"
	"math"
	"os"
	"testing"
	"time"

	"spinstreams/internal/core"
	"spinstreams/internal/mailbox"
	"spinstreams/internal/obs"
	"spinstreams/internal/qsim"
	"spinstreams/internal/randtopo"
	"spinstreams/internal/runtime"
	"spinstreams/internal/stats"
)

// Differential validation: on a seeded corpus of random topologies
// (Algorithm 5 testbed), the steady-state prediction, the discrete-event
// simulation and the live runtime's registry-measured rates must agree
// within the documented bands on every non-saturated operator:
//
//   - predicted vs qsim (deterministic service): <= 15% per operator —
//     the simulator realizes exactly the fluid model's assumptions, so
//     disagreement means one of the two implementations drifted;
//   - predicted vs live measured: <= 40% per operator, <= 25% mean —
//     live runs pace service times with real sleeps over a seconds-long
//     window, matching the fig7live experiment's observed spread;
//   - registry vs engine accounting: exact — both read the same atomic
//     cells, so any difference is a double- or under-count.
//
// Saturated operators (rho > 0.95 or limiting) ride the backpressure
// boundary where measured rates carry capacity-dependent variance; the
// paper's validation (Figure 7) excludes them the same way.
//
// The default corpus keeps CI fast; SS_DRIFT_FULL=1 widens it and runs
// both transports on every topology.
const (
	qsimOpTol    = 0.15
	liveOpTol    = 0.40
	liveMeanTol  = 0.25
	rateSkewTol  = 0.05 // window-mark snapshots lag Metrics snapshots by the mark's own capture time
	driftSatRho  = 0.95 // keep in sync with obs.saturationRho
	liveDuration = 1500 * time.Millisecond
)

type driftCase struct {
	seed      uint64
	transport mailbox.Mode
}

func driftCorpus(t *testing.T) []driftCase {
	if os.Getenv("SS_DRIFT_FULL") == "1" {
		var cs []driftCase
		for seed := uint64(1); seed <= 8; seed++ {
			cs = append(cs, driftCase{seed, mailbox.PerTuple}, driftCase{seed, mailbox.Batched}, driftCase{seed, mailbox.Auto})
		}
		return cs
	}
	if testing.Short() {
		t.Skip("live drift suite skipped in -short mode")
	}
	return []driftCase{
		{1, mailbox.PerTuple},
		{2, mailbox.Batched},
		{3, mailbox.PerTuple},
		{4, mailbox.Auto},
	}
}

// genTopology builds one corpus topology: service times floored at 1ms so
// live pacing is reliable (as in fig7live), sizes kept small so each live
// run stays under two seconds.
func genTopology(t *testing.T, seed uint64) *core.Topology {
	g, err := randtopo.Generate(randtopo.Config{
		Seed:           seed,
		MinOps:         4,
		MaxOps:         8,
		ServiceTimeMin: 1e-3,
		ServiceTimeMax: 8e-3,
	})
	if err != nil {
		t.Fatalf("seed %d: generate: %v", seed, err)
	}
	return g.Topology
}

// nonSaturated reports whether op i should be held to the tolerance bands.
func nonSaturated(a *core.Analysis, i int) bool {
	if a.Rho[i] > driftSatRho {
		return false
	}
	for _, id := range a.Limiting {
		if int(id) == i {
			return false
		}
	}
	return true
}

// TestPredictedVsSimulatedRates pins the model against the simulator on
// the corpus: with deterministic service times the fluid model should be
// nearly exact.
func TestPredictedVsSimulatedRates(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		topo := genTopology(t, seed)
		a, err := core.SteadyState(topo)
		if err != nil {
			t.Fatalf("seed %d: steady state: %v", seed, err)
		}
		sim, err := qsim.SimulateTopology(topo, nil, qsim.Config{
			Seed: seed, Horizon: 40, Service: qsim.Deterministic,
		})
		if err != nil {
			t.Fatalf("seed %d: simulate: %v", seed, err)
		}
		for i := 0; i < topo.Len(); i++ {
			if !nonSaturated(a, i) {
				continue
			}
			if e := stats.RelErr(sim.Departure[i], a.Delta[i]); e > qsimOpTol {
				t.Errorf("seed %d op %d (%s): qsim departure %.1f vs predicted %.1f (err %.1f%% > %.0f%%)",
					seed, i, topo.Op(core.OpID(i)).Name, sim.Departure[i], a.Delta[i], e*100, qsimOpTol*100)
			}
		}
	}
}

// TestLiveDriftAgainstModel runs each corpus topology on the live runtime
// with a registry bound, then checks the three-way agreement: the drift
// report's per-operator errors stay inside the live band, the registry's
// window rates match the engine's Metrics, and the registry's recomputed
// totals equal the engine's exactly (any difference is a tuple counted
// twice or not at all).
func TestLiveDriftAgainstModel(t *testing.T) {
	for _, tc := range driftCorpus(t) {
		tc := tc
		t.Run(fmt.Sprintf("seed%d_%v", tc.seed, tc.transport), func(t *testing.T) {
			topo := genTopology(t, tc.seed)
			reg := obs.New()
			m, err := runtime.RunTopology(context.Background(), topo, nil, nil, runtime.Config{
				Seed:        tc.seed,
				Duration:    liveDuration,
				Warmup:      liveDuration / 3,
				MailboxSize: 8,
				Mailbox:     tc.transport,
				Obs:         reg,
			})
			if err != nil {
				t.Fatalf("run: %v", err)
			}

			rep, err := obs.Drift(topo, nil, reg)
			if err != nil {
				t.Fatalf("drift: %v", err)
			}
			var errSum float64
			var errN int
			for _, row := range rep.Rows {
				if row.Saturated {
					continue
				}
				// Relative bands need enough expected tuples in the
				// window to be meaningful; a windowed operator predicted
				// at under ~20 departures per window is all shot noise.
				if row.Predicted*rep.Seconds < 20 {
					continue
				}
				errSum += row.RelErr
				errN++
				if row.RelErr > liveOpTol {
					t.Errorf("op %d (%s): measured %.1f t/s vs predicted %.1f (err %.1f%% > %.0f%%)",
						row.Op, row.Name, row.Measured, row.Predicted, row.RelErr*100, liveOpTol*100)
				}
				if row.MeasuredRho < 0 || row.MeasuredRho > 1.5 {
					t.Errorf("op %d (%s): implausible measured rho %.3f", row.Op, row.Name, row.MeasuredRho)
				}
			}
			if errN > 0 {
				if mean := errSum / float64(errN); mean > liveMeanTol {
					t.Errorf("mean departure error %.1f%% > %.0f%% over %d non-saturated operators",
						mean*100, liveMeanTol*100, errN)
				}
			}
			if rep.Reanalyzed == nil {
				t.Error("drift report missing re-analysis on measured profiles")
			} else if math.IsNaN(rep.RepredictionErr) || rep.RepredictedThroughput <= 0 {
				t.Errorf("re-analysis implausible: throughput %.1f err %v",
					rep.RepredictedThroughput, rep.RepredictionErr)
			}

			// Registry window rates vs the engine's own Metrics: same
			// counters, snapshots taken back to back, so only capture
			// skew separates them.
			rates, err := reg.WindowRates()
			if err != nil {
				t.Fatalf("window rates: %v", err)
			}
			if len(rates.Departure) != len(m.Departure) {
				t.Fatalf("registry rates cover %d ops, Metrics %d", len(rates.Departure), len(m.Departure))
			}
			for i := range m.Departure {
				if !ratesClose(rates.Departure[i], m.Departure[i], rates.Seconds) {
					t.Errorf("op %d: registry departure %.1f t/s vs Metrics %.1f t/s",
						i, rates.Departure[i], m.Departure[i])
				}
				if !ratesClose(rates.Arrival[i], m.Arrival[i], rates.Seconds) {
					t.Errorf("op %d: registry arrival %.1f t/s vs Metrics %.1f t/s",
						i, rates.Arrival[i], m.Arrival[i])
				}
			}
			if !ratesClose(rates.Throughput, m.Throughput, rates.Seconds) {
				t.Errorf("registry throughput %.1f t/s vs Metrics %.1f t/s", rates.Throughput, m.Throughput)
			}

			// Exact accounting: the registry recomputes the run's totals
			// purely from its own cells; the engine's Metrics view reads
			// the same cells, so the two must agree to the tuple.
			got := reg.Snapshot().Totals()
			want := obs.Totals{
				Generated: m.Totals.Generated,
				Delivered: m.Totals.Delivered,
				Shed:      m.Totals.Shed,
				Failed:    m.Totals.Failed,
				Drained:   m.Totals.Drained,
				Abandoned: m.Totals.Abandoned,
			}
			if got != want {
				t.Errorf("registry totals %v != engine totals %v (tuple under/over-count)", got, want)
			}
		})
	}
}

// ratesClose allows the documented snapshot-capture skew plus a few
// tuples of absolute slack for very low-rate operators.
func ratesClose(a, b, seconds float64) bool {
	if math.Abs(a-b)*seconds <= 8 {
		return true
	}
	return stats.RelErr(a, b) <= rateSkewTol
}

// TestProfilesRoundTrip checks Snapshot.Profiles against hand-built
// counters: service means, gains and the worker/collector aggregation.
func TestProfilesRoundTrip(t *testing.T) {
	r := obs.New()
	sts := r.Bind([]obs.StationInfo{
		{Name: "src", Role: "source", Op: 0, Source: true},
		{Name: "f/emitter", Role: "emitter", Op: 1},
		{Name: "f/1", Role: "worker", Op: 1},
		{Name: "f/2", Role: "worker", Op: 1},
		{Name: "f/collector", Role: "collector", Op: 1},
		{Name: "sink", Role: "worker", Op: 2, Sink: true},
	})
	sts[0].Consumed.Add(1000)
	// Workers: 600 + 400 consumed, collector emits 500 (gain 0.5).
	sts[2].Consumed.Add(600)
	sts[3].Consumed.Add(400)
	sts[4].Emitted.Add(500)
	// Per-tuple service samples: worker 1 at 2ms, worker 2 at 4ms.
	for i := 0; i < 10; i++ {
		sts[2].Service.Record(2_000_000)
	}
	for i := 0; i < 10; i++ {
		sts[3].Service.Record(4_000_000)
	}
	sts[5].Consumed.Add(500)
	sts[5].Emitted.Add(500)

	profiles, err := r.Snapshot().Profiles()
	if err != nil {
		t.Fatal(err)
	}
	if len(profiles) != 3 {
		t.Fatalf("got %d profiles, want 3", len(profiles))
	}
	p := profiles[1]
	if p.Consumed != 1000 || p.Emitted != 500 {
		t.Errorf("op 1 consumed/emitted = %d/%d, want 1000/500", p.Consumed, p.Emitted)
	}
	if got, want := p.ServiceTime, 3e-3; math.Abs(got-want)/want > HistogramRoundTripTol() {
		t.Errorf("op 1 service time %.4fms, want ~3ms", got*1e3)
	}
	if math.Abs(p.Gain-0.5) > 1e-9 {
		t.Errorf("op 1 gain %.3f, want 0.5", p.Gain)
	}
	if profiles[0].Consumed != 1000 {
		t.Errorf("source consumed %d, want 1000", profiles[0].Consumed)
	}
}

// HistogramRoundTripTol is the histogram's documented mean error: Sum is
// exact, so the mean carries no bucketing error at all — only float
// conversion.
func HistogramRoundTripTol() float64 { return 1e-9 }
