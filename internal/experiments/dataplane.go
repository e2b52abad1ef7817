package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"spinstreams/internal/core"
	"spinstreams/internal/mailbox"
	"spinstreams/internal/operators"
	"spinstreams/internal/plan"
	"spinstreams/internal/runtime"
)

// DataplaneOptions tunes the transport-comparison scenario.
type DataplaneOptions struct {
	// Depth is the number of operators in the linear chain (default 8).
	// Every edge of a chain is single-producer, so the analyzer proves
	// the whole pipeline SPSC-eligible — the ring's best case.
	Depth int
	// Duration is the wall-clock run per transport (default 2s).
	Duration time.Duration
	// MailboxSize is the per-inbox tuple capacity (default 512).
	MailboxSize int
	// Batch is the micro-batch size for the batched/spsc paths
	// (default 128).
	Batch int
}

func (o DataplaneOptions) withDefaults() DataplaneOptions {
	if o.Depth <= 0 {
		o.Depth = 8
	}
	if o.Duration <= 0 {
		o.Duration = 2 * time.Second
	}
	if o.MailboxSize <= 0 {
		o.MailboxSize = 512
	}
	if o.Batch <= 0 {
		o.Batch = 128
	}
	return o
}

// DataplaneRow is one transport's measurement on the chain.
type DataplaneRow struct {
	Transport  string
	Throughput float64
	// SpeedupVsBatch normalizes against the uniform batched transport
	// (1.0 for the batched row).
	SpeedupVsBatch float64
	// SPSCInboxes / MPSCInboxes count how the run bound the plan's
	// inboxes (uniform transports bind everything to one path).
	SPSCInboxes int
	MPSCInboxes int
	// Conserved reports the tuple-conservation identity for the run.
	Conserved bool
}

// DataplaneResult compares the dataplane transports on a deep
// single-producer chain with service padding disabled, so tuples/s is
// bounded by per-item synchronization cost — the quantity the SPSC ring
// exists to cut.
type DataplaneResult struct {
	Depth int
	Rows  []DataplaneRow
}

// Dataplane measures the uniform batched transport and the
// analyzer-selected SPSC rings (the default Auto policy) on the same
// unpadded chain.
func Dataplane(ctx context.Context, o DataplaneOptions) (*DataplaneResult, error) {
	o = o.withDefaults()
	topo := core.NewTopology()
	var prev core.OpID
	for i := 0; i < o.Depth; i++ {
		kind := core.KindStateless
		switch i {
		case 0:
			kind = core.KindSource
		case o.Depth - 1:
			kind = core.KindSink
		}
		id := topo.MustAddOperator(core.Operator{
			Name: fmt.Sprintf("op%d", i+1), Kind: kind, ServiceTime: 0.001,
		})
		if i > 0 {
			topo.MustConnect(prev, id, 1)
		}
		prev = id
	}
	p, err := plan.Build(topo, plan.Options{})
	if err != nil {
		return nil, fmt.Errorf("dataplane: %w", err)
	}
	rings := 0
	for _, tr := range plan.Transports(p) {
		if tr == plan.TransportSPSC {
			rings++
		}
	}

	res := &DataplaneResult{Depth: o.Depth}
	for _, tc := range []struct {
		name string
		mode mailbox.Mode
	}{
		{"batched", mailbox.Batched},
		{"spsc", mailbox.Auto},
	} {
		gen, err := operators.NewGenerator(operators.GeneratorConfig{
			Seed: 1, NumKeys: 4, NumFields: 1,
		})
		if err != nil {
			return nil, fmt.Errorf("dataplane: %w", err)
		}
		m, err := runtime.RunTopology(ctx, topo, nil, nil, runtime.Config{
			Seed:             1,
			Duration:         o.Duration,
			Warmup:           o.Duration / 4,
			MailboxSize:      o.MailboxSize,
			NoServicePadding: true,
			Mailbox:          tc.mode,
			Batch:            o.Batch,
			Generator:        gen,
		})
		if err != nil {
			return nil, fmt.Errorf("dataplane %s: %w", tc.name, err)
		}
		row := DataplaneRow{
			Transport:  tc.name,
			Throughput: m.Throughput,
			Conserved: m.Totals.Generated == m.Totals.Delivered+m.Totals.Shed+
				m.Totals.Failed+m.Totals.Drained+m.Totals.Abandoned,
			MPSCInboxes: len(p.Stations),
		}
		if tc.mode == mailbox.Auto {
			row.SPSCInboxes = rings
			row.MPSCInboxes = len(p.Stations) - rings
		}
		res.Rows = append(res.Rows, row)
	}
	batched := res.Rows[0].Throughput
	for i := range res.Rows {
		if batched > 0 {
			res.Rows[i].SpeedupVsBatch = res.Rows[i].Throughput / batched
		}
	}
	return res, nil
}

// CheckDataplane asserts the scenario's structural invariants — the ones
// that hold on any machine: every transport conserves tuples, and the
// Auto policy bound every inbox of the chain to the ring (a chain has no
// multi-producer edge). Relative speeds are recorded, not asserted;
// cmd/benchgate holds the ring to its speedup on dedicated hardware.
func CheckDataplane(r Result) error {
	dr, ok := r.(*DataplaneResult)
	if !ok {
		return fmt.Errorf("dataplane: unexpected result type %T", r)
	}
	if len(dr.Rows) != 2 {
		return fmt.Errorf("dataplane: %d rows, want 2", len(dr.Rows))
	}
	for _, row := range dr.Rows {
		if !row.Conserved {
			return fmt.Errorf("dataplane %s: tuple conservation violated", row.Transport)
		}
		if row.Throughput <= 0 {
			return fmt.Errorf("dataplane %s: no throughput", row.Transport)
		}
	}
	spsc := dr.Rows[1]
	if spsc.MPSCInboxes != 0 {
		return fmt.Errorf("dataplane: %d inboxes fell back to MPSC on a single-producer chain", spsc.MPSCInboxes)
	}
	if spsc.SPSCInboxes != dr.Depth {
		return fmt.Errorf("dataplane: %d ring inboxes, want %d", spsc.SPSCInboxes, dr.Depth)
	}
	return nil
}

// String renders the comparison.
func (r *DataplaneResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Dataplane transports — %d-operator single-producer chain, no service padding\n", r.Depth)
	b.WriteString("transport   tuples/s      vs batch  spsc-inboxes\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s  %12.0f  %7.2fx  %d/%d\n",
			row.Transport, row.Throughput, row.SpeedupVsBatch,
			row.SPSCInboxes, row.SPSCInboxes+row.MPSCInboxes)
	}
	return b.String()
}

// Header implements Tabular.
func (r *DataplaneResult) Header() []string {
	return []string{"transport", "tuples_per_sec", "speedup_vs_batch",
		"spsc_inboxes", "mpsc_inboxes", "conserved"}
}

// TableRows implements Tabular.
func (r *DataplaneResult) TableRows() [][]string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Transport, f(row.Throughput), f(row.SpeedupVsBatch),
			d(row.SPSCInboxes), d(row.MPSCInboxes), fmt.Sprintf("%t", row.Conserved),
		})
	}
	return rows
}
