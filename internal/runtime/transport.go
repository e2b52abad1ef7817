package runtime

import (
	"time"

	"spinstreams/internal/mailbox"
	"spinstreams/internal/operators"
	"spinstreams/internal/plan"
)

// liveFanIn counts, per station, the distinct live stations holding an
// out-edge into it — the runtime's version of plan.FanIn, minus stations
// the mask marks retired (a retired station keeps its plan slot and its
// stale out-edges, but no longer sends). A nil mask counts everything,
// which is correct for the initial deployment. The count is what proves
// an inbox single-producer: each station is one goroutine, so fan-in <= 1
// means at most one sending goroutine ever touches the inbox.
func liveFanIn(p *plan.Plan, retired []bool) []int {
	in := make([]int, len(p.Stations))
	var targets []plan.StationID
	for i := range p.Stations {
		if retired != nil && retired[i] {
			continue
		}
		// A station with several edges to the same target (multi-port
		// routing) is still one producer of that inbox.
		targets = targets[:0]
		for _, e := range p.Stations[i].Out {
			dup := false
			for _, t := range targets {
				if t == e.To {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			targets = append(targets, e.To)
			in[e.To]++
		}
	}
	return in
}

// resolveInboxMode maps the configured transport policy and one inbox's
// live producer count to the concrete transport the inbox runs on. SPSC
// and Auto are per-edge policies — the lock-free ring exactly where the
// plan proves a single producer, the batched MPSC path everywhere else;
// every other mode is a uniform policy and passes through unchanged. The
// result is always constructible (never Auto).
func resolveInboxMode(global mailbox.Mode, producers int) mailbox.Mode {
	if global != mailbox.SPSC && global != mailbox.Auto {
		return global
	}
	if producers <= 1 {
		return mailbox.SPSC
	}
	return mailbox.Batched
}

// sourceRing returns the downstream SPSC ring when the source qualifies
// for the zero-copy reservation path: a single out-edge whose target
// inbox is a ring, no send-timeout shedding (Reserve blocks under BAS;
// per-tuple timeout windows need Send/SendMany), and no injected faults
// (fault schedules must observe every tuple individually). The per-tuple
// generate loop with its staging buffer, copy, and per-item accounting
// collapses into fill-window/publish-once — the speedup the analyzer's
// single-producer proof buys at the head of a pipeline.
func (e *engine) sourceRing(tb *tables, st *plan.Station) *mailbox.Mailbox[operators.Tuple] {
	if len(st.Out) != 1 || e.cfg.SendTimeout != 0 || tb.stFaults[st.ID] != nil {
		return nil
	}
	if m := tb.mailboxes[st.Out[0].To]; m.Mode() == mailbox.SPSC {
		return m
	}
	return nil
}

// runSourceRing generates the stream directly into the downstream ring:
// reserve a window of free slots, fill it from the generator in place,
// publish once, account once. Counter semantics match runSource's
// staging loop exactly — every published tuple counts generated (Consumed), emitted,
// and arrived — but amortized per window instead of per tuple.
// Unpublished window slots on stop were never generated and leave no
// accounting trace.
func (e *engine) runSourceRing(tb *tables, st *plan.Station, ctl *stationCtl, ring *mailbox.Mailbox[operators.Tuple]) {
	pr := e.newProbe(tb, st.ID)
	stop := ctl.stopCh()
	gen := e.cfg.Generator
	port := st.Out[0].Port
	src, dst := tb.st[st.ID], tb.st[st.Out[0].To]
	for {
		win, ok := ring.Reserve(e.cfg.Batch, stop)
		if !ok {
			// Pause or shutdown; nothing is staged outside the ring, so
			// there is nothing to flush or abandon.
			return
		}
		sampleSvc := pr.sampleService()
		var started time.Time
		if sampleSvc {
			started = time.Now()
		}
		for i := range win {
			gen.NextInto(&win[i])
			win[i].Port = port
		}
		ring.Publish(len(win))
		if sampleSvc {
			pr.onServe(started, len(win))
		}
		n := uint64(len(win))
		src.Consumed.Add(n)
		src.Emitted.Add(n)
		dst.Arrived.Add(n)
		if len(e.tracers) != 0 {
			e.fireEmit(st.ID, len(win))
		}
	}
}

// ringWhole reports whether the station's whole-batch fast path can run
// directly on its ring: the inbox must be SPSC (Peek/Consume are licensed
// by the single-producer proof), and a pass-through's single out-edge
// must land on another ring, because sendManyRing copies the window out
// synchronously — a non-ring downstream could retain the slice while the
// upstream producer recycles the slots under it. Sinks have no out-edge,
// so the inbox check alone decides.
func ringWhole(tb *tables, st *plan.Station, sinkWhole, forwardWhole bool) bool {
	if tb.mailboxes[st.ID].Mode() != mailbox.SPSC {
		return false
	}
	if sinkWhole {
		return true
	}
	return forwardWhole && tb.mailboxes[st.Out[0].To].Mode() == mailbox.SPSC
}

// stationEpochRing is the zero-copy consume loop for proven-SPSC
// pass-through stations: peek a contiguous run in place, forward it with
// one ring-to-ring copy (or, at a sink, just count it out of the system),
// consume the slots. Accounting is identical to the whole-batch paths in
// stationEpoch — one Consumed add per window, send-path counters via
// deliverLocal — with the pooled-buffer copy-out deleted. The
// pause/drain protocol mirrors RecvBatch's: a pause with drain pending
// keeps taking windows off e.done until the inbox is empty.
func (e *engine) stationEpochRing(tb *tables, st *plan.Station, ctl *stationCtl, sink bool, inst operators.Operator, minst *metaInstance) (clean bool) {
	inbox := tb.mailboxes[st.ID]
	pr := e.newProbe(tb, st.ID)
	stop := ctl.stopCh()
	self := tb.st[st.ID]
	for {
		win, ok := inbox.Peek(stop)
		if !ok {
			if e.isShutdown() {
				return true
			}
			if !ctl.drainRequested() || inbox.Pending() == 0 {
				ctl.carry(inst, minst)
				return true
			}
			if win, ok = inbox.Peek(e.done); !ok {
				return true
			}
		}
		if pr != nil {
			pr.onReceive(len(win))
		}
		n := uint64(len(win))
		if sink {
			self.Consumed.Add(n)
			self.Emitted.Add(n)
			pr.onEmit(len(win))
			inbox.Consume(len(win))
			continue
		}
		for i := range win {
			win[i].Port = st.Out[0].Port
		}
		sent := e.deliver(st.ID, 0, &st.Out[0], win)
		self.Consumed.Add(n)
		// Consume before returning on shutdown: the send path accounted
		// every window tuple (sent, dropped, or abandoned), so leaving
		// them in the ring would double-count them as drain residue.
		inbox.Consume(len(win))
		if !sent {
			return true
		}
	}
}

// newInbox builds one station's inbox in the resolved transport.
func newInbox(cfg Config, producers int) (*mailbox.Mailbox[operators.Tuple], error) {
	return mailbox.New[operators.Tuple](mailbox.Config{
		Capacity: cfg.MailboxSize,
		Mode:     resolveInboxMode(cfg.Mailbox, producers),
		Batch:    cfg.Batch,
		Linger:   cfg.Linger,
	})
}

// demoteInbox builds the replacement inbox for an edge whose SPSC proof
// a reconfiguration invalidated. It is the only constructor live
// reconfiguration may use to swap an existing station's inbox: it
// resolves the configured transport but never yields a ring, so a
// demoted edge can never be re-promoted to SPSC whose single-producer
// precondition no longer holds (the epochfence analyzer pins this).
func demoteInbox(cfg Config, producers int) (*mailbox.Mailbox[operators.Tuple], error) {
	mode := resolveInboxMode(cfg.Mailbox, producers)
	if mode == mailbox.SPSC {
		mode = mailbox.Batched
	}
	return mailbox.New[operators.Tuple](mailbox.Config{
		Capacity: cfg.MailboxSize,
		Mode:     mode,
		Batch:    cfg.Batch,
		Linger:   cfg.Linger,
	})
}
