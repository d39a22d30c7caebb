package sim

import (
	"testing"
	"time"
)

// FuzzResourceModel drives the optimized fair-share resource, with the
// lockstep sink installed (lockstep_test.go: the linear reference
// container, an admission-ordered slice scanned with flowLess), through
// a byte-program of admissions, weighted admissions, persistent loads,
// cancellations, capacity changes, clock advances and accounting
// probes. After every op — and at every flow callback inside it — the
// heap must hold exactly the reference's flows with the same earliest
// finisher, and completions must come in the reference's order. The
// heap and the reference share their float arithmetic, so any failure
// is a structural bug in the finish-tag heap, the flush coalescing, the
// completion cascade or the flow pool. The op-level model checks
// (active count, completion log monotonicity, monotone accounting) ride
// along.
//
// Weights and scales are dyadic so the incremental weight total is exact;
// sizes are arbitrary multiples of 128KB (bit-identity does not depend on
// "nice" sizes, only the weight algebra does).
func FuzzResourceModel(f *testing.F) {
	f.Add([]byte{})
	// Admit, run to completion, admit again (pool reuse on the second).
	f.Add([]byte{0, 10, 5, 200, 0, 11, 5, 200})
	// Burst of same-instant admissions, then a cancel storm.
	f.Add([]byte{0, 1, 0, 2, 0, 3, 2, 0, 1, 4, 3, 0, 3, 0, 5, 60, 3, 0})
	// Scale churn around persistent loads with sub-ms advances.
	f.Add([]byte{2, 1, 7, 3, 6, 9, 0, 7, 6, 50, 7, 1, 5, 100, 3, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		eng := NewEngine(7)
		sink := newLockstepSink(t, eng)
		r := NewResource(eng, "r", 96*float64(MB), SeekEfficiency(0.2))

		type rec struct {
			id int
			at Time
		}
		var done []rec
		var handles []*Flow
		var live []int // ids the model believes active, admission-ordered

		dropLive := func(id int) {
			for i, l := range live {
				if l == id {
					live = append(live[:i], live[i+1:]...)
					return
				}
			}
		}
		weights := [...]float64{0.25, 0.5, 1, 2, 4}
		scales := [...]float64{0.25, 0.5, 1, 2}
		admit := func(size Bytes, w float64) {
			id := len(handles)
			var fl *Flow
			if size > 0 {
				fl = r.StartWeighted(size, w, func(*Flow) {
					done = append(done, rec{id, eng.Now()})
					dropLive(id)
				})
			} else {
				fl = r.StartLoad(w)
			}
			handles = append(handles, fl)
			live = append(live, id)
		}

		var lastBytes Bytes
		var lastBusy Duration
		check := func(op int) {
			sink.checkAll()
			if g, w := r.ActiveFlows(), len(live); g != w {
				t.Fatalf("op %d: ActiveFlows %d, model believes %d", op, g, w)
			}
			if g, w := r.ActiveFlows(), sink.active(r); g != w {
				t.Fatalf("op %d: ActiveFlows %d vs reference %d", op, g, w)
			}
			for i := 1; i < len(done); i++ {
				if done[i].at < done[i-1].at {
					t.Fatalf("op %d: completion %d (flow %d at %v) precedes completion %d (at %v)",
						op, i, done[i].id, done[i].at, i-1, done[i-1].at)
				}
			}
			b, busy := r.BytesMoved(), r.BusyTime()
			if b < lastBytes || busy < lastBusy {
				t.Fatalf("op %d: accounting went backwards: bytes %d→%d, busy %v→%v", op, lastBytes, b, lastBusy, busy)
			}
			lastBytes, lastBusy = b, busy
		}

		for i := 0; i+1 < len(data); i += 2 {
			arg := int(data[i+1])
			switch data[i] % 8 {
			case 0, 1: // finite admission, dyadic weight
				admit(Bytes(1+arg)*128*KB, weights[arg%len(weights)])
			case 2: // persistent load
				admit(0, weights[arg%len(weights)])
			case 3: // cancel a live flow
				if len(live) > 0 {
					id := live[arg%len(live)]
					dropLive(id)
					handles[id].Cancel()
				}
			case 4: // double-cancel / stale-cancel hardening on a cancelled flow
				if len(handles) > 0 {
					id := arg % len(handles)
					stillLive := false
					for _, l := range live {
						if l == id {
							stillLive = true
						}
					}
					// Only re-cancel flows that ended by cancellation: a
					// completed flow's handle is pooled and may already be a
					// different admission (the documented Event-like
					// contract), so the model itself must not poke it.
					if !stillLive && !handles[id].Active() && handles[id].Size() == 0 {
						handles[id].Cancel()
					}
				}
			case 5: // coarse clock advance
				eng.RunFor(Duration(arg) * time.Millisecond)
			case 6: // fine clock advance (sub-ms, splits accrual intervals)
				eng.RunFor(Duration(arg) * 37 * time.Microsecond)
			case 7: // capacity change
				r.SetScale(scales[arg%len(scales)])
			}
			check(i)
		}

		// Drain: every finite flow completes, persistent loads keep the
		// resource busy; then check the full history one last time.
		eng.RunFor(time.Hour)
		check(len(data))
		for _, id := range live {
			if !handles[id].Active() {
				t.Fatalf("flow %d: model believes it active, handle says ended", id)
			}
		}
	})
}
