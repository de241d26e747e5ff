package pdes

import (
	"fmt"

	"govhdl/internal/vtime"
)

// Run-level checkpoint/restart: the Checkpoint a quiescent cut (cut.go)
// assembles and the per-LP committed-event logs a cut captures. Restoring one
// is Config.Restore; a restore (or an automatic failover absorbing a dead
// node's LPs) reproduces the uninterrupted run's trace byte-identically.

// checkpointFormat versions the blob layout (cut.go encodeBlob); every blob
// starts with it. Any other format is refused, never read: a checkpoint does
// not outlive the deployment that wrote it. Format 3 captures a shard as its
// arrival-and-drain log and member pending set (phase.go).
const checkpointFormat = 3

// Checkpoint is a consistent global snapshot of a parallel run, assembled by
// the controller at a committed GVT. Package ckptio is its file format.
// Taking one needs a wire tag (RegisterWireValue) for every event payload
// type the application sends; the capture fails otherwise.
type Checkpoint struct {
	Format  int      // checkpointFormat
	GVT     vtime.VT // the committed GVT of the cut
	Round   uint64   // GVT rounds completed when the cut was taken
	Workers int      // worker endpoint count (endpoints 1..Workers)
	NumLPs  int      // System size the checkpoint was taken against
	Modes   []Mode   // per-LP synchronization mode at the cut
	// Blobs holds one encoded ckptWorker per worker, indexed by endpoint id
	// (Blobs[0] is unused — endpoint 0 is the controller). A dense slice, not
	// a map: checkpoint assembly and restore stay deterministic.
	Blobs [][]byte
}

// decodeRestore checks a checkpoint against the run it is restored into and
// decodes its worker blobs (indexed by endpoint, like Blobs). The blobs decide
// who owns what: a restored run resumes with the cut's LP ownership —
// migrations before the cut included — not the placement rule's. The checkpoint
// comes from a file, so every LP id is validated here, before any table is
// indexed with it: in range, in exactly one blob, and together covering the
// system.
func decodeRestore(ck *Checkpoint, sys *System, cfg *Config) ([]*ckptWorker, error) {
	switch {
	case ck.Format != checkpointFormat:
		return nil, fmt.Errorf("pdes: checkpoint format %d, want %d", ck.Format, checkpointFormat)
	case ck.Workers != cfg.Workers:
		return nil, fmt.Errorf("pdes: checkpoint was taken with %d workers, Config.Workers is %d", ck.Workers, cfg.Workers)
	case ck.NumLPs != sys.NumLPs():
		return nil, fmt.Errorf("pdes: checkpoint was taken against %d LPs, the system has %d", ck.NumLPs, sys.NumLPs())
	case len(ck.Modes) != ck.NumLPs:
		return nil, fmt.Errorf("pdes: corrupt checkpoint: %d modes for %d LPs", len(ck.Modes), ck.NumLPs)
	case len(ck.Blobs) != ck.Workers+1:
		return nil, fmt.Errorf("pdes: corrupt checkpoint: %d blobs for %d workers", len(ck.Blobs), ck.Workers)
	}
	restored := make([]*ckptWorker, ck.Workers+1)
	seen := make([]bool, ck.NumLPs)
	total := 0
	for w := 1; w <= ck.Workers; w++ {
		cw, err := decodeBlob(ck.Blobs[w])
		if err == nil && cw.Worker != w {
			err = fmt.Errorf("it holds worker %d's state", cw.Worker)
		}
		if err == nil {
			err = sys.checkBlob(cw, func(id LPID) bool {
				dup := seen[id]
				seen[id] = true
				return !dup
			})
		}
		if err != nil {
			return nil, &SimError{Text: fmt.Sprintf("pdes: corrupt checkpoint: blob %d: %v", w, err)}
		}
		restored[w] = cw
		total += len(cw.LPs)
	}
	if total != ck.NumLPs {
		return nil, &SimError{Text: fmt.Sprintf("pdes: corrupt checkpoint: blobs cover %d of %d LPs", total, ck.NumLPs)}
	}
	return restored, nil
}

// ckptLP is one LP's share of a worker blob. Its events are copies by value
// out of the engine's pooled objects: a captured LP must never retain a
// *Event past its recycling point.
type ckptLP struct {
	ID    LPID
	Now   vtime.VT
	Floor vtime.VT
	// Log is the LP's committed executions since t=0 in execution order;
	// restore replays it (sends suppressed, trace records re-committed) to
	// rebuild the model state and the committed trace. A shard's log is what
	// reached it instead: cross-shard member events and drain marks (Dst
	// NoLP at the drained timestamp), in order (shardModel.replay).
	Log []Event
	// Pending are the unprocessed events at the cut (all at or above GVT).
	Pending []Event
	// Orphans are anti-messages whose positive twin had not arrived at the
	// cut. The quiescent-cut protocol should leave none; serialized
	// defensively so a restore cannot silently lose a cancellation.
	Orphans []Event
	// CC holds the per-in-edge channel clocks, parallel to the LP's declared
	// input order. Null-message promises are deliberately NOT serialized:
	// senders re-advertise after restore (lastPromise restarts at zero), so
	// a promise in flight at the cut cannot be lost, only repeated. A shard
	// has none.
	CC []vtime.VT
}

// ckptWorker is one worker's serialized state.
type ckptWorker struct {
	Worker int
	Seq    uint64 // event-ID allocator; restored so IDs never collide
	Clock  float64
	LPs    []ckptLP
}

// logCommit appends a committed execution to the LP's checkpoint log. Called
// at the three commit points — conservative execution, history commit, fossil
// collection — immediately before the event object is recycled.
func (w *worker) logCommit(lp *lpRT, e *Event) {
	if !w.logCommits {
		return
	}
	lp.commitLog = append(lp.commitLog, *e)
}
