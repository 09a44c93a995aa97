package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// EventKind tags one flight-recorder event.
type EventKind uint8

const (
	EvNone      EventKind = iota
	EvBegin               // transaction began (At = 0 by definition)
	EvLockWait            // blocked in the lock manager; Dur = wait, Arg = resource OID
	EvAbort               // aborted; Arg = abort reason code
	EvCommit              // writes published, volatile or durable; Arg = their commit epoch
	EvFsyncWait           // waited on the WAL group commit; Dur = wait
)

// Abort reason codes carried in EvAbort's Arg.
const (
	AbortDeadlock = 1
	AbortTimeout  = 2
	AbortOther    = 3
)

// String names the event kind for human-readable dumps.
func (k EventKind) String() string {
	switch k {
	case EvBegin:
		return "begin"
	case EvLockWait:
		return "lock_wait"
	case EvAbort:
		return "abort"
	case EvCommit:
		return "commit"
	case EvFsyncWait:
		return "fsync_wait"
	}
	return "none"
}

// Event is one typed entry in a transaction's trace. At is the offset
// from transaction begin; Dur is the event's own duration where it has
// one (lock and fsync waits); Arg is kind-specific (resource OID, abort
// reason, commit epoch).
type Event struct {
	Kind EventKind
	At   time.Duration
	Dur  time.Duration
	Arg  uint64
}

// traceEvents bounds the per-transaction event array. Sixteen covers
// begin + commit/abort + a dozen waits; beyond that Dropped counts the
// overflow rather than growing the array (the trace lives inside the
// pooled Txn and must never allocate).
const traceEvents = 16

// TxnTrace is the in-flight event buffer embedded in each transaction.
// It is written only by the transaction's own goroutine, so appends are
// plain stores — no atomics, no locks, no allocation.
type TxnTrace struct {
	start   time.Time
	n       int
	dropped int
	events  [traceEvents]Event
}

// Start arms the trace at transaction begin, clearing prior contents
// (the Txn struct is pooled) and logging EvBegin.
func (t *TxnTrace) Start(now time.Time) {
	t.start = now
	t.n = 0
	t.dropped = 0
	t.Add(EvBegin, 0, 0)
}

// Add appends one event; overflow past the fixed array counts into
// Dropped instead.
func (t *TxnTrace) Add(kind EventKind, dur time.Duration, arg uint64) {
	if t.n >= traceEvents {
		t.dropped++
		return
	}
	t.events[t.n] = Event{Kind: kind, At: time.Since(t.start), Dur: dur, Arg: arg}
	t.n++
}

// Elapsed returns time since the trace was armed.
func (t *TxnTrace) Elapsed() time.Duration { return time.Since(t.start) }

// SlowTxn is a completed transaction captured by the flight recorder.
type SlowTxn struct {
	TxnID   uint64
	Start   time.Time
	Elapsed time.Duration
	Dropped int
	Events  []Event
}

// recorderRing bounds the retained slow-transaction history.
const recorderRing = 64

// FlightRecorder retains the event traces of transactions whose total
// latency exceeded a configurable threshold. The threshold is atomic —
// zero (the default) disables tracing entirely so fast transactions pay
// one atomic load per Begin and nothing else. Capture (the slow path,
// by definition) copies the trace into a fixed ring under a mutex and
// allocates the event slice; the hot path never does.
type FlightRecorder struct {
	threshold atomic.Int64 // nanoseconds; 0 = disabled

	mu       sync.Mutex
	ring     [recorderRing]SlowTxn
	next     int
	captured atomic.Int64
}

// SetThreshold sets the slow-transaction latency threshold; zero or
// negative disables the recorder.
func (r *FlightRecorder) SetThreshold(d time.Duration) {
	if d < 0 {
		d = 0
	}
	r.threshold.Store(int64(d))
}

// Threshold returns the current threshold (0 = disabled).
func (r *FlightRecorder) Threshold() time.Duration {
	return time.Duration(r.threshold.Load())
}

// Enabled reports whether tracing is armed — one atomic load, called at
// every transaction begin.
func (r *FlightRecorder) Enabled() bool { return r.threshold.Load() > 0 }

// Note offers a completed transaction's trace to the recorder; it is
// captured only when its elapsed time meets the threshold at this
// instant. Returns whether the trace was captured.
func (r *FlightRecorder) Note(txnID uint64, tr *TxnTrace) bool {
	th := r.threshold.Load()
	if th <= 0 {
		return false
	}
	elapsed := tr.Elapsed()
	if int64(elapsed) < th {
		return false
	}
	st := SlowTxn{
		TxnID:   txnID,
		Start:   tr.start,
		Elapsed: elapsed,
		Dropped: tr.dropped,
		Events:  append([]Event(nil), tr.events[:tr.n]...),
	}
	r.mu.Lock()
	r.ring[r.next%recorderRing] = st
	r.next++
	r.mu.Unlock()
	r.captured.Add(1)
	return true
}

// Captured returns the total number of slow transactions recorded
// (including any that have since been evicted from the ring).
func (r *FlightRecorder) Captured() int64 { return r.captured.Load() }

// SlowTxns returns the retained slow transactions, newest first.
func (r *FlightRecorder) SlowTxns() []SlowTxn {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	if n > recorderRing {
		n = recorderRing
	}
	out := make([]SlowTxn, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.ring[(r.next-1-i)%recorderRing])
	}
	return out
}
