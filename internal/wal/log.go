package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/codec"
	"repro/internal/obs"
	"repro/internal/storage"
)

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log is closed")

// syncMode discriminates SyncPolicy. The zero value is sync-always so
// that a zero Options is the safest configuration.
type syncMode uint8

const (
	syncAlwaysMode syncMode = iota
	syncEveryMode
	syncNeverMode
)

// SyncPolicy decides when acknowledged commits are hardened with fsync.
//
//   - SyncAlways: every batch is fsynced before its commits are
//     acknowledged. A crash at any point — process or OS — loses no
//     acknowledged transaction.
//   - SyncEvery(d): batches are acknowledged after the buffered OS
//     write; the writer fsyncs at most every d (and within d of the
//     last unsynced write, even when idle). An OS crash or power loss
//     can lose at most the final d of acknowledged commits — the Redis
//     "everysec" middle point.
//   - SyncNever: acknowledged after the OS write only (the log still
//     fsyncs on rotation, checkpoint, Sync and Close). A process crash
//     loses nothing; an OS crash may lose the last instants of commits.
//
// The zero value is SyncAlways.
type SyncPolicy struct {
	mode  syncMode
	every time.Duration
}

// The fixed policies. SyncAlways is the zero value of SyncPolicy.
var (
	SyncAlways = SyncPolicy{}
	SyncNever  = SyncPolicy{mode: syncNeverMode}
)

// SyncEvery returns the periodic-fsync policy with the given maximum
// loss window. A non-positive interval degenerates to SyncAlways.
func SyncEvery(d time.Duration) SyncPolicy {
	if d <= 0 {
		return SyncAlways
	}
	return SyncPolicy{mode: syncEveryMode, every: d}
}

func (p SyncPolicy) String() string {
	switch p.mode {
	case syncAlwaysMode:
		return "always"
	case syncEveryMode:
		return fmt.Sprintf("every(%s)", p.every)
	case syncNeverMode:
		return "never"
	}
	return "sync(?)"
}

// Options configures the log.
type Options struct {
	// CheckpointBytes auto-triggers a checkpoint when the live segment
	// exceeds this size. Zero disables auto-checkpointing (Checkpoint
	// can still be called manually).
	CheckpointBytes int64
	// Sync is the hardening policy (default SyncAlways). See SyncPolicy.
	Sync SyncPolicy
	// FS is the filesystem under the log (nil: the real OS). Every
	// durable byte moves through it, so tests inject a FaultFS here to
	// torture each I/O point the log issues. The default adapter adds
	// no allocations to the warm commit path.
	FS FS
}

// maxBatch bounds the number of commits fused into one write+fsync.
const maxBatch = 1024

// normalize fills in defaults.
func (o *Options) normalize() {
	if o.FS == nil {
		o.FS = osFS{}
	}
}

// Stats counts log activity. Records/Fsyncs is the group-commit fan-in
// under SyncAlways; under SyncEvery and SyncNever, Fsyncs counts only
// the periodic / forced hardenings.
type Stats struct {
	Records     int64
	Batches     int64
	Fsyncs      int64
	Bytes       int64
	Checkpoints int64
}

// RecoveryInfo describes what Open found and replayed.
type RecoveryInfo struct {
	Checkpoint    bool   // a checkpoint file was loaded
	CheckpointSeq uint64 // its base segment sequence
	// CheckpointFallback: the primary checkpoint was corrupt or
	// half-renamed; recovery used checkpoint.prev (or, before a second
	// checkpoint existed, a full log replay) instead of installing
	// garbage.
	CheckpointFallback bool
	Segments           int   // log segments replayed
	Records            int64 // commit records applied
	TornTailBytes      int64 // bytes truncated off the final segment
}

// commit is one in-flight commit record: the encode buffer, the op
// count patched into the header at submit, and the ticket channel the
// committing transaction waits on. Pooled — a warm commit allocates
// nothing beyond what the record content itself needs.
type commit struct {
	l       *Log
	buf     []byte // frame header + payload
	ops     uint32
	maxOID  uint64          // highest OID an op of the record names
	epoch   uint64          // the commit epoch drawn at sequencing (0: a barrier)
	barrier bool            // Sync barrier: no bytes, forces fsync, acked in order
	seal    bool            // barrier that also seals the live segment
	sealed  uint64          // the segment a seal barrier sealed
	nextOID storage.OID     // and the OID watermark its checkpoint records
	valBuf  []storage.Value // scratch for create images
	done    chan error      // cap 1, reused across lives
}

// Future is the durability ticket of a pipelined commit: it resolves —
// once the batch carrying the record reaches the sync policy's
// acknowledgment point — to nil or to the log's fail-stop error.
// Futures are pooled: Wait must be called exactly once, after which the
// Future is recycled and must not be touched again. This is what makes
// a pipelined session allocation-free like the blocking path.
type Future struct {
	c *commit
}

// Wait blocks until the commit is acknowledged (under SyncAlways:
// hardened on disk), returns its outcome and recycles the Future. Call
// exactly once. A snapshot begun after a nil return reads the commit.
func (f *Future) Wait() error { return f.WaitDone(nil) }

// ErrWaitCanceled reports that a durability wait was abandoned before
// the acknowledgment arrived. The commit itself is unaffected: it is
// already sequenced in the log and will harden with its batch — only
// the caller stopped waiting for the confirmation.
var ErrWaitCanceled = errors.New("wal: durability wait canceled")

// WaitDone is Wait bounded by a cancellation channel. Like Wait it may
// be called exactly once. On cancellation it returns ErrWaitCanceled
// and hands the ticket to a background drainer that recycles the commit
// once the writer acknowledges it; the Future itself is dropped to the
// garbage collector (cancellation is the cold path — pooling discipline
// matters only on the ack path). A nil done never cancels.
func (f *Future) WaitDone(done <-chan struct{}) error {
	c := f.c
	if c == nil {
		return nil
	}
	f.c = nil
	l := c.l
	err := c.wait(done)
	if err != ErrWaitCanceled {
		l.futures.Put(f)
	}
	return err
}

// wait waits for the writer to acknowledge c, bounded by done, and
// recycles it. On cancellation it returns ErrWaitCanceled and hands c to
// a background drainer that recycles it once the writer acknowledges it.
func (c *commit) wait(done <-chan struct{}) error {
	select {
	case err := <-c.done:
		c.discard()
		return err
	case <-done:
		go func() {
			<-c.done
			c.discard()
		}()
		return ErrWaitCanceled
	}
}

// Log is an append-only redo log over numbered segment files in one
// directory, written by a single dedicated goroutine that batches
// concurrent commits into one buffered write + fsync (group commit).
type Log struct {
	dir  string
	st   *storage.Store // the store Open recovered into; Checkpoint reads it
	opts Options
	fs   FS // == opts.FS after normalize

	submitCh chan *commit
	done     chan struct{} // writer exited
	closed   atomic.Bool
	seqMu    sync.Mutex  // sequencing: enqueue + epoch + publish; Close; the checkpoint's seal
	ckptMu   sync.Mutex  // one checkpoint (or close) at a time
	ckptBusy atomic.Bool // auto-checkpoint in flight

	// broken latches the first write/fsync/rotate failure: the log goes
	// fail-stop. Accepting commits after a failed write would append
	// durable-acknowledged records after corrupt bytes — recovery stops
	// at the corruption and would silently discard them.
	broken    atomic.Bool
	brokenErr atomic.Value // error

	// Writer-goroutine-owned state.
	seq       uint64 // current segment sequence
	f         File
	size      int64       // bytes in the live segment (== file size)
	unsynced  int64       // bytes written since the last fsync
	lastSync  time.Time   // when the last fsync completed
	scratch   []byte      // batch concatenation buffer
	leased    uint64      // replay OID budget the log guarantees so far
	batch     []*commit   // reused batch slice
	syncTimer *time.Timer // SyncEvery idle-hardening timer

	commits sync.Pool
	futures sync.Pool

	records     obs.Counter
	batches     obs.Counter
	fsyncs      obs.Counter
	bytes       obs.Counter
	checkpoints obs.Counter

	// Group-commit telemetry, attached by RegisterMetrics. Atomic
	// pointers: attachment happens after the writer goroutine is already
	// serving commits. Nil = not attached.
	fsyncHist atomic.Pointer[obs.Hist] // fsync wall time (ns)
	batchHist atomic.Pointer[obs.Hist] // records per group-commit batch
}

func segmentPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%06d.log", seq))
}

// newStoppedTimer returns a timer that is not running and whose channel
// is empty.
func newStoppedTimer() *time.Timer {
	t := time.NewTimer(time.Hour)
	if !t.Stop() {
		<-t.C
	}
	return t
}

// start spins up the writer goroutine; the caller has set seq/f/size
// and normalized the options.
func (l *Log) start() {
	l.submitCh = make(chan *commit, 4096)
	l.done = make(chan struct{})
	l.syncTimer = newStoppedTimer()
	l.lastSync = time.Now()
	l.commits.New = func() any {
		return &commit{l: l, done: make(chan error, 1)}
	}
	l.futures.New = func() any { return new(Future) }
	go l.run()
}

// syncNow hardens everything written so far (writer goroutine only) and
// resets the periodic-sync clock. A failure latches fail-stop.
func (l *Log) syncNow() error {
	if err := l.failure(); err != nil {
		return err
	}
	var start time.Time
	hist := l.fsyncHist.Load()
	if hist != nil {
		start = time.Now()
	}
	if err := l.f.Sync(); err != nil {
		return l.markBroken(fmt.Errorf("segment fsync: %w", err))
	}
	if hist != nil {
		hist.Record(time.Since(start))
	}
	l.unsynced = 0
	l.lastSync = time.Now()
	l.fsyncs.Add(1)
	return nil
}

// armSync returns the timer channel to wait on for the SyncEvery idle
// hardening, or nil when no deferred sync is pending.
func (l *Log) armSync() <-chan time.Time {
	if l.opts.Sync.mode != syncEveryMode || l.unsynced == 0 {
		return nil
	}
	l.syncTimer.Reset(time.Until(l.lastSync.Add(l.opts.Sync.every)))
	return l.syncTimer.C
}

// disarmSync stops the pending idle-hardening timer (after another
// select case won).
func (l *Log) disarmSync(armed bool) {
	if !armed {
		return
	}
	if !l.syncTimer.Stop() {
		select {
		case <-l.syncTimer.C:
		default:
		}
	}
}

// run is the writer loop: batch, write, sync per policy, release
// tickets; between batches, harden any deferred bytes once the
// SyncEvery interval elapses even if no commit arrives.
func (l *Log) run() {
	defer close(l.done)
	for {
		syncC := l.armSync()
		select {
		case c, ok := <-l.submitCh:
			l.disarmSync(syncC != nil)
			if !ok {
				return // Close drained the queue
			}
			l.batch = l.collect(l.batch[:0], c)
			err := l.writeBatch(l.batch)
			for _, c := range l.batch {
				if c.seal && err == nil {
					c.sealed, err = l.rotate()
					c.nextOID = l.sealWatermark()
				}
				c.done <- err
			}
			l.maybeAutoCheckpoint()
		case <-syncC:
			l.syncNow() //nolint:errcheck // latched; the next commit reports it
		}
	}
}

// collectYields is how many times collect hands the processor over
// before closing a batch: committers that are runnable but unscheduled
// (the common case on few cores, where a worker is microseconds away
// from submitting) get to join without any timer wait. Idle committers
// cost nothing — Gosched returns immediately when nothing else runs.
const collectYields = 3

// collect gathers one group-commit batch: everything already queued,
// then everything a few processor yields shake loose, until the batch
// fills or a round of yields brings nothing new. It never waits on a
// clock.
func (l *Log) collect(batch []*commit, first *commit) []*commit {
	batch = append(batch, first)
	yields := 0
	for {
		grew := false
		for len(batch) < maxBatch {
			select {
			case c, ok := <-l.submitCh:
				if !ok {
					return batch
				}
				batch = append(batch, c)
				grew = true
				continue
			default:
			}
			break
		}
		if len(batch) >= maxBatch {
			return batch
		}
		if grew {
			yields = 0 // arrivals reset the yield budget: keep shaking
		}
		if yields >= collectYields {
			return batch
		}
		yields++
		runtime.Gosched()
	}
}

// markBroken latches the log into fail-stop: every later commit,
// checkpoint and batch write reports the original failure, classified
// under the ErrLogFailed/ErrDiskFull taxonomy.
func (l *Log) markBroken(err error) error {
	if l.broken.CompareAndSwap(false, true) {
		l.brokenErr.Store(&failStopError{cause: err})
	}
	return l.failure()
}

// failure returns the latched fail-stop error, or nil.
func (l *Log) failure() error {
	if !l.broken.Load() {
		return nil
	}
	err, _ := l.brokenErr.Load().(*failStopError)
	if err == nil {
		return nil
	}
	return err
}

// Failed reports the latched fail-stop error, nil while the log is
// healthy. A non-nil result matches ErrLogFailed (and ErrDiskFull when
// the cause was out-of-space) and never clears: the engine polls this
// to put itself into degraded read-only mode.
func (l *Log) Failed() error { return l.failure() }

// writeBatch concatenates the batch into one buffer, writes it with a
// single Write call and hardens it per the sync policy (a Sync barrier
// in the batch forces the fsync under any policy). Any failure latches
// fail-stop: a partial write leaves garbage in the segment, and
// appending more records after it would put acknowledged commits
// beyond the offset where recovery stops.
func (l *Log) writeBatch(batch []*commit) error {
	if err := l.failure(); err != nil {
		return err
	}
	// Every replay start — the checkpoint, checkpoint.prev, the first
	// segment — reaches this batch with a budget of at least l.leased,
	// and every record adds its op count. A record naming an OID beyond
	// that (its creator's earlier OIDs were aborted, or are still in
	// flight) needs leases, prepended so that any torn prefix of the
	// Write that holds a record also holds them.
	covered, lease, epoch := l.leased, uint64(0), uint64(0)
	for _, c := range batch {
		if !c.barrier {
			covered += uint64(c.ops)
			lease = max(lease, c.maxOID-min(c.maxOID, covered))
			epoch = c.epoch // records arrive in epoch order
		}
	}
	l.scratch = appendLease(l.scratch[:0], lease)
	records := 0
	forceSync := false
	for _, c := range batch {
		if c.barrier {
			forceSync = true
			continue
		}
		l.scratch = append(l.scratch, c.buf...)
		records++
	}
	if len(l.scratch) > 0 {
		if _, err := l.f.Write(l.scratch); err != nil {
			l.scrub()
			return l.markBroken(fmt.Errorf("segment write: %w", err))
		}
		l.unsynced += int64(len(l.scratch))
	}
	mustSync := forceSync && l.unsynced > 0
	switch l.opts.Sync.mode {
	case syncAlwaysMode:
		mustSync = mustSync || records > 0
	case syncEveryMode:
		mustSync = mustSync || (l.unsynced > 0 && time.Since(l.lastSync) >= l.opts.Sync.every)
	}
	if mustSync {
		if err := l.syncNow(); err != nil {
			l.scrub()
			return err
		}
	}
	l.size += int64(len(l.scratch))
	l.leased = covered + lease
	if epoch != 0 {
		// Acknowledged: set before run resolves the futures. A seal ends
		// its batch (the checkpoint holds seqMu), so its rotation fails none.
		l.st.SetDurableEpoch(epoch)
	}
	l.records.Add(int64(records))
	if records > 0 {
		l.batches.Add(1)
		if hist := l.batchHist.Load(); hist != nil {
			hist.Observe(uint64(records))
		}
	}
	l.bytes.Add(int64(len(l.scratch)))
	return nil
}

// scrub best-effort removes the current batch's bytes from the segment
// after a failed write or fsync (writer goroutine only; l.size is still
// the pre-batch size at that point). No commit in the batch was
// acknowledged, yet a partial write — or a write that succeeded before
// its fsync failed — can leave a fully valid record on disk; replay
// would resurrect it, handing the application a transaction it was told
// failed. Truncating back to the acknowledged prefix keeps "recovery
// yields exactly the committed prefix" true even through the
// write-ok/fsync-fail window. Errors are ignored: the log is latching
// fail-stop either way, and an unscrubbed tail only weakens the
// guarantee when the scrub itself also fails.
func (l *Log) scrub() {
	if l.f.Truncate(l.size) == nil {
		l.f.Sync() //nolint:errcheck // best-effort; the log is already broken
	}
}

// rotate seals the current segment and opens the next one. Writer
// goroutine only. A failure latches fail-stop: the file state is no
// longer trustworthy for appends.
func (l *Log) rotate() (sealed uint64, err error) {
	if err := l.failure(); err != nil {
		return 0, err
	}
	if err := l.f.Sync(); err != nil {
		return 0, l.markBroken(fmt.Errorf("rotate fsync: %w", err))
	}
	l.fsyncs.Add(1)
	if err := l.f.Close(); err != nil {
		return 0, l.markBroken(fmt.Errorf("rotate close: %w", err))
	}
	sealed = l.seq
	l.seq++
	f, err := l.fs.OpenFile(segmentPath(l.dir, l.seq), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return 0, l.markBroken(fmt.Errorf("rotate open: %w", err))
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		f.Close()
		return 0, l.markBroken(fmt.Errorf("rotate dir fsync: %w", err))
	}
	l.f = f
	l.size = 0
	l.unsynced = 0
	l.lastSync = time.Now()
	return sealed, nil
}

// sealWatermark returns the OID watermark of a checkpoint cut at the
// seal: at or above every OID a sealed record names, and so every OID
// the checkpoint serializes, and no higher than the budget of any older
// replay start, which is at least l.leased. Replay from the checkpoint starts there, so it becomes the
// budget the log covers. Writer goroutine only.
func (l *Log) sealWatermark() storage.OID {
	l.leased = min(l.leased, uint64(l.st.MaxOID()))
	return storage.OID(l.leased)
}

// maybeAutoCheckpoint triggers a background checkpoint when the live
// segment outgrew the configured threshold.
func (l *Log) maybeAutoCheckpoint() {
	if l.opts.CheckpointBytes <= 0 || l.size < l.opts.CheckpointBytes {
		return
	}
	if !l.ckptBusy.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer l.ckptBusy.Store(false)
		l.Checkpoint() //nolint:errcheck // best-effort compaction; next one retries
	}()
}

// BeginCommit starts encoding one transaction's commit record. The
// returned commit must finish with Submit.
func (l *Log) BeginCommit(txnID uint64) *commit {
	c := l.commits.Get().(*commit)
	b := append(c.buf[:0], make([]byte, codec.HeaderSize)...) // sealed at Submit
	c.buf = appendHeader(b, txnID, 0)                         // nOps patched at Submit
	c.ops, c.maxOID = 0, 0
	c.barrier = false
	return c
}

// Write appends one TAV-projected field after-image.
func (c *commit) Write(oid uint64, slot int, v storage.Value) {
	c.buf = appendOp(c.buf, &RecordOp{Kind: OpWrite, OID: storage.OID(oid), Slot: slot, Val: v})
	c.named(oid)
}

// WriteDelta appends one escrow integer delta: the transaction's net
// contribution to a declared-commuting slot. Replay adds it instead of
// overwriting, so a concurrent escrow writer's uncommitted value never
// becomes durable through this record and an aborted writer leaves no
// durable trace.
func (c *commit) WriteDelta(oid uint64, slot int, delta int64) {
	c.buf = appendOp(c.buf, &RecordOp{Kind: OpDeltaI, OID: storage.OID(oid), Slot: slot, Delta: delta})
	c.named(oid)
}

// Create appends a creation record carrying the instance's full image as
// of commit time (the creator still holds its locks, so the image is the
// transaction's own final state).
func (c *commit) Create(classID uint32, oid uint64, in *storage.Instance) {
	c.valBuf = in.AppendSlots(c.valBuf[:0])
	c.buf = appendOp(c.buf, &RecordOp{Kind: OpCreate, Class: classID, OID: storage.OID(oid), Slots: c.valBuf})
	c.named(oid)
}

// Delete appends a deletion record.
func (c *commit) Delete(oid uint64) {
	c.buf = appendOp(c.buf, &RecordOp{Kind: OpDelete, OID: storage.OID(oid)})
	c.named(oid)
}

// named counts one appended op naming oid.
func (c *commit) named(oid uint64) {
	c.ops++
	c.maxOID = max(c.maxOID, oid)
}

// discard returns a finished or failed commit to the pool.
func (c *commit) discard() {
	if cap(c.buf) > 1<<20 {
		c.buf = nil // don't let one giant record pin memory in the pool
	}
	c.barrier, c.seal = false, false
	c.l.commits.Put(c)
}

// Submit frames the record and sequences it on the writer's queue
// without waiting: once Submit returns, the record's position in the
// log order is fixed — anything enqueued later (e.g. by a transaction
// that observes this one's effects) lands after it, with a higher
// commit epoch. publish gets the record's epoch under the sequencing
// mutex and must stamp and retire it (storage.Store.FinishEpoch), so
// epochs retire in log order and no committer waits on another's. It
// returns the record's pooled durability Future (Wait or WaitDone
// exactly once). On error the commit is already released and no epoch
// was drawn.
func (c *commit) Submit(publish func(epoch uint64)) (*Future, error) {
	l := c.l
	payload := c.buf[codec.HeaderSize:]
	binary.LittleEndian.PutUint32(payload[offNumOps:], c.ops)
	// Recovery rejects frames beyond maxRecordSize as garbage; writing
	// one would acknowledge a commit recovery must then discard.
	if err := codec.Seal(c.buf, payload, maxRecordSize); err != nil {
		c.discard()
		return nil, fmt.Errorf("wal: commit record: %w", err)
	}
	if err := l.failure(); err != nil {
		c.discard()
		return nil, err
	}
	if err := c.enqueue(publish); err != nil {
		return nil, err
	}
	f := l.futures.Get().(*Future)
	f.c = c
	return f, nil
}

// enqueue places the (framed or barrier) commit on the writer's queue.
// Under seqMu it checks that the log is open, draws a record's epoch,
// sends and publishes, as one step, so channel FIFO order — the log
// order — is epoch order too. Anything enqueued after this call returns
// — e.g. by a transaction that acquires this transaction's locks once
// they release — lands later in the log.
func (c *commit) enqueue(publish func(epoch uint64)) error {
	l := c.l
	l.seqMu.Lock()
	if l.closed.Load() {
		l.seqMu.Unlock()
		c.discard()
		return ErrClosed
	}
	if c.epoch = 0; !c.barrier {
		c.epoch = l.st.AllocEpoch()
	}
	l.submitCh <- c
	if publish != nil {
		publish(c.epoch)
	}
	l.seqMu.Unlock()
	return nil
}

// Sync is a hardening barrier: it blocks until everything enqueued
// before it — including pipelined commits whose futures have not been
// waited on — is written and fsynced, regardless of the sync policy.
// Like Future.WaitDone it is bounded by done (nil: unbounded): on
// cancellation it returns ErrWaitCanceled, and the barrier still passes
// in the background.
func (l *Log) Sync(done <-chan struct{}) error {
	c := l.barrier(false)
	if err := c.enqueue(nil); err != nil {
		return err
	}
	return c.wait(done)
}

// barrier returns a pooled hardening barrier, one that also seals the
// live segment when seal is set.
func (l *Log) barrier(seal bool) *commit {
	c := l.commits.Get().(*commit)
	c.buf = c.buf[:0]
	c.barrier, c.seal = true, seal
	return c
}

// Stats returns cumulative log counters.
func (l *Log) Stats() Stats {
	return Stats{
		Records:     l.records.Load(),
		Batches:     l.batches.Load(),
		Fsyncs:      l.fsyncs.Load(),
		Bytes:       l.bytes.Load(),
		Checkpoints: l.checkpoints.Load(),
	}
}

// RegisterMetrics exports the log's counters and submit-queue depth as
// series of reg, and attaches the group-commit histograms: the wall time
// of every fsync and the record count of every non-empty batch. Safe
// concurrently with commits; call once per registry.
func (l *Log) RegisterMetrics(reg *obs.Registry) {
	l.fsyncHist.Store(reg.Histogram("favcc_wal_fsync_seconds",
		"Group-commit fsync wall time.", "", true))
	l.batchHist.Store(reg.Histogram("favcc_wal_batch_records",
		"Commit records per group-commit batch.", "", false))
	reg.GaugeFunc("favcc_wal_queue_depth", "Commits waiting in the writer queue.", "",
		func() int64 { return int64(len(l.submitCh)) })
	reg.RegisterCounter("favcc_wal_records_total", "Commit records appended.", "", &l.records)
	reg.RegisterCounter("favcc_wal_batches_total", "Group-commit batches written.", "", &l.batches)
	reg.RegisterCounter("favcc_wal_fsyncs_total", "Segment fsyncs issued.", "", &l.fsyncs)
	reg.RegisterCounter("favcc_wal_bytes_total", "Bytes appended to the log.", "", &l.bytes)
	reg.RegisterCounter("favcc_wal_checkpoints_total", "Checkpoints taken.", "", &l.checkpoints)
}

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }

// Close flushes, stops the writer goroutine and closes the segment.
// In-flight commits complete (outstanding pipelined futures resolve);
// later commits fail with ErrClosed.
func (l *Log) Close() error {
	l.ckptMu.Lock()
	defer l.ckptMu.Unlock()
	l.seqMu.Lock()
	if !l.closed.CompareAndSwap(false, true) {
		l.seqMu.Unlock()
		return ErrClosed
	}
	l.seqMu.Unlock()
	close(l.submitCh)
	<-l.done
	if err := l.failure(); err != nil {
		l.f.Close() //nolint:errcheck // file state already failed
		return err
	}
	if err := l.f.Sync(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}
