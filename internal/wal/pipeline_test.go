package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/storage"
)

// hardenTracker is a VFS that observes the ack-vs-harden window: it
// passes everything through to the real filesystem and records how many
// bytes of the live segment were on "disk" after each segment fsync. In
// the crash model, a crash preserves at least the hardened prefix (and
// some arbitrary prefix of later written bytes, which the
// kill-at-every-byte suite covers).
type hardenTracker struct {
	osFS
	mu       sync.Mutex
	hardened int64
	syncs    int
}

func (h *hardenTracker) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := h.osFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	var seq uint64
	if n, _ := fmt.Sscanf(filepath.Base(name), "wal-%d.log", &seq); n == 1 {
		return &trackedFile{File: f, h: h}, nil
	}
	return f, nil
}

// trackedFile snapshots the segment size after every successful fsync.
type trackedFile struct {
	File
	h *hardenTracker
}

func (f *trackedFile) Sync() error {
	if err := f.File.Sync(); err != nil {
		return err
	}
	fi, err := f.File.Stat()
	if err != nil {
		return err
	}
	f.h.mu.Lock()
	f.h.hardened = fi.Size()
	f.h.syncs++
	f.h.mu.Unlock()
	return nil
}

func (h *hardenTracker) state() (int64, int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.hardened, h.syncs
}

// The tentpole's crash-window acceptance, SyncAlways leg: a pipelined
// transaction whose durability future resolved must survive a crash at
// EVERY later point. The tracker records the hardened prefix at each
// fsync; at every future resolution the test captures that prefix, and
// afterwards recovers from exactly those bytes — the worst crash point,
// immediately after the application acted on the resolution — checking
// the transaction's effect is present.
func TestRecoveryPipelinedCrashWindow(t *testing.T) {
	dir := t.TempDir()
	st := newTestStore(t)
	tracker := &hardenTracker{}
	l, _, err := Open(dir, st, Options{FS: tracker})
	if err != nil {
		t.Fatal(err)
	}
	cls := st.Schema().Class("item")
	const workers = 4
	const commitsEach = 40
	insts := make([]*storage.Instance, workers)
	c := l.BeginCommit(1)
	for i := range insts {
		in, err := st.NewInstance(cls, storage.IntV(0))
		if err != nil {
			t.Fatal(err)
		}
		insts[i] = in
		c.Create(cls.ID, uint64(in.OID), in)
	}
	if err := commitWait(c); err != nil {
		t.Fatal(err)
	}

	// resolution is one observed (commit value, hardened-at-resolution)
	// pair per pipelined commit.
	type resolution struct {
		worker   int
		value    int64
		hardened int64
	}
	resCh := make(chan resolution, workers*commitsEach)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			in := insts[w]
			var futures []*Future
			var values []int64
			for i := 1; i <= commitsEach; i++ {
				in.Set(0, storage.IntV(int64(i)))
				c := l.BeginCommit(uint64(100 + w*1000 + i))
				c.Write(uint64(in.OID), 0, in.Get(0))
				fut, err := commitPipelined(c)
				if err != nil {
					errs <- fmt.Errorf("worker %d commit %d: %w", w, i, err)
					return
				}
				futures = append(futures, fut)
				values = append(values, int64(i))
				// Keep a small pipeline: resolve the oldest future once
				// a few are in flight, like a session would.
				if len(futures) >= 8 {
					if err := futures[0].Wait(); err != nil {
						errs <- err
						return
					}
					hardened, _ := tracker.state()
					resCh <- resolution{worker: w, value: values[0], hardened: hardened}
					futures, values = futures[1:], values[1:]
				}
			}
			for k, fut := range futures {
				if err := fut.Wait(); err != nil {
					errs <- err
					return
				}
				hardened, _ := tracker.state()
				resCh <- resolution{worker: w, value: values[k], hardened: hardened}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	close(resCh)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(segmentPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}

	for res := range resCh {
		if res.hardened > int64(len(data)) {
			t.Fatalf("hardened %d beyond segment size %d", res.hardened, len(data))
		}
		crashDir := t.TempDir()
		if err := os.WriteFile(segmentPath(crashDir, 1), data[:res.hardened], 0o644); err != nil {
			t.Fatal(err)
		}
		_, st2, _ := openDirNoLog(t, crashDir)
		in, ok := st2.Get(insts[res.worker].OID)
		if !ok {
			t.Fatalf("worker %d instance missing after crash at hardened=%d", res.worker, res.hardened)
		}
		if got := in.Get(0).I; got < res.value {
			t.Fatalf("worker %d: resolved commit value %d lost (recovered %d) at hardened=%d",
				res.worker, res.value, got, res.hardened)
		}
	}
}

// openDirNoLog recovers a directory and immediately closes the log,
// returning the recovered store (crash-simulation helper).
func openDirNoLog(t *testing.T, dir string) (*Log, *storage.Store, RecoveryInfo) {
	t.Helper()
	l, st, info := openDir(t, dir)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return l, st, info
}

// SyncEvery leg of the crash-window acceptance: commits are
// acknowledged before the fsync, and the loss window is bounded — any
// unsynced commit is hardened within the interval (plus scheduling
// slack), even with no further commits arriving to piggyback on.
func TestRecoverySyncEveryBoundsLossWindow(t *testing.T) {
	dir := t.TempDir()
	st := newTestStore(t)
	tracker := &hardenTracker{}
	const interval = 40 * time.Millisecond
	l, _, err := Open(dir, st, Options{Sync: SyncEvery(interval), FS: tracker})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	cls := st.Schema().Class("item")
	in, err := st.NewInstance(cls, storage.IntV(7))
	if err != nil {
		t.Fatal(err)
	}
	c := l.BeginCommit(1)
	c.Create(cls.ID, uint64(in.OID), in)
	start := time.Now()
	if err := commitWait(c); err != nil { // acknowledged after the OS write
		t.Fatal(err)
	}
	fi, err := os.Stat(segmentPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	want := fi.Size()
	deadline := time.Now().Add(10 * interval)
	for {
		hardened, _ := tracker.state()
		if hardened >= want {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("commit not hardened within 10× the %s interval (hardened %d of %d)",
				interval, hardened, want)
		}
		time.Sleep(time.Millisecond)
	}
	if elapsed := time.Since(start); elapsed > 9*interval {
		t.Fatalf("idle hardening took %s, want ≲ %s", elapsed, interval)
	}
}

// Under SyncNever, no batch fsyncs happen at all; the Sync barrier
// hardens everything enqueued so far on demand, and resolves after
// outstanding pipelined futures' records are on disk.
func TestSyncBarrierHardensRelaxedLog(t *testing.T) {
	dir := t.TempDir()
	st := newTestStore(t)
	tracker := &hardenTracker{}
	l, _, err := Open(dir, st, Options{Sync: SyncNever, FS: tracker})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	cls := st.Schema().Class("item")
	in, err := st.NewInstance(cls, storage.IntV(1))
	if err != nil {
		t.Fatal(err)
	}
	c := l.BeginCommit(1)
	c.Create(cls.ID, uint64(in.OID), in)
	fut, err := commitPipelined(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := fut.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, syncs := tracker.state(); syncs != 0 {
		t.Fatalf("SyncNever fsynced %d times before the barrier", syncs)
	}
	if err := l.Sync(nil); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(segmentPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	hardened, syncs := tracker.state()
	if syncs == 0 || hardened < fi.Size() {
		t.Fatalf("barrier left %d of %d bytes unhardened (%d syncs)", fi.Size()-hardened, fi.Size(), syncs)
	}
	if l.Stats().Fsyncs == 0 {
		t.Fatal("Stats.Fsyncs did not count the barrier sync")
	}
}

// Outstanding pipelined futures resolve when the log closes: Close
// drains the queue, and every record it acknowledged recovers.
func TestRecoveryPipelinedFuturesResolveOnClose(t *testing.T) {
	dir := t.TempDir()
	st := newTestStore(t)
	l, _, err := Open(dir, st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cls := st.Schema().Class("item")
	in, err := st.NewInstance(cls, storage.IntV(0))
	if err != nil {
		t.Fatal(err)
	}
	c := l.BeginCommit(1)
	c.Create(cls.ID, uint64(in.OID), in)
	if err := commitWait(c); err != nil {
		t.Fatal(err)
	}
	const commits = 100
	futures := make([]*Future, 0, commits)
	for i := 1; i <= commits; i++ {
		in.Set(0, storage.IntV(int64(i)))
		c := l.BeginCommit(uint64(1 + i))
		c.Write(uint64(in.OID), 0, in.Get(0))
		fut, err := commitPipelined(c)
		if err != nil {
			t.Fatal(err)
		}
		futures = append(futures, fut)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	for i, fut := range futures {
		if err := fut.Wait(); err != nil {
			t.Fatalf("future %d: %v", i, err)
		}
	}
	_, st2, info := openDirNoLog(t, dir)
	if info.Records != commits+1 {
		t.Fatalf("recovered %d records, want %d", info.Records, commits+1)
	}
	rec, ok := st2.Get(in.OID)
	if !ok || rec.Get(0) != storage.IntV(commits) {
		t.Fatalf("final value %v, want %d", rec.Get(0), commits)
	}
}

// Pipelined commits after Close fail synchronously with ErrClosed.
func TestPipelinedCommitAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	st := newTestStore(t)
	l, _, err := Open(dir, st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	c := l.BeginCommit(1)
	c.Delete(42)
	if _, err := commitPipelined(c); err != ErrClosed {
		t.Fatalf("pipelined commit after close = %v, want ErrClosed", err)
	}
	if err := l.Sync(nil); err != ErrClosed {
		t.Fatalf("sync after close = %v, want ErrClosed", err)
	}
}

// bigWorkload drives enough single-op commits through a fresh log to
// cross the parallel-replay threshold: creates, interleaved writes and
// some deletes across the OID space.
func bigWorkload(t *testing.T, dir string, n int) {
	t.Helper()
	st := newTestStore(t)
	l, _, err := Open(dir, st, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	cls := st.Schema().Class("item")
	var oids []storage.OID
	for i := 0; i < n; i++ {
		switch {
		case i%7 == 3 && len(oids) > 4: // delete an earlier instance
			victim := oids[i%len(oids)]
			if victim != 0 {
				if err := st.Delete(victim); err == nil {
					c := l.BeginCommit(uint64(i))
					c.Delete(uint64(victim))
					if err := commitWait(c); err != nil {
						t.Fatal(err)
					}
					oids[i%len(oids)] = 0
				}
			}
		case i%3 == 0 || len(oids) == 0: // create
			in, err := st.NewInstance(cls, storage.IntV(int64(i)), storage.IntV(0),
				storage.StrV(fmt.Sprintf("s%d", i)), storage.BoolV(i%2 == 0), storage.RefV(0))
			if err != nil {
				t.Fatal(err)
			}
			oids = append(oids, in.OID)
			c := l.BeginCommit(uint64(i))
			c.Create(cls.ID, uint64(in.OID), in)
			if err := commitWait(c); err != nil {
				t.Fatal(err)
			}
		default: // write to a random live instance
			target := oids[(i*2654435761)%len(oids)]
			if target == 0 {
				continue
			}
			in, ok := st.Get(target)
			if !ok {
				continue
			}
			in.Set(1, storage.IntV(int64(i)))
			c := l.BeginCommit(uint64(i))
			c.Write(uint64(target), 1, in.Get(1))
			if err := commitWait(c); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// replayWith replays the only segment in dir into a fresh store on the
// given number of workers, as Open does, without opening a log: the
// segment is left as it is. It returns the store, the records applied
// and the torn-tail offset (-1: none).
func replayWith(t *testing.T, dir string, workers int) (*storage.Store, int, int64) {
	t.Helper()
	data, err := os.ReadFile(segmentPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	st := newTestStore(t)
	records, tornAt, err := newReplayer(st, st.Schema(), workers).segment(data)
	if err != nil {
		t.Fatal(err)
	}
	st.SortExtents()
	return st, records, tornAt
}

// sameStore fails the test unless two replays produced the same
// instances, slots, extent order (both normalized to ascending OIDs)
// and OID watermark.
func sameStore(t *testing.T, what string, got, want *storage.Store) {
	t.Helper()
	if !reflect.DeepEqual(storeImage(got), storeImage(want)) {
		t.Fatalf("%s: replay diverged from sequential", what)
	}
	if got.MaxOID() != want.MaxOID() {
		t.Fatalf("%s: MaxOID %d vs %d", what, got.MaxOID(), want.MaxOID())
	}
	// Extent order is part of the contract (deterministic merge).
	for _, cls := range want.Schema().Order {
		if !reflect.DeepEqual(got.ExtentOf(cls), want.ExtentOf(cls)) {
			t.Fatalf("%s: extent order of %s diverged", what, cls.Name)
		}
	}
}

// Parallel replay must produce byte-identical state to single-threaded
// replay, and so must Open, which replays on GOMAXPROCS workers.
func TestRecoveryParallelMatchesSequential(t *testing.T) {
	dir := t.TempDir()
	oldMin := minParallelReplayOps
	minParallelReplayOps = 1 // force the parallel path at test scale
	defer func() { minParallelReplayOps = oldMin }()
	bigWorkload(t, dir, 3000)

	stSeq, recSeq, _ := replayWith(t, dir, 1)
	for _, workers := range []int{2, 4, 8} {
		stPar, recPar, _ := replayWith(t, dir, workers)
		if recPar != recSeq {
			t.Fatalf("workers=%d replayed %d records, sequential %d", workers, recPar, recSeq)
		}
		sameStore(t, fmt.Sprintf("workers=%d", workers), stPar, stSeq)
	}
	st := newTestStore(t)
	l, info, err := Open(dir, st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if info.Records != int64(recSeq) {
		t.Fatalf("Open replayed %d records, sequential %d", info.Records, recSeq)
	}
	sameStore(t, "Open", st, stSeq)
}

// The parallel path honors torn tails exactly like the sequential one.
func TestRecoveryParallelTornTail(t *testing.T) {
	dir := t.TempDir()
	oldMin := minParallelReplayOps
	minParallelReplayOps = 1
	defer func() { minParallelReplayOps = oldMin }()
	bigWorkload(t, dir, 400)
	data, err := os.ReadFile(segmentPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	cut := int64(len(data)) - 5 // tear mid-record
	crashDir := t.TempDir()
	if err := os.WriteFile(segmentPath(crashDir, 1), data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	stPar, recPar, tornPar := replayWith(t, crashDir, 4)
	stSeq, recSeq, tornSeq := replayWith(t, crashDir, 1)
	if tornPar < 0 {
		t.Fatal("parallel replay missed the torn tail")
	}
	if recPar != recSeq || tornPar != tornSeq {
		t.Fatalf("parallel %d records torn at %d, sequential %d torn at %d", recPar, tornPar, recSeq, tornSeq)
	}
	sameStore(t, "torn tail, workers=4", stPar, stSeq)

	st := newTestStore(t)
	l, info, err := Open(crashDir, st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if info.Records != int64(recSeq) || info.TornTailBytes != cut-tornSeq {
		t.Fatalf("Open: %+v, sequential %d records torn at %d of %d bytes", info, recSeq, tornSeq, cut)
	}
	sameStore(t, "torn tail, Open", st, stSeq)
}
