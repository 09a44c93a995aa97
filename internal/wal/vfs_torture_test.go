package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/storage"
)

// The hostile-disk torture suite. A reference run over a counting
// FaultFS measures how many filesystem operations the canonical durable
// workload issues (N) and what kind each one is; the walks below then
// re-run the workload N times, failing exactly op i on run i — the same
// exhaustive structure as the cut-at-every-byte recovery suites, lifted
// from byte offsets to I/O points. Every run must uphold the fail-stop
// contract:
//
//   - no panic anywhere;
//   - a failed commit reports ErrLogFailed (and ErrDiskFull when the
//     injected fault was ENOSPC, and never otherwise);
//   - once a commit fails on a log instance, every later commit on that
//     instance fails too (the latch never clears);
//   - reopening the directory on a healthy disk recovers exactly the
//     acknowledged prefix — nothing acknowledged lost, nothing
//     unacknowledged resurrected.
//
// Bit-flip runs relax the last point: silent post-fsync corruption may
// cost acknowledged commits, but recovery must land on SOME previously
// acknowledged state or refuse with a clean error — never invent state.

// tortureState threads one run: the model of acknowledged state, the
// instances live in the current store, and the per-log-instance
// fail-stop monotonicity flag.
type tortureState struct {
	t      *testing.T
	enospc bool // injected faults are ENOSPC: commit errors must be ErrDiskFull
	flip   bool // silent-corruption run: acknowledged loss allowed, invention not

	model image   // acknowledged state
	acked []image // every state ever acknowledged, in order
	g     int     // commit counter / value generator

	live   []*storage.Instance // instances present in the current store
	failed bool                // current log instance has latched fail-stop
}

// commitOnce builds and commits one record — a create, plus a field
// write and a delete on alternating beats — updating the model only if
// the commit is acknowledged.
func (ts *tortureState) commitOnce(l *Log, st *storage.Store) {
	ts.t.Helper()
	ts.g++
	g := ts.g
	cls := st.Schema().Class("item")
	c := l.BeginCommit(uint64(g))
	var apply []func()

	in, err := st.NewInstance(cls,
		storage.IntV(int64(g)), storage.IntV(int64(2*g)),
		storage.StrV(fmt.Sprintf("g%d", g)), storage.BoolV(g%2 == 0), storage.RefV(0))
	if err != nil {
		ts.t.Fatal(err)
	}
	ts.live = append(ts.live, in)
	c.Create(cls.ID, uint64(in.OID), in)
	img := in.Snapshot()
	apply = append(apply, func() { ts.model[in.OID] = img })

	if g%2 == 1 && len(ts.live) > 1 {
		tgt := ts.live[len(ts.live)-2]
		tgt.Set(0, storage.IntV(int64(1000+g)))
		v := tgt.Get(0)
		c.Write(uint64(tgt.OID), 0, v)
		oid := tgt.OID
		apply = append(apply, func() { ts.model[oid][0] = v })
	}
	if g%3 == 0 && len(ts.live) > 2 {
		victim := ts.live[0]
		ts.live = ts.live[1:]
		if err := st.Delete(victim.OID); err != nil {
			ts.t.Fatal(err)
		}
		c.Delete(uint64(victim.OID))
		oid := victim.OID
		apply = append(apply, func() { delete(ts.model, oid) })
	}

	if err := commitWait(c); err != nil {
		if !errors.Is(err, ErrLogFailed) {
			ts.t.Fatalf("commit %d: failure not typed ErrLogFailed: %v", g, err)
		}
		if errors.Is(err, ErrInjected) && ts.enospc != errors.Is(err, ErrDiskFull) {
			ts.t.Fatalf("commit %d: ErrDiskFull classification wrong (plan enospc=%v): %v", g, ts.enospc, err)
		}
		ts.failed = true
		return
	}
	if ts.failed {
		ts.t.Fatalf("commit %d acknowledged after an earlier commit failed on the same log", g)
	}
	for _, f := range apply {
		f()
	}
	ts.acked = append(ts.acked, ts.model.clone())
}

// checkLiveSegment reads the live segment, as Checkpoint is about to
// seal it, and checks that it ends in the latest acknowledged commit
// with no torn record before it: recovery refuses a sealed segment that
// carries one. The read is issued on every healthy log and counts in
// the fault walks' op trace, so the walk indices that land on it fault
// this test read, not the log: those subtests only check that a failed
// read leaves the log and its recovery intact. The assertion is skipped
// on bit-flip runs, whose lying fsync may have damaged an acknowledged
// record undetected.
func (ts *tortureState) checkLiveSegment(l *Log) {
	ts.t.Helper()
	if l.Failed() != nil {
		return
	}
	path := segmentPath(l.dir, l.seq)
	data, err := l.fs.ReadFile(path)
	if err != nil || ts.flip {
		return // an injected read failure costs nothing durable
	}
	if end, _ := scanFrames(data); end < int64(len(data)) {
		ts.t.Fatalf("%s: torn record at offset %d on a healthy log", path, end)
	}
	var last []byte
	for _, payload := range frames(data) {
		last = payload
	}
	if last == nil {
		ts.t.Fatalf("%s: no record; commit %d was acknowledged", path, ts.g)
	}
	rec, err := DecodeRecord(last)
	if err != nil {
		ts.t.Fatalf("%s: last record: %v", path, err)
	}
	if rec.TxnID != uint64(ts.g) {
		ts.t.Fatalf("%s: last record is commit %d, want the acknowledged %d", path, rec.TxnID, ts.g)
	}
}

// rebuildLive collects the instances of a freshly recovered store in
// extent order.
func rebuildLive(st *storage.Store) []*storage.Instance {
	var live []*storage.Instance
	for _, cls := range st.Schema().Order {
		for _, oid := range st.ExtentOf(cls) {
			if in, ok := st.Get(oid); ok {
				live = append(live, in)
			}
		}
	}
	return live
}

// runTorture drives the canonical workload — open, 5 commits, close,
// reopen, 4 commits, live-segment check, checkpoint, 3 commits,
// live-segment check, checkpoint, 2 commits, close — against fsys in
// dir, tolerating a failure at any point, and returns every state that
// was ever acknowledged.
func runTorture(t *testing.T, dir string, fsys FS, enospc, flip bool) []image {
	t.Helper()
	ts := &tortureState{t: t, enospc: enospc, flip: flip, model: image{}, acked: []image{{}}}
	opts := Options{FS: fsys}

	st := newTestStore(t)
	l, _, err := Open(dir, st, opts)
	if err != nil {
		return ts.acked // nothing durable could happen
	}
	for i := 0; i < 5; i++ {
		ts.commitOnce(l, st)
	}
	l.Close() //nolint:errcheck // a latched log reports its failure here

	st = newTestStore(t)
	l, _, err = Open(dir, st, opts)
	if err != nil {
		return ts.acked
	}
	ts.failed = false // a fresh log instance may serve again
	got := storeImage(st)
	if flip {
		// A flipped acknowledged record is CRC-truncated on reopen along
		// with everything after it; rebase on what actually survived.
		ts.model = got
		ts.acked = append(ts.acked, ts.model.clone())
	} else if !reflect.DeepEqual(got, ts.model) {
		t.Fatalf("mid-run reopen lost acknowledged state:\n got %v\nwant %v", got, ts.model)
	}
	ts.live = rebuildLive(st)

	for i := 0; i < 4; i++ {
		ts.commitOnce(l, st)
	}
	ts.checkLiveSegment(l)
	l.Checkpoint() //nolint:errcheck // checkpoint failure must not hurt durability
	for i := 0; i < 3; i++ {
		ts.commitOnce(l, st)
	}
	ts.checkLiveSegment(l)
	l.Checkpoint() //nolint:errcheck
	for i := 0; i < 2; i++ {
		ts.commitOnce(l, st)
	}
	l.Close() //nolint:errcheck
	return ts.acked
}

// verifyTorture reopens dir on a healthy disk and checks recovery
// against the acknowledged states.
func verifyTorture(t *testing.T, dir string, acked []image, flip bool) {
	t.Helper()
	st := newTestStore(t)
	l, _, err := Open(dir, st, Options{})
	if err != nil {
		if flip {
			return // detected silent corruption; a clean refusal is valid
		}
		t.Fatalf("clean reopen failed: %v", err)
	}
	defer l.Close()
	got := storeImage(st)
	if flip {
		for _, im := range acked {
			if reflect.DeepEqual(got, im) {
				return
			}
		}
		t.Fatalf("recovered image matches no acknowledged state:\n%v", got)
	}
	if want := acked[len(acked)-1]; !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered image diverges from acknowledged state:\n got %v\nwant %v", got, want)
	}
}

// tortureReference runs the workload fault-free and returns the op
// count and per-op kinds the walks iterate over.
func tortureReference(t *testing.T) (int64, []OpKind) {
	t.Helper()
	dir := t.TempDir()
	ref := NewFaultFS(nil, FaultPlan{FailAt: -1})
	acked := runTorture(t, dir, ref, false, false)
	verifyTorture(t, dir, acked, false)
	if want := 1 + 5 + 4 + 3 + 2; len(acked) != want {
		t.Fatalf("reference run acknowledged %d states, want %d", len(acked), want)
	}
	n, trace := ref.Ops(), ref.Trace()
	writes, syncs := 0, 0
	for _, k := range trace {
		switch k {
		case KindWrite:
			writes++
		case KindSync:
			syncs++
		}
	}
	if n < 20 || writes < 10 || syncs < 10 {
		t.Fatalf("reference trace implausibly small: %d ops, %d writes, %d syncs", n, writes, syncs)
	}
	return n, trace
}

// TestTortureErrAtEveryOp fails each of the N filesystem operations the
// workload issues, once, with a clean I/O error.
func TestTortureErrAtEveryOp(t *testing.T) {
	n, _ := tortureReference(t)
	for i := int64(0); i < n; i++ {
		t.Run(fmt.Sprintf("op%03d", i), func(t *testing.T) {
			dir := t.TempDir()
			acked := runTorture(t, dir, NewFaultFS(nil, FaultPlan{FailAt: i, Class: FaultErr}), false, false)
			verifyTorture(t, dir, acked, false)
		})
	}
}

// TestTortureENOSPCAtEveryOp fills the disk at each op index: the
// targeted op and every write after it fail with ENOSPC. Commit
// failures must classify as ErrDiskFull.
func TestTortureENOSPCAtEveryOp(t *testing.T) {
	n, _ := tortureReference(t)
	for i := int64(0); i < n; i++ {
		t.Run(fmt.Sprintf("op%03d", i), func(t *testing.T) {
			dir := t.TempDir()
			acked := runTorture(t, dir, NewFaultFS(nil, FaultPlan{FailAt: i, Class: FaultENOSPC, Persist: true}), true, false)
			verifyTorture(t, dir, acked, false)
		})
	}
}

// TestTortureShortWriteAtEveryWrite makes each write op persist only
// half its buffer and report a short count.
func TestTortureShortWriteAtEveryWrite(t *testing.T) {
	_, trace := tortureReference(t)
	ran := 0
	for i, k := range trace {
		if k != KindWrite {
			continue
		}
		ran++
		t.Run(fmt.Sprintf("op%03d", i), func(t *testing.T) {
			dir := t.TempDir()
			acked := runTorture(t, dir, NewFaultFS(nil, FaultPlan{FailAt: int64(i), Class: FaultShortWrite}), false, false)
			verifyTorture(t, dir, acked, false)
		})
	}
	if ran == 0 {
		t.Fatal("no write ops in reference trace")
	}
}

// TestTortureTornWriteAtEveryWrite makes each write op persist a prefix
// while reporting total failure — the classic torn sector.
func TestTortureTornWriteAtEveryWrite(t *testing.T) {
	_, trace := tortureReference(t)
	for i, k := range trace {
		if k != KindWrite {
			continue
		}
		t.Run(fmt.Sprintf("op%03d", i), func(t *testing.T) {
			dir := t.TempDir()
			acked := runTorture(t, dir, NewFaultFS(nil, FaultPlan{FailAt: int64(i), Class: FaultTornWrite}), false, false)
			verifyTorture(t, dir, acked, false)
		})
	}
}

// TestTortureBitFlipAtEverySync corrupts the last written byte right
// after each fsync reports success — firmware that lies. Acknowledged
// commits may be lost (their CRC now fails) but recovery must land on a
// previously acknowledged state or refuse cleanly.
func TestTortureBitFlipAtEverySync(t *testing.T) {
	_, trace := tortureReference(t)
	ran := 0
	for i, k := range trace {
		if k != KindSync {
			continue
		}
		ran++
		t.Run(fmt.Sprintf("op%03d", i), func(t *testing.T) {
			dir := t.TempDir()
			acked := runTorture(t, dir, NewFaultFS(nil, FaultPlan{FailAt: int64(i), Class: FaultBitFlip}), false, true)
			verifyTorture(t, dir, acked, true)
		})
	}
	if ran == 0 {
		t.Fatal("no sync ops in reference trace")
	}
}

// TestTortureCheckpointCorruptPrimaryFallsBack damages the primary
// checkpoint after a run that took two: recovery must fall back to
// checkpoint.prev plus the retained segment generation and reproduce
// the full acknowledged state, reporting the fallback.
func TestTortureCheckpointCorruptPrimaryFallsBack(t *testing.T) {
	for _, mode := range []string{"bitflip", "truncate"} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			acked := runTorture(t, dir, nil, false, false)
			path := filepath.Join(dir, checkpointName)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if mode == "bitflip" {
				data[len(data)/2] ^= 0xFF
			} else {
				data = data[:len(data)/3]
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			st := newTestStore(t)
			l, info, err := Open(dir, st, Options{})
			if err != nil {
				t.Fatalf("fallback open failed: %v", err)
			}
			defer l.Close()
			if !info.CheckpointFallback {
				t.Fatalf("expected CheckpointFallback, got %+v", info)
			}
			if got, want := storeImage(st), acked[len(acked)-1]; !reflect.DeepEqual(got, want) {
				t.Fatalf("fallback recovered\n%v\nwant\n%v", got, want)
			}
		})
	}
}

// TestTortureFirstCheckpointCorruptFullReplay: before a second
// checkpoint exists there is no checkpoint.prev, but the first
// checkpoint also deleted no segments — a corrupt primary must degrade
// to a full log replay, not an error.
func TestTortureFirstCheckpointCorruptFullReplay(t *testing.T) {
	dir := t.TempDir()
	ts := &tortureState{t: t, model: image{}, acked: []image{{}}}
	st := newTestStore(t)
	l, _, err := Open(dir, st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		ts.commitOnce(l, st)
	}
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		ts.commitOnce(l, st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, checkpointPrev)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("first checkpoint should leave no checkpoint.prev (err=%v)", err)
	}
	path := filepath.Join(dir, checkpointName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0x01 // inside the CRC trailer
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st2 := newTestStore(t)
	l2, info, err := Open(dir, st2, Options{})
	if err != nil {
		t.Fatalf("full-replay fallback failed: %v", err)
	}
	defer l2.Close()
	if !info.CheckpointFallback {
		t.Fatalf("expected CheckpointFallback, got %+v", info)
	}
	if got, want := storeImage(st2), ts.model; !reflect.DeepEqual(got, want) {
		t.Fatalf("full replay recovered\n%v\nwant\n%v", got, want)
	}
}

// TestTortureBothCheckpointsCorrupt: with primary and prev both
// damaged, recovery must refuse with a clean typed error — the segment
// tail below prev's base is gone, so inventing state is not an option.
func TestTortureBothCheckpointsCorrupt(t *testing.T) {
	dir := t.TempDir()
	runTorture(t, dir, nil, false, false)
	for _, name := range []string{checkpointName, checkpointPrev} {
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0xFF
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st := newTestStore(t)
	_, _, err := Open(dir, st, Options{})
	if err == nil {
		t.Fatal("open succeeded over two corrupt checkpoints")
	}
	if !errors.Is(err, errCheckpointCorrupt) {
		t.Fatalf("error not typed errCheckpointCorrupt: %v", err)
	}
}
