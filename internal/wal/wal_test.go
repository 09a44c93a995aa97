package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/codec"
	"repro/internal/schema"
	"repro/internal/storage"
)

const testSchema = `
class item is
    instance variables are
        a : integer
        b : integer
        label : string
        flag : boolean
        ref : item
    method noop is
    end
end
`

func newTestStore(t *testing.T) *storage.Store {
	t.Helper()
	sch, err := schema.FromSource(testSchema)
	if err != nil {
		t.Fatal(err)
	}
	return storage.NewStore(sch)
}

// image is the expected state: OID → slots (nil entry = deleted).
type image map[storage.OID][]storage.Value

func (im image) clone() image {
	out := make(image, len(im))
	for k, v := range im {
		out[k] = append([]storage.Value(nil), v...)
	}
	return out
}

// storeImage captures every live instance of the store.
func storeImage(st *storage.Store) image {
	out := image{}
	for _, cls := range st.Schema().Order {
		for _, oid := range st.ExtentOf(cls) {
			if in, ok := st.Get(oid); ok {
				out[oid] = in.Snapshot()
			}
		}
	}
	return out
}

// workload drives a fixed sequence of commit records through a fresh
// log in dir and returns the expected image after each record (index 0
// = empty store) plus the raw segment bytes.
func workload(t *testing.T, dir string) (snaps []image, data []byte) {
	t.Helper()
	st := newTestStore(t)
	l, info, err := Open(dir, st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != 0 || info.Checkpoint {
		t.Fatalf("fresh dir recovered %+v", info)
	}
	cls := st.Schema().Class("item")
	model := image{}
	snaps = append(snaps, model.clone())

	mk := func(vals ...storage.Value) *storage.Instance {
		in, err := st.NewInstance(cls, vals...)
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	commitRec := func(build func(c *commit)) {
		c := l.BeginCommit(uint64(len(snaps)))
		build(c)
		if err := commitWait(c); err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, model.clone())
	}

	in1 := mk(storage.IntV(1), storage.IntV(2), storage.StrV("one"), storage.BoolV(false), storage.RefV(0))
	in2 := mk(storage.IntV(10), storage.IntV(20), storage.StrV("two"), storage.BoolV(true), storage.RefV(in1.OID))
	commitRec(func(c *commit) {
		c.Create(cls.ID, uint64(in1.OID), in1)
		c.Create(cls.ID, uint64(in2.OID), in2)
		model[in1.OID] = in1.Snapshot()
		model[in2.OID] = in2.Snapshot()
	})
	commitRec(func(c *commit) {
		in1.Set(0, storage.IntV(100))
		c.Write(uint64(in1.OID), 0, in1.Get(0))
		model[in1.OID][0] = storage.IntV(100)
	})
	commitRec(func(c *commit) {
		in2.Set(2, storage.StrV("renamed"))
		in1.Set(3, storage.BoolV(true))
		c.Write(uint64(in2.OID), 2, in2.Get(2))
		c.Write(uint64(in1.OID), 3, in1.Get(3))
		model[in2.OID][2] = storage.StrV("renamed")
		model[in1.OID][3] = storage.BoolV(true)
	})
	in3 := mk(storage.IntV(-7), storage.IntV(0), storage.StrV(""), storage.BoolV(false), storage.RefV(in2.OID))
	commitRec(func(c *commit) {
		c.Create(cls.ID, uint64(in3.OID), in3)
		model[in3.OID] = in3.Snapshot()
	})
	commitRec(func(c *commit) {
		if err := st.Delete(in2.OID); err != nil {
			t.Fatal(err)
		}
		c.Delete(uint64(in2.OID))
		delete(model, in2.OID)
	})
	commitRec(func(c *commit) {
		in3.Set(1, storage.IntV(-999))
		c.Write(uint64(in3.OID), 1, in3.Get(1))
		model[in3.OID][1] = storage.IntV(-999)
	})

	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(segmentPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	return snaps, data
}

// boundaries returns the byte offset after each complete record.
func boundaries(t *testing.T, data []byte) []int64 {
	t.Helper()
	out := []int64{0}
	pos := int64(0)
	for pos < int64(len(data)) {
		if int64(len(data))-pos < codec.HeaderSize {
			t.Fatalf("trailing garbage at %d", pos)
		}
		size := binary.LittleEndian.Uint32(data[pos:])
		pos += codec.HeaderSize + int64(size)
		out = append(out, pos)
	}
	return out
}

// The tests apply a record's effects to the store before they submit
// it, so a commit retires its epoch as soon as it is sequenced.

// commitWait submits c, retires its epoch and waits for its durability
// ticket, as a blocking commit does.
func commitWait(c *commit) error {
	fut, err := commitPipelined(c)
	if err != nil {
		return err
	}
	return fut.Wait()
}

// commitPipelined submits c, retires its epoch and hands out its
// durability ticket.
func commitPipelined(c *commit) (*Future, error) {
	return c.Submit(c.l.st.FinishEpoch)
}

func openDir(t *testing.T, dir string) (*Log, *storage.Store, RecoveryInfo) {
	t.Helper()
	st := newTestStore(t)
	l, info, err := Open(dir, st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return l, st, info
}

func TestRecoveryFullLog(t *testing.T) {
	dir := t.TempDir()
	snaps, _ := workload(t, dir)
	l, st, info := openDir(t, dir)
	defer l.Close()
	if info.Records != int64(len(snaps)-1) || info.TornTailBytes != 0 {
		t.Fatalf("recovery info %+v, want %d records", info, len(snaps)-1)
	}
	if got, want := storeImage(st), snaps[len(snaps)-1]; !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered image\n%v\nwant\n%v", got, want)
	}
	// OID watermark is past everything the log names: new allocations
	// never collide with logged instances.
	if st.MaxOID() < 3 {
		t.Fatalf("MaxOID after recovery = %d, want ≥ 3", st.MaxOID())
	}
}

// The ISSUE's core acceptance: a crash at ANY byte of the log — every
// record boundary and every torn intermediate position — recovers
// exactly the committed prefix, and recovering the same log again is a
// no-op.
func TestRecoveryKillAtEveryByte(t *testing.T) {
	srcDir := t.TempDir()
	snaps, data := workload(t, srcDir)
	bs := boundaries(t, data)
	if len(bs) != len(snaps) {
		t.Fatalf("%d boundaries for %d snapshots", len(bs), len(snaps))
	}
	complete := func(cut int64) int {
		k := 0
		for k+1 < len(bs) && bs[k+1] <= cut {
			k++
		}
		return k
	}
	for cut := int64(0); cut <= int64(len(data)); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(segmentPath(dir, 1), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		k := complete(cut)
		l, st, info := openDir(t, dir)
		if info.Records != int64(k) {
			t.Fatalf("cut %d: applied %d records, want %d", cut, info.Records, k)
		}
		wantTorn := cut - bs[k]
		if info.TornTailBytes != wantTorn {
			t.Fatalf("cut %d: torn %d bytes, want %d", cut, info.TornTailBytes, wantTorn)
		}
		if got := storeImage(st); !reflect.DeepEqual(got, snaps[k]) {
			t.Fatalf("cut %d: image\n%v\nwant\n%v", cut, got, snaps[k])
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		// Second recovery of the (now truncated) log: same state, no
		// torn tail — replaying a log twice is a no-op.
		l2, st2, info2 := openDir(t, dir)
		if info2.TornTailBytes != 0 || info2.Records != int64(k) {
			t.Fatalf("cut %d second recovery: %+v", cut, info2)
		}
		if got := storeImage(st2); !reflect.DeepEqual(got, snaps[k]) {
			t.Fatalf("cut %d: second recovery diverged", cut)
		}
		l2.Close()
	}
}

// A log can keep appending after a torn-tail recovery.
func TestRecoveryAppendAfterTorn(t *testing.T) {
	dir := t.TempDir()
	snaps, data := workload(t, dir)
	bs := boundaries(t, data)
	cut := bs[2] + 3 // mid-record tear after two complete records
	if err := os.Truncate(segmentPath(dir, 1), cut); err != nil {
		t.Fatal(err)
	}
	l, st, info := openDir(t, dir)
	if info.Records != 2 || info.TornTailBytes != 3 {
		t.Fatalf("recovery info %+v", info)
	}
	cls := st.Schema().Class("item")
	in, err := st.NewInstance(cls, storage.IntV(42))
	if err != nil {
		t.Fatal(err)
	}
	c := l.BeginCommit(99)
	c.Create(cls.ID, uint64(in.OID), in)
	if err := commitWait(c); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, st2, info2 := openDir(t, dir)
	defer l2.Close()
	if info2.Records != 3 {
		t.Fatalf("post-append recovery applied %d records, want 3", info2.Records)
	}
	want := snaps[2].clone()
	want[in.OID] = in.Snapshot()
	if got := storeImage(st2); !reflect.DeepEqual(got, want) {
		t.Fatalf("image after torn+append\n%v\nwant\n%v", got, want)
	}
}

// Two identical segments: the same records replayed twice must land on
// the same final state. The workload logs no delta, and image ops
// tolerate a second replay (a delta would add twice).
func TestRecoveryDoubleReplayNoop(t *testing.T) {
	srcDir := t.TempDir()
	snaps, data := workload(t, srcDir)
	dir := t.TempDir()
	if err := os.WriteFile(segmentPath(dir, 1), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segmentPath(dir, 2), data, 0o644); err != nil {
		t.Fatal(err)
	}
	l, st, info := openDir(t, dir)
	defer l.Close()
	if info.Segments != 2 || info.Records != 2*int64(len(snaps)-1) {
		t.Fatalf("recovery info %+v", info)
	}
	if got := storeImage(st); !reflect.DeepEqual(got, snaps[len(snaps)-1]) {
		t.Fatalf("double replay diverged:\n%v\nwant\n%v", got, snaps[len(snaps)-1])
	}
}

func TestRecoveryCheckpointCompaction(t *testing.T) {
	dir := t.TempDir()
	st := newTestStore(t)
	l, _, err := Open(dir, st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cls := st.Schema().Class("item")
	in, err := st.NewInstance(cls, storage.IntV(1))
	if err != nil {
		t.Fatal(err)
	}
	c := l.BeginCommit(1)
	c.Create(cls.ID, uint64(in.OID), in)
	if err := commitWait(c); err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Segment 1 is the first checkpoint's replay tail for the fallback
	// chain (there is no checkpoint.prev yet): it must survive until the
	// next checkpoint makes it unreachable.
	if _, err := os.Stat(segmentPath(dir, 1)); err != nil {
		t.Fatalf("segment 1 deleted by the first checkpoint, fallback lost: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, checkpointName)); err != nil {
		t.Fatalf("checkpoint missing: %v", err)
	}
	// Post-checkpoint commits land in segment 2.
	in.Set(0, storage.IntV(5))
	c = l.BeginCommit(2)
	c.Write(uint64(in.OID), 0, in.Get(0))
	if err := commitWait(c); err != nil {
		t.Fatal(err)
	}
	// A second checkpoint folds them in too, demotes the first
	// checkpoint to checkpoint.prev, and culls segment 1 — no fallback
	// can need it anymore.
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(segmentPath(dir, 1)); !os.IsNotExist(err) {
		t.Fatalf("segment 1 not culled after the second checkpoint: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, checkpointPrev)); err != nil {
		t.Fatalf("checkpoint.prev missing after the second checkpoint: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, st2, info := openDir(t, dir)
	defer l2.Close()
	if !info.Checkpoint {
		t.Fatal("recovery did not load the checkpoint")
	}
	if info.Records != 0 {
		t.Fatalf("post-checkpoint recovery replayed %d records, want 0", info.Records)
	}
	got, ok := st2.Get(in.OID)
	if !ok || got.Get(0) != storage.IntV(5) {
		t.Fatalf("checkpointed value lost: %v", got)
	}
	if st2.MaxOID() < in.OID {
		t.Fatalf("MaxOID %d below checkpointed instance %d", st2.MaxOID(), in.OID)
	}
}

// readHookFS runs hook, once armed, before each read of the primary
// checkpoint — which Checkpoint does after its cut and before it
// serializes the store.
type readHookFS struct {
	FS
	hook atomic.Pointer[func()]
}

func (f *readHookFS) ReadFile(name string) ([]byte, error) {
	if h := f.hook.Swap(nil); h != nil && filepath.Base(name) == checkpointName {
		(*h)()
	}
	return f.FS.ReadFile(name)
}

// crashFS records how much of each segment an fsync hardened, so a
// test can copy the directory as a crash would leave it; once failSync
// is set, every segment fsync fails.
type crashFS struct {
	osFS
	mu       sync.Mutex
	hardened map[string]int64
	failSync atomic.Bool
}

func (fs *crashFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := fs.osFS.OpenFile(name, flag, perm)
	if err != nil || !strings.HasPrefix(filepath.Base(name), "wal-") {
		return f, err
	}
	return &crashFile{File: f, fs: fs, name: filepath.Base(name)}, nil
}

type crashFile struct {
	File
	fs   *crashFS
	name string
}

func (f *crashFile) Sync() error {
	if f.fs.failSync.Load() {
		return errors.New("injected segment fsync failure")
	}
	if err := f.File.Sync(); err != nil {
		return err
	}
	fi, err := f.File.Stat()
	if err != nil {
		return err
	}
	f.fs.mu.Lock()
	f.fs.hardened[f.name] = fi.Size()
	f.fs.mu.Unlock()
	return nil
}

// crashCopy copies dir into a new directory as a crash now would leave
// it: every segment cut to its hardened prefix, every other file whole
// (the log fsyncs a checkpoint before renaming it into place).
func (fs *crashFS) crashCopy(t *testing.T, dir string) string {
	t.Helper()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	out := t.TempDir()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasPrefix(e.Name(), "wal-") {
			data = data[:fs.hardened[e.Name()]]
		}
		if err := os.WriteFile(filepath.Join(out, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestRecoveryCheckpointCutKeepsLateBeforeImages: the checkpoint
// registers its snapshot at the cut epoch before it lets go of the
// sequencing mutex. Two escrow deltas commit after the cut and before
// the serialization, and the second prunes its instance's chain as it
// links, once the first is acknowledged; the first one's record must
// survive, so the checkpoint holds the counter as of the cut and replay
// applies each delta exactly once.
func TestRecoveryCheckpointCutKeepsLateBeforeImages(t *testing.T) {
	dir := t.TempDir()
	fs := &readHookFS{FS: osFS{}}
	st := newTestStore(t)
	l, _, err := Open(dir, st, Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	cls := st.Schema().Class("item")
	in, err := st.NewInstance(cls, storage.IntV(10))
	if err != nil {
		t.Fatal(err)
	}
	c := l.BeginCommit(1)
	c.Create(cls.ID, uint64(in.OID), in)
	if err := commitWait(c); err != nil {
		t.Fatal(err)
	}
	deposit := func(id uint64) {
		rec := st.Write(in, 0, storage.IntV(in.Get(0).I+1), nil, true)
		c := l.BeginCommit(id)
		c.WriteDelta(uint64(in.OID), 0, 1)
		fut, err := c.Submit(func(epoch uint64) {
			rec.Stamp(epoch)
			st.FinishEpoch(epoch)
		})
		if err != nil {
			t.Error(err)
			return
		}
		if err := fut.Wait(); err != nil {
			t.Error(err)
		}
	}
	hook := func() { deposit(2); deposit(3) }
	fs.hook.Store(&hook)
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if fs.hook.Load() != nil {
		t.Fatal("the checkpoint read no primary between its cut and its write")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	inCkpt := newTestStore(t)
	if _, err := loadCheckpointFile(osFS{}, filepath.Join(dir, checkpointName), inCkpt, inCkpt.Schema()); err != nil {
		t.Fatal(err)
	}
	if got, ok := inCkpt.Get(in.OID); !ok || got.Get(0).I != 10 {
		t.Errorf("the checkpoint holds the counter at %v, want 10 as of the cut", got.Get(0))
	}
	l2, st2, _ := openDir(t, dir)
	defer l2.Close()
	if got, ok := st2.Get(in.OID); !ok || got.Get(0).I != 12 {
		t.Errorf("recovered counter %v, want 12: each delta once", got.Get(0))
	}
}

// A delete that commits after a checkpoint's cut can take its instance
// out of the store before the checkpoint serializes it. The checkpoint
// then lacks the instance, and replaying the tail skips the ops on it —
// a write, a delta and the delete itself — instead of failing or
// bringing it back. A pipelined delete is out of the store before its
// record is on disk, so the checkpoint hardens the tail before it
// installs the file: a crash right after the checkpoint keeps the whole
// transaction, and a failed fsync installs no checkpoint and loses the
// whole transaction, never only the instance.
func TestRecoveryCheckpointMissesLateDelete(t *testing.T) {
	for _, tc := range []struct {
		name      string
		pipelined bool // the delete commits without waiting, under SyncNever
		failSync  bool // and every segment fsync after it fails
	}{
		{name: "durable"},
		{name: "pipelined crash", pipelined: true},
		{name: "pipelined failed fsync", pipelined: true, failSync: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cfs := &crashFS{hardened: map[string]int64{}}
			fs := &readHookFS{FS: cfs}
			opts := Options{FS: fs}
			if tc.pipelined {
				opts.Sync = SyncNever
			}
			st := newTestStore(t)
			l, _, err := Open(dir, st, opts)
			if err != nil {
				t.Fatal(err)
			}
			cls := st.Schema().Class("item")
			gone, err := st.NewInstance(cls, storage.IntV(1))
			if err != nil {
				t.Fatal(err)
			}
			kept, err := st.NewInstance(cls, storage.IntV(2))
			if err != nil {
				t.Fatal(err)
			}
			c := l.BeginCommit(1)
			c.Create(cls.ID, uint64(gone.OID), gone)
			c.Create(cls.ID, uint64(kept.OID), kept)
			if err := commitWait(c); err != nil {
				t.Fatal(err)
			}
			before := storeImage(st)
			var fut *Future
			hook := func() {
				cfs.failSync.Store(tc.failSync)
				gone.Set(0, storage.IntV(7))
				gone.AddInt(1, 3)
				kept.Set(0, storage.IntV(9))
				if err := st.Delete(gone.OID); err != nil {
					t.Error(err)
				}
				c := l.BeginCommit(2)
				c.Write(uint64(gone.OID), 0, storage.IntV(7))
				c.WriteDelta(uint64(gone.OID), 1, 3)
				c.Write(uint64(kept.OID), 0, storage.IntV(9))
				c.Delete(uint64(gone.OID))
				if tc.pipelined {
					fut, err = commitPipelined(c)
				} else {
					err = commitWait(c)
				}
				if err != nil {
					t.Error(err)
				}
			}
			fs.hook.Store(&hook)
			ckptErr := l.Checkpoint()
			if fs.hook.Load() != nil {
				t.Fatal("the checkpoint read no primary between its cut and its write")
			}
			crashed := cfs.crashCopy(t, dir)
			if fut != nil {
				fut.Wait() //nolint:errcheck // under SyncNever it resolves at the write
			}
			l.Close() //nolint:errcheck // fail-stop after the injected fsync failure

			want := storeImage(st)
			if tc.failSync {
				if !errors.Is(ckptErr, ErrLogFailed) {
					t.Fatalf("checkpoint over a failed fsync: %v, want ErrLogFailed", ckptErr)
				}
				if _, err := os.Stat(filepath.Join(dir, checkpointName)); !os.IsNotExist(err) {
					t.Fatalf("a checkpoint was installed over a failed fsync (stat: %v)", err)
				}
				want = before
			} else {
				if ckptErr != nil {
					t.Fatal(ckptErr)
				}
				inCkpt := newTestStore(t)
				if _, err := loadCheckpointFile(osFS{}, filepath.Join(dir, checkpointName), inCkpt, inCkpt.Schema()); err != nil {
					t.Fatal(err)
				}
				if _, ok := inCkpt.Get(gone.OID); ok {
					t.Fatal("the checkpoint holds the instance deleted after its cut")
				}
			}
			l2, st2, info := openDir(t, crashed)
			defer l2.Close()
			if got := storeImage(st2); !reflect.DeepEqual(got, want) {
				t.Fatalf("recovered after a crash\n%v\nwant\n%v", got, want)
			}
			if !tc.failSync && (!info.Checkpoint || info.Records != 1) {
				t.Fatalf("recovery %+v, want the checkpoint and the delete's record", info)
			}
		})
	}
}

// Stray files that merely share a segment's name prefix (backups,
// editor droppings) are ignored — Sscanf alone would count
// "wal-000001.log.bak" as segment 1 and fake a segment gap.
func TestRecoveryIgnoresStraySegmentLikeFiles(t *testing.T) {
	dir := t.TempDir()
	snaps, data := workload(t, dir)
	if err := os.WriteFile(filepath.Join(dir, "wal-000001.log.bak"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "wal-1.log"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, st, info := openDir(t, dir)
	defer l.Close()
	if info.Segments != 1 {
		t.Fatalf("replayed %d segments, want 1", info.Segments)
	}
	if got := storeImage(st); !reflect.DeepEqual(got, snaps[len(snaps)-1]) {
		t.Fatal("stray files corrupted recovery")
	}
}

func TestRecoveryIgnoresCheckpointTmp(t *testing.T) {
	dir := t.TempDir()
	snaps, _ := workload(t, dir)
	if err := os.WriteFile(filepath.Join(dir, checkpointTmp), []byte("half-written garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, st, _ := openDir(t, dir)
	defer l.Close()
	if got := storeImage(st); !reflect.DeepEqual(got, snaps[len(snaps)-1]) {
		t.Fatal("checkpoint.tmp garbage corrupted recovery")
	}
	if _, err := os.Stat(filepath.Join(dir, checkpointTmp)); !os.IsNotExist(err) {
		t.Fatal("checkpoint.tmp not cleaned up")
	}
}

// Concurrent committers share fsyncs through group commit, and
// everything each of them was acknowledged for survives recovery.
func TestRecoveryGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	st := newTestStore(t)
	l, _, err := Open(dir, st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cls := st.Schema().Class("item")
	const workers = 8
	const commitsEach = 50
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
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			in := insts[w]
			for i := 1; i <= commitsEach; i++ {
				in.Set(0, storage.IntV(int64(i)))
				c := l.BeginCommit(uint64(100 + w*1000 + i))
				c.Write(uint64(in.OID), 0, in.Get(0))
				if err := commitWait(c); err != nil {
					errs <- fmt.Errorf("worker %d commit %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	stats := l.Stats()
	if want := int64(workers*commitsEach + 1); stats.Records != want {
		t.Fatalf("logged %d records, want %d", stats.Records, want)
	}
	if stats.Batches > stats.Records {
		t.Fatalf("more batches (%d) than records (%d)?", stats.Batches, stats.Records)
	}
	t.Logf("group commit: %d records in %d fsync batches", stats.Records, stats.Batches)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, st2, info := openDir(t, dir)
	defer l2.Close()
	if info.Records != int64(workers*commitsEach+1) {
		t.Fatalf("recovered %d records", info.Records)
	}
	for w, in := range insts {
		rec, ok := st2.Get(in.OID)
		if !ok || rec.Get(0) != storage.IntV(commitsEach) {
			t.Fatalf("worker %d instance: %v (want %d)", w, rec.Get(0), commitsEach)
		}
	}
}

func TestCommitAfterCloseFails(t *testing.T) {
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
	if err := commitWait(c); err != ErrClosed {
		t.Fatalf("commit after close = %v, want ErrClosed", err)
	}
	if err := l.Checkpoint(); err != ErrClosed {
		t.Fatalf("checkpoint after close = %v, want ErrClosed", err)
	}
}

func TestOpenRejectsNonEmptyStore(t *testing.T) {
	st := newTestStore(t)
	if _, err := st.NewInstance(st.Schema().Class("item"), storage.IntV(1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(t.TempDir(), st, Options{}); err == nil {
		t.Fatal("Open accepted a non-empty store")
	}
}

// A log directory written under one schema refuses to replay under a
// schema whose dense IDs or slot layouts bind differently — even a
// shape-compatible class swap must fail loudly, not rebind silently.
func TestRecoveryRejectsDifferentSchema(t *testing.T) {
	dir := t.TempDir()
	workload(t, dir)
	other, err := schema.FromSource(`
class impostor is
    instance variables are
        a : integer
        b : integer
        label : string
        flag : boolean
        ref : impostor
    method noop is
    end
end
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, storage.NewStore(other), Options{}); err == nil {
		t.Fatal("Open accepted a log written under a different schema")
	}
	// The original schema still opens.
	l, _, err := Open(dir, newTestStore(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
}

// After a write/fsync failure the log is fail-stop: no later commit is
// acknowledged, so nothing durable can ever sit beyond corrupt bytes.
func TestFailStopAfterWriteError(t *testing.T) {
	dir := t.TempDir()
	st := newTestStore(t)
	l, _, err := Open(dir, st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	wantErr := fmt.Errorf("injected disk failure")
	l.markBroken(wantErr) //nolint:errcheck
	c := l.BeginCommit(1)
	c.Delete(42)
	if err := commitWait(c); err == nil {
		t.Fatal("commit succeeded on a failed log")
	}
	if err := l.Checkpoint(); err == nil {
		t.Fatal("checkpoint succeeded on a failed log")
	}
}

// A commit record beyond the recovery-side size bound is rejected at
// Commit (the transaction aborts) instead of being written as a frame
// recovery would classify as garbage.
func TestOversizedCommitRejected(t *testing.T) {
	old := maxRecordSize
	maxRecordSize = 1 << 16
	defer func() { maxRecordSize = old }()
	dir := t.TempDir()
	st := newTestStore(t)
	l, _, err := Open(dir, st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	huge := string(make([]byte, 1<<15))
	c := l.BeginCommit(1)
	for i := 0; i < 5; i++ {
		c.Write(1, 2, storage.StrV(huge))
	}
	if err := commitWait(c); err == nil {
		t.Fatal("oversized record accepted")
	}
	// The log is still healthy for normal commits.
	c = l.BeginCommit(2)
	c.Delete(42)
	if err := commitWait(c); err != nil {
		t.Fatal(err)
	}
}

func TestValueRoundtrip(t *testing.T) {
	vals := []storage.Value{
		storage.IntV(0), storage.IntV(-1), storage.IntV(1 << 60), storage.IntV(-(1 << 60)),
		storage.BoolV(true), storage.BoolV(false),
		storage.StrV(""), storage.StrV("héllo\x00world"),
		storage.RefV(0), storage.RefV(1 << 40),
	}
	var b []byte
	for _, v := range vals {
		b = codec.AppendValue(b, v)
	}
	d := codec.NewDecoder(b)
	for i, want := range vals {
		got := d.Value()
		if err := d.Err(); err != nil {
			t.Fatalf("value %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("value %d: got %v, want %v", i, got, want)
		}
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryVisibleToSnapshots: recovery links no version records and
// leaves the epoch clock at 0, so everything it replays — from log
// records, then from the checkpoint that absorbs them — is what a
// snapshot reads until the first post-recovery commit.
func TestRecoveryVisibleToSnapshots(t *testing.T) {
	dir := t.TempDir()
	st := newTestStore(t)
	l, _, err := Open(dir, st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cls := st.Schema().Class("item")
	in, err := st.NewInstance(cls, storage.IntV(0), storage.IntV(0), storage.StrV("x"), storage.BoolV(false), storage.RefV(0))
	if err != nil {
		t.Fatal(err)
	}
	const commits = 7
	for i := uint64(1); i <= commits; i++ {
		in.Set(0, storage.IntV(int64(i)))
		c := l.BeginCommit(i)
		if i == 1 {
			c.Create(cls.ID, uint64(in.OID), in)
		} else {
			c.Write(uint64(in.OID), 0, in.Get(0))
		}
		if err := commitWait(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	snapshotReads := func(st *storage.Store) {
		t.Helper()
		if got := st.StableEpoch(); got != 0 {
			t.Errorf("stable epoch after recovery = %d, want 0", got)
		}
		rec, ok := st.Get(in.OID)
		if !ok {
			t.Fatal("instance lost in recovery")
		}
		if n := rec.VersionCount(); n != 0 {
			t.Errorf("recovery linked %d version records", n)
		}
		var rd storage.SnapshotReader
		b := st.BeginSnapshot(&rd)
		defer st.EndSnapshot(&rd)
		if v, ok := rec.SnapshotGet(0, b); !ok || v.I != commits {
			t.Errorf("snapshot of recovered instance: %v ok=%t, want %d", v, ok, commits)
		}
	}
	l2, st2, info := openDir(t, dir)
	if info.Records != commits {
		t.Fatalf("replayed %d records, want %d", info.Records, commits)
	}
	snapshotReads(st2)
	if err := l2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	l3, st3, info3 := openDir(t, dir)
	defer l3.Close()
	if info3.Records != 0 {
		t.Fatalf("checkpoint did not absorb the records: %d replayed", info3.Records)
	}
	snapshotReads(st3)
}

// A directory written while records and checkpoints carried a commit
// epoch (record type 1, checkpoint magic FAVWCKP2) fails to open with an
// error naming the format. It does not fall back to checkpoint.prev
// (here a valid current-format file) and does not open the state the
// rest of the directory would give.
func TestOpenRefusesOldFormat(t *testing.T) {
	// oldRecord is rec in the older layout: type 1, a u64 epoch after
	// the transaction ID, framed.
	oldRecord := func(rec *Record, epoch uint64) []byte {
		p := AppendRecord(nil, rec)
		old := append([]byte{recCommitV1}, p[1:9]...)
		old = binary.LittleEndian.AppendUint64(old, epoch)
		return frameBytes(append(old, p[9:]...))
	}
	// oldCheckpoint rewrites a current checkpoint file in the older
	// layout: magic FAVWCKP2 and a u64 epoch after nextOID.
	oldCheckpoint := func(cur []byte, epoch uint64) []byte {
		body := append([]byte(nil), cur[len(checkpointMagic):len(cur)-4]...)
		old := binary.LittleEndian.AppendUint64(append([]byte(nil), body[:16]...), epoch)
		old = append(old, body[16:]...)
		out := append([]byte("FAVWCKP2"), old...)
		return binary.LittleEndian.AppendUint32(out, codec.Checksum(old))
	}
	// current writes a valid current-format checkpoint of one instance.
	current := func(t *testing.T, dir string) []byte {
		st := newTestStore(t)
		if _, err := st.NewInstance(st.Schema().Class("item"), storage.IntV(5)); err != nil {
			t.Fatal(err)
		}
		if err := writeCheckpoint(osFS{}, dir, checkpointBody(st, 0, st.MaxOID(), 0), false); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, checkpointName))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	write := func(t *testing.T, path string, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cls := newTestStore(t).Schema().Class("item").ID
	create := &Record{TxnID: 1, Ops: []RecordOp{{Kind: OpCreate, Class: cls, OID: 1,
		Slots: []storage.Value{storage.IntV(1), storage.IntV(2), storage.StrV("s"), storage.BoolV(true), storage.RefV(0)}}}}

	cases := []struct {
		name  string
		setup func(t *testing.T, dir string)
		want  string
	}{
		{"old log record", func(t *testing.T, dir string) {
			write(t, segmentPath(dir, 1), oldRecord(create, 1))
		}, "older commit layout"},
		{"old checkpoint, empty tail", func(t *testing.T, dir string) {
			write(t, filepath.Join(dir, checkpointName), oldCheckpoint(current(t, dir), 3))
			write(t, segmentPath(dir, 1), nil)
		}, `checkpoint format "FAVWCKP2"`},
		{"old checkpoint over a valid prev", func(t *testing.T, dir string) {
			cur := current(t, dir)
			write(t, filepath.Join(dir, checkpointPrev), cur)
			write(t, filepath.Join(dir, checkpointName), oldCheckpoint(cur, 3))
		}, `checkpoint format "FAVWCKP2"`},
		{"old prev, no primary", func(t *testing.T, dir string) {
			cur := current(t, dir)
			os.Remove(filepath.Join(dir, checkpointName)) //nolint:errcheck
			write(t, filepath.Join(dir, checkpointPrev), oldCheckpoint(cur, 3))
		}, `checkpoint format "FAVWCKP2"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tc.setup(t, dir)
			l, _, err := Open(dir, newTestStore(t), Options{})
			if err == nil {
				l.Close()
				t.Fatal("opened a directory in the older format")
			}
			if errors.Is(err, errCheckpointCorrupt) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q, want one naming the format (%q)", err, tc.want)
			}
		})
	}
}

// TestCheckpointLoadAllocsFlat: a checkpoint load decodes every image
// into one slot buffer, so loading an int-only checkpoint over the
// instances it holds (Install then overwrites them in place) allocates
// as much for 5000 instances as for 100.
func TestCheckpointLoadAllocsFlat(t *testing.T) {
	sch, err := schema.FromSource(`
class counter is
    instance variables are
        a : integer
        b : integer
        c : integer
    method noop is
    end
end
`)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(n int) float64 {
		st := storage.NewStore(sch)
		for i := 0; i < n; i++ {
			if _, err := st.NewInstance(sch.Class("counter"), storage.IntV(int64(i))); err != nil {
				t.Fatal(err)
			}
		}
		dir := t.TempDir()
		if err := writeCheckpoint(osFS{}, dir, checkpointBody(st, 0, st.MaxOID(), 1), false); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, checkpointName)
		return testing.AllocsPerRun(5, func() {
			if _, err := loadCheckpointFile(osFS{}, path, st, sch); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(100), allocs(5000); large > small {
		t.Errorf("loading 5000 instances allocates %.0f times, 100 instances %.0f", large, small)
	}
}
