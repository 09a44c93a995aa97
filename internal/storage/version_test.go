package storage

import (
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
	"weak"

	"repro/internal/schema"
)

// c2 slots used below: f1 int, f2 bool, f3 ref, f4 int, f5 int, f6 string.
const (
	slotF1 = 0
	slotF2 = 1
	slotF4 = 3
	slotF6 = 5
)

func newC2(t *testing.T, st *Store, s *schema.Schema) *Instance {
	t.Helper()
	in, err := st.NewInstance(s.Class("c2"), IntV(0), BoolV(false), RefV(0), IntV(0), IntV(0), StrV("v0"))
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// commit is the commit protocol in miniature: allocate an epoch, stamp
// the transaction's records, retire.
func commit(st *Store, recs ...*Version) uint64 {
	e := st.AllocEpoch()
	for _, r := range recs {
		r.Stamp(e)
	}
	st.FinishEpoch(e)
	return e
}

// overwrite is a one-write transaction: first write of the slot, commit.
func overwrite(st *Store, in *Instance, slot int, v Value) uint64 {
	return commit(st, st.Write(in, slot, v, nil, false))
}

func wantAt(t *testing.T, in *Instance, slot int, b uint64, want Value) {
	t.Helper()
	if got, ok := in.SnapshotGet(slot, b); !ok || got != want {
		t.Errorf("slot %d at epoch %d = %v (visible=%t), want %v", slot, b, got, ok, want)
	}
}

// TestSnapshotValueAtEpoch: the value at b across several committed
// overwrites is the one the newest commit ≤ b wrote — reconstructed from
// the live cell and the records, integer and string before-images and
// integer deltas mixed on one chain — and an uncommitted write is
// invisible at every epoch.
func TestSnapshotValueAtEpoch(t *testing.T) {
	s := fig1(t)
	st := NewStore(s)
	in := newC2(t, st, s)
	wantAt(t, in, slotF1, 0, IntV(0)) // empty chain: visible to everyone

	// Pin a reader at epoch 0 so no record is reclaimed while the test
	// inspects the whole history.
	var pin SnapshotReader
	st.BeginSnapshot(&pin)
	defer st.EndSnapshot(&pin)

	var epochs []uint64
	for i := 1; i <= 5; i++ {
		r1 := st.Write(in, slotF1, IntV(int64(i*10)), nil, false)
		r6 := st.Write(in, slotF6, StrV("v"+string(rune('0'+i))), nil, false)
		r4 := st.Write(in, slotF4, IntV(in.Get(slotF4).I+int64(i)), nil, true) // escrow: +i
		st.Write(in, slotF1, IntV(int64(i*10+1)), r1, false)                   // second write: same record
		epochs = append(epochs, commit(st, r1, r6, r4))
	}
	if got := in.VersionCount(); got != 15 {
		t.Errorf("chain holds %d records, want one per (transaction, slot) = 15", got)
	}
	wantAt(t, in, slotF1, epochs[0]-1, IntV(0))
	wantAt(t, in, slotF6, epochs[0]-1, StrV("v0"))
	wantAt(t, in, slotF4, epochs[0]-1, IntV(0))
	for i, e := range epochs {
		wantAt(t, in, slotF1, e, IntV(int64((i+1)*10+1)))
		wantAt(t, in, slotF6, e, StrV("v"+string(rune('1'+i))))
		wantAt(t, in, slotF4, e, IntV(int64((i+1)*(i+2)/2)))
	}

	pending := st.Write(in, slotF1, IntV(-1), nil, false)
	wantAt(t, in, slotF1, st.StableEpoch(), IntV(51))
	wantAt(t, in, slotF1, epochs[2], IntV(31))
	in.Rollback(pending)
	if got := in.Get(slotF1); got != IntV(51) {
		t.Errorf("live cell after rollback = %v, want 51", got)
	}
	wantAt(t, in, slotF1, st.StableEpoch(), IntV(51))
	if got := in.VersionCount(); got != 15 {
		t.Errorf("rollback left %d records on the chain, want 15", got)
	}
}

// TestSnapshotUnsortedChain: two transactions write one instance
// concurrently (disjoint slots, or one slot under escrow) and commit in
// the reverse of the order they linked their records, so the chain is
// not epoch-sorted. Every begin epoch still reads its own prefix.
func TestSnapshotUnsortedChain(t *testing.T) {
	s := fig1(t)
	st := NewStore(s)
	in := newC2(t, st, s)
	var pin SnapshotReader
	st.BeginSnapshot(&pin)
	defer st.EndSnapshot(&pin)

	// Disjoint slots: T1 links first, T2 commits first.
	r1 := st.Write(in, slotF1, IntV(7), nil, false)
	r2 := st.Write(in, slotF2, BoolV(true), nil, false)
	e2 := commit(st, r2)
	wantAt(t, in, slotF1, e2, IntV(0))
	wantAt(t, in, slotF2, e2, BoolV(true))
	e1 := commit(st, r1)
	wantAt(t, in, slotF1, e2, IntV(0))
	wantAt(t, in, slotF1, e1, IntV(7))
	wantAt(t, in, slotF2, e2-1, BoolV(false))

	// One escrow slot: both add, the second committer links first. A
	// snapshot reads exactly the committed contributions.
	add := func(rec *Version, n int64) *Version {
		in.LockExec()
		defer in.UnlockExec()
		return st.Write(in, slotF4, IntV(in.Get(slotF4).I+n), rec, true)
	}
	d1 := add(nil, 5)
	d2 := add(nil, 100)
	d1 = add(d1, 5) // accumulates into the one record
	if got, ok := d1.Delta(); !ok || got != 10 {
		t.Errorf("accumulated delta = %d (delta form %t), want 10", got, ok)
	}
	wantAt(t, in, slotF4, st.StableEpoch(), IntV(0))
	eb := commit(st, d2)
	wantAt(t, in, slotF4, eb, IntV(100))
	ea := commit(st, d1)
	wantAt(t, in, slotF4, eb, IntV(100))
	wantAt(t, in, slotF4, ea, IntV(110))
	wantAt(t, in, slotF4, eb-1, IntV(0))

	// An aborting escrow writer beside a committing one: the abort takes
	// out exactly its own contribution, for the live cell and snapshots.
	d3 := add(nil, 1000)
	d4 := add(nil, 1)
	ec := commit(st, d4)
	wantAt(t, in, slotF4, ec, IntV(111))
	in.Rollback(d3)
	wantAt(t, in, slotF4, ec, IntV(111))
	if got := in.Get(slotF4); got != IntV(111) {
		t.Errorf("live cell after escrow abort = %v, want 111", got)
	}
}

// TestSnapshotOverwriteAfterDelta: a plain overwrite by a transaction
// that so far only added to the slot turns its delta record into the
// before-image of the pre-transaction value, ordered after a concurrent
// adder that committed in between. The overwriting transaction's string
// write sits on the same chain, under and over the delta records.
func TestSnapshotOverwriteAfterDelta(t *testing.T) {
	s := fig1(t)
	st := NewStore(s)
	in := newC2(t, st, s)
	var pin SnapshotReader
	st.BeginSnapshot(&pin)
	defer st.EndSnapshot(&pin)

	es := overwrite(st, in, slotF6, StrV("s1"))      // a committed string before-image
	mine := st.Write(in, slotF4, IntV(5), nil, true) // +5, pending
	ms := st.Write(in, slotF6, StrV("mine"), nil, false)
	other := st.Write(in, slotF4, IntV(12), nil, true) // +7 by a concurrent adder
	eo := commit(st, other)                            // which commits: 7 is committed
	mine = st.Write(in, slotF4, IntV(99), mine, false) // now the overwrite
	if _, ok := mine.Delta(); ok {
		t.Fatal("record still in delta form after a plain overwrite")
	}
	wantAt(t, in, slotF4, eo-1, IntV(0))
	wantAt(t, in, slotF4, eo, IntV(7))
	wantAt(t, in, slotF6, es-1, StrV("v0"))
	wantAt(t, in, slotF6, eo, StrV("s1"))
	em := commit(st, mine, ms)
	wantAt(t, in, slotF4, eo, IntV(7))
	wantAt(t, in, slotF4, em, IntV(99))
	wantAt(t, in, slotF6, eo, StrV("s1"))
	wantAt(t, in, slotF6, em, StrV("mine"))

	// And rolled back instead: the pre-transaction value, not the stale
	// pre-image of the first write.
	mine = st.Write(in, slotF4, IntV(100), nil, true)
	mine = st.Write(in, slotF4, IntV(0), mine, false)
	in.Rollback(mine)
	if got := in.Get(slotF4); got != IntV(99) {
		t.Errorf("after delta-then-overwrite rollback = %v, want 99", got)
	}
}

// TestRecycledDeltaRecordIsPlain: a delta record pruned onto the free
// list comes back, for a plain write, as a before-image: rollback and
// snapshot reads restore the old value instead of subtracting it.
func TestRecycledDeltaRecordIsPlain(t *testing.T) {
	s := fig1(t)
	st := NewStore(s)
	in := newC2(t, st, s)
	overwrite(st, in, slotF1, IntV(40))
	d := st.Write(in, slotF4, IntV(5), nil, true)
	commit(st, d)
	r := st.Write(in, slotF1, IntV(9), nil, false) // no reader: prunes d, reuses it
	if r != d {
		t.Fatal("the pruned delta record was not reused")
	}
	if _, ok := r.Delta(); ok {
		t.Fatal("recycled delta record still in delta form")
	}
	wantAt(t, in, slotF1, st.StableEpoch(), IntV(40))
	in.Rollback(r)
	if in.Get(slotF1) != IntV(40) || in.Get(slotF4) != IntV(5) {
		t.Errorf("after rollback f1=%v f4=%v, want 40 and 5", in.Get(slotF1), in.Get(slotF4))
	}
}

// bigOverwrites writes a 64 KiB string into f6, overwrites it twice,
// committing each, and returns a weak pointer to the string's bytes.
// Out of line so no frame of the test keeps the string alive.
//
//go:noinline
func bigOverwrites(st *Store, in *Instance) weak.Pointer[byte] {
	big := strings.Repeat("x", 64<<10)
	wp := weak.Make(unsafe.StringData(big))
	overwrite(st, in, slotF6, StrV(big))
	overwrite(st, in, slotF6, StrV("a"))
	overwrite(st, in, slotF6, StrV("b"))
	return wp
}

// TestRecycledRecordPinsNoString: once a reader that kept a chain long
// has gone and the next write prunes it, no superseded string stays
// reachable from a record waiting on the free list.
func TestRecycledRecordPinsNoString(t *testing.T) {
	s := fig1(t)
	st := NewStore(s)
	in := newC2(t, st, s)
	var pin SnapshotReader
	st.BeginSnapshot(&pin)
	wp := bigOverwrites(st, in) // chain: "b"←"a"←big←"v0" before-images
	st.EndSnapshot(&pin)
	overwrite(st, in, slotF6, StrV("c")) // prunes three, reuses one
	if got := in.VersionCount(); got != 1 {
		t.Fatalf("chain holds %d records, want 1", got)
	}
	runtime.GC()
	runtime.GC()
	if wp.Value() != nil {
		t.Error("a recycled record still pins a superseded 64 KiB string")
	}
	runtime.KeepAlive(in) // the instance, and so its free list, is live throughout
}

// TestSnapshotCreationMarker: an instance created by a transaction is
// invisible until the creation commits, visible from that epoch on, and
// still invisible to a snapshot that began earlier. At the live epoch
// the creator alone sees it while the creation is pending.
func TestSnapshotCreationMarker(t *testing.T) {
	s := fig1(t)
	st := NewStore(s)
	before := overwrite(st, newC2(t, st, s), slotF1, IntV(1)) // some earlier epoch

	var pin SnapshotReader
	st.BeginSnapshot(&pin)
	defer st.EndSnapshot(&pin)
	in, marker, err := st.NewUncommitted(1, s.Class("c1"), IntV(42), BoolV(true))
	if err != nil {
		t.Fatal(err)
	}
	if in.SnapshotVisible(st.StableEpoch(), 0) {
		t.Error("uncommitted creation visible to a snapshot")
	}
	const live = math.MaxUint64 - 1
	if !in.SnapshotVisible(live, 1) || in.SnapshotVisible(live, 2) {
		t.Error("a pending creation must be visible to its creator (txn 1) alone")
	}
	w := st.Write(in, slotF1, IntV(43), nil, false) // the creator writes its own instance
	e := commit(st, marker, w)
	if !in.SnapshotVisible(live, 2) {
		t.Error("a committed creation invisible at the live epoch")
	}
	if in.SnapshotVisible(before, 0) {
		t.Error("creation visible to a snapshot begun before it committed")
	}
	if _, ok := in.SnapshotGet(slotF1, before); ok {
		t.Error("SnapshotGet on a not-yet-created instance reports visible")
	}
	wantAt(t, in, slotF1, e, IntV(43))
}

// TestSnapshotDeletionMarker: a pending deletion hides the instance
// from its deleter alone; once stamped it hides it at every epoch at or
// above the delete's, and not below. A rolled-back marker leaves no
// record behind.
func TestSnapshotDeletionMarker(t *testing.T) {
	s := fig1(t)
	st := NewStore(s)
	in := newC2(t, st, s)
	before := overwrite(st, in, slotF1, IntV(1))
	const live = math.MaxUint64 - 1

	marker := st.MarkDeleted(in, 1)
	if in.SnapshotVisible(live, 1) || !in.SnapshotVisible(live, 2) || !in.SnapshotVisible(before, 0) {
		t.Error("a pending deletion must hide the instance from its deleter (txn 1) alone")
	}
	wantAt(t, in, slotF1, before, IntV(1))
	in.Rollback(marker)
	if !in.SnapshotVisible(live, 1) || in.VersionCount() != 0 {
		t.Errorf("rolled-back deletion: visible to the deleter %t, chain %d records, want true and 0",
			in.SnapshotVisible(live, 1), in.VersionCount())
	}

	e := commit(st, st.MarkDeleted(in, 2))
	if in.SnapshotVisible(live, 3) || in.SnapshotVisible(e, 0) {
		t.Error("a committed deletion visible at or above its epoch")
	}
	if _, ok := in.SnapshotGet(slotF1, e); ok {
		t.Error("SnapshotGet on a deleted instance reports visible")
	}
	wantAt(t, in, slotF1, before, IntV(1))

	// Without a free record the marker is an allocation of its own: an
	// arena block would outlive the deleted instance.
	fresh := newC2(t, st, s)
	left := len(st.versions.recs)
	st.MarkDeleted(fresh, 3)
	if len(st.versions.recs) != left {
		t.Error("a deletion marker came from the record arena")
	}
}

// TestSnapshotPruneMidChain: the next writer recycles exactly the
// records at or below the watermark, wherever they sit, and a reader
// pinned at the watermark still reads its epoch afterwards.
func TestSnapshotPruneMidChain(t *testing.T) {
	s := fig1(t)
	st := NewStore(s)
	in := newC2(t, st, s)

	var first SnapshotReader
	st.BeginSnapshot(&first) // epoch 0: keeps everything for now
	// Linked in the order a, b, c; committed in the order b, c, a — so
	// the chain reads (head) c@2, b@1, a@3.
	a := st.Write(in, slotF1, IntV(11), nil, false)
	b := st.Write(in, slotF2, BoolV(true), nil, false)
	c := st.Write(in, slotF4, IntV(33), nil, false)
	eb := commit(st, b)
	var pinned SnapshotReader
	if got := st.BeginSnapshot(&pinned); got != eb {
		t.Fatalf("pinned reader began at %d, want %d", got, eb)
	}
	defer st.EndSnapshot(&pinned)
	commit(st, c)
	commit(st, a)
	st.EndSnapshot(&first)

	reclaimed := st.VersionsReclaimed()
	d := st.Write(in, slotF6, StrV("d"), nil, false) // prunes b only, mid-chain
	if got := st.VersionsReclaimed() - reclaimed; got != 1 {
		t.Errorf("write reclaimed %d records, want 1 (the one at the watermark)", got)
	}
	if got := in.VersionCount(); got != 3 {
		t.Errorf("chain holds %d records, want 3 (d, c, a)", got)
	}
	wantAt(t, in, slotF1, eb, IntV(0))
	wantAt(t, in, slotF2, eb, BoolV(true))
	wantAt(t, in, slotF4, eb, IntV(0))
	wantAt(t, in, slotF6, eb, StrV("v0"))
	commit(st, d)

	// With the reader gone the next write collapses the chain, and the
	// recycled records are what it links: nothing is allocated.
	st.EndSnapshot(&pinned)
	overwrite(st, in, slotF1, IntV(12))
	if got := in.VersionCount(); got != 1 {
		t.Errorf("after release the chain must collapse, got %d records", got)
	}
	allocs := testing.AllocsPerRun(200, func() {
		overwrite(st, in, slotF1, IntV(7))
		overwrite(st, in, slotF6, StrV("warm"))
	})
	if allocs != 0 {
		t.Errorf("steady-state versioned write allocates %.1f/op, want 0", allocs)
	}
}

// TestSnapshotWatermarkAdmitsNoLateReader hammers the lock-free
// watermark: pruning writers against readers that keep registering as
// the only reader (the case that has to announce before it begins). A
// reader whose records were pruned under it reads a value newer than
// its epoch.
func TestSnapshotWatermarkAdmitsNoLateReader(t *testing.T) {
	s := fig1(t)
	st := NewStore(s)
	in := newC2(t, st, s)
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			e := st.AllocEpoch()
			r := st.Write(in, slotF1, IntV(int64(e)), nil, false)
			r.Stamp(e)
			st.FinishEpoch(e)
			runtime.Gosched() // on one processor, let the reader in between commits
		}
	}()
	var rd SnapshotReader
	for i := 0; i < 20000; i++ {
		b := st.BeginSnapshot(&rd)
		if v, _ := in.SnapshotGet(slotF1, b); uint64(v.I) != b {
			t.Fatalf("reader at epoch %d read %d", b, v.I)
		}
		st.EndSnapshot(&rd)
	}
	stop.Store(true)
	wg.Wait()
}

// TestSnapshotRecoveredStoreFullyVisible: a store filled the way
// recovery fills it (Install, the epoch clock left at 0) is visible in
// full to a snapshot at epoch 0 with zero records linked, and a later
// commit supersedes the recovered state only for later snapshots.
func TestSnapshotRecoveredStoreFullyVisible(t *testing.T) {
	s := fig1(t)
	st := NewStore(s)
	in, err := st.Install(s.Class("c1"), 7, []Value{IntV(42), BoolV(true), RefV(0)})
	if err != nil {
		t.Fatal(err)
	}
	if got := st.VersionsPublished(); got != 0 {
		t.Errorf("recovery linked %d records, want 0", got)
	}
	var rd SnapshotReader
	b := st.BeginSnapshot(&rd)
	defer st.EndSnapshot(&rd)
	if b != 0 || !in.SnapshotVisible(b, 0) {
		t.Fatalf("recovered instance: begin epoch %d, visible %t", b, in.SnapshotVisible(b, 0))
	}
	wantAt(t, in, slotF1, b, IntV(42))
	e := overwrite(st, in, slotF1, IntV(43))
	wantAt(t, in, slotF1, b, IntV(42))
	wantAt(t, in, slotF1, e, IntV(43))
}

// TestTortureVersionReclamation hammers one hot instance with
// committing and aborting writers for as long as snapshot readers keep
// registering, reading, and deregistering. Every commit writes its own
// epoch into f1 and the epoch's parity into f2, alternating which it
// writes first, and adds 1 to f4 as an escrow delta, so records are
// constantly pruned and recycled between three slots and both forms: a
// reader that trusted a record recycled under it, instead of retrying,
// would read a value that is not exactly its begin epoch's. (That window
// is a few loads wide: this is a stress test of the retry rule — dropping
// the seq re-check fails it within a few runs — not a deterministic
// trap.)
func TestTortureVersionReclamation(t *testing.T) {
	s := fig1(t)
	st := NewStore(s)
	in := newC2(t, st, s)
	// Epoch 1 writes (1, odd, +1): value == epoch from here on.
	commit(st, st.Write(in, slotF1, IntV(1), nil, false), st.Write(in, slotF2, BoolV(true), nil, false),
		st.Write(in, slotF4, IntV(1), nil, true))

	const (
		writers = 2
		readers = 4
		reads   = 20000 // per reader; the writers run until all are done
	)
	var writing, reading sync.WaitGroup
	var stop atomic.Bool
	var mu sync.Mutex // one writer at a time, as the lock manager would
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func(w int) {
			defer writing.Done()
			for i := 0; !stop.Load(); i++ {
				mu.Lock()
				if i%8 == w {
					// An aborting transaction: garbage in, exact rollback.
					r1 := st.Write(in, slotF1, IntV(-1), nil, false)
					r2 := st.Write(in, slotF2, BoolV(in.Get(slotF2) == BoolV(false)), nil, false)
					r4 := st.Write(in, slotF4, IntV(in.Get(slotF4).I+1000), nil, true)
					in.Rollback(r4)
					in.Rollback(r2)
					in.Rollback(r1)
				}
				e := st.AllocEpoch()
				var r1, r2 *Version
				if e%2 == 0 {
					r1 = st.Write(in, slotF1, IntV(int64(e)), nil, false)
					r2 = st.Write(in, slotF2, BoolV(false), nil, false)
				} else {
					r2 = st.Write(in, slotF2, BoolV(true), nil, false)
					r1 = st.Write(in, slotF1, IntV(int64(e)), nil, false)
				}
				r4 := st.Write(in, slotF4, IntV(in.Get(slotF4).I+1), nil, true)
				r1.Stamp(e)
				r2.Stamp(e)
				r4.Stamp(e)
				st.FinishEpoch(e)
				mu.Unlock()
				runtime.Gosched() // on one processor, let the readers in between commits
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		reading.Add(1)
		go func() {
			defer reading.Done()
			var rd SnapshotReader
			for i := 0; i < reads; i++ {
				b := st.BeginSnapshot(&rd)
				v1, ok1 := in.SnapshotGet(slotF1, b)
				v2, ok2 := in.SnapshotGet(slotF2, b)
				v4, ok4 := in.SnapshotGet(slotF4, b)
				st.EndSnapshot(&rd)
				if !ok1 || !ok2 || !ok4 {
					t.Errorf("reader at epoch %d: instance invisible", b)
					return
				}
				if uint64(v1.I) != b || v2.B != (b%2 == 1) || uint64(v4.I) != b {
					t.Errorf("reader at epoch %d read f1=%d f2=%t f4=%d", b, v1.I, v2.B, v4.I)
					return
				}
			}
		}()
	}
	reading.Wait()
	stop.Store(true)
	writing.Wait()

	// With no readers left, the next write collapses the chain to the
	// previous commit's records plus its own.
	e := overwrite(st, in, slotF1, IntV(0))
	overwrite(st, in, slotF1, IntV(int64(e+1)))
	if got := in.VersionCount(); got > 2 {
		t.Errorf("chain did not collapse after readers drained: %d records", got)
	}
}
