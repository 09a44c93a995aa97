// Multiversion read support: the storage half of the snapshot read
// path. The store is updated in place — the live cells always hold the
// newest state — and the before-image a transaction captures for
// rollback IS the version: on its first write of an (instance, slot) a
// transaction links one small record onto the instance's chain, and a
// snapshot reader reconstructs the value at its begin epoch by reading
// the live cell and rolling back every chained record that committed
// after it began. Nothing is copied at commit. The paper's transitive
// access vectors decide *which* transactions may read this way
// (statically read-only method sets, see engine.Runtime); this file
// only provides the mechanism:
//
//   - A record (Version) is a slot number, the slot's old cell, and a
//     commit epoch that reads pending until the writer commits. For a
//     slot written under declared commutativity the cell's number word
//     holds the writer's net integer delta instead, and the record's
//     delta flag says so. Like a live cell, the record's cell carries no
//     kind: it has the kind of the slot it covers. A pruned or
//     rolled-back record goes on the instance's free list as a plain
//     record with an empty cell. A record is pushed at the chain head
//     inside the same in.mu + seq window as the store it describes, so
//     a reader never sees the new cell without the record or the
//     reverse. A creation links a marker record (slot −1) whose cell
//     holds the creator's transaction ID: a reader other than the
//     creator that has to roll the marker back treats the instance as
//     not yet existing. A delete links a marker the same way (slot −2,
//     naming the deleter): the deleter, and a reader whose epoch covers
//     the stamped marker, treat the instance as gone, and everyone else
//     reads it as it stands. Abort restores the cell and unlinks the
//     record in one window; commit only stamps the record's epoch, and
//     a committed delete then removes the instance from the store.
//   - Three counters: epochNext hands out commit epochs; epochStable and
//     epochDurable, both advancing in epoch order, are the highest epoch
//     whose commit (and every earlier one) has stamped its records, and
//     the highest the redo log acknowledged (MaxUint64 without a log).
//     A reader that begins at B = min(stable, durable) finds every record
//     of a commit ≤ B stamped, and every other record reads pending or
//     an epoch > B — the snapshot is a consistent prefix of the
//     acknowledged commit order over surviving instances. Stamping
//     therefore needs no seq bump: the two values a racing reader can
//     see mean the same thing to it. (A committed delete removes the
//     instance at once, so one that commits after B takes it out of a
//     snapshot begun at B: see engine scanDomain and oodb.View.)
//   - The reader's whole reconstruction — live cell, chain head, every
//     hop — sits inside one seqlock section of the instance. Linking,
//     unlinking and pruning all happen with seq odd, so a reader that
//     overlapped any of them retries (and after seqSpins retries takes
//     the writer latch, so a hot writer cannot starve it); that is also
//     what makes recycling a pruned record immediately safe. Chains are
//     not epoch-sorted (a protocol may grant two uncommitted writers of
//     one instance, who commit in either order), so the reader walks the
//     whole chain. Per slot, non-commuting writers are serialized by 2PL,
//     so push order is commit order and walking newest-to-oldest leaves
//     the oldest rolled-back before-image as the value; deltas commute.
//   - Reclamation is watermark-driven and done by the next writer of the
//     instance, inside the window it already holds: a record whose epoch
//     is ≤ min(stable, durable, minimum begin epoch of all active
//     readers) is rolled back by no present or future reader, wherever
//     in the chain it sits (the durable term keeps an unacknowledged
//     commit's before-images). The watermark is three atomic loads:
//     stable, durable, then the cached minimum begin epoch. A reader
//     that becomes the only one announces that minimum BEFORE it fixes
//     its begin epoch, so a pruner that missed the announcement loaded
//     its stable and durable epochs before the reader loaded its own:
//     the reader began at or above the pruner's watermark.
//   - Epochs are process-local. The redo log and the checkpoint carry
//     none; a durable commit draws its epoch as the log sequences its
//     record, so epoch order is log order. Recovery, checkpoint load and
//     Install link nothing, and an instance with an empty chain is
//     visible, as it stands, to every snapshot: a recovered store starts
//     at epoch 0 (durable too) with all of it visible.
package storage

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

const (
	// pendingEpoch is the epoch of a record whose writer has not
	// committed: above every begin epoch and every watermark.
	pendingEpoch = math.MaxUint64
	// LiveEpoch is a locking reader's: above every commit epoch.
	LiveEpoch = pendingEpoch - 1
	// SlotCreate and SlotDelete are the slots of a creation and of a
	// deletion marker; every other record covers a field slot (≥ 0).
	SlotCreate = -1
	SlotDelete = -2
)

// Version is one undo/version record: the before-image (or delta) of one
// slot as written by one transaction, linked on the instance's chain.
// The writer's undo log points at it — it is the only copy, for rollback
// and for readers alike. Every field is atomic for the reason aslot's
// are: snapshot readers race with linking and recycling by design and
// discard what they read when seq moved. delta marks a record whose
// old.num is the writer's net delta rather than a before-image; it sits
// in what would be slot's padding, so a record is 40 bytes.
type Version struct {
	epoch atomic.Uint64
	next  atomic.Pointer[Version]
	slot  atomic.Int32
	delta atomic.Bool
	old   aslot
}

// Slot returns the slot the record covers.
func (v *Version) Slot() int { return int(v.slot.Load()) }

// Delta returns the writer's net integer contribution and true when the
// record is in delta form, 0 and false for a before-image.
func (v *Version) Delta() (int64, bool) {
	if !v.delta.Load() {
		return 0, false
	}
	return v.old.num.Load(), true
}

// Stamp marks the record committed at epoch e. The caller retires e
// (FinishEpoch) only after stamping all its records; until then no
// reader's begin epoch reaches e.
func (v *Version) Stamp(e uint64) { v.epoch.Store(e) }

// SnapshotReader is one active snapshot transaction's registration in
// the reclamation watermark. Embed it (zero value) and pass it to
// BeginSnapshot/EndSnapshot; it allocates nothing.
type SnapshotReader struct {
	epoch      uint64
	prev, next *SnapshotReader
}

// Epoch returns the reader's begin epoch (valid between BeginSnapshot
// and EndSnapshot).
func (r *SnapshotReader) Epoch() uint64 { return r.epoch }

// snapReg tracks active snapshot readers as an intrusive list so
// registration is allocation-free. minBegin caches the minimum begin
// epoch over the list (MaxUint64 when empty); it is written under mu
// and read by pruners without it.
type snapReg struct {
	mu       sync.Mutex
	head     *SnapshotReader
	minBegin atomic.Uint64
}

// arenaRecs is the block size of the record arena.
const arenaRecs = 256

// verArena is the store-wide slab allocator behind records linked while
// an instance's free list is empty (deletion markers aside, see link). A
// block lives as long as any of its records, which stays on its
// instance's chain or free list while the instance lives, so record
// count is bounded by live instances × chain depth.
type verArena struct {
	mu   sync.Mutex
	recs []Version
}

func (a *verArena) get() *Version {
	a.mu.Lock()
	if len(a.recs) == 0 {
		a.recs = make([]Version, arenaRecs)
	}
	v := &a.recs[0]
	a.recs = a.recs[1:]
	a.mu.Unlock()
	return v
}

// AllocEpoch draws the next commit epoch, as the log sequences a
// durable commit's record (stamped and retired under its mutex) or as
// any other commit publishes. Epochs retire in order (FinishEpoch), so
// between the two a holder of epoch e must not wait on anything.
func (s *Store) AllocEpoch() uint64 { return s.epochNext.Add(1) }

// LastEpoch returns the highest commit epoch drawn so far.
func (s *Store) LastEpoch() uint64 { return s.epochNext.Load() }

// FinishEpoch retires epoch e: every record of its commit is stamped.
// Commits retire in epoch order, so the caller spins until every earlier
// epoch has retired; a predecessor's section between AllocEpoch and here
// is a few stores per record. The Gosched keeps a preempted predecessor
// schedulable on GOMAXPROCS=1.
func (s *Store) FinishEpoch(e uint64) {
	for !s.epochStable.CompareAndSwap(e-1, e) {
		runtime.Gosched()
	}
}

// StableEpoch returns the highest retired commit epoch.
func (s *Store) StableEpoch() uint64 { return s.epochStable.Load() }

// DurableEpoch returns the highest epoch the redo log acknowledged.
func (s *Store) DurableEpoch() uint64 { return s.epochDurable.Load() }

// SetDurableEpoch is the log's: it acknowledged every epoch up to e.
func (s *Store) SetDurableEpoch(e uint64) { s.epochDurable.Store(e) }

// readEpoch is where a snapshot begins: min(stable, durable).
func (s *Store) readEpoch() uint64 { return min(s.epochStable.Load(), s.epochDurable.Load()) }

// BeginSnapshot registers r as an active snapshot reader and returns
// its begin epoch (readEpoch). A reader joining others begins at or
// above their cached minimum, which therefore already covers it; the
// first reader announces a minimum and only then loads its begin epoch
// (see the watermark argument in the file header).
func (s *Store) BeginSnapshot(r *SnapshotReader) uint64 {
	reg := &s.snapshots
	reg.mu.Lock()
	if reg.head == nil {
		reg.minBegin.Store(s.readEpoch())
	}
	r.epoch = s.readEpoch()
	r.prev = nil
	r.next = reg.head
	if reg.head != nil {
		reg.head.prev = r
	}
	reg.head = r
	reg.mu.Unlock()
	return r.epoch
}

// EndSnapshot removes r from the active-reader registry.
func (s *Store) EndSnapshot(r *SnapshotReader) {
	reg := &s.snapshots
	reg.mu.Lock()
	if r.prev == nil && r.next == nil && reg.head != r {
		// Already deregistered (a finished transaction's Commit and
		// Abort are both safe to call): unlinking again would clobber
		// the registry head.
		reg.mu.Unlock()
		return
	}
	if r.prev != nil {
		r.prev.next = r.next
	} else {
		reg.head = r.next
	}
	if r.next != nil {
		r.next.prev = r.prev
	}
	r.prev, r.next = nil, nil
	reg.minBegin.Store(reg.oldest())
	reg.mu.Unlock()
}

// oldest returns the minimum begin epoch over the registered readers,
// MaxUint64 when there are none. Requires reg.mu held.
func (reg *snapReg) oldest() uint64 {
	oldest := uint64(math.MaxUint64)
	for r := reg.head; r != nil; r = r.next {
		oldest = min(oldest, r.epoch)
	}
	return oldest
}

// watermark returns the reclamation watermark without taking the
// registry mutex: no active or future reader rolls back a record whose
// epoch is at or below it. The load order is load-bearing.
func (s *Store) watermark() uint64 {
	return min(s.readEpoch(), s.snapshots.minBegin.Load())
}

// SnapshotWatermark returns the minimum begin epoch over all active
// snapshot readers, capped by the stable and durable epochs, read
// under the registry mutex — the exact figure, for the lag gauge.
// Pruning uses watermark.
func (s *Store) SnapshotWatermark() uint64 {
	reg := &s.snapshots
	reg.mu.Lock()
	w := min(s.readEpoch(), reg.oldest())
	reg.mu.Unlock()
	return w
}

// VersionsPublished returns the lifetime count of records linked onto
// version chains (first writes of a slot by a transaction, and creation
// markers).
func (s *Store) VersionsPublished() int64 { return s.versionsPublished.Load() }

// VersionsReclaimed returns the lifetime count of records recycled by
// watermark-driven pruning.
func (s *Store) VersionsReclaimed() int64 { return s.versionsReclaimed.Load() }

// ActiveSnapshots returns the number of currently registered snapshot
// readers — the population the reclamation watermark ranges over.
func (s *Store) ActiveSnapshots() int {
	reg := &s.snapshots
	reg.mu.Lock()
	n := 0
	for r := reg.head; r != nil; r = r.next {
		n++
	}
	reg.mu.Unlock()
	return n
}

// Write is Set on behalf of a transaction: it stores v into slot i and,
// in the same writer window, keeps the transaction's record for the
// slot. rec is that record, nil on the transaction's first write of the
// slot — Write then links a pending one, after recycling every record on
// the chain the watermark has passed, and returns it; later writes pass
// it back. escrow says the slot is written under declared commutativity,
// where another uncommitted writer of the same slot is not excluded: an
// integer write is then recorded as a delta the record accumulates (the
// caller holds the execution latch, so v minus the live cell is exactly
// its own contribution). A plain write landing on a delta record turns
// it into the before-image of the pre-transaction value and moves it to
// the chain head — it now postdates every concurrent delta, which the
// non-commuting lock behind the plain write has waited out. Write panics
// if v is not of the slot's kind.
func (s *Store) Write(in *Instance, i int, v Value, rec *Version, escrow bool) *Version {
	escrow = in.mustKind(i, v.Kind) == KInt && escrow
	in.mu.Lock()
	sl := &in.slots[i]
	in.seq.Add(1)
	switch {
	case rec == nil:
		rec = s.link(in, int32(i))
		if escrow {
			rec.old.num.Store(v.I - sl.num.Load())
			rec.delta.Store(true)
		} else {
			rec.old.copyFrom(sl)
		}
	case !rec.delta.Load():
		// The before-image already covers every later write.
	case escrow:
		rec.old.num.Add(v.I - sl.num.Load())
	default:
		pre := sl.num.Load() - rec.old.num.Load()
		in.unlink(rec)
		rec.old.num.Store(pre)
		rec.delta.Store(false)
		rec.next.Store(in.verHead.Load())
		in.verHead.Store(rec)
	}
	sl.store(v)
	in.seq.Add(1)
	in.mu.Unlock()
	return rec
}

// Rollback undoes the write rec records — restores the before-image, or
// subtracts the delta so a concurrent commuting writer's contribution
// survives; a deletion marker has nothing to restore — and unlinks rec,
// in one writer window: a snapshot reader sees the written cell with the
// record or the restored cell without. rec must still be pending (a
// stamped record may already be recycled).
func (in *Instance) Rollback(rec *Version) {
	in.mu.Lock()
	in.seq.Add(1)
	switch s := rec.slot.Load(); {
	case s < 0: // a marker covers no cell
	case rec.delta.Load():
		in.slots[s].num.Add(-rec.old.num.Load())
	default:
		in.slots[s].copyFrom(&rec.old)
	}
	in.unlink(rec)
	in.recycle(rec)
	in.seq.Add(1)
	in.mu.Unlock()
}

// CreatedBy reports whether in is transaction txn's pending creation.
// The creator links no record on its own instance (txn.Txn.Write), and
// nobody else can reach it, so while the creation is pending its marker
// is the chain head.
func (in *Instance) CreatedBy(txn uint64) bool {
	v := in.verHead.Load()
	return v != nil && v.slot.Load() == SlotCreate && v.epoch.Load() == pendingEpoch &&
		uint64(v.old.num.Load()) == txn
}

// MarkDeleted links a pending deletion marker naming transaction txn on
// in's chain and returns it. in stays in the store until txn commits,
// stamps the marker and removes it (Delete); an abort unlinks it.
func (s *Store) MarkDeleted(in *Instance, txn uint64) *Version {
	in.mu.Lock()
	in.seq.Add(1)
	rec := s.link(in, SlotDelete)
	rec.old.num.Store(int64(txn))
	in.seq.Add(1)
	in.mu.Unlock()
	return rec
}

// link prunes the chain against the watermark and pushes a pending
// record for slot at its head. Requires in.mu held and seq odd.
func (s *Store) link(in *Instance, slot int32) *Version {
	if in.verHead.Load() != nil {
		if n := in.prune(s.watermark()); n > 0 {
			s.versionsReclaimed.Add(int64(n))
		}
	}
	v := in.verFree
	switch {
	case v != nil:
		in.verFree = v.next.Load()
	case slot == SlotDelete:
		// A deletion marker mostly dies with its instance; taken from
		// the arena, it would pin a block that live records share.
		v = new(Version)
	default:
		v = s.versions.get()
	}
	v.epoch.Store(pendingEpoch)
	v.slot.Store(slot)
	v.next.Store(in.verHead.Load())
	in.verHead.Store(v)
	s.versionsPublished.Add(1)
	return v
}

// prune recycles every record with epoch ≤ watermark, anywhere in the
// chain, and returns how many. Requires in.mu held and seq odd.
func (in *Instance) prune(watermark uint64) int {
	n := 0
	prev := &in.verHead
	for v := prev.Load(); v != nil; v = prev.Load() {
		if v.epoch.Load() > watermark {
			prev = &v.next
			continue
		}
		prev.Store(v.next.Load())
		in.recycle(v)
		n++
	}
	return n
}

// unlink removes rec from the chain. Requires in.mu held and seq odd.
func (in *Instance) unlink(rec *Version) {
	prev := &in.verHead
	for v := prev.Load(); v != nil; v = prev.Load() {
		if v == rec {
			prev.Store(rec.next.Load())
			return
		}
		prev = &v.next
	}
}

// recycle puts an unlinked record on the instance's free list as a
// plain record with an empty cell, so a free record pins no superseded
// string. Reuse may be immediate: a reader still standing on the record
// fails its seq re-check. Requires in.mu held and seq odd.
func (in *Instance) recycle(v *Version) {
	v.delta.Store(false)
	v.old.sp.Store(nil)
	v.next.Store(in.verFree)
	in.verFree = v
}

// readAt reconstructs slot i, of kind k (no slot when i < 0), as of
// begin epoch b: the live cell with every record of the slot that b does
// not cover rolled back, all inside one seqlock section. visible is
// false when a creation marker is among the rolled-back records and txn
// is not its creator, or when a deletion marker is covered by b or names
// txn (SnapshotGet passes txn 0, which creates and deletes nothing).
// The per-hop seq check bounds the walk — an unchanged seq means an
// unchanged, finite chain. A reader that writers keep overlapping for
// seqSpins attempts (a long chain under a hot writer) takes the writer
// latch for the next one: under it seq is even and cannot move, so that
// attempt succeeds.
func (in *Instance) readAt(i int, k ValueKind, b, txn uint64) (num int64, sp *byte, visible bool) {
	for spins := 0; ; spins++ {
		latched := spins >= seqSpins
		if latched {
			in.mu.Lock()
		}
		s1 := in.seq.Load()
		if s1&1 == 0 {
			if i >= 0 {
				num, sp = in.slots[i].load(k)
			}
			visible = true
			for v := in.verHead.Load(); v != nil && in.seq.Load() == s1; v = v.next.Load() {
				s := int(v.slot.Load())
				if v.epoch.Load() <= b {
					visible = visible && s != SlotDelete
					if i < 0 && b == LiveEpoch {
						break // see SnapshotVisible
					}
					continue
				}
				switch {
				case s == SlotDelete:
					visible = visible && uint64(v.old.num.Load()) != txn
				case s == SlotCreate:
					visible = visible && uint64(v.old.num.Load()) == txn
				case s == i && v.delta.Load():
					num -= v.old.num.Load()
				case s == i:
					num, sp = v.old.load(k)
				}
			}
		}
		ok := s1&1 == 0 && in.seq.Load() == s1
		if latched {
			in.mu.Unlock()
		}
		if ok {
			return num, sp, visible
		}
	}
}

// SnapshotGet returns the value of slot i as of begin epoch b. ok is
// false when the instance is not visible at b.
func (in *Instance) SnapshotGet(i int, b uint64) (Value, bool) {
	k := in.kind(i)
	num, sp, visible := in.readAt(i, k, b, 0)
	if !visible {
		return Value{}, false
	}
	return mkValue(k, num, sp), true
}

// SnapshotVisible reports whether the instance exists for transaction
// txn reading as of epoch b: not while its creation has not committed
// at or below b, unless txn is the creator, nor once its deletion has,
// or txn is the deleter. A snapshot transaction reads at its begin
// epoch, a locking one at LiveEpoch, where the walk stops at the first
// committed record: none below it can hide the instance, since a
// pending creation has only its creator's records above it and a
// deletion's locks keep every later writer out.
func (in *Instance) SnapshotVisible(b, txn uint64) bool {
	_, _, visible := in.readAt(-1, KInt, b, txn)
	return visible
}

// VersionCount returns the current length of the version chain
// (diagnostics and reclamation tests; not synchronized with writers).
func (in *Instance) VersionCount() int {
	n := 0
	for v := in.verHead.Load(); v != nil; v = v.next.Load() {
		n++
	}
	return n
}
