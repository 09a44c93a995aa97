package lock

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/paperex"
)

// Class and relation locks are partitioned (classPartitions): an
// intention mode locks the requester's own partition, any other mode
// every partition. These tests pin what callers must still see — one
// logical lock with the logical lock's conflicts, FIFO, conversion
// priority, statistics and deadlock victims.

// fig1Modes returns intentional and hierarchical constructors for the
// class modes of Figure 1's c2 (Table 2: m1 conflicts with m1 and m2,
// m3 commutes with everything, m2 and m4 touch disjoint fields).
func fig1Modes(t *testing.T) (intent, hier func(string) Mode) {
	t.Helper()
	c, err := core.CompileSource(paperex.Figure1)
	if err != nil {
		t.Fatal(err)
	}
	tbl := c.Class("c2").Table
	mk := func(h bool) func(string) Mode {
		return func(name string) Mode { return ClassMode{Table: tbl, Idx: tbl.ModeIndex(name), Hier: h} }
	}
	return mk(false), mk(true)
}

// txnOnPartition returns a transaction ID whose own partition is s,
// distinct for distinct k.
func txnOnPartition(s, k int) TxnID { return TxnID(k*classPartitions + s) }

// guarded returns a manager whose waits time out, so a request the test
// expects to be granted fails it instead of hanging it.
func guarded() *Manager {
	m := NewManager()
	m.WaitTimeout = 5 * time.Second
	return m
}

// requireQueued asserts the acquire behind done has not returned.
func requireQueued(t *testing.T, done chan error, what string) {
	t.Helper()
	settle()
	select {
	case err := <-done:
		t.Fatalf("%s returned (err=%v) while it should wait", what, err)
	default:
	}
}

// A hierarchical request conflicts with an intention holder whichever
// partition the holder's intention landed on, and is granted when it
// releases.
func TestPartitionedHierBlocksOnIntentionInAnyPartition(t *testing.T) {
	intent, hier := fig1Modes(t)
	class := ClassRes(1)
	for s := 0; s < classPartitions; s++ {
		m := guarded()
		holder, req := txnOnPartition(s, 1), txnOnPartition((s+3)%classPartitions, 2)
		mustGrant(t, m.Acquire(holder, class, intent("m2")))
		done := acquireAsync(m, req, class, hier("m1"))
		requireQueued(t, done, "(m1,hier) behind (m2,int)")
		m.ReleaseAll(holder)
		mustGrant(t, <-done)
		if !m.Holds(req, class, hier("m1")) {
			t.Errorf("partition %d: requester must hold (m1,hier)", s)
		}
		m.ReleaseAll(req)
		requireClean(t, m)
	}
}

// The same for the relational comparator's IS/IX versus S/X, and the
// converse: intention requests queue behind a granted S/X.
func TestPartitionedRelationModes(t *testing.T) {
	rel := RelationRes(3)
	for s := 0; s < classPartitions; s++ {
		m := guarded()
		ix, reader, is := txnOnPartition(s, 1), txnOnPartition(s, 2), txnOnPartition((s+1)%classPartitions, 3)
		mustGrant(t, m.Acquire(ix, rel, IX))
		dS := acquireAsync(m, reader, rel, S)
		requireQueued(t, dS, "S behind IX")
		m.ReleaseAll(ix)
		mustGrant(t, <-dS)
		mustGrant(t, m.Acquire(is, rel, IS)) // IS coexists with S
		ix2 := txnOnPartition(s, 4)
		dix := acquireAsync(m, ix2, rel, IX)
		requireQueued(t, dix, "IX behind S")
		m.ReleaseAll(reader)
		mustGrant(t, <-dix)
		m.ReleaseAll(is)
		m.ReleaseAll(ix2)
		requireClean(t, m)
	}
}

// Intention requests never block each other, however many transactions
// and partitions, and whatever mix of intentional class modes and
// creations they bring.
func TestPartitionedIntentionsNeverBlock(t *testing.T) {
	intent, _ := fig1Modes(t)
	modes := []Mode{intent("m1"), intent("m2"), intent("m4"), ExtendMode{}}
	m := guarded()
	class := ClassRes(2)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 200; r++ {
				txn := TxnID(g*1000 + r + 1)
				for _, md := range modes[:1+(g+r)%len(modes)] {
					if err := m.Acquire(txn, class, md); err != nil {
						t.Errorf("intention acquire: %v", err)
					}
				}
				m.ReleaseAll(txn)
			}
		}(g)
	}
	wg.Wait()
	st := m.Snapshot()
	if st.Blocks != 0 {
		t.Errorf("intention locks blocked %d times", st.Blocks)
	}
	requireStatsInvariants(t, st)
	requireClean(t, m)
}

// One Acquire is one count, however many partitions it touched: a sweep
// is one request and one immediate grant, a repeat is one reentrant, and
// a sweep that waits for holders on two partitions is still one block.
func TestPartitionedStatsCountOncePerCall(t *testing.T) {
	intent, hier := fig1Modes(t)
	m := guarded()
	class := ClassRes(1)
	want := func(what string, got, want int64) {
		t.Helper()
		if got != want {
			t.Errorf("%s = %d, want %d", what, got, want)
		}
	}

	mustGrant(t, m.Acquire(1, class, hier("m3")))
	st := m.Snapshot()
	want("Requests after one sweep", st.Requests, 1)
	want("ImmediateGrants after one sweep", st.ImmediateGrants, 1)
	mustGrant(t, m.Acquire(1, class, hier("m3")))
	want("Reentrant after a repeated sweep", m.Snapshot().Reentrant, 1)
	mustGrant(t, m.Acquire(1, class, intent("m1"))) // conversion on its own partition
	want("Upgrades after an intention conversion", m.Snapshot().Upgrades, 1)
	m.ReleaseAll(1)

	st0 := m.Snapshot()
	a, b := txnOnPartition(2, 1), txnOnPartition(5, 1)
	mustGrant(t, m.Acquire(a, class, intent("m2")))
	mustGrant(t, m.Acquire(b, class, intent("m2")))
	done := acquireAsync(m, txnOnPartition(0, 3), class, hier("m1"))
	requireQueued(t, done, "sweep behind two intention holders")
	m.ReleaseAll(a)
	requireQueued(t, done, "sweep behind the second holder")
	m.ReleaseAll(b)
	mustGrant(t, <-done)
	st = m.Snapshot()
	want("Requests", st.Requests-st0.Requests, 3)
	want("ImmediateGrants", st.ImmediateGrants-st0.ImmediateGrants, 2)
	want("Blocks for a sweep that queued twice", st.Blocks-st0.Blocks, 1)
	requireStatsInvariants(t, st)
}

// A sweep keeps one place in the logical lock's FIFO order: while it
// waits it is queued on every partition, so a request that comes after
// it waits for it wherever it lands — even when compatible with every
// holder there, and even on a partition that the sweep would already be
// free to take — and the sweep never ends up waiting for such a
// latecomer. Here the latecomer, once granted, goes on to the instance
// the sweeper holds: had it overtaken the sweep, the two would deadlock.
func TestPartitionedSweepKeepsFIFOPlace(t *testing.T) {
	rel, inst := RelationRes(5), InstanceRes(11)
	m := guarded()
	a, b := txnOnPartition(2, 1), txnOnPartition(5, 1)
	sweeper := txnOnPartition(0, 1)
	mustGrant(t, m.Acquire(a, rel, IX))
	mustGrant(t, m.Acquire(b, rel, IX))
	mustGrant(t, m.Acquire(sweeper, inst, X))
	dSweep := acquireAsync(m, sweeper, rel, S)
	requireQueued(t, dSweep, "S behind two IX holders")

	dIS := acquireAsync(m, txnOnPartition(2, 2), rel, IS) // compatible with IX and S
	requireQueued(t, dIS, "IS behind the queued sweep")
	m.ReleaseAll(b) // nothing holds partition 5 now
	late := txnOnPartition(5, 3)
	dLate := acquireAsync(m, late, rel, IX)
	requireQueued(t, dLate, "IX made after the sweep queued")

	m.ReleaseAll(a)
	mustGrant(t, <-dSweep)
	mustGrant(t, <-dIS)
	requireQueued(t, dLate, "IX behind the granted S")
	m.ReleaseAll(txnOnPartition(2, 2))
	m.ReleaseAll(sweeper)
	mustGrant(t, <-dLate)
	mustGrant(t, m.Acquire(late, inst, X))
	m.ReleaseAll(late)
	st := m.Snapshot()
	if st.Deadlocks != 0 {
		t.Errorf("Deadlocks = %d, want 0", st.Deadlocks)
	}
	requireStatsInvariants(t, st)
	requireClean(t, m)
}

// Sweeps queue in arrival order too: a sweep compatible with every
// holder still waits behind one queued before it, as on a single row.
func TestPartitionedSweepsQueueInOrder(t *testing.T) {
	rel := RelationRes(6)
	m := guarded()
	reader, writer, second := txnOnPartition(3, 1), txnOnPartition(0, 1), txnOnPartition(1, 1)
	mustGrant(t, m.Acquire(reader, rel, IS))
	dX := acquireAsync(m, writer, rel, X)
	requireQueued(t, dX, "X behind IS")
	dS := acquireAsync(m, second, rel, S) // compatible with IS, but X is ahead
	requireQueued(t, dS, "S behind the queued X")
	m.ReleaseAll(reader)
	mustGrant(t, <-dX)
	requireQueued(t, dS, "S behind the granted X")
	m.ReleaseAll(writer)
	mustGrant(t, <-dS)
	m.ReleaseAll(second)
	requireClean(t, m)
}

// Holds, HeldModes and LocksHeld report the logical class lock: a sweep
// is one lock, and an intention lock is held on the class whatever
// partition it landed on.
func TestPartitionedHoldsReportLogicalLocks(t *testing.T) {
	intent, hier := fig1Modes(t)
	class := ClassRes(1)
	for s := 0; s < classPartitions; s++ {
		m := guarded()
		txn := txnOnPartition(s, 1)
		mustGrant(t, m.Acquire(txn, class, hier("m4")))
		if n := m.LocksHeld(txn); n != 1 {
			t.Errorf("partition %d: LocksHeld after a sweep = %d, want 1", s, n)
		}
		mustGrant(t, m.Acquire(txn, class, intent("m2")))
		mustGrant(t, m.Acquire(txn, InstanceRes(9), X))
		if n := m.LocksHeld(txn); n != 3 {
			t.Errorf("partition %d: LocksHeld = %d, want 3", s, n)
		}
		if !m.Holds(txn, class, hier("m4")) || !m.Holds(txn, class, intent("m2")) {
			t.Errorf("partition %d: Holds misses a class mode", s)
		}
		if m.Holds(txn, class, intent("m4")) {
			t.Errorf("partition %d: Holds reports a mode never requested", s)
		}
		if got := m.HeldModes(txn, class); len(got) != 2 {
			t.Errorf("partition %d: HeldModes = %v, want two modes", s, got)
		}
		if m.Holds(txn+1, class, hier("m4")) || m.HeldModes(txn+1, class) != nil {
			t.Errorf("partition %d: another transaction reported holding the class", s)
		}
		m.ReleaseAll(txn)
		requireClean(t, m)
	}
}

// A conversion from an intentional to a hierarchical class lock jumps
// the queue on every partition: it is granted before a plain
// hierarchical request that queued first.
func TestPartitionedConversionKeepsPriority(t *testing.T) {
	intent, hier := fig1Modes(t)
	m := guarded()
	class := ClassRes(1)
	blocker, plain, conv := txnOnPartition(0, 1), txnOnPartition(3, 1), txnOnPartition(1, 1)
	mustGrant(t, m.Acquire(blocker, class, intent("m2")))
	mustGrant(t, m.Acquire(conv, class, intent("m3")))

	dPlain := acquireAsync(m, plain, class, hier("m1")) // (m1,hier) conflicts with (m2,int)
	requireQueued(t, dPlain, "plain (m1,hier)")
	dConv := acquireAsync(m, conv, class, hier("m1"))
	requireQueued(t, dConv, "converting (m1,hier)")

	m.ReleaseAll(blocker)
	mustGrant(t, <-dConv) // the conversion wins
	requireQueued(t, dPlain, "plain (m1,hier) behind the conversion")
	if st := m.Snapshot(); st.Upgrades != 1 {
		t.Errorf("Upgrades = %d, want 1", st.Upgrades)
	}
	m.ReleaseAll(conv)
	mustGrant(t, <-dPlain)
	m.ReleaseAll(plain)
	requireClean(t, m)
}

// A cycle whose one edge is a sweep blocked on one partition of eight
// is found, and the requester that closes it is the victim — both when
// the sweeper closes it (it leaves every queue and holds no partition: a
// failed Acquire acquires nothing) and when the other transaction does
// (the sweep then completes).
func TestPartitionedDeadlockThroughPartialSweep(t *testing.T) {
	rel, inst := RelationRes(4), InstanceRes(10)
	sweeper, holder := txnOnPartition(1, 1), txnOnPartition(3, 1) // the sweep waits on partition 3

	t.Run("sweeper closes the cycle", func(t *testing.T) {
		m := guarded()
		mustGrant(t, m.Acquire(sweeper, inst, X))
		mustGrant(t, m.Acquire(holder, rel, IX))
		dHolder := acquireAsync(m, holder, inst, X)
		requireQueued(t, dHolder, "holder's X behind the sweeper")
		err := m.Acquire(sweeper, rel, S)
		var dl *DeadlockError
		if !errors.As(err, &dl) || dl.Txn != sweeper {
			t.Fatalf("want the sweeper as victim, got %v", err)
		}
		if n := m.LocksHeld(sweeper); n != 1 {
			t.Errorf("victim holds %d locks after a failed sweep, want 1 (its instance)", n)
		}
		if m.Holds(sweeper, rel, S) {
			t.Error("the victim's partial sweep still holds the relation")
		}
		// The partitions it queued on take an intention request at once.
		mustGrant(t, m.Acquire(txnOnPartition(0, 7), rel, IX))
		m.ReleaseAll(txnOnPartition(0, 7))
		m.ReleaseAll(sweeper)
		mustGrant(t, <-dHolder)
		m.ReleaseAll(holder)
		requireStatsInvariants(t, m.Snapshot())
		requireClean(t, m)
	})

	t.Run("holder closes the cycle", func(t *testing.T) {
		m := guarded()
		mustGrant(t, m.Acquire(sweeper, inst, X))
		mustGrant(t, m.Acquire(holder, rel, IX))
		dSweep := acquireAsync(m, sweeper, rel, S)
		requireQueued(t, dSweep, "sweep behind the holder's IX")
		err := m.Acquire(holder, inst, X)
		var dl *DeadlockError
		if !errors.As(err, &dl) || dl.Txn != holder {
			t.Fatalf("want the holder as victim, got %v", err)
		}
		m.ReleaseAll(holder)
		mustGrant(t, <-dSweep)
		if n := m.LocksHeld(sweeper); n != 2 {
			t.Errorf("sweeper holds %d locks, want 2", n)
		}
		m.ReleaseAll(sweeper)
		requireStatsInvariants(t, m.Snapshot())
		requireClean(t, m)
	})
}

// Storm over one partitioned relation with every RW mode, conversions
// included: whatever the partitions, two transactions holding the
// relation at once hold compatible modes. A shadow of the logical lock
// checks it. It runs on the default table and on a one-shard table,
// where all partitions share a shard mutex.
func TestPartitionedStormKeepsLogicalExclusion(t *testing.T) {
	for _, shards := range []int{defaultShardCount, 1} {
		m := NewManagerShards(shards)
		m.WaitTimeout = 5 * time.Second
		partitionStorm(t, m)
	}
}

func partitionStorm(t *testing.T, m *Manager) {
	rel := RelationRes(1)
	all := []RWMode{IS, IX, S, SIX, X}
	var (
		mu      sync.Mutex
		holding = map[TxnID][]RWMode{}
		next    atomic.Uint64
		wg      sync.WaitGroup
	)
	check := func(txn TxnID, md RWMode) {
		mu.Lock()
		defer mu.Unlock()
		for other, modes := range holding {
			for _, o := range modes {
				if other != txn && !md.Compatible(o) {
					t.Errorf("txn %d granted %s while txn %d holds %s", txn, md, other, o)
				}
			}
		}
		holding[txn] = append(holding[txn], md)
	}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for r := 0; r < 150; r++ {
				for {
					txn := TxnID(next.Add(1))
					var err error
					for k := 0; k < 2 && err == nil; k++ {
						md := all[rng.Intn(len(all))]
						if err = m.Acquire(txn, rel, md); err == nil {
							check(txn, md)
						}
					}
					mu.Lock()
					delete(holding, txn)
					mu.Unlock()
					m.ReleaseAll(txn)
					if err == nil {
						break
					}
					if !IsDeadlock(err) {
						t.Errorf("unexpected error: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	requireStatsInvariants(t, m.Snapshot())
	requireClean(t, m)
}
