package lock

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/paperex"
)

// acquireAsync runs Acquire in a goroutine and reports completion.
func acquireAsync(m *Manager, txn TxnID, res ResourceID, mode Mode) chan error {
	done := make(chan error, 1)
	go func() { done <- m.Acquire(txn, res, mode) }()
	return done
}

func mustGrant(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("acquire failed: %v", err)
	}
}

// settle gives blocked goroutines time to enqueue.
func settle() { time.Sleep(10 * time.Millisecond) }

func TestShareAndConflict(t *testing.T) {
	m := NewManager()
	res := InstanceRes(1)
	mustGrant(t, m.Acquire(1, res, S))
	mustGrant(t, m.Acquire(2, res, S)) // S/S share

	done := acquireAsync(m, 3, res, X) // X must wait
	settle()
	select {
	case err := <-done:
		t.Fatalf("X granted while S held: %v", err)
	default:
	}
	m.ReleaseAll(1)
	settle()
	select {
	case <-done:
		t.Fatal("X granted while one S still held")
	default:
	}
	m.ReleaseAll(2)
	mustGrant(t, <-done)
	if !m.Holds(3, res, X) {
		t.Error("txn 3 must hold X")
	}
}

func TestReentrant(t *testing.T) {
	m := NewManager()
	res := InstanceRes(1)
	mustGrant(t, m.Acquire(1, res, S))
	mustGrant(t, m.Acquire(1, res, S))
	st := m.Snapshot()
	if st.Reentrant != 1 {
		t.Errorf("Reentrant = %d, want 1", st.Reentrant)
	}
	if got := m.LocksHeld(1); got != 1 {
		t.Errorf("LocksHeld = %d, want 1", got)
	}
}

func TestUpgradeWaitsForOtherHolder(t *testing.T) {
	m := NewManager()
	res := InstanceRes(1)
	mustGrant(t, m.Acquire(1, res, S))
	mustGrant(t, m.Acquire(2, res, S))

	done := acquireAsync(m, 1, res, X) // conversion: blocked by txn 2 only
	settle()
	m.ReleaseAll(2)
	mustGrant(t, <-done)
	modes := m.HeldModes(1, res)
	if len(modes) != 2 { // S and X both recorded
		t.Errorf("held modes = %v", modes)
	}
	if m.Snapshot().Upgrades != 1 {
		t.Errorf("Upgrades = %d", m.Snapshot().Upgrades)
	}
}

func TestUpgradePriorityOverQueue(t *testing.T) {
	m := NewManager()
	res := InstanceRes(1)
	mustGrant(t, m.Acquire(1, res, S))
	mustGrant(t, m.Acquire(2, res, S))

	// Txn 3 queues for X (blocked by 1 and 2).
	d3 := acquireAsync(m, 3, res, X)
	settle()
	// Txn 1 converts to X (blocked by 2 only) — must jump the queue.
	d1 := acquireAsync(m, 1, res, X)
	settle()
	m.ReleaseAll(2)
	mustGrant(t, <-d1) // conversion wins
	select {
	case <-d3:
		t.Fatal("txn 3 must still wait behind the conversion")
	default:
	}
	m.ReleaseAll(1)
	mustGrant(t, <-d3)
}

// The classical escalation deadlock: two readers both try to upgrade.
// System R: "97 % of deadlocks are due to lock escalation from read to
// write mode" — this is the shape the statistics must label.
func TestEscalationDeadlock(t *testing.T) {
	m := NewManager()
	res := InstanceRes(1)
	mustGrant(t, m.Acquire(1, res, S))
	mustGrant(t, m.Acquire(2, res, S))

	d1 := acquireAsync(m, 1, res, X)
	settle() // txn 1 now waits for txn 2
	err := m.Acquire(2, res, X)
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("want deadlock, got %v", err)
	}
	if !dl.Escalation {
		t.Error("upgrade/upgrade deadlock must be flagged as escalation")
	}
	if !IsDeadlock(err) {
		t.Error("IsDeadlock must be true")
	}
	m.ReleaseAll(2) // victim aborts
	mustGrant(t, <-d1)
	st := m.Snapshot()
	if st.Deadlocks != 1 || st.EscalationDeadlocks != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestCrossResourceDeadlock(t *testing.T) {
	m := NewManager()
	a, b := InstanceRes(1), InstanceRes(2)
	mustGrant(t, m.Acquire(1, a, X))
	mustGrant(t, m.Acquire(2, b, X))

	d1 := acquireAsync(m, 1, b, X)
	settle()
	err := m.Acquire(2, a, X)
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("want deadlock, got %v", err)
	}
	if dl.Escalation {
		t.Error("plain hold-and-wait deadlock is not an escalation")
	}
	m.ReleaseAll(2)
	mustGrant(t, <-d1)
}

func TestThreeWayDeadlock(t *testing.T) {
	m := NewManager()
	a, b, c := InstanceRes(1), InstanceRes(2), InstanceRes(3)
	mustGrant(t, m.Acquire(1, a, X))
	mustGrant(t, m.Acquire(2, b, X))
	mustGrant(t, m.Acquire(3, c, X))

	d1 := acquireAsync(m, 1, b, X)
	settle()
	d2 := acquireAsync(m, 2, c, X)
	settle()
	err := m.Acquire(3, a, X) // closes the 3-cycle
	if !IsDeadlock(err) {
		t.Fatalf("want deadlock, got %v", err)
	}
	m.ReleaseAll(3)
	mustGrant(t, <-d2)
	m.ReleaseAll(2)
	mustGrant(t, <-d1)
}

// FIFO: once an X waiter queues, later S requests line up behind it even
// though they are compatible with the granted S — no reader starvation
// of writers.
func TestFIFONoStarvation(t *testing.T) {
	m := NewManager()
	res := InstanceRes(1)
	mustGrant(t, m.Acquire(1, res, S))
	dX := acquireAsync(m, 2, res, X)
	settle()
	dS := acquireAsync(m, 3, res, S)
	settle()
	select {
	case <-dS:
		t.Fatal("S jumped over queued X")
	default:
	}
	m.ReleaseAll(1)
	mustGrant(t, <-dX)
	m.ReleaseAll(2)
	mustGrant(t, <-dS)
}

func TestReleaseWakesBatch(t *testing.T) {
	m := NewManager()
	res := InstanceRes(1)
	mustGrant(t, m.Acquire(1, res, X))
	d2 := acquireAsync(m, 2, res, S)
	settle()
	d3 := acquireAsync(m, 3, res, S)
	settle()
	m.ReleaseAll(1)
	mustGrant(t, <-d2) // both compatible S waiters admitted together
	mustGrant(t, <-d3)
}

// A release that admits a waiter hands it the processor: on one
// processor the new holder has run by the time ReleaseAll returns,
// instead of waiting for the releaser to block or be preempted. The
// hand-off is a yield, which puts the releaser on the global run queue,
// and once every 61 scheduling rounds the scheduler serves that queue
// before its local one — so about one hand-off in 61 legitimately comes
// back to the releaser first. The test therefore counts misses over
// handOffRounds hand-offs and allows a quarter of them (a 1-in-61 event
// exceeds that with probability below 1e-10); without the yield every
// hand-off misses. Under -race the runtime randomizes which goroutine
// runs next (runtime.randomizeScheduler), so there the hand-off is only
// likely and is not asserted.
func TestReleaseHandsOffToWaiter(t *testing.T) {
	const handOffRounds = 40
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	m := NewManager()
	res := InstanceRes(1)
	misses := 0
	for r := 0; r < handOffRounds; r++ {
		holder, waiter := TxnID(2*r+1), TxnID(2*r+2)
		mustGrant(t, m.Acquire(holder, res, X))
		var ran atomic.Bool
		done := make(chan error, 1)
		go func() {
			err := m.Acquire(waiter, res, X)
			ran.Store(true)
			done <- err
		}()
		for m.Snapshot().Blocks == int64(r) {
			runtime.Gosched() // until the waiter is queued
		}
		m.ReleaseAll(holder)
		if !ran.Load() {
			misses++
		}
		mustGrant(t, <-done)
		m.ReleaseAll(waiter)
	}
	if misses*4 > handOffRounds && !raceEnabled {
		t.Errorf("the admitted waiter had not run when ReleaseAll returned in %d of %d hand-offs", misses, handOffRounds)
	}
}

func TestTimeout(t *testing.T) {
	m := NewManager()
	m.WaitTimeout = 30 * time.Millisecond
	res := InstanceRes(1)
	mustGrant(t, m.Acquire(1, res, X))
	err := m.Acquire(2, res, X)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want timeout, got %v", err)
	}
	if m.Snapshot().Timeouts != 1 {
		t.Errorf("Timeouts = %d", m.Snapshot().Timeouts)
	}
	// The timed-out waiter must be gone: release and verify a fresh
	// request is granted immediately.
	m.ReleaseAll(1)
	mustGrant(t, m.Acquire(3, res, X))
}

func TestMethodModesUseCommutativity(t *testing.T) {
	c, err := core.CompileSource(paperex.Figure1)
	if err != nil {
		t.Fatal(err)
	}
	tbl := c.Class("c2").Table
	mode := func(name string) MethodMode {
		return MethodMode{Table: tbl, Idx: tbl.ModeIndex(name)}
	}

	m := NewManager()
	res := InstanceRes(7)
	// m2 and m4 manipulate disjoint fields: the pseudo-conflict of
	// section 3 disappears — both lock the same instance concurrently.
	mustGrant(t, m.Acquire(1, res, mode("m2")))
	mustGrant(t, m.Acquire(2, res, mode("m4")))

	// m1 conflicts with m2 (both write f1).
	done := acquireAsync(m, 3, res, mode("m1"))
	settle()
	select {
	case <-done:
		t.Fatal("m1 must wait for m2")
	default:
	}
	m.ReleaseAll(1)
	m.ReleaseAll(2)
	mustGrant(t, <-done)
}

func TestClassModeSemantics(t *testing.T) {
	c, err := core.CompileSource(paperex.Figure1)
	if err != nil {
		t.Fatal(err)
	}
	tbl := c.Class("c2").Table
	intent := func(name string) ClassMode {
		return ClassMode{Table: tbl, Idx: tbl.ModeIndex(name), Hier: false}
	}
	hier := func(name string) ClassMode {
		return ClassMode{Table: tbl, Idx: tbl.ModeIndex(name), Hier: true}
	}

	// Intentional locks always coexist, even for conflicting modes.
	if !intent("m1").Compatible(intent("m2")) {
		t.Error("(m1,int) vs (m2,int) must be compatible")
	}
	// Section 5.2: T1 holds (m1,int), T2 asks (m1,hier) — m1 does not
	// commute with itself, so they conflict.
	if intent("m1").Compatible(hier("m1")) {
		t.Error("(m1,int) vs (m1,hier) must conflict")
	}
	// T3's (m3,int) coexists with T2's (m1,hier): m1/m3 commute.
	if !hier("m1").Compatible(intent("m3")) {
		t.Error("(m1,hier) vs (m3,int) must be compatible")
	}
	// Hier/hier by the table: (m3,hier) vs (m4,hier) commute; (m4,hier)
	// vs (m4,hier) conflict.
	if !hier("m3").Compatible(hier("m4")) {
		t.Error("(m3,hier) vs (m4,hier) must be compatible")
	}
	if hier("m4").Compatible(hier("m4")) {
		t.Error("(m4,hier) self-conflicts")
	}
}

func TestExtendModeSemantics(t *testing.T) {
	c, err := core.CompileSource(paperex.Figure1)
	if err != nil {
		t.Fatal(err)
	}
	tbl := c.Class("c2").Table
	ext := ExtendMode{}
	if !ext.Compatible(ExtendMode{}) {
		t.Error("two creations must coexist")
	}
	if !ext.Compatible(ClassMode{Table: tbl, Idx: 0, Hier: false}) {
		t.Error("creation vs intentional class lock must coexist")
	}
	if ext.Compatible(ClassMode{Table: tbl, Idx: 0, Hier: true}) {
		t.Error("creation vs hierarchical class lock must conflict")
	}
	if !ext.Compatible(IS) || !ext.Compatible(IX) {
		t.Error("creation vs IS/IX must coexist")
	}
	if ext.Compatible(S) || ext.Compatible(X) {
		t.Error("creation vs S/X must conflict")
	}
	if ext.Compatible(RWMode(99)) {
		t.Error("unknown RW mode must conflict")
	}
}

func TestRWMatrix(t *testing.T) {
	wantCompat := map[[2]RWMode]bool{
		{IS, IS}: true, {IS, IX}: true, {IS, S}: true, {IS, SIX}: true, {IS, X}: false,
		{IX, IX}: true, {IX, S}: false, {IX, SIX}: false, {IX, X}: false,
		{S, S}: true, {S, SIX}: false, {S, X}: false,
		{SIX, SIX}: false, {SIX, X}: false,
		{X, X}: false,
	}
	for pair, want := range wantCompat {
		if got := pair[0].Compatible(pair[1]); got != want {
			t.Errorf("%s/%s = %v, want %v", pair[0], pair[1], got, want)
		}
		if got := pair[1].Compatible(pair[0]); got != want {
			t.Errorf("%s/%s (sym) = %v, want %v", pair[1], pair[0], got, want)
		}
	}
}

func TestStrongerRW(t *testing.T) {
	if !StrongerRW(X, S) || !StrongerRW(SIX, IX) || !StrongerRW(S, IS) {
		t.Error("expected strength relations missing")
	}
	if StrongerRW(S, S) || StrongerRW(IS, X) {
		t.Error("bogus strength relations")
	}
}

func TestModeStrings(t *testing.T) {
	c, err := core.CompileSource(paperex.Figure1)
	if err != nil {
		t.Fatal(err)
	}
	tbl := c.Class("c2").Table
	mm := MethodMode{Table: tbl, Idx: tbl.ModeIndex("m3")}
	if mm.String() != "m3" {
		t.Errorf("MethodMode string = %s", mm)
	}
	cm := ClassMode{Table: tbl, Idx: tbl.ModeIndex("m1"), Hier: true}
	if cm.String() != "(m1,hier)" {
		t.Errorf("ClassMode string = %s", cm)
	}
	cm.Hier = false
	if cm.String() != "(m1,int)" {
		t.Errorf("ClassMode string = %s", cm)
	}
	if (ExtendMode{}).String() != "extend" {
		t.Error("extend string")
	}
	if S.String() != "S" || RWMode(42).String() != "RW(?)" {
		t.Error("RW strings")
	}
	if (MethodMode{}).String() != "method(?)" {
		t.Error("zero MethodMode string")
	}
}

// Mixed-kind mode comparisons fail closed.
func TestCrossKindModesConflict(t *testing.T) {
	c, err := core.CompileSource(paperex.Figure1)
	if err != nil {
		t.Fatal(err)
	}
	tbl := c.Class("c2").Table
	mm := MethodMode{Table: tbl, Idx: 0}
	cm := ClassMode{Table: tbl, Idx: 0}
	if mm.Compatible(S) || cm.Compatible(S) || S.Compatible(mm) {
		t.Error("cross-kind modes must conflict")
	}
	other := c.Class("c1").Table
	if (MethodMode{Table: tbl, Idx: 0}).Compatible(MethodMode{Table: other, Idx: 0}) {
		t.Error("different tables must conflict")
	}
}

// Stress: goroutines acquire random resources in ID order (no deadlocks
// possible), verifying mutual exclusion with a shadow counter per
// resource.
func TestStressMutualExclusion(t *testing.T) {
	m := NewManager()
	const (
		goroutines = 16
		resources  = 8
		rounds     = 200
	)
	owners := make([]atomic.Int64, resources)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				txn := TxnID(g*rounds + r + 1)
				a := (g + r) % resources
				b := (g*7 + r*3) % resources
				if a > b {
					a, b = b, a
				}
				if err := m.Acquire(txn, InstanceRes(uint64(a)), X); err != nil {
					t.Errorf("acquire a: %v", err)
					return
				}
				if b != a {
					if err := m.Acquire(txn, InstanceRes(uint64(b)), X); err != nil {
						t.Errorf("acquire b: %v", err)
						return
					}
				}
				// Critical section: verify exclusivity.
				if owners[a].Add(1) != 1 {
					t.Errorf("resource %d not exclusive", a)
				}
				owners[a].Add(-1)
				m.ReleaseAll(txn)
			}
		}(g)
	}
	wg.Wait()
	st := m.Snapshot()
	if st.Requests == 0 || st.Releases == 0 {
		t.Errorf("stats not recorded: %+v", st)
	}
}

// Stress with deliberately unordered acquisition: deadlocks happen and
// are detected; every victim retries with a fresh ID and eventually all
// goroutines finish (no lost wakeups, no stuck queue).
func TestStressDeadlockRecovery(t *testing.T) {
	m := NewManager()
	const goroutines = 8
	const rounds = 100
	var next atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for {
					txn := TxnID(next.Add(1))
					a := uint64((g + r) % 4)
					b := uint64((g + r + 1 + g%3) % 4)
					err := m.Acquire(txn, InstanceRes(a), X)
					if err == nil && b != a {
						err = m.Acquire(txn, InstanceRes(b), X)
					}
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
}

func TestResourceStrings(t *testing.T) {
	cases := map[string]ResourceID{
		"inst:5":     InstanceRes(5),
		"class:#1":   ClassRes(1),
		"rel:#2":     RelationRes(2),
		"tuple:#0/9": TupleRes(0, 9),
		"field:3.2":  FieldRes(3, 2),
	}
	for want, res := range cases {
		if got := res.String(); got != want {
			t.Errorf("%v = %q, want %q", res, got, want)
		}
	}
	for _, k := range []ResourceKind{KindInstance, KindClass, KindRelation, KindTuple, KindField} {
		if k.String() == "kind(?)" {
			t.Errorf("kind %d unnamed", k)
		}
	}
}

// --- Sharded-manager tests --------------------------------------------

// requireClean asserts the table is empty: no entries in any shard, no
// registered transaction states, no waits-for edges. Every storm test
// ends here — a leak means a lost wakeup or a forgotten release.
func requireClean(t *testing.T, m *Manager) {
	t.Helper()
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		if n := sh.table.len(); n != 0 {
			t.Errorf("shard %d: %d entries leaked", i, n)
		}
		sh.mu.Unlock()
	}
	for i := range m.stripes {
		st := &m.stripes[i]
		st.mu.Lock()
		if n := len(st.live); n != 0 {
			t.Errorf("stripe %d: %d txn states leaked", i, n)
		}
		st.mu.Unlock()
	}
	m.reg.mu.Lock()
	if n := len(m.reg.waiting); n != 0 {
		t.Errorf("%d waits-for edges leaked", n)
	}
	m.reg.mu.Unlock()
}

// requireStatsInvariants asserts the counter algebra every workload must
// satisfy: each Acquire is exactly one of re-entrant, immediate grant or
// block; deadlock victims are a subset of the blocked.
func requireStatsInvariants(t *testing.T, st Stats) {
	t.Helper()
	if st.Requests != st.Reentrant+st.ImmediateGrants+st.Blocks {
		t.Errorf("requests (%d) != reentrant (%d) + immediate (%d) + blocks (%d)",
			st.Requests, st.Reentrant, st.ImmediateGrants, st.Blocks)
	}
	if st.Deadlocks > st.Blocks {
		t.Errorf("deadlocks (%d) > blocks (%d)", st.Deadlocks, st.Blocks)
	}
	if st.EscalationDeadlocks > st.Deadlocks {
		t.Errorf("escalation deadlocks (%d) > deadlocks (%d)", st.EscalationDeadlocks, st.Deadlocks)
	}
}

func TestNewManagerShardsClamps(t *testing.T) {
	for _, c := range []struct{ in, want int }{
		{-1, 1}, {0, 1}, {1, 1}, {2, 2}, {3, 4}, {48, 64}, {64, 64}, {1000, 64},
	} {
		m := NewManagerShards(c.in)
		if len(m.shards) != c.want {
			t.Errorf("NewManagerShards(%d) = %d shards, want %d", c.in, len(m.shards), c.want)
		}
		if len(m.shards)&(len(m.shards)-1) != 0 {
			t.Errorf("NewManagerShards(%d) = %d shards, not a power of two", c.in, len(m.shards))
		}
	}
}

// distinctShardResources returns two instance resources that hash to
// different shards (they exist for any manager with ≥ 2 shards).
func distinctShardResources(t *testing.T, m *Manager) (ResourceID, ResourceID) {
	t.Helper()
	a := InstanceRes(1)
	sa := a.hash() & m.shardMask
	for oid := uint64(2); oid < 10_000; oid++ {
		b := InstanceRes(oid)
		if b.hash()&m.shardMask != sa {
			return a, b
		}
	}
	t.Fatal("no resource pair landed on distinct shards")
	return ResourceID{}, ResourceID{}
}

// Deadlock detection must see edges across shard boundaries: the cycle
// a→b spans two shard mutexes, and only the waits-for registry connects
// them.
func TestCrossShardDeadlock(t *testing.T) {
	m := NewManager()
	a, b := distinctShardResources(t, m)
	mustGrant(t, m.Acquire(1, a, X))
	mustGrant(t, m.Acquire(2, b, X))

	d1 := acquireAsync(m, 1, b, X)
	settle()
	err := m.Acquire(2, a, X)
	if !IsDeadlock(err) {
		t.Fatalf("want cross-shard deadlock, got %v", err)
	}
	m.ReleaseAll(2)
	mustGrant(t, <-d1)
	m.ReleaseAll(1)
	requireClean(t, m)
}

// The same deadlock shapes must hold on a single-shard table (the
// degenerate configuration equivalent to the old global-mutex manager).
func TestSingleShardDeadlock(t *testing.T) {
	m := NewManagerShards(1)
	a, b := InstanceRes(1), InstanceRes(2)
	mustGrant(t, m.Acquire(1, a, X))
	mustGrant(t, m.Acquire(2, b, X))
	d1 := acquireAsync(m, 1, b, X)
	settle()
	if err := m.Acquire(2, a, X); !IsDeadlock(err) {
		t.Fatalf("want deadlock, got %v", err)
	}
	m.ReleaseAll(2)
	mustGrant(t, <-d1)
	m.ReleaseAll(1)
	requireClean(t, m)
}

// Three transactions, three resources spread over shards, one cycle.
func TestCrossShardThreeWayDeadlock(t *testing.T) {
	m := NewManager()
	a, b := distinctShardResources(t, m)
	c := InstanceRes(77)
	mustGrant(t, m.Acquire(1, a, X))
	mustGrant(t, m.Acquire(2, b, X))
	mustGrant(t, m.Acquire(3, c, X))

	d1 := acquireAsync(m, 1, b, X)
	settle()
	d2 := acquireAsync(m, 2, c, X)
	settle()
	err := m.Acquire(3, a, X)
	if !IsDeadlock(err) {
		t.Fatalf("want deadlock, got %v", err)
	}
	m.ReleaseAll(3)
	mustGrant(t, <-d2)
	m.ReleaseAll(2)
	mustGrant(t, <-d1)
	m.ReleaseAll(1)
	requireClean(t, m)
}

// Storm: concurrent acquire/conversion/release across many resources
// and every shard, with deliberately unordered second acquisitions so
// deadlocks occur. Run under -race this exercises every cross-shard
// path: FIFO admission, conversion priority, victim removal, pooled
// waiters and states. Afterwards the stats must balance and the table
// must be empty.
func TestStressShardedStorm(t *testing.T) {
	for _, shards := range []int{1, 4, 64} {
		m := NewManagerShards(shards)
		const (
			goroutines = 12
			rounds     = 150
			resources  = 40
		)
		var next atomic.Uint64
		var releases atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					for {
						txn := TxnID(next.Add(1))
						a := uint64((g*13+r)%resources) + 1
						b := uint64((g*7+r*3)%resources) + 1
						err := m.Acquire(txn, InstanceRes(a), S)
						if err == nil && r%3 == 0 {
							// Conversion: S → X on the same resource.
							err = m.Acquire(txn, InstanceRes(a), X)
						}
						if err == nil && b != a {
							err = m.Acquire(txn, InstanceRes(b), X)
						}
						m.ReleaseAll(txn)
						releases.Add(1)
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
		st := m.Snapshot()
		requireStatsInvariants(t, st)
		if st.Releases != releases.Load() {
			t.Errorf("shards=%d: releases = %d, want %d", shards, st.Releases, releases.Load())
		}
		if st.Upgrades == 0 {
			t.Errorf("shards=%d: storm performed no conversions", shards)
		}
		requireClean(t, m)
	}
}

// Mutual exclusion stays intact when resources spread over every shard:
// a shadow counter per resource catches any double-grant of X.
func TestStressShardedMutualExclusion(t *testing.T) {
	m := NewManager()
	const (
		goroutines = 16
		resources  = 64
		rounds     = 150
	)
	owners := make([]atomic.Int64, resources)
	var next atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				txn := TxnID(next.Add(1))
				a := (g + r*5) % resources
				b := (g*11 + r) % resources
				if a > b {
					a, b = b, a
				}
				if err := m.Acquire(txn, InstanceRes(uint64(a+1)), X); err != nil {
					t.Errorf("acquire a: %v", err)
					return
				}
				if b != a {
					if err := m.Acquire(txn, InstanceRes(uint64(b+1)), X); err != nil {
						t.Errorf("acquire b: %v", err)
						return
					}
				}
				if owners[a].Add(1) != 1 {
					t.Errorf("resource %d not exclusive", a)
				}
				owners[a].Add(-1)
				m.ReleaseAll(txn)
			}
		}(g)
	}
	wg.Wait()
	st := m.Snapshot()
	requireStatsInvariants(t, st)
	if st.Deadlocks != 0 {
		t.Errorf("ordered acquisition must not deadlock: %d", st.Deadlocks)
	}
	requireClean(t, m)
}

// Readers and writers over a shared hot set: S grants share, X grants
// exclude, conversions jump the queue — all while ReleaseAll storms run
// from every worker. The test asserts completion (no lost wakeups) and
// the stats algebra.
func TestStressReadWriteMix(t *testing.T) {
	m := NewManager()
	const (
		goroutines = 10
		rounds     = 200
		resources  = 8
	)
	var next atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for {
					txn := TxnID(next.Add(1))
					res := InstanceRes(uint64((g+r)%resources) + 1)
					mode := Mode(S)
					if (g+r)%4 == 0 {
						mode = X
					}
					err := m.Acquire(txn, res, mode)
					runtime.Gosched() // hold the mode across a yield so peers collide
					if err == nil && mode == Mode(S) && r%5 == 0 {
						err = m.Acquire(txn, res, X) // escalation pressure
					}
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
	st := m.Snapshot()
	requireStatsInvariants(t, st)
	if st.Blocks == 0 {
		t.Error("hot-set mix must block sometimes")
	}
	requireClean(t, m)
}

// Resources must spread over shards, not pile onto a few: with 4096
// sequential OIDs and 64 shards, every shard should see some traffic.
func TestShardDistribution(t *testing.T) {
	m := NewManager()
	counts := make([]int, len(m.shards))
	const n = 4096
	for oid := uint64(1); oid <= n; oid++ {
		counts[InstanceRes(oid).hash()&m.shardMask]++
	}
	for i, c := range counts {
		if c == 0 {
			t.Errorf("shard %d got no resources", i)
		}
		if c > 4*n/len(m.shards) {
			t.Errorf("shard %d got %d of %d resources (poor spread)", i, c, n)
		}
	}
	// Class resources hash by interned ID.
	ca, cb := ClassRes(0), ClassRes(1)
	if ca.hash() == cb.hash() {
		t.Error("distinct class IDs must hash differently")
	}
	// Field and tuple granules must not collide with their instance.
	if InstanceRes(9).hash() == FieldRes(9, 0).hash() {
		t.Error("instance and field granule of one OID must hash differently")
	}
}

// A deadlock victim that held nothing must leave no state behind — the
// pooled txnState is reclaimed immediately, not at ReleaseAll.
func TestVictimWithoutLocksLeavesNoState(t *testing.T) {
	m := NewManager()
	res := InstanceRes(1)
	mustGrant(t, m.Acquire(1, res, S))
	mustGrant(t, m.Acquire(2, res, S))
	d1 := acquireAsync(m, 1, res, X)
	settle()
	err := m.Acquire(2, res, X)
	if !IsDeadlock(err) {
		t.Fatalf("want deadlock, got %v", err)
	}
	m.ReleaseAll(2)
	mustGrant(t, <-d1)
	m.ReleaseAll(1)
	requireClean(t, m)
}

// When the victim is the only transaction in the cycle waiting on a
// conversion, the deadlock must still be flagged as an escalation: the
// victim's own upgrade flag counts, not just its peers'.
func TestVictimOnlyUpgraderIsEscalation(t *testing.T) {
	m := NewManager()
	a, c := InstanceRes(1), InstanceRes(2)
	mustGrant(t, m.Acquire(1, a, S))
	mustGrant(t, m.Acquire(2, a, S))
	mustGrant(t, m.Acquire(2, c, X))

	d1 := acquireAsync(m, 1, c, S) // T1 waits plainly on T2's X(c)
	settle()
	err := m.Acquire(2, a, X) // T2's conversion closes the cycle: victim
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("want deadlock, got %v", err)
	}
	if !dl.Escalation {
		t.Error("victim-only conversion deadlock must be flagged as escalation")
	}
	if st := m.Snapshot(); st.EscalationDeadlocks != 1 {
		t.Errorf("EscalationDeadlocks = %d, want 1", st.EscalationDeadlocks)
	}
	m.ReleaseAll(2)
	mustGrant(t, <-d1)
	m.ReleaseAll(1)
	requireClean(t, m)
}
