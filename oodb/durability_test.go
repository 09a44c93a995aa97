package oodb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// The oodb-level durability suite exercises the public API end to end:
// OpenWith(..., Options{Dir: dir}) → workload → Close → reopen recovers, plus
// the fault-injection paths (kill after N bytes, torn final record,
// double replay) the ISSUE requires.

const bankingSrc = `
class account is
    instance variables are
        number  : integer
        owner   : string
        balance : integer
        flagged : boolean
    method deposit(n) is
        balance := balance + n
    end
    method withdraw(n) is
        if n <= balance then
            balance := balance - n
        end
        return balance
    end
    method getbalance is
        return balance
    end
    method rename(who) is
        owner := who
    end
end

class savings inherits account is
    instance variables are
        ratepct : integer
    method accrue is
        send deposit(balance * ratepct / 100) to self
    end
end

class checking inherits account is
    instance variables are
        overdraft : integer
    method withdraw(n) is redefined as
        if n <= balance + overdraft then
            balance := balance - n
        end
        return balance
    end
end
`

const cadSrc = `
class part is
    instance variables are
        partno   : integer
        geometry : integer
        revision : integer
        checked  : boolean
    method inspect(work) is
        var i := 0
        var acc := 0
        while i < work do
            i := i + 1
            acc := acc + geometry * i
        end
        return acc
    end
    method revise(delta) is
        geometry := geometry + delta
        revision := revision + 1
        checked := false
    end
    method approve is
        checked := true
    end
end

class assembly inherits part is
    instance variables are
        children : integer
    method addchild is
        children := children + 1
    end
end
`

// dumpAll renders every OID in [1, maxOID] (or its absence) so two
// databases can be diffed byte-for-byte.
func dumpAll(t *testing.T, db *Database, maxOID OID) string {
	t.Helper()
	var buf bytes.Buffer
	for oid := OID(1); oid <= maxOID; oid++ {
		if err := db.DumpObject(&buf, oid); err != nil {
			fmt.Fprintf(&buf, "#%d: absent\n", oid)
		}
	}
	return buf.String()
}

// runGoldenWorkload drives the same deterministic op mix against each
// database in dbs (a durable one and its volatile mirror).
func runGoldenWorkload(t *testing.T, seed int64, dbs ...*Database) OID {
	t.Helper()
	var maxOID OID
	for _, db := range dbs {
		rng := rand.New(rand.NewSource(seed))
		var accounts []OID
		err := db.Update(func(tx *Txn) error {
			for i := 0; i < 12; i++ {
				cls := "savings"
				if i%2 == 1 {
					cls = "checking"
				}
				oid, err := tx.New(cls, int64(1000+i), fmt.Sprintf("owner-%d", i), int64(100))
				if err != nil {
					return err
				}
				accounts = append(accounts, oid)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for op := 0; op < 200; op++ {
			oid := accounts[rng.Intn(len(accounts))]
			err := db.Update(func(tx *Txn) error {
				switch rng.Intn(4) {
				case 0:
					_, err := tx.Send(oid, "deposit", int64(rng.Intn(50)))
					return err
				case 1:
					_, err := tx.Send(oid, "withdraw", int64(rng.Intn(80)))
					return err
				case 2:
					_, err := tx.Send(oid, "rename", fmt.Sprintf("holder-%d", op))
					return err
				default:
					_, err := tx.ScanSend("account", "getbalance", false)
					return err
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		// Churn: delete one account, abort a delete of another.
		if err := db.Update(func(tx *Txn) error { return tx.Delete(accounts[2]) }); err != nil {
			t.Fatal(err)
		}
		tx := db.Begin()
		if err := tx.Delete(accounts[4]); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Send(accounts[5], "deposit", int64(1_000_000)); err != nil {
			t.Fatal(err)
		}
		tx.Abort()
		maxOID = accounts[len(accounts)-1]
	}
	return maxOID
}

// The golden recovery test: a durable database and a volatile mirror
// run the identical banking workload; after close + crash recovery the
// durable one's objects are byte-identical to the mirror's.
func TestRecoveryGoldenBanking(t *testing.T) {
	schema, err := Compile(bankingSrc, WithCommuting("account", "deposit", "deposit"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	durable, err := OpenWith(schema, Fine, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	mirror, err := Open(schema, Fine)
	if err != nil {
		t.Fatal(err)
	}
	maxOID := runGoldenWorkload(t, 7, durable, mirror)
	want := dumpAll(t, durable, maxOID)
	if got := dumpAll(t, mirror, maxOID); got != want {
		t.Fatalf("mirror diverged from durable before close:\n%s\nvs\n%s", got, want)
	}
	if err := durable.Close(); err != nil {
		t.Fatal(err)
	}
	recovered, err := OpenWith(schema, Fine, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if got := dumpAll(t, recovered, maxOID); got != want {
		t.Fatalf("recovered state differs from live state:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if recovered.Recovery().RecordsApplied == 0 {
		t.Fatal("recovery applied no records")
	}
}

// Same golden discipline on the CAD example, with a checkpoint in the
// middle so recovery exercises checkpoint + log tail through the
// public API.
func TestRecoveryGoldenCAD(t *testing.T) {
	schema, err := Compile(cadSrc)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	durable, err := OpenWith(schema, Fine, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	mirror, err := Open(schema, Fine)
	if err != nil {
		t.Fatal(err)
	}
	var maxOID OID
	for _, db := range []*Database{durable, mirror} {
		var parts []OID
		if err := db.Update(func(tx *Txn) error {
			for i := 0; i < 10; i++ {
				cls := "part"
				if i%3 == 0 {
					cls = "assembly"
				}
				oid, err := tx.New(cls, int64(i), int64(50+i))
				if err != nil {
					return err
				}
				parts = append(parts, oid)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for op := 0; op < 60; op++ {
			oid := parts[op%len(parts)]
			if err := db.Update(func(tx *Txn) error {
				if _, err := tx.Send(oid, "revise", int64(op%5)); err != nil {
					return err
				}
				_, err := tx.Send(oid, "approve")
				return err
			}); err != nil {
				t.Fatal(err)
			}
			if op == 30 {
				if err := db.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
		}
		maxOID = parts[len(parts)-1]
	}
	want := dumpAll(t, durable, maxOID)
	if err := durable.Close(); err != nil {
		t.Fatal(err)
	}
	recovered, err := OpenWith(schema, Fine, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if !recovered.Recovery().Checkpoint {
		t.Fatal("recovery did not load the checkpoint")
	}
	if got := dumpAll(t, recovered, maxOID); got != want {
		t.Fatalf("recovered CAD state differs:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// Crash simulation through the public API: the log is cut at every
// record boundary and at torn mid-record positions; every recovery
// yields exactly the committed prefix — all-or-nothing per transaction,
// proven by a two-field invariant written in one method.
func TestRecoveryPublicAPICrashAtBoundaries(t *testing.T) {
	const pairSrc = `
class pair is
    instance variables are
        a : integer
        b : integer
    method setpair(n) is
        a := n
        b := n
    end
    method geta is
        return a
    end
    method getb is
        return b
    end
end
`
	schema, err := Compile(pairSrc)
	if err != nil {
		t.Fatal(err)
	}
	srcDir := t.TempDir()
	db, err := OpenWith(schema, Fine, Options{Dir: srcDir})
	if err != nil {
		t.Fatal(err)
	}
	const nPairs = 4
	var pairs []OID
	if err := db.Update(func(tx *Txn) error {
		for i := 0; i < nPairs; i++ {
			oid, err := tx.New("pair")
			if err != nil {
				return err
			}
			pairs = append(pairs, oid)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 20; i++ {
		oid := pairs[i%nPairs]
		if err := db.Update(func(tx *Txn) error {
			_, err := tx.Send(oid, "setpair", int64(i))
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	segName := "wal-000001.log"
	data, err := os.ReadFile(filepath.Join(srcDir, segName))
	if err != nil {
		t.Fatal(err)
	}
	// Record boundaries from the frame headers (u32 len + u32 crc).
	bounds := []int64{0}
	for pos := int64(0); pos < int64(len(data)); {
		size := binary.LittleEndian.Uint32(data[pos:])
		pos += 8 + int64(size)
		bounds = append(bounds, pos)
	}
	cuts := append([]int64{}, bounds...)
	for _, b := range bounds[1:] {
		cuts = append(cuts, b-3) // torn mid-record
	}
	for _, cut := range cuts {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		crashed, err := OpenWith(schema, Fine, Options{Dir: dir})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		complete := 0
		for complete+1 < len(bounds) && bounds[complete+1] <= cut {
			complete++
		}
		if got := crashed.Recovery().RecordsApplied; got != int64(complete) {
			t.Fatalf("cut %d: applied %d records, want %d", cut, got, complete)
		}
		// Transaction atomicity: both fields of every pair always agree,
		// whatever prefix survived.
		if err := crashed.Update(func(tx *Txn) error {
			for _, oid := range pairs {
				if complete == 0 {
					break // creates not recovered: instances absent
				}
				a, err := tx.Send(oid, "geta")
				if err != nil {
					return err
				}
				b, err := tx.Send(oid, "getb")
				if err != nil {
					return err
				}
				if a != b {
					t.Errorf("cut %d: pair %d torn: a=%v b=%v", cut, oid, a, b)
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if err := crashed.Close(); err != nil {
			t.Fatal(err)
		}
		// Recover the same directory again: double replay is a no-op.
		again, err := OpenWith(schema, Fine, Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if got := again.Recovery().RecordsApplied; got != int64(complete) {
			t.Fatalf("cut %d: second recovery applied %d records, want %d", cut, got, complete)
		}
		if complete > 0 {
			want := dumpAll(t, crashed, pairs[len(pairs)-1])
			if got := dumpAll(t, again, pairs[len(pairs)-1]); got != want {
				t.Fatalf("cut %d: double replay diverged", cut)
			}
		}
		again.Close()
	}
}

// Durable throughput under concurrency through the public API: many
// goroutines commit concurrently, everything acknowledged survives.
func TestRecoveryConcurrentCommitsSurvive(t *testing.T) {
	schema, err := Compile(bankingSrc, WithCommuting("account", "deposit", "deposit"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	db, err := OpenWith(schema, Fine, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var acct OID
	if err := db.Update(func(tx *Txn) error {
		var err error
		acct, err = tx.New("savings", int64(1), "shared", int64(0))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const depositsEach = 25
	done := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			for i := 0; i < depositsEach; i++ {
				if err := db.Update(func(tx *Txn) error {
					_, err := tx.Send(acct, "deposit", int64(1))
					return err
				}); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	recovered, err := OpenWith(schema, Fine, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	var got any
	if err := recovered.Update(func(tx *Txn) error {
		var err error
		got, err = tx.Send(acct, "getbalance")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got != int64(workers*depositsEach) {
		t.Fatalf("recovered balance %v, want %d", got, workers*depositsEach)
	}
}

// UpdateAsync through the public API: pipelined sessions, futures
// resolve durable, and a golden diff against a volatile mirror after
// recovery — plus the everysec policy, whose Close hardens the tail.
func TestRecoveryUpdateAsyncGolden(t *testing.T) {
	schema, err := Compile(bankingSrc, WithCommuting("account", "deposit", "deposit"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	durable, err := OpenWith(schema, Fine, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	mirror, err := Open(schema, Fine)
	if err != nil {
		t.Fatal(err)
	}
	var accounts []OID
	for _, db := range []*Database{durable, mirror} {
		accts := []OID{}
		if err := db.Update(func(tx *Txn) error {
			for i := 0; i < 8; i++ {
				oid, err := tx.New("savings", int64(i), fmt.Sprintf("o%d", i), int64(50))
				if err != nil {
					return err
				}
				accts = append(accts, oid)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		accounts = accts
	}
	var futures []Future
	for op := 0; op < 150; op++ {
		oid := accounts[op%len(accounts)]
		amount := int64(op % 13)
		fut, err := durable.UpdateAsync(func(tx *Txn) error {
			_, err := tx.Send(oid, "deposit", amount)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		futures = append(futures, fut)
		if err := mirror.Update(func(tx *Txn) error {
			_, err := tx.Send(oid, "deposit", amount)
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := durable.Sync(); err != nil {
		t.Fatal(err)
	}
	for i, fut := range futures {
		if err := fut.Wait(); err != nil {
			t.Fatalf("future %d: %v", i, err)
		}
	}
	var zero Future
	if err := zero.Wait(); err != nil {
		t.Fatalf("zero Future: %v", err)
	}
	if err := durable.Close(); err != nil {
		t.Fatal(err)
	}
	recovered, err := OpenWith(schema, Fine, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	maxOID := accounts[len(accounts)-1]
	if got, want := dumpAll(t, recovered, maxOID), dumpAll(t, mirror, maxOID); got != want {
		t.Fatalf("UpdateAsync recovery diverged:\n%s\nvs\n%s", got, want)
	}
}

// The everysec sync policy through the public API: commits are
// acknowledged without a per-batch fsync, Close hardens the tail, and
// everything acknowledged before a clean Close recovers.
func TestRecoverySyncEveryPolicy(t *testing.T) {
	schema, err := Compile(bankingSrc, WithCommuting("account", "deposit", "deposit"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	db, err := OpenWith(schema, Fine, Options{Dir: dir, Sync: SyncEvery(100 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	var oid OID
	if err := db.Update(func(tx *Txn) error {
		var err error
		oid, err = tx.New("savings", int64(1), "eve", int64(10))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := db.Update(func(tx *Txn) error {
			_, err := tx.Send(oid, "deposit", int64(1))
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	recovered, err := OpenWith(schema, Fine, Options{Dir: dir, Sync: SyncEvery(100 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	var buf bytes.Buffer
	if err := recovered.DumpObject(&buf, oid); err != nil {
		t.Fatal(err)
	}
	if want := "balance: 50"; !strings.Contains(buf.String(), want) {
		t.Fatalf("recovered object %q, want %q", buf.String(), want)
	}
}

// TestRecoveryAutoCheckpoint: with a small CheckpointEveryBytes the log
// checkpoints itself beside the commits, culls the segments no fallback
// needs any more, and recovers the state it had at close.
func TestRecoveryAutoCheckpoint(t *testing.T) {
	schema, err := Compile(bankingSrc, WithCommuting("account", "deposit", "deposit"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opts := Options{Dir: dir, CheckpointEveryBytes: 512}
	db, err := OpenWith(schema, Fine, opts)
	if err != nil {
		t.Fatal(err)
	}
	maxOID := runGoldenWorkload(t, 11, db)
	// Auto-checkpoints run in the background. Keep committing until a
	// third has finished: the second one culled the first one's tail.
	for deadline := time.Now().Add(10 * time.Second); db.Stats().WALCheckpoints < 3; {
		if time.Now().After(deadline) {
			t.Fatalf("%d auto-checkpoints, want 3", db.Stats().WALCheckpoints)
		}
		if err := db.Update(func(tx *Txn) error {
			_, err := tx.Send(maxOID, "deposit", int64(1))
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "wal-000001.log")); !os.IsNotExist(err) {
		t.Errorf("segment 1 not culled (stat: %v)", err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	var last int
	if _, err := fmt.Sscanf(filepath.Base(segs[len(segs)-1]), "wal-%d.log", &last); err != nil {
		t.Fatal(err)
	}
	if len(segs) >= last {
		t.Errorf("%d segments on disk up to segment %d: none culled", len(segs), last)
	}
	want := dumpAll(t, db, maxOID)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	recovered, err := OpenWith(schema, Fine, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if !recovered.Recovery().Checkpoint {
		t.Error("recovery loaded no checkpoint")
	}
	if got := dumpAll(t, recovered, maxOID); got != want {
		t.Fatalf("recovered state differs from live state:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
