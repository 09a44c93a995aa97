package oodb

import (
	"os"
	"path/filepath"
	"testing"
)

// Recovery bounds the OIDs a log may name by the checkpoint watermark
// plus what the log itself claims. A creation that aborts, retries or is
// still in flight at a crash allocates an OID without ever logging it;
// these tests check that a valid log written around such gaps reopens.

const noteSrc = `
class note is
    instance variables are
        n : integer
    method get is
        return n
    end
end
`

func openNotes(t *testing.T, dir string) *Database {
	t.Helper()
	schema, err := Compile(noteSrc)
	if err != nil {
		t.Fatal(err)
	}
	db, err := OpenWith(schema, Fine, Options{Dir: dir})
	if err != nil {
		t.Fatalf("open %s: %v", dir, err)
	}
	return db
}

// newNote commits one note holding n and returns its OID.
func newNote(t *testing.T, db *Database, n int64) OID {
	t.Helper()
	var oid OID
	if err := db.Update(func(tx *Txn) error {
		var err error
		oid, err = tx.New("note", n)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return oid
}

// abortNotes allocates k notes in transactions that abort.
func abortNotes(t *testing.T, db *Database, k int) {
	t.Helper()
	for range k {
		tx := db.Begin()
		if _, err := tx.New("note", int64(-1)); err != nil {
			t.Fatal(err)
		}
		tx.Abort()
	}
}

// wantNotes fails unless every note of want reads its value.
func wantNotes(t *testing.T, db *Database, want map[OID]int64) {
	t.Helper()
	if err := db.View(func(tx *Txn) error {
		for oid, n := range want {
			got, err := tx.Send(oid, "get")
			if err != nil {
				return err
			}
			if got != n {
				t.Errorf("note #%d = %v, want %d", oid, got, n)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// copyFiles copies the regular files of src into a new directory: a
// crash image of a database whose every acknowledged commit is fsynced.
func copyFiles(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// Ten aborted creations, then one committed: the committed record names
// OID 11 in a log that claims one op.
func TestRecoveryAbortedCreates(t *testing.T) {
	dir := t.TempDir()
	db := openNotes(t, dir)
	abortNotes(t, db, 10)
	want := map[OID]int64{newNote(t, db, 1): 1}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db = openNotes(t, dir)
	if got := db.Recovery().RecordsApplied; got != 1 {
		t.Fatalf("recovery applied %d records, want 1 (leases are not records)", got)
	}
	wantNotes(t, db, want)
	// And again after the reopened log has run into more gaps.
	abortNotes(t, db, 5000)
	want[newNote(t, db, 2)] = 2
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db = openNotes(t, dir)
	defer db.Close()
	if got := db.Recovery().RecordsApplied; got != 2 {
		t.Fatalf("second recovery applied %d records, want 2", got)
	}
	wantNotes(t, db, want)
}

// A creator still in flight when the crash image is cut holds an OID
// below the one a later transaction commits.
func TestRecoveryInFlightCreatorAtCrash(t *testing.T) {
	dir := t.TempDir()
	db := openNotes(t, dir)
	defer db.Close()
	inflight := db.Begin()
	if _, err := inflight.New("note", int64(-1)); err != nil {
		t.Fatal(err)
	}
	want := map[OID]int64{newNote(t, db, 7): 7}
	crash := copyFiles(t, dir)
	inflight.Abort()

	recovered := openNotes(t, crash)
	defer recovered.Close()
	if got := recovered.Recovery().RecordsApplied; got != 1 {
		t.Fatalf("recovery applied %d records, want 1", got)
	}
	wantNotes(t, recovered, want)
}

// The gaps straddle a checkpoint — aborted creations on both sides of a
// creator that commits after it — and the primary checkpoint is then
// lost: the full replay that falls back from it must stay within its
// budget too, also for the records logged after a reopen from the
// primary.
func TestRecoveryAbortedCreatesCheckpointFallback(t *testing.T) {
	dir := t.TempDir()
	db := openNotes(t, dir)
	want := map[OID]int64{newNote(t, db, 1): 1}
	abortNotes(t, db, 10)
	inflight := db.Begin()
	oid, err := inflight.New("note", int64(2))
	if err != nil {
		t.Fatal(err)
	}
	abortNotes(t, db, 10)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := inflight.Commit(); err != nil {
		t.Fatal(err)
	}
	want[oid] = 2
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db = openNotes(t, dir)
	if !db.Recovery().Checkpoint {
		t.Fatal("recovery did not load the checkpoint")
	}
	wantNotes(t, db, want)
	want[newNote(t, db, 3)] = 3
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	primary := filepath.Join(dir, "checkpoint")
	data, err := os.ReadFile(primary)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(primary, data, 0o644); err != nil {
		t.Fatal(err)
	}
	db = openNotes(t, dir)
	defer db.Close()
	if db.Recovery().Checkpoint {
		t.Fatal("recovery loaded the corrupt checkpoint")
	}
	wantNotes(t, db, want)
}
