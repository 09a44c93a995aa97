package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/engine"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/wal"
)

func TestCrashImageDropsUnflushedTail(t *testing.T) {
	src, dst := filepath.Join(t.TempDir(), "db"), filepath.Join(t.TempDir(), "image")
	fs := newFlushFS()
	if err := fs.MkdirAll(src, 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := fs.OpenFile(filepath.Join(src, "log"), os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(make([]byte, 100))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Write(make([]byte, 50)) // acknowledged by the OS, never flushed
	if w, s := fs.Totals(); w != 150 || s != 100 {
		t.Fatalf("written %d flushed %d, want 150 and 100", w, s)
	}
	kept, dropped, err := fs.CrashImage(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if kept != 100 || dropped != 50 {
		t.Fatalf("kept %d dropped %d, want 100 and 50", kept, dropped)
	}
	fi, err := os.Stat(filepath.Join(dst, "log"))
	if err != nil || fi.Size() != 100 {
		t.Fatalf("image file: %v, size %d, want 100", err, fi.Size())
	}
	// A truncation below the flushed length lowers it; a rename keeps it.
	if err := f.Truncate(40); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := fs.Rename(filepath.Join(src, "log"), filepath.Join(src, "log2")); err != nil {
		t.Fatal(err)
	}
	if w, s := fs.Totals(); w != 40 || s != 40 {
		t.Fatalf("after truncate+rename: written %d flushed %d, want 40 and 40", w, s)
	}
}

// TestLostAckIsCaught runs the restart workload's durability check
// against a log that acknowledges before it flushes (wal.SyncNever):
// the crash image lacks the acknowledged commits and the check says so.
// Under the default policy the same steps pass.
func TestLostAckIsCaught(t *testing.T) {
	for _, c := range []struct {
		name     string
		sync     wal.SyncPolicy
		wantLost bool
	}{{"sync-always", wal.SyncAlways, false}, {"sync-never", wal.SyncNever, true}} {
		t.Run(c.name, func(t *testing.T) {
			compiled, err := compileCore()
			if err != nil {
				t.Fatal(err)
			}
			dir, fs := filepath.Join(t.TempDir(), "db"), newFlushFS()
			db, err := engine.OpenWithOptions(compiled, engine.Options{Strategy: engine.FineCC{}, Durable: true, Dir: dir, FS: fs, Sync: c.sync})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			counters, err := preloadEngine(db, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := db.Sync(); err != nil { // the counter itself is on disk
				t.Fatal(err)
			}
			deposit, _ := db.MethodID("deposit")
			const commits = 100
			for i := 0; i < commits; i++ {
				err := db.RunWithRetry(func(tx *txn.Txn) error {
					_, err := db.SendID(tx, counters[0], deposit, storage.IntV(1))
					return err
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			// Every commit above was acknowledged. Crash now.
			image := filepath.Join(t.TempDir(), "image")
			if _, _, err := fs.CrashImage(dir, image); err != nil {
				t.Fatal(err)
			}
			rec, err := openRestart(compiled, image, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer rec.Close()
			in, ok := rec.Store.Get(counters[0])
			if !ok {
				t.Fatal("counter account missing from the recovered image")
			}
			err = checkAckedDurable(0, in.Get(balanceSlot).I, commits, commits)
			if lost := err != nil; lost != c.wantLost {
				t.Fatalf("recovered %d of %d acknowledged commits; check returned %v", in.Get(balanceSlot).I, commits, err)
			}
		})
	}
}
