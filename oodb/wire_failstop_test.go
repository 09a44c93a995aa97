package oodb_test

import (
	"context"
	"path/filepath"
	"testing"

	"repro/internal/serv"
	"repro/internal/wal"
	"repro/oodb"
	"repro/oodb/client"
)

// A pipelined commit whose fsync fails reaches the wire client as an
// IsReadOnly error, and the server counts that answer as an error.
func TestWireFailedDurabilityAckIsCountedError(t *testing.T) {
	schema, err := oodb.Compile(`
class account is
    instance variables are
        balance : integer
    method deposit(n) is
        balance := balance + n
    end
end
`)
	if err != nil {
		t.Fatal(err)
	}
	// transfer serves a fresh durable database over fs and runs one
	// pipelined batch through the wire. It returns the server's error
	// count, the FS op count once the server was listening, and the
	// batch's outcome.
	transfer := func(fs *wal.FaultFS) (errs, opened int64, err error) {
		dir := t.TempDir()
		db, err := oodb.OpenOnFS(schema, oodb.Fine, oodb.Options{Dir: dir}, fs)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		srv, err := serv.Listen(db, "unix", filepath.Join(dir, "s.sock"), serv.Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		opened = fs.Ops()
		c, err := client.Dial(filepath.Join(dir, "s.sock"))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		tx := client.NewTx()
		tx.SendRef(tx.New("account", int64(100)), "deposit", int64(1))
		_, err = c.Do(context.Background(), tx)
		return srv.Stats().Errors, opened, err
	}

	// Reference run: no fault. The first fsync after the server started
	// hardens the batch's commit.
	ref := wal.NewFaultFS(nil, wal.FaultPlan{FailAt: -1})
	errs, opened, err := transfer(ref)
	if err != nil || errs != 0 {
		t.Fatalf("reference run: err %v, server errors %d", err, errs)
	}
	failAt := int64(-1)
	for i, k := range ref.Trace()[opened:] {
		if k == wal.KindSync {
			failAt = opened + int64(i)
			break
		}
	}
	if failAt < 0 {
		t.Fatal("reference run never fsynced the commit")
	}

	errs, _, err = transfer(wal.NewFaultFS(nil, wal.FaultPlan{FailAt: failAt, Class: wal.FaultErr}))
	if !oodb.IsReadOnly(err) {
		t.Errorf("failed fsync answered %v, want an IsReadOnly error", err)
	}
	if errs < 1 {
		t.Errorf("server counted %d errors for a failed durability ack, want at least 1", errs)
	}
}
