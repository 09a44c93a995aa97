package serv_test

import (
	"context"
	"testing"

	"repro/oodb"
	"repro/oodb/client"
)

// maxRoundTripAllocs bounds the heap objects one warm pipelined
// two-send transfer costs client and server together.
const maxRoundTripAllocs = 13

// TestServerRoundTripAllocs pins the allocation count of one warm,
// volatile, in-process pipelined transfer through oodb/client: the
// client's request and pending, the server's decode, execution on the
// engine's Value API, response encoding and the client's decode.
func TestServerRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts randomly under -race; exact alloc accounting needs an uninstrumented build")
	}
	addr, db, srv := startServer(t, "banking", oodb.Options{})
	defer db.Close()
	defer srv.Close()
	c := dial(t, addr)
	ctx := context.Background()

	setup := client.NewTx()
	a, b := setup.New("savings"), setup.New("checking")
	res, err := c.Do(ctx, setup)
	if err != nil {
		t.Fatal(err)
	}
	from, _ := res.OID(a.Index())
	to, _ := res.OID(b.Index())

	tx := client.NewTx()
	transfer := func() {
		tx.Reset()
		tx.Send(from, "withdraw", int64(1))
		tx.Send(to, "deposit", int64(1))
		p, err := c.Start(ctx, tx)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ { // warm the pools and buffers
		transfer()
	}
	if allocs := testing.AllocsPerRun(500, transfer); allocs > maxRoundTripAllocs {
		t.Errorf("warm pipelined wire transfer allocates %.2f objects, want at most %d", allocs, maxRoundTripAllocs)
	}
}
