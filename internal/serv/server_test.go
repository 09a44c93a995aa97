package serv_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serv"
	"repro/internal/workload"
	"repro/oodb"
	"repro/oodb/client"
)

// startServer opens a database over one of the builtin application
// schemas and serves it on a fresh unix socket.
func startServer(t *testing.T, schemaName string, o oodb.Options) (string, *oodb.Database, *serv.Server) {
	t.Helper()
	db := openDB(t, schemaName, o)
	sock := filepath.Join(t.TempDir(), "serv.sock")
	srv, err := serv.Listen(db, "unix", sock, serv.Config{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	return sock, db, srv
}

func openDB(t *testing.T, schemaName string, o oodb.Options) *oodb.Database {
	t.Helper()
	src, comm, err := workload.AppSchema(schemaName)
	if err != nil {
		t.Fatal(err)
	}
	var opts []oodb.Option
	for _, c := range comm {
		opts = append(opts, oodb.WithCommuting(c[0], c[1], c[2]))
	}
	schema, err := oodb.Compile(src, opts...)
	if err != nil {
		t.Fatal(err)
	}
	db, err := oodb.OpenWith(schema, oodb.Fine, o)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func dial(t *testing.T, addr string) *client.Client {
	t.Helper()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestServerEndToEnd(t *testing.T) {
	addr, db, srv := startServer(t, "banking", oodb.Options{})
	defer db.Close()
	defer srv.Close()
	c := dial(t, addr)
	ctx := context.Background()

	// One batch: create an account, deposit to it by intra-batch
	// reference, read the balance back.
	tx := client.NewTx()
	acct := tx.New("savings")
	tx.SendRef(acct, "deposit", int64(40))
	bal := tx.SendRef(acct, "getbalance")
	res, err := c.Do(ctx, tx)
	if err != nil {
		t.Fatal(err)
	}
	oid, err := res.OID(acct.Index())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Int(bal); got != 40 {
		t.Errorf("intra-batch balance %d, want 40", got)
	}

	// Separate transactions against the stored OID, including a
	// read-only view and a domain scan.
	if _, err := c.Do(ctx, client.NewTx().Reset()); err != nil {
		t.Fatal("empty batch:", err)
	}
	up := client.NewTx()
	up.Send(oid, "deposit", int64(2))
	if _, err := c.Do(ctx, up); err != nil {
		t.Fatal(err)
	}
	view := client.NewView()
	vb := view.Send(oid, "getbalance")
	vres, err := c.Do(ctx, view)
	if err != nil {
		t.Fatal(err)
	}
	if got := vres.Int(vb); got != 42 {
		t.Errorf("view balance %d, want 42", got)
	}
	scan := client.NewView()
	cnt := scan.Scan("savings", "getbalance", false)
	sres, err := c.Do(ctx, scan)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := sres.Count(cnt); err != nil || n != 1 {
		t.Errorf("scan count %d (err %v), want 1", n, err)
	}

	// Delete round trip, and the embedded view of the wire's work.
	del := client.NewTx()
	gone := del.New("checking")
	delTx := client.NewTx()
	dres, err := c.Do(ctx, del)
	if err != nil {
		t.Fatal(err)
	}
	goneOID, _ := dres.OID(gone.Index())
	delTx.Delete(goneOID)
	if _, err := c.Do(ctx, delTx); err != nil {
		t.Fatal(err)
	}
	if err := db.View(func(tx *oodb.Txn) error {
		out, err := tx.Send(oid, "getbalance")
		if err != nil {
			return err
		}
		if out != int64(42) {
			t.Errorf("embedded sees balance %v, want 42", out)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	if err := c.Ping(ctx); err != nil {
		t.Fatal("ping:", err)
	}
	stats, err := c.ServerStats(ctx)
	if err != nil || !strings.Contains(stats, "Requests") {
		t.Fatalf("stats %q (err %v)", stats, err)
	}
	if st := srv.Stats(); st.Txns < 4 || st.Views < 2 || st.ConnsActive != 1 {
		t.Errorf("server stats off: %+v", st)
	}
}

func TestServerErrorTaxonomy(t *testing.T) {
	addr, db, srv := startServer(t, "banking", oodb.Options{})
	defer db.Close()
	defer srv.Close()
	c := dial(t, addr)
	ctx := context.Background()

	var oid oodb.OID
	if err := db.Update(func(tx *oodb.Txn) error {
		var err error
		oid, err = tx.New("savings")
		return err
	}); err != nil {
		t.Fatal(err)
	}

	// A write inside a view crosses the wire as CodeSnapshotWrite and
	// satisfies the same predicate the embedded error does.
	bad := client.NewView()
	bad.Send(oid, "deposit", int64(1))
	if _, err := c.Do(ctx, bad); !oodb.IsSnapshotWrite(err) {
		t.Errorf("view write: got %v, want IsSnapshotWrite", err)
	}
	// The failure is per-request: the same batch fails identically when
	// replayed, and the connection stays usable.
	if _, err := c.Do(ctx, bad); !oodb.IsSnapshotWrite(err) {
		t.Errorf("view write replay: got %v, want IsSnapshotWrite", err)
	}

	// Unknown method and unknown OID: CodeOther, message preserved.
	miss := client.NewTx()
	miss.Send(oid, "nosuchmethod")
	_, err := c.Do(ctx, miss)
	if oodb.ErrorCode(err) != oodb.CodeOther || !strings.Contains(err.Error(), "nosuchmethod") {
		t.Errorf("unknown method: got %v", err)
	}
	ghost := client.NewTx()
	ghost.Send(oodb.OID(1<<40), "deposit", int64(1))
	if _, err := c.Do(ctx, ghost); oodb.ErrorCode(err) != oodb.CodeOther {
		t.Errorf("unknown OID: got %v", err)
	}

	// A deadline that expires in a server-side lock wait comes back as
	// CodeCanceled and satisfies IsCanceled — the context crossed the
	// wire as a deadline and was honored at the lock table.
	hold := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		db.Update(func(tx *oodb.Txn) error { //nolint:errcheck // holder txn
			if _, err := tx.Send(oid, "rename", "holder"); err != nil {
				return err
			}
			close(hold)
			<-release
			return nil
		})
	}()
	<-hold
	dctx, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
	blocked := client.NewTx()
	blocked.Send(oid, "rename", "wire")
	_, err = c.Do(dctx, blocked)
	cancel()
	close(release)
	wg.Wait()
	if !oodb.IsCanceled(err) {
		t.Errorf("deadline in lock wait: got %v, want IsCanceled", err)
	}
	if oodb.ErrorCode(err) != oodb.CodeCanceled {
		t.Errorf("deadline code %v, want CodeCanceled", oodb.ErrorCode(err))
	}
}

func TestServerPipelined(t *testing.T) {
	addr, db, srv := startServer(t, "banking", oodb.Options{})
	defer db.Close()
	defer srv.Close()
	c := dial(t, addr)
	ctx := context.Background()

	setup := client.NewTx()
	acct := setup.New("savings")
	sres, err := c.Do(ctx, setup)
	if err != nil {
		t.Fatal(err)
	}
	oid, _ := sres.OID(acct.Index())

	// Many updates in flight at once, with views interleaved: every
	// response must come back matched to its request, and the final
	// balance must count every acknowledged deposit.
	const n = 300
	pendings := make([]*client.Pending, 0, n)
	kinds := make([]bool, 0, n) // true = view
	txs := make([]*client.Tx, 0, n)
	for i := 0; i < n; i++ {
		if i%5 == 4 {
			v := client.NewView()
			v.Send(oid, "getbalance")
			p, err := c.Start(ctx, v)
			if err != nil {
				t.Fatal(err)
			}
			pendings, kinds, txs = append(pendings, p), append(kinds, true), append(txs, v)
			continue
		}
		u := client.NewTx()
		u.Send(oid, "deposit", int64(1))
		p, err := c.Start(ctx, u)
		if err != nil {
			t.Fatal(err)
		}
		pendings, kinds, txs = append(pendings, p), append(kinds, false), append(txs, u)
	}
	deposits := 0
	lastView := int64(-1)
	for i, p := range pendings {
		res, err := p.Wait()
		if err != nil {
			t.Fatalf("pending %d: %v", i, err)
		}
		if kinds[i] {
			// Responses resolve in request order on one connection, so
			// each view must see every deposit acknowledged before it.
			bal := res.Int(0)
			if bal < int64(deposits) || bal < lastView {
				t.Errorf("view %d saw balance %d after %d deposits (prev view %d)", i, bal, deposits, lastView)
			}
			lastView = bal
		} else {
			deposits++
		}
		_ = txs[i]
	}
	if deposits != n-n/5 {
		t.Fatalf("deposits %d, want %d", deposits, n-n/5)
	}
	final := client.NewView()
	fb := final.Send(oid, "getbalance")
	fres, err := c.Do(ctx, final)
	if err != nil {
		t.Fatal(err)
	}
	if got := fres.Int(fb); got != int64(deposits) {
		t.Errorf("final balance %d, want %d", got, deposits)
	}
}

func TestServerGracefulDrain(t *testing.T) {
	addr, db, srv := startServer(t, "banking", oodb.Options{})
	defer db.Close()
	c := dial(t, addr)
	ctx := context.Background()

	setup := client.NewTx()
	acct := setup.New("savings")
	sres, err := c.Do(ctx, setup)
	if err != nil {
		t.Fatal(err)
	}
	oid, _ := sres.OID(acct.Index())

	// Clients hammer while the server drains: every call either
	// succeeds or fails with a connection error; nothing hangs.
	var acked atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		cw := dial(t, addr)
		wg.Add(1)
		go func(cw *client.Client) {
			defer wg.Done()
			tx := client.NewTx()
			for {
				select {
				case <-stop:
					return
				default:
				}
				tx.Reset()
				tx.Send(oid, "deposit", int64(1))
				if _, err := cw.Do(ctx, tx); err != nil {
					return // connection cut by the drain: fine
				}
				acked.Add(1)
			}
		}(cw)
	}
	for acked.Load() < 50 {
		time.Sleep(time.Millisecond)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	close(stop)
	wg.Wait()

	// Every acknowledged deposit is in the database, and the drained
	// listener refuses new connections.
	if err := db.View(func(tx *oodb.Txn) error {
		out, err := tx.Send(oid, "getbalance")
		if err != nil {
			return err
		}
		if out.(int64) < acked.Load() {
			t.Errorf("balance %v < %d acked deposits", out, acked.Load())
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Dial(addr); err == nil {
		t.Error("dial succeeded after drain")
	}
}

func TestServerSurvivesGarbage(t *testing.T) {
	addr, db, srv := startServer(t, "banking", oodb.Options{})
	defer db.Close()
	defer srv.Close()

	// A connection that never completes the handshake.
	raw, err := net.Dial("unix", addr)
	if err != nil {
		t.Fatal(err)
	}
	raw.Write([]byte("GET / HTTP/1.1\r\n\r\n")) //nolint:errcheck
	raw.Close()

	// A handshaked connection that then sends a corrupt frame.
	raw2, err := net.Dial("unix", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := serv.WriteHandshake(raw2); err != nil {
		t.Fatal(err)
	}
	if err := serv.ReadHandshake(raw2); err != nil {
		t.Fatal(err)
	}
	raw2.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}) //nolint:errcheck
	buf := make([]byte, 16)
	raw2.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
	if _, err := raw2.Read(buf); err == nil {
		t.Error("server answered a garbage frame instead of closing")
	}
	raw2.Close()

	// The server is still healthy for well-behaved clients.
	c := dial(t, addr)
	if err := c.Ping(context.Background()); err != nil {
		t.Fatalf("ping after garbage: %v", err)
	}
}

// docSchema stores one string per instance, so a test can grow a
// request or a response past the frame bound.
const docSchema = `
class doc is
    instance variables are
        body : string
    method get is
        return body
    end
    method set(s) is
        body := s
    end
end
`

// TestOversizedFrameFailsAlone: a request or a response too large to
// frame fails that one request, not the connection — the requests
// pipelined beside it succeed and the client stays usable.
func TestOversizedFrameFailsAlone(t *testing.T) {
	schema, err := oodb.Compile(docSchema)
	if err != nil {
		t.Fatal(err)
	}
	db, err := oodb.OpenWith(schema, oodb.Fine, oodb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	sock := filepath.Join(t.TempDir(), "serv.sock")
	srv, err := serv.Listen(db, "unix", sock, serv.Config{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := client.Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() // before srv.Close, which drains this connection
	ctx := context.Background()

	create := client.NewTx()
	doc := create.New("doc", "")
	res, err := c.Do(ctx, create)
	if err != nil {
		t.Fatal(err)
	}
	oid, err := res.OID(doc.Index())
	if err != nil {
		t.Fatal(err)
	}
	set := func(s string) *client.Tx {
		tx := client.NewTx()
		tx.Send(oid, "set", s)
		return tx
	}
	get := func(n int) *client.Tx {
		tx := client.NewView()
		for i := 0; i < n; i++ {
			tx.Send(oid, "get")
		}
		return tx
	}
	half := strings.Repeat("x", serv.DefaultMaxFrame/2+1)

	// Request side: an argument over the bound fails its own Start and writes
	// nothing; the requests on either side of it go through.
	before, err := c.Start(ctx, set(half))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Start(ctx, set(half+half)); !errors.Is(err, serv.ErrBadFrame) {
		t.Fatalf("oversized request: got %v, want ErrBadFrame", err)
	}
	after, err := c.Start(ctx, get(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := before.Wait(); err != nil {
		t.Fatalf("request before the oversized one: %v", err)
	}
	if res, err := after.Wait(); err != nil {
		t.Fatalf("request after the oversized one: %v", err)
	} else if v, _ := res.Value(0); v != half {
		t.Fatalf("read back %d bytes, want %d", len(v.(string)), len(half))
	}

	// Response side: two halves in one response exceed the bound. That
	// request is answered with an error; its neighbours are not.
	p1, err := c.Start(ctx, get(1))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.Start(ctx, get(2))
	if err != nil {
		t.Fatal(err)
	}
	p3, err := c.Start(ctx, set("small"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p1.Wait(); err != nil {
		t.Fatalf("response before the oversized one: %v", err)
	}
	if _, err := p2.Wait(); oodb.ErrorCode(err) != oodb.CodeOther {
		t.Fatalf("oversized response: got %v, want a CodeOther error", err)
	}
	if _, err := p3.Wait(); err != nil {
		t.Fatalf("response after the oversized one: %v", err)
	}
	if err := c.Ping(ctx); err != nil {
		t.Fatalf("connection unusable after oversized frames: %v", err)
	}
	if got := srv.Stats().Errors; got != 1 {
		t.Errorf("server counted %d errors, want 1", got)
	}
}

// A peer that leaves while its response is being written takes that
// request out of the in-flight count with it. The response (1 MiB) is
// larger than the session's write buffer and the socket's, so the write
// itself fails rather than a later flush.
func TestServerInflightAfterPeerLeaves(t *testing.T) {
	schema, err := oodb.Compile(docSchema)
	if err != nil {
		t.Fatal(err)
	}
	db, err := oodb.Open(schema, oodb.Fine)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var oid oodb.OID
	if err := db.Update(func(tx *oodb.Txn) error {
		oid, err = tx.New("doc", strings.Repeat("x", 1<<20))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	sock := filepath.Join(t.TempDir(), "serv.sock")
	srv, err := serv.Listen(db, "unix", sock, serv.Config{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	raw, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	if err := serv.WriteHandshake(raw); err != nil {
		t.Fatal(err)
	}
	if err := serv.ReadHandshake(raw); err != nil {
		t.Fatal(err)
	}
	payload, err := serv.AppendRequest(nil, &serv.Request{ID: 1, Op: serv.OpTxn, Flags: serv.FlagView,
		Cmds: []serv.Cmd{{Kind: serv.CmdSend, Ref: -1, OID: uint64(oid), Method: "get"}}})
	if err != nil {
		t.Fatal(err)
	}
	var hdr [8]byte
	if err := serv.WriteFrame(raw, &hdr, payload); err != nil {
		t.Fatal(err)
	}
	raw.Close()

	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().ConnsActive != 0 {
		if time.Now().After(deadline) {
			t.Fatal("the session outlived its peer")
		}
		time.Sleep(time.Millisecond)
	}
	if st := srv.Stats(); st.Inflight != 0 || st.Requests != 1 {
		t.Fatalf("after the peer left: %d in flight of %d requests, want 0 of 1", st.Inflight, st.Requests)
	}
}

// goldenOps builds a deterministic workload over the named schema.
type goldenOp struct {
	objIdx int
	method string
	args   []any
}

func goldenWorkload(schemaName string, nObjs, nOps int) []goldenOp {
	rng := rand.New(rand.NewSource(7))
	var methods []func(i int) goldenOp
	switch schemaName {
	case "banking":
		methods = []func(i int) goldenOp{
			func(i int) goldenOp { return goldenOp{i, "deposit", []any{int64(rng.Intn(50) + 1)}} },
			func(i int) goldenOp { return goldenOp{i, "withdraw", []any{int64(rng.Intn(60) + 1)}} },
			func(i int) goldenOp { return goldenOp{i, "rename", []any{fmt.Sprintf("owner-%d", rng.Intn(9))}} },
			func(i int) goldenOp { return goldenOp{i, "getbalance", nil} },
		}
	case "cad":
		methods = []func(i int) goldenOp{
			func(i int) goldenOp { return goldenOp{i, "revise", []any{int64(rng.Intn(5) + 1)}} },
			func(i int) goldenOp { return goldenOp{i, "approve", nil} },
			func(i int) goldenOp { return goldenOp{i, "inspect", []any{int64(4)}} },
			func(i int) goldenOp { return goldenOp{i, "session", []any{int64(3)}} },
		}
	}
	ops := make([]goldenOp, 0, nOps)
	for i := 0; i < nOps; i++ {
		ops = append(ops, methods[rng.Intn(len(methods))](rng.Intn(nObjs)))
	}
	return ops
}

func goldenClasses(schemaName string) []string {
	if schemaName == "cad" {
		return []string{"part", "assembly"}
	}
	return []string{"savings", "checking"}
}

// dumpAll renders every object of the workload.
func dumpAll(t *testing.T, db *oodb.Database, oids []oodb.OID) string {
	t.Helper()
	var buf bytes.Buffer
	for _, oid := range oids {
		if err := db.DumpObject(&buf, oid); err != nil {
			t.Fatal(err)
		}
	}
	return buf.String()
}

// TestServerGoldenDifferential proves the wire path equivalent to the
// embedded path: the same deterministic workload, run embedded and run
// through a client batch per transaction, leaves byte-identical object
// dumps and byte-identical per-op results.
func TestServerGoldenDifferential(t *testing.T) {
	for _, schemaName := range []string{"banking", "cad"} {
		t.Run(schemaName, func(t *testing.T) {
			const nObjs, nOps = 8, 120
			classes := goldenClasses(schemaName)
			ops := goldenWorkload(schemaName, nObjs, nOps)

			// Embedded leg.
			edb := openDB(t, schemaName, oodb.Options{})
			defer edb.Close()
			var eOIDs []oodb.OID
			if err := edb.Update(func(tx *oodb.Txn) error {
				for i := 0; i < nObjs; i++ {
					oid, err := tx.New(classes[i%len(classes)])
					if err != nil {
						return err
					}
					eOIDs = append(eOIDs, oid)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			var eResults []any
			for _, op := range ops {
				if err := edb.Update(func(tx *oodb.Txn) error {
					out, err := tx.Send(eOIDs[op.objIdx], op.method, op.args...)
					if err != nil {
						return err
					}
					eResults = append(eResults, out)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}

			// Wire leg: same ops, one client batch per transaction.
			addr, wdb, srv := startServer(t, schemaName, oodb.Options{})
			defer wdb.Close()
			defer srv.Close()
			c := dial(t, addr)
			ctx := context.Background()
			setup := client.NewTx()
			refs := make([]client.Ref, nObjs)
			for i := 0; i < nObjs; i++ {
				refs[i] = setup.New(classes[i%len(classes)])
			}
			sres, err := c.Do(ctx, setup)
			if err != nil {
				t.Fatal(err)
			}
			wOIDs := make([]oodb.OID, nObjs)
			for i, r := range refs {
				if wOIDs[i], err = sres.OID(r.Index()); err != nil {
					t.Fatal(err)
				}
			}
			tx := client.NewTx()
			var wResults []any
			for _, op := range ops {
				tx.Reset()
				ri := tx.Send(wOIDs[op.objIdx], op.method, op.args...)
				res, err := c.Do(ctx, tx)
				if err != nil {
					t.Fatal(err)
				}
				out, err := res.Value(ri)
				if err != nil {
					t.Fatal(err)
				}
				wResults = append(wResults, out)
			}

			for i := range eResults {
				if eResults[i] != wResults[i] {
					t.Fatalf("op %d (%s): embedded %v, wire %v", i, ops[i].method, eResults[i], wResults[i])
				}
			}
			eDump, wDump := dumpAll(t, edb, eOIDs), dumpAll(t, wdb, wOIDs)
			if eDump != wDump {
				t.Errorf("dumps diverge:\nembedded:\n%s\nwire:\n%s", eDump, wDump)
			}
		})
	}
}

// TestServerKillMidPipelineDurability is the crash-window acceptance
// over the wire: deposits acknowledged to a pipelining client before
// the server is hard-killed must be present after the directory's WAL
// is recovered — the response only leaves the server after the group
// commit hardened the transaction.
func TestServerKillMidPipelineDurability(t *testing.T) {
	dir := t.TempDir()
	addr, db, srv := startServer(t, "banking", oodb.Options{Dir: dir})
	c := dial(t, addr)
	ctx := context.Background()

	setup := client.NewTx()
	acct := setup.New("savings")
	sres, err := c.Do(ctx, setup)
	if err != nil {
		t.Fatal(err)
	}
	oid, _ := sres.OID(acct.Index())

	// Pipeline deposits, counting acknowledgments as they resolve.
	var acked atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var window []*client.Pending
		for i := 0; i < 100000; i++ {
			tx := client.NewTx()
			tx.Send(oid, "deposit", int64(1))
			p, err := c.Start(ctx, tx)
			if err != nil {
				break // connection killed
			}
			window = append(window, p)
			if len(window) >= 32 {
				if _, err := window[0].Wait(); err != nil {
					break
				}
				acked.Add(1)
				window = window[1:]
			}
		}
		for _, p := range window {
			if _, err := p.Wait(); err == nil {
				acked.Add(1)
			}
		}
	}()
	for acked.Load() < 200 {
		time.Sleep(time.Millisecond)
	}

	// Copy the log out from under the live server — the moment of the
	// copy is the crash point; everything acked before it must be in
	// the copied bytes (the ack happened after the fsync). The tail may
	// be torn mid-record; recovery tolerates that.
	ackedAtCopy := acked.Load()
	crashDir := t.TempDir()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crashDir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	srv.Abort()
	wg.Wait()
	c.Close()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	rdb := openDB(t, "banking", oodb.Options{Dir: crashDir})
	defer rdb.Close()
	if err := rdb.View(func(tx *oodb.Txn) error {
		out, err := tx.Send(oid, "getbalance")
		if err != nil {
			return err
		}
		if out.(int64) < ackedAtCopy {
			t.Errorf("recovered balance %v < %d deposits acked before the copy", out, ackedAtCopy)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
