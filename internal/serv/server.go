package serv

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bridge"
	"repro/internal/codec"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/oodb"
)

// Config tunes a Server beyond its listener.
type Config struct {
	// Logf, when non-nil, receives connection-level diagnostics
	// (handshake failures, protocol errors). The data path never logs.
	Logf func(format string, args ...any)
}

// Stats is a snapshot of the server's counters: typed reads of the
// cells the database's registry exports as favserv_* series under this
// server's listener label. The counters are cumulative; ConnsActive and
// Inflight are gauges.
type Stats struct {
	SessionsTotal int64 // connections accepted over the server's lifetime
	ConnsActive   int64 // sessions currently open
	Inflight      int64 // requests read but not yet responded to
	Requests      int64 // requests executed, all ops in one count
	Txns          int64 // OpTxn updates (pipelined + blocking)
	Views         int64 // OpTxn views
	Errors        int64 // requests answered with a non-OK status
}

// Server owns a listener and its sessions. One Server serves one
// Database; sessions run their batches on its engine directly, so a
// group-commit fsync amortizes across every connection with a commit in
// flight.
type Server struct {
	db  *engine.DB
	ln  net.Listener
	cfg Config

	mu       sync.Mutex
	sessions map[*session]struct{}
	closing  atomic.Bool
	acceptWG sync.WaitGroup
	sessWG   sync.WaitGroup

	sessionsTotal obs.Counter
	connsActive   atomic.Int64
	inflight      atomic.Int64
	requests      obs.Counter
	txns          obs.Counter
	views         obs.Counter
	errorsTotal   obs.Counter

	// Request-latency histograms per command type, registered on the
	// database's obs registry and sampled 1 in obs.SampleEvery.
	// For pipelined transactions the txn histogram measures through
	// sequencing (the client-visible dequeue-to-ack path adds the
	// durability wait).
	histTxn  *obs.Hist
	histView *obs.Hist
	histPing *obs.Hist
}

// Listen starts serving db on the given network address ("tcp",
// "unix") and returns once the listener is bound. Close performs a
// graceful drain.
func Listen(db *oodb.Database, network, addr string, cfg Config) (*Server, error) {
	ln, err := net.Listen(network, addr)
	if err != nil {
		return nil, err
	}
	return Serve(db, ln, cfg), nil
}

// Serve starts serving db on an already-bound listener. The server's
// series join db's metrics registry under the listener's address, so a
// database takes one server per address for its lifetime: serving it
// on an address it was served on before panics.
func Serve(db *oodb.Database, ln net.Listener, cfg Config) *Server {
	s := &Server{db: bridge.Engine(db), ln: ln, cfg: cfg, sessions: make(map[*session]struct{})}
	s.registerMetrics()
	s.acceptWG.Add(1)
	go s.acceptLoop()
	return s
}

// registerMetrics surfaces the serving layer through the database's
// observability registry: conn/session/inflight gauges, the Stats
// counters and per-command latency histograms, alongside the engine's
// own series. Every series carries a listener label, so two servers on
// one database export two sets.
func (s *Server) registerMetrics() {
	reg := s.db.Metrics()
	ln := obs.Labels("listener", s.ln.Addr().String())
	reg.GaugeFunc("favserv_conns_active", "open client sessions", ln, s.connsActive.Load)
	reg.GaugeFunc("favserv_inflight_requests", "requests read but not yet responded to", ln, s.inflight.Load)
	reg.RegisterCounter("favserv_sessions_total", "client sessions accepted", ln, &s.sessionsTotal)
	reg.RegisterCounter("favserv_requests_total", "requests executed", ln, &s.requests)
	reg.RegisterCounter("favserv_request_errors_total", "requests answered non-OK", ln, &s.errorsTotal)
	reg.RegisterCounter("favserv_txns_total", "update transactions executed (pipelined and blocking)", ln, &s.txns)
	reg.RegisterCounter("favserv_views_total", "read-only views executed", ln, &s.views)
	help := "server-side request latency (txn: through commit sequencing)"
	s.histTxn = reg.Histogram("favserv_request_seconds", help, ln+`,op="txn"`, true)
	s.histView = reg.Histogram("favserv_request_seconds", help, ln+`,op="view"`, true)
	s.histPing = reg.Histogram("favserv_request_seconds", help, ln+`,op="ping"`, true)
}

// Addr returns the bound listener address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Stats snapshots the server's counters.
func (s *Server) Stats() Stats {
	return Stats{
		SessionsTotal: s.sessionsTotal.Load(),
		ConnsActive:   s.connsActive.Load(),
		Inflight:      s.inflight.Load(),
		Requests:      s.requests.Load(),
		Txns:          s.txns.Load(),
		Views:         s.views.Load(),
		Errors:        s.errorsTotal.Load(),
	}
}

// Close drains gracefully: stop accepting, unblock every session's
// reader, finish executing and answering everything already received,
// then close the connections. It does not close the database — callers
// sequence `srv.Close(); db.Close()` so acked commits are flushed by
// the database's own close.
func (s *Server) Close() error {
	if !s.closing.CompareAndSwap(false, true) {
		return nil
	}
	err := s.ln.Close()
	s.acceptWG.Wait()
	s.mu.Lock()
	for sess := range s.sessions {
		// Cut the blocking read; anything already read keeps executing.
		sess.conn.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	s.sessWG.Wait()
	return err
}

// Abort closes the listener and every connection immediately, without
// draining. Crash-simulation tests use it; production uses Close.
func (s *Server) Abort() {
	s.closing.Store(true)
	s.ln.Close()
	s.acceptWG.Wait()
	s.mu.Lock()
	for sess := range s.sessions {
		sess.conn.Close()
	}
	s.mu.Unlock()
	s.sessWG.Wait()
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

func (s *Server) acceptLoop() {
	defer s.acceptWG.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if !s.closing.Load() {
				s.logf("serv: accept: %v", err)
			}
			return
		}
		if s.closing.Load() {
			conn.Close()
			return
		}
		sess := &session{
			srv:  s,
			conn: conn,
			out:  make(chan *pending, pipelineDepth),
		}
		sess.run = sess.runBatch
		s.mu.Lock()
		s.sessions[sess] = struct{}{}
		s.mu.Unlock()
		s.sessionsTotal.Add(1)
		s.connsActive.Add(1)
		s.sessWG.Add(2)
		go sess.readLoop()
		go sess.writeLoop()
	}
}

// pipelineDepth bounds responses queued between a session's reader and
// writer. Past it the reader stops consuming requests — natural
// backpressure on a client that pipelines faster than fsync drains.
const pipelineDepth = 256

// pending is one request's response en route to the writer: the
// already-encoded success payload and, for pipelined commits, the
// durability future the writer must resolve before the bytes may be
// acked to the client.
type pending struct {
	buf []byte
	id  uint64
	fut txn.Future // zero (resolved) unless a pipelined commit
}

// session is one client connection: a reader goroutine that decodes and
// executes requests in arrival order, and a writer goroutine that
// resolves durability futures and writes responses in the same order.
type session struct {
	srv  *Server
	conn net.Conn
	out  chan *pending

	// The reader's batch state: the request being executed, its
	// results and the OIDs its CmdNews created (for target references).
	// run is runBatch bound once, so executing a batch builds no closure.
	req     Request
	results []Result
	oids    []storage.OID
	run     func(*txn.Txn) error
}

func (sess *session) readLoop() {
	s := sess.srv
	defer func() {
		close(sess.out)
		s.mu.Lock()
		delete(s.sessions, sess)
		s.mu.Unlock()
		s.sessWG.Done()
	}()
	if err := ReadHandshake(sess.conn); err != nil {
		s.logf("serv: %v", err)
		return
	}
	if err := WriteHandshake(sess.conn); err != nil {
		return
	}
	br := bufio.NewReaderSize(sess.conn, 64<<10)
	var (
		buf []byte
		err error
	)
	for {
		buf, err = ReadFrame(br, DefaultMaxFrame, buf)
		if err != nil {
			if !s.closing.Load() && !isConnClosed(err) {
				s.logf("serv: read: %v", err)
			}
			return
		}
		if err := DecodeRequest(buf, &sess.req); err != nil {
			s.logf("serv: %v", err)
			return
		}
		s.inflight.Add(1)
		p := &pending{id: sess.req.ID}
		sess.execute(p)
		sess.out <- p
	}
}

func (sess *session) writeLoop() {
	s := sess.srv
	defer s.sessWG.Done()
	bw := bufio.NewWriterSize(sess.conn, 64<<10)
	var hdr [codec.HeaderSize]byte
	for p := range sess.out {
		if err := p.fut.Wait(); err != nil {
			// The commit was acked by the engine but the log went
			// fail-stop before hardening it: the client must not take
			// the response as durable.
			s.errorsTotal.Add(1)
			p.buf = appendErrResponse(p.buf[:0], p.id, err)
		}
		err := WriteFrame(bw, &hdr, p.buf)
		if errors.Is(err, ErrBadFrame) {
			// The response outgrew what a client reads: answer this one
			// request with an error instead and keep the connection.
			s.errorsTotal.Add(1)
			p.buf = appendErrResponse(p.buf[:0], p.id, err)
			err = WriteFrame(bw, &hdr, p.buf)
		}
		// Answered or not, this request is no longer in flight.
		s.inflight.Add(-1)
		if err == nil && len(sess.out) == 0 {
			err = bw.Flush()
		}
		if err != nil {
			sess.drainPendings()
			break
		}
	}
	bw.Flush()
	s.connsActive.Add(-1)
	sess.conn.Close()
}

// drainPendings consumes the rest of the out queue after a write
// failure, resolving futures so pooled commit tickets recycle.
func (sess *session) drainPendings() {
	for p := range sess.out {
		p.fut.Wait()
		sess.srv.inflight.Add(-1)
	}
}

func isConnClosed(err error) bool {
	return errors.Is(err, net.ErrClosed)
}

// appendErrResponse encodes a failure response carrying the error's
// taxonomy code, so the client reconstructs an error satisfying the
// same oodb.Is* predicates.
func appendErrResponse(b []byte, id uint64, err error) []byte {
	resp := Response{ID: id, Status: oodb.ErrorCode(err), Err: err.Error()}
	if resp.Status == oodb.CodeOK {
		resp.Status = oodb.CodeOther
	}
	b, _ = AppendResponse(b, &resp)
	return b
}

// execute runs the decoded sess.req and leaves the encoded response
// (or the pipelined future plus pre-encoded success response) on p.
func (sess *session) execute(p *pending) {
	s, req := sess.srv, &sess.req
	start := obs.SampleStart()
	s.requests.Add(1)
	switch req.Op {
	case OpPing:
		p.buf, _ = AppendResponse(p.buf[:0], &Response{ID: req.ID})
		s.histPing.Done(start)
		return
	case OpStats:
		js, err := json.Marshal(s.Stats())
		if err != nil {
			p.buf = appendErrResponse(p.buf[:0], req.ID, err)
			s.errorsTotal.Add(1)
			return
		}
		p.buf, _ = AppendResponse(p.buf[:0], &Response{ID: req.ID, Stats: string(js)})
		return
	case OpTxn:
	default:
		s.errorsTotal.Add(1)
		p.buf = appendErrResponse(p.buf[:0], req.ID, fmt.Errorf("serv: unknown op %d", req.Op))
		return
	}

	ctx := context.Background()
	if req.DeadlineMicro > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.DeadlineMicro)*time.Microsecond)
		defer cancel()
	}

	var err error
	hist := s.histTxn
	switch {
	case req.Flags&FlagView != 0:
		s.views.Add(1)
		hist = s.histView
		err = s.db.Txns.RunReadOnly(ctx, sess.run)
	case req.Flags&FlagBlocking != 0:
		s.txns.Add(1)
		err = s.db.Txns.RunWithRetry(ctx, sess.run)
	default:
		s.txns.Add(1)
		p.fut, err = s.db.Txns.RunWithRetryPipelined(ctx, sess.run)
	}
	hist.Done(start)
	if err == nil {
		p.buf, err = AppendResponse(p.buf[:0], &Response{ID: req.ID, Results: sess.results})
	}
	if err != nil {
		s.errorsTotal.Add(1)
		p.buf = appendErrResponse(p.buf[:0], req.ID, err)
	}
}

// runBatch executes sess.req's commands in tx on the engine's Value
// API. The batch may rerun after a deadlock abort: results and the
// created OIDs reset per attempt.
func (sess *session) runBatch(tx *txn.Txn) error {
	db := sess.srv.db
	sess.results, sess.oids = sess.results[:0], sess.oids[:0]
	for i := range sess.req.Cmds {
		c := &sess.req.Cmds[i]
		sess.oids = append(sess.oids, 0)
		res := Result{Kind: c.Kind}
		var err error
		switch c.Kind {
		case CmdSend:
			var oid storage.OID
			if oid, err = sess.target(c); err == nil {
				res.Val, err = db.Send(tx, oid, c.Method, c.Args...)
			}
		case CmdNew:
			var in *storage.Instance
			if in, err = db.NewInstance(tx, c.Class, c.Args...); err == nil {
				sess.oids[i] = in.OID
				res.OID = uint64(in.OID)
			}
		case CmdDelete:
			var oid storage.OID
			if oid, err = sess.target(c); err == nil {
				err = db.DeleteInstance(tx, oid)
			}
		case CmdScan:
			var n int
			n, err = db.DomainScan(tx, c.Class, c.Method, c.Hier, nil, c.Args...)
			res.Count = uint64(n)
		}
		if err != nil {
			return err
		}
		sess.results = append(sess.results, res)
	}
	return nil
}

// target resolves a command's receiver: a literal OID or the creation
// of an earlier command in the batch.
func (sess *session) target(c *Cmd) (storage.OID, error) {
	if c.Ref < 0 {
		return storage.OID(c.OID), nil
	}
	if c.Ref >= len(sess.oids) || sess.oids[c.Ref] == 0 {
		return 0, fmt.Errorf("serv: command references command %d, which created nothing", c.Ref)
	}
	return sess.oids[c.Ref], nil
}
