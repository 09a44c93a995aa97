// Package client is the Go client of the favserv wire protocol: a
// connection-per-Client, pipelining network API whose transactions are
// command batches executed server-side under the same retry/commit
// machinery as the embedded API.
//
// The two shapes:
//
//	c, err := client.Dial("/run/favserv.sock") // or "host:6422"
//	tx := client.NewTx()
//	acct := tx.New("account", int64(100))
//	dep := tx.Send(acct.Ref(), "deposit", int64(10))
//	res, err := c.Do(ctx, tx)               // one round trip
//	balance, _ := res.Value(dep)
//
// and pipelined — many transactions in flight on one connection, each
// acknowledged (durably, under full sync) in order:
//
//	p1, _ := c.Start(ctx, tx1)
//	p2, _ := c.Start(ctx, tx2)
//	res1, err1 := p1.Wait()
//	res2, err2 := p2.Wait()
//
// Errors carry the server's taxonomy code losslessly: a deadlock on the
// server satisfies oodb.IsDeadlock here, a snapshot-write violation
// oodb.IsSnapshotWrite, a deadline expiry oodb.IsCanceled, and so on.
package client

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serv"
	"repro/internal/storage"
	"repro/oodb"
)

// Client is one connection to a favserv server. It is safe for
// concurrent use: requests from any goroutine are multiplexed onto the
// single connection and demultiplexed by request ID.
type Client struct {
	conn net.Conn
	bw   *bufio.Writer

	wmu   sync.Mutex // serializes frame writes (and flush decisions)
	wbuf  []byte     // request-payload scratch, reused under wmu
	dirty bool       // frames written to bw since the last flush

	nextID atomic.Uint64

	mu      sync.Mutex
	pending map[uint64]*Pending
	err     error // latched connection failure
	closed  bool

	readerDone chan struct{}
}

// Dial connects to addr and performs the protocol handshake. An addr
// containing a path separator (or prefixed "unix:") is a unix socket;
// anything else is host:port TCP.
func Dial(addr string) (*Client, error) {
	return DialContext(context.Background(), addr)
}

// DialContext is Dial bounded by ctx.
func DialContext(ctx context.Context, addr string) (*Client, error) {
	network := "tcp"
	if s, ok := strings.CutPrefix(addr, "unix:"); ok {
		network, addr = "unix", s
	} else if strings.ContainsRune(addr, '/') {
		network = "unix"
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	if dl, ok := ctx.Deadline(); ok {
		conn.SetDeadline(dl)
	}
	if err := serv.WriteHandshake(conn); err != nil {
		conn.Close()
		return nil, err
	}
	if err := serv.ReadHandshake(conn); err != nil {
		conn.Close()
		return nil, err
	}
	conn.SetDeadline(time.Time{})
	c := &Client{
		conn:       conn,
		bw:         bufio.NewWriterSize(conn, 64<<10),
		pending:    make(map[uint64]*Pending),
		readerDone: make(chan struct{}),
	}
	go c.readLoop()
	return c, nil
}

// Close tears the connection down. In-flight Pendings fail with a
// connection error.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	err := c.conn.Close()
	<-c.readerDone
	return err
}

// readLoop demultiplexes responses to their Pendings by request ID.
func (c *Client) readLoop() {
	defer close(c.readerDone)
	br := bufio.NewReaderSize(c.conn, 64<<10)
	var (
		buf  []byte
		resp serv.Response // reused: resolve copies the results out
	)
	for {
		payload, err := serv.ReadFrame(br, serv.DefaultMaxFrame, buf)
		if err != nil {
			c.fail(fmt.Errorf("client: connection lost: %w", err))
			return
		}
		buf = payload
		c.mu.Lock()
		p := c.pending[respID(payload)]
		delete(c.pending, respID(payload))
		c.mu.Unlock()
		if p == nil {
			c.fail(fmt.Errorf("client: response for unknown request"))
			return
		}
		if err := serv.DecodeResponse(payload, &resp, p.isStats); err != nil {
			c.fail(fmt.Errorf("client: %w", err))
			return
		}
		p.resolve(&resp)
	}
}

// respID peeks the request ID without a full decode.
func respID(payload []byte) uint64 {
	if len(payload) < 8 {
		return 0
	}
	return binary.LittleEndian.Uint64(payload)
}

// fail latches a connection error and resolves every in-flight Pending
// with it.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	ps := make([]*Pending, 0, len(c.pending))
	for id, p := range c.pending {
		ps = append(ps, p)
		delete(c.pending, id)
	}
	err = c.err
	c.mu.Unlock()
	for _, p := range ps {
		p.err = err
		close(p.ch)
	}
}

// Tx is a transaction batch under construction. Build it with New /
// Send / Delete / Scan — each returns the index its result will occupy
// in the Results — then run it with Do or Start. A Tx is not safe for
// concurrent use; it may be reused after the call that ran it returns
// (Do) or resolves (Pending.Wait).
type Tx struct {
	view     bool
	blocking bool
	cmds     []serv.Cmd
	err      error
}

// NewTx starts an empty update batch: one server-side transaction,
// committed pipelined (the response is written once the commit is
// acknowledged per the server's sync policy).
func NewTx() *Tx { return &Tx{} }

// NewView starts an empty read-only batch: it runs on the server's
// lock-free snapshot path; any command that could write fails with an
// error satisfying oodb.IsSnapshotWrite.
func NewView() *Tx { return &Tx{view: true} }

// Blocking switches the batch to an unpipelined commit: the server
// blocks on this transaction's own durability wait before responding
// instead of riding the pipelined group-commit acknowledgment. Use it
// to measure what pipelining buys; semantics are identical.
func (t *Tx) Blocking() *Tx { t.blocking = true; return t }

// Ref converts a command index (a New's return) into a receiver
// reference usable by Send and Delete in the same batch.
type Ref struct{ idx int }

// Index is the command's index in the batch's Results.
func (r Ref) Index() int { return r.idx }

// Reset empties the batch for rebuilding, keeping its mode and storage.
func (t *Tx) Reset() *Tx {
	t.cmds = t.cmds[:0]
	t.err = nil
	return t
}

// Len is the number of commands in the batch.
func (t *Tx) Len() int { return len(t.cmds) }

func (t *Tx) push(c serv.Cmd) int {
	if len(t.cmds) >= serv.MaxCmds && t.err == nil {
		t.err = fmt.Errorf("client: batch exceeds %d commands", serv.MaxCmds)
	}
	t.cmds = append(t.cmds, c)
	return len(t.cmds) - 1
}

func (t *Tx) convArgs(args []any) []storage.Value {
	vals, err := storage.GoToValues(args)
	if err != nil && t.err == nil {
		t.err = err
	}
	return vals
}

// New appends an object creation (class, positional field values) and
// returns a Ref to the created OID: pass it as the receiver of a later
// Send or Delete in this batch, or read the OID from the Results at
// Ref.Index().
func (t *Tx) New(class string, fieldValues ...any) Ref {
	return Ref{t.push(serv.Cmd{Kind: serv.CmdNew, Ref: -1, Class: class, Args: t.convArgs(fieldValues)})}
}

// Send appends a message send to a stored object and returns the index
// of its result value.
func (t *Tx) Send(oid oodb.OID, method string, args ...any) int {
	return t.push(serv.Cmd{Kind: serv.CmdSend, Ref: -1, OID: uint64(oid), Method: method, Args: t.convArgs(args)})
}

// SendRef is Send with the receiver created earlier in this batch.
func (t *Tx) SendRef(r Ref, method string, args ...any) int {
	return t.push(serv.Cmd{Kind: serv.CmdSend, Ref: r.idx, Method: method, Args: t.convArgs(args)})
}

// Delete appends an object deletion.
func (t *Tx) Delete(oid oodb.OID) int {
	return t.push(serv.Cmd{Kind: serv.CmdDelete, Ref: -1, OID: uint64(oid)})
}

// DeleteRef is Delete with the receiver created earlier in this batch.
func (t *Tx) DeleteRef(r Ref) int {
	return t.push(serv.Cmd{Kind: serv.CmdDelete, Ref: r.idx})
}

// Scan appends a domain scan (oodb.Txn.ScanSend) and returns the index
// of its visit count.
func (t *Tx) Scan(class, method string, hierarchical bool, args ...any) int {
	return t.push(serv.Cmd{Kind: serv.CmdScan, Ref: -1, Class: class, Method: method, Hier: hierarchical, Args: t.convArgs(args)})
}

// Results holds one transaction's results, indexed by the values the
// batch builders returned.
type Results struct {
	res []serv.Result
}

// Len is the number of results (== the batch's Len on success).
func (r *Results) Len() int { return len(r.res) }

// Value returns a Send result (int64, bool, string or oodb.OID).
func (r *Results) Value(i int) (any, error) {
	if i < 0 || i >= len(r.res) || r.res[i].Kind != serv.CmdSend {
		return nil, fmt.Errorf("client: result %d is not a send result", i)
	}
	return storage.ValueToGo(r.res[i].Val), nil
}

// Int returns a Send result as int64 (0 if it was not an integer).
func (r *Results) Int(i int) int64 {
	if i < 0 || i >= len(r.res) {
		return 0
	}
	return r.res[i].Val.I
}

// OID returns a New result.
func (r *Results) OID(i int) (oodb.OID, error) {
	if i < 0 || i >= len(r.res) || r.res[i].Kind != serv.CmdNew {
		return 0, fmt.Errorf("client: result %d is not a create result", i)
	}
	return oodb.OID(r.res[i].OID), nil
}

// Count returns a Scan result's visit count.
func (r *Results) Count(i int) (int, error) {
	if i < 0 || i >= len(r.res) || r.res[i].Kind != serv.CmdScan {
		return 0, fmt.Errorf("client: result %d is not a scan result", i)
	}
	return int(r.res[i].Count), nil
}

// Pending is an in-flight pipelined request. Wait blocks until the
// server's response (for an update: the durability acknowledgment)
// arrives.
type Pending struct {
	c       *Client
	ch      chan struct{}
	res     Results
	err     error
	isStats bool
	stats   string
}

func (p *Pending) resolve(resp *serv.Response) {
	if resp.Status != oodb.CodeOK {
		p.err = &oodb.Error{Code: resp.Status, Msg: resp.Err}
	} else {
		p.res.res = append(p.res.res[:0], resp.Results...)
		p.stats = resp.Stats
	}
	close(p.ch)
}

// Wait blocks until the response arrives and returns it. Call once.
func (p *Pending) Wait() (*Results, error) {
	select {
	case <-p.ch:
	default:
		// The request may still be sitting in the write buffer — sends
		// are flushed lazily so a burst of Starts coalesces into one
		// syscall. Nothing to wait for until the buffer is on the wire.
		p.c.flush()
		<-p.ch
	}
	if p.err != nil {
		return nil, p.err
	}
	return &p.res, nil
}

// waitCtx is Wait bounded by ctx. A response that arrives after the
// wait gave up is still consumed by the reader, and dropped.
func (p *Pending) waitCtx(ctx context.Context) error {
	p.c.flush()
	select {
	case <-p.ch:
		return p.err
	case <-ctx.Done():
		return fmt.Errorf("client: waiting for the response: %w", ctx.Err())
	}
}

// Done reports without blocking whether the response has arrived. Like
// Wait, it flushes any buffered requests first, so polling Done makes
// progress.
func (p *Pending) Done() bool {
	select {
	case <-p.ch:
		return true
	default:
		p.c.flush()
		return false
	}
}

// Start sends the batch without waiting for its response: the returned
// Pending resolves when the server acknowledges, and any number of
// Pendings may be in flight on one Client — that window is what lets
// one server-side group-commit fsync carry many client transactions.
// Requests are buffered and put on the wire by the first Wait (or
// Done) that needs them, so a burst of Starts costs one write syscall;
// a Start never followed by any Wait on the connection may sit in the
// buffer. ctx's deadline travels to the server as the transaction's
// deadline (one already past fails here); that is all ctx does:
// neither Start nor Wait watches it, and cancelling it after Start
// does not chase the request.
func (c *Client) Start(ctx context.Context, t *Tx) (*Pending, error) {
	if t.err != nil {
		return nil, t.err
	}
	var flags uint8
	if t.view {
		flags |= serv.FlagView
	}
	if t.blocking {
		flags |= serv.FlagBlocking
	}
	req := serv.Request{Op: serv.OpTxn, Flags: flags, Cmds: t.cmds}
	if dl, ok := ctx.Deadline(); ok {
		us := time.Until(dl).Microseconds()
		if us <= 0 {
			return nil, ctx.Err()
		}
		req.DeadlineMicro = uint64(us)
	}
	return c.send(&req)
}

// Do runs the batch and waits for its results: Start + Wait.
func (c *Client) Do(ctx context.Context, t *Tx) (*Results, error) {
	p, err := c.Start(ctx, t)
	if err != nil {
		return nil, err
	}
	return p.Wait()
}

// Ping round-trips an empty request. ctx bounds the wait for the
// answer: on expiry Ping returns an error wrapping ctx.Err().
func (c *Client) Ping(ctx context.Context) error {
	p, err := c.send(&serv.Request{Op: serv.OpPing})
	if err != nil {
		return err
	}
	return p.waitCtx(ctx)
}

// ServerStats returns the server's counter snapshot as JSON. ctx bounds
// the wait as in Ping.
func (c *Client) ServerStats(ctx context.Context) (string, error) {
	req := serv.Request{Op: serv.OpStats}
	p, err := c.send(&req) // send marks the Pending as a stats reply
	if err != nil {
		return "", err
	}
	if err := p.waitCtx(ctx); err != nil {
		return "", err
	}
	return p.stats, nil
}

// send assigns an ID, registers the Pending and writes the frame into
// the write buffer. A request too large to frame fails here, alone:
// nothing is written and the connection stays usable. The buffer is
// NOT flushed here: a pipelining caller issuing a burst of Starts
// coalesces them into one write syscall, and the first Wait that
// actually blocks (or a full buffer) pushes the bytes out.
func (c *Client) send(req *serv.Request) (*Pending, error) {
	p := &Pending{c: c, ch: make(chan struct{}), isStats: req.Op == serv.OpStats}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.mu.Lock()
	if c.err != nil || c.closed {
		err := c.err
		c.mu.Unlock()
		if err == nil {
			err = fmt.Errorf("client: closed")
		}
		return nil, err
	}
	req.ID = c.nextID.Add(1)
	c.pending[req.ID] = p
	c.mu.Unlock()

	payload, err := serv.AppendRequest(c.wbuf[:0], req)
	if err == nil {
		c.wbuf = payload
		var hdr [8]byte
		err = serv.WriteFrame(c.bw, &hdr, payload)
		c.dirty = true
	}
	if err != nil {
		c.mu.Lock()
		delete(c.pending, req.ID)
		c.mu.Unlock()
		return nil, err
	}
	return p, nil
}

// flush pushes buffered request frames onto the wire.
func (c *Client) flush() {
	c.wmu.Lock()
	if c.dirty {
		c.dirty = false
		if err := c.bw.Flush(); err != nil {
			c.wmu.Unlock()
			c.fail(fmt.Errorf("client: flush: %w", err))
			return
		}
	}
	c.wmu.Unlock()
}
