// Package serv is the network front-end of the database: a TCP /
// unix-socket server speaking a length-prefixed binary protocol with
// per-connection sessions and pipelined requests, plus the shared wire
// codec the public oodb/client package reuses.
//
// # Frames
//
// Every message after the handshake is the payload of one frame of
// internal/codec — the frame a WAL record travels in. A received frame
// whose length exceeds the reader's bound or whose checksum mismatches
// is a protocol error: the connection is closed (the server never
// resynchronizes inside a byte stream it cannot trust). A writer never
// sends one: WriteFrame refuses a payload over DefaultMaxFrame, so an
// oversized request fails alone at the client, and an oversized
// response is answered with an error response instead.
//
// # Handshake
//
// The client opens with 8 bytes — "FAVS", a version byte, three
// reserved zero bytes — and the server echoes its own 8 bytes back.
// Either side closes on a magic or version mismatch.
//
// # Requests
//
// Request payload:
//
//	u64 requestID | u8 op | body
//
// Request IDs are chosen by the client (monotonic per connection) and
// echoed verbatim in the response; responses to one connection's
// requests are delivered in request order. Ops: OpTxn runs a command
// batch in one transaction, OpPing is a no-op round trip, OpStats
// returns a JSON snapshot of the server's counters.
//
// OpTxn body:
//
//	u8 flags | uvarint deadlineMicros | u8 ncmds | ncmds × cmd
//
// FlagView runs the batch read-only on the snapshot path; FlagBlocking
// commits unpipelined (the response is written only after this
// transaction's own fsync wait, instead of riding the pipelined
// group-commit ack). deadlineMicros > 0 bounds the whole transaction —
// lock waits, retry backoff, fsync wait — server-side via
// context.WithTimeout.
//
// Commands (receivers of Send/Delete are either a literal OID or a
// reference to the result of an earlier New in the same batch):
//
//	CmdSend:   u8 kind | target | str method | u8 nargs | nargs × value
//	CmdNew:    u8 kind | str class | u8 nvals | nvals × value
//	CmdDelete: u8 kind | target
//	CmdScan:   u8 kind | str class | str method | u8 hier | u8 nargs | nargs × value
//
//	target: u8 idx — 0xFF followed by uvarint literalOID, or the
//	        index of an earlier CmdNew whose created OID is the receiver
//	str:    uvarint len | bytes (codec.AppendStr)
//	value:  codec.AppendValue
//
// # Responses
//
// Response payload:
//
//	u64 requestID | u8 status | rest
//
// status is the oodb.Code of the outcome (CodeOK = success). On
// failure, rest is one str with the error message — the code travels
// losslessly, so client-side errors satisfy the same oodb.Is*
// predicates as embedded ones. On success, rest is the op's result: for
// OpTxn, u8 nresults then one result per command (CmdSend: value;
// CmdNew: uvarint OID; CmdDelete: nothing; CmdScan: uvarint count); for
// OpPing nothing; for OpStats one str of JSON.
package serv

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/codec"
	"repro/internal/storage"
	"repro/oodb"
)

// Protocol constants.
const (
	// Version is the protocol version carried in the handshake.
	Version = 1

	// DefaultMaxFrame bounds a frame's payload (requests and
	// responses). Large enough for any sane command batch; small enough
	// that a garbage length prefix cannot make a peer allocate gigabytes.
	DefaultMaxFrame = 8 << 20

	handshakeSize = 8
)

// handshakeMagic is the first four bytes of the 8-byte hello.
var handshakeMagic = [4]byte{'F', 'A', 'V', 'S'}

// Ops.
const (
	OpTxn   = 1
	OpPing  = 2
	OpStats = 3
)

// OpTxn flags.
const (
	// FlagView runs the batch read-only (snapshot path; writes fail
	// with CodeSnapshotWrite).
	FlagView = 1 << 0
	// FlagBlocking commits unpipelined: the transaction blocks on its
	// own durability wait before the response is encoded.
	FlagBlocking = 1 << 1
)

// Command kinds.
const (
	CmdSend   = 1
	CmdNew    = 2
	CmdDelete = 3
	CmdScan   = 4
)

// refLiteral in a target byte means "a literal uvarint OID follows";
// any other value is the index of an earlier CmdNew in the same batch.
const refLiteral = 0xFF

// MaxCmds bounds the commands in one batch (the count is a u8 and
// refLiteral is reserved).
const MaxCmds = 254

var (
	// ErrBadFrame is a framing-level protocol error (oversized length,
	// checksum mismatch, truncated payload), or a payload too large to
	// send.
	ErrBadFrame = errors.New("serv: bad frame")
	// ErrBadHandshake is a magic or version mismatch on connect.
	ErrBadHandshake = errors.New("serv: bad handshake")
	// ErrBadPayload is a malformed payload inside a valid frame.
	ErrBadPayload = errors.New("serv: bad payload")
)

// Cmd is one decoded command of a transaction batch.
type Cmd struct {
	Kind   uint8
	Ref    int    // CmdSend/CmdDelete: index of the CmdNew supplying the receiver, or -1
	OID    uint64 // literal receiver when Ref < 0
	Class  string // CmdNew, CmdScan
	Method string // CmdSend, CmdScan
	Hier   bool   // CmdScan
	Args   []storage.Value
}

// Request is one decoded request.
type Request struct {
	ID            uint64
	Op            uint8
	Flags         uint8
	DeadlineMicro uint64
	Cmds          []Cmd
}

// Result is one command's result inside a successful OpTxn response.
type Result struct {
	Kind  uint8
	Val   storage.Value // CmdSend
	OID   uint64        // CmdNew
	Count uint64        // CmdScan
}

// Response is one decoded response.
type Response struct {
	ID      uint64
	Status  oodb.Code
	Err     string
	Results []Result
	Stats   string // OpStats payload
}

// WriteHandshake writes the 8-byte hello.
func WriteHandshake(w io.Writer) error {
	var b [handshakeSize]byte
	copy(b[:], handshakeMagic[:])
	b[4] = Version
	_, err := w.Write(b[:])
	return err
}

// ReadHandshake reads and validates the peer's hello.
func ReadHandshake(r io.Reader) error {
	var b [handshakeSize]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return fmt.Errorf("%w: %v", ErrBadHandshake, err)
	}
	if [4]byte(b[:4]) != handshakeMagic {
		return fmt.Errorf("%w: magic %q", ErrBadHandshake, b[:4])
	}
	if b[4] != Version {
		return fmt.Errorf("%w: peer version %d, want %d", ErrBadHandshake, b[4], Version)
	}
	return nil
}

// WriteFrame frames payload onto w. A payload over DefaultMaxFrame —
// more than a reader accepts — is refused with ErrBadFrame and nothing
// is written.
func WriteFrame(w io.Writer, hdr *[codec.HeaderSize]byte, payload []byte) error {
	if err := codec.Seal(hdr[:], payload, DefaultMaxFrame); err != nil {
		return fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame into buf (grown as needed) and returns the
// validated payload, aliasing buf's storage.
func ReadFrame(r *bufio.Reader, maxFrame int, buf []byte) ([]byte, error) {
	var hdr [codec.HeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n, err := codec.Size(hdr[:], maxFrame)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("%w: truncated payload: %v", ErrBadFrame, err)
	}
	if err := codec.Verify(hdr[:], buf); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	return buf, nil
}

// --- payload encoding ---

// AppendRequest appends the encoded request payload to b.
func AppendRequest(b []byte, req *Request) ([]byte, error) {
	b = binary.LittleEndian.AppendUint64(b, req.ID)
	b = append(b, req.Op)
	if req.Op != OpTxn {
		return b, nil
	}
	if len(req.Cmds) > MaxCmds {
		return nil, fmt.Errorf("serv: %d commands exceed the %d-command batch bound", len(req.Cmds), MaxCmds)
	}
	b = append(b, req.Flags)
	b = binary.AppendUvarint(b, req.DeadlineMicro)
	b = append(b, uint8(len(req.Cmds)))
	for i := range req.Cmds {
		c := &req.Cmds[i]
		b = append(b, c.Kind)
		var err error
		switch c.Kind {
		case CmdSend:
			if b, err = appendTarget(b, c); err == nil {
				b, err = appendArgs(codec.AppendStr(b, c.Method), c.Args)
			}
		case CmdNew:
			b, err = appendArgs(codec.AppendStr(b, c.Class), c.Args)
		case CmdDelete:
			b, err = appendTarget(b, c)
		case CmdScan:
			b = codec.AppendStr(codec.AppendStr(b, c.Class), c.Method)
			if c.Hier {
				b = append(b, 1)
			} else {
				b = append(b, 0)
			}
			b, err = appendArgs(b, c.Args)
		default:
			err = fmt.Errorf("serv: unknown command kind %d", c.Kind)
		}
		if err != nil {
			return nil, err
		}
	}
	return b, nil
}

func appendTarget(b []byte, c *Cmd) ([]byte, error) {
	if c.Ref >= 0 {
		if c.Ref >= MaxCmds {
			return nil, fmt.Errorf("serv: command reference %d out of range", c.Ref)
		}
		return append(b, uint8(c.Ref)), nil
	}
	b = append(b, refLiteral)
	return binary.AppendUvarint(b, c.OID), nil
}

func appendArgs(b []byte, args []storage.Value) ([]byte, error) {
	if len(args) > 255 {
		return nil, fmt.Errorf("serv: %d arguments exceed the 255-argument bound", len(args))
	}
	b = append(b, uint8(len(args)))
	for _, a := range args {
		b = codec.AppendValue(b, a)
	}
	return b, nil
}

// AppendResponse appends the encoded response payload to b.
func AppendResponse(b []byte, resp *Response) ([]byte, error) {
	b = binary.LittleEndian.AppendUint64(b, resp.ID)
	b = append(b, uint8(resp.Status))
	if resp.Status != oodb.CodeOK {
		return codec.AppendStr(b, resp.Err), nil
	}
	if resp.Stats != "" {
		return codec.AppendStr(b, resp.Stats), nil
	}
	if len(resp.Results) > MaxCmds {
		return nil, fmt.Errorf("serv: %d results exceed the %d-command batch bound", len(resp.Results), MaxCmds)
	}
	b = append(b, uint8(len(resp.Results)))
	for i := range resp.Results {
		r := &resp.Results[i]
		b = append(b, r.Kind)
		switch r.Kind {
		case CmdSend:
			b = codec.AppendValue(b, r.Val)
		case CmdNew:
			b = binary.AppendUvarint(b, r.OID)
		case CmdDelete:
		case CmdScan:
			b = binary.AppendUvarint(b, r.Count)
		default:
			return nil, fmt.Errorf("serv: unknown result kind %d", r.Kind)
		}
	}
	return b, nil
}

// --- payload decoding ---

// DecodeRequest decodes a request payload into req, reusing req's
// command and argument storage. Strings are copied out of the payload.
func DecodeRequest(payload []byte, req *Request) error {
	d := codec.NewDecoder(payload)
	req.ID = d.U64()
	req.Op = d.U8()
	req.Flags, req.DeadlineMicro = 0, 0
	req.Cmds = req.Cmds[:0]
	if req.Op == OpTxn {
		req.Flags = d.U8()
		req.DeadlineMicro = d.Uvarint()
		n := int(d.U8())
		if n > MaxCmds {
			d.Failf("%d commands exceed the %d-command batch bound", n, MaxCmds)
		}
		for i := 0; i < n && d.Err() == nil; i++ {
			if cap(req.Cmds) > i {
				req.Cmds = req.Cmds[:i+1]
			} else {
				req.Cmds = append(req.Cmds, Cmd{})
			}
			decodeCmd(&d, &req.Cmds[i], i)
		}
	}
	if err := d.Finish(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	return nil
}

// decodeCmd decodes the i-th command of a batch into c.
func decodeCmd(d *codec.Decoder, c *Cmd, i int) {
	c.Kind = d.U8()
	c.Ref, c.OID = -1, 0
	c.Class, c.Method, c.Hier = "", "", false
	c.Args = c.Args[:0]
	switch c.Kind {
	case CmdSend:
		decodeTarget(d, c, i)
		c.Method = d.Str()
		c.Args = decodeArgs(d, c.Args)
	case CmdNew:
		c.Class = d.Str()
		c.Args = decodeArgs(d, c.Args)
	case CmdDelete:
		decodeTarget(d, c, i)
	case CmdScan:
		c.Class = d.Str()
		c.Method = d.Str()
		c.Hier = d.Bool()
		c.Args = decodeArgs(d, c.Args)
	default:
		d.Failf("command kind %d", c.Kind)
	}
}

// decodeTarget decodes the receiver of the i-th command: a literal OID
// or a reference to an earlier command.
func decodeTarget(d *codec.Decoder, c *Cmd, i int) {
	switch t := d.U8(); {
	case t == refLiteral:
		c.OID = d.Uvarint()
	case int(t) < i:
		c.Ref = int(t)
	default:
		d.Failf("command %d references later command %d", i, t)
	}
}

func decodeArgs(d *codec.Decoder, into []storage.Value) []storage.Value {
	n := int(d.U8())
	for i := 0; i < n && d.Err() == nil; i++ {
		into = append(into, d.Value())
	}
	return into
}

// DecodeResponse decodes a response payload into resp, reusing resp's
// result storage. isStats selects the OpStats body shape (the response
// itself does not carry the op).
func DecodeResponse(payload []byte, resp *Response, isStats bool) error {
	d := codec.NewDecoder(payload)
	resp.ID = d.U64()
	resp.Status = oodb.Code(d.U8())
	resp.Err, resp.Stats = "", ""
	resp.Results = resp.Results[:0]
	switch {
	case resp.Status != oodb.CodeOK:
		resp.Err = d.Str()
	case isStats:
		resp.Stats = d.Str()
	default:
		n := int(d.U8())
		if n > MaxCmds {
			d.Failf("%d results exceed the %d-command batch bound", n, MaxCmds)
		}
		for i := 0; i < n && d.Err() == nil; i++ {
			res := Result{Kind: d.U8()}
			switch res.Kind {
			case CmdSend:
				res.Val = d.Value()
			case CmdNew:
				res.OID = d.Uvarint()
			case CmdDelete:
			case CmdScan:
				res.Count = d.Uvarint()
			default:
				d.Failf("result kind %d", res.Kind)
			}
			resp.Results = append(resp.Results, res)
		}
	}
	if err := d.Finish(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	return nil
}
