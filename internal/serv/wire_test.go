package serv

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/storage"
	"repro/oodb"
)

func roundTripRequest(t *testing.T, req *Request) *Request {
	t.Helper()
	payload, err := AppendRequest(nil, req)
	if err != nil {
		t.Fatalf("AppendRequest: %v", err)
	}
	var got Request
	if err := DecodeRequest(payload, &got); err != nil {
		t.Fatalf("DecodeRequest: %v", err)
	}
	return &got
}

func TestRequestRoundTrip(t *testing.T) {
	reqs := []Request{
		{ID: 1, Op: OpPing},
		{ID: 2, Op: OpStats},
		{ID: 3, Op: OpTxn, Flags: FlagView, DeadlineMicro: 1500, Cmds: []Cmd{
			{Kind: CmdSend, Ref: -1, OID: 42, Method: "getbalance"},
		}},
		{ID: 1 << 60, Op: OpTxn, Flags: FlagBlocking, Cmds: []Cmd{
			{Kind: CmdNew, Ref: -1, Class: "savings", Args: []storage.Value{
				storage.IntV(7), storage.StrV("alice"), storage.BoolV(true), storage.RefV(9),
			}},
			{Kind: CmdSend, Ref: 0, Method: "deposit", Args: []storage.Value{storage.IntV(-3)}},
			{Kind: CmdDelete, Ref: -1, OID: 12345678901},
			{Kind: CmdDelete, Ref: 0},
			{Kind: CmdScan, Ref: -1, Class: "account", Method: "getbalance", Hier: true,
				Args: []storage.Value{storage.StrV("")}},
		}},
	}
	for i := range reqs {
		got := roundTripRequest(t, &reqs[i])
		want := reqs[i]
		if want.Op != OpTxn {
			// Only ID and Op travel for non-txn ops.
			want = Request{ID: want.ID, Op: want.Op}
		}
		// Decoded empty arg slices come back nil-or-empty; normalize.
		for j := range got.Cmds {
			if len(got.Cmds[j].Args) == 0 {
				got.Cmds[j].Args = nil
			}
		}
		if !reflect.DeepEqual(*got, want) {
			t.Errorf("request %d round trip:\n got %+v\nwant %+v", i, *got, want)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	resps := []struct {
		r       Response
		isStats bool
	}{
		{r: Response{ID: 9, Status: oodb.CodeOK, Results: []Result{
			{Kind: CmdSend, Val: storage.IntV(77)},
			{Kind: CmdSend, Val: storage.StrV("x")},
			{Kind: CmdSend, Val: storage.BoolV(true)},
			{Kind: CmdSend, Val: storage.RefV(3)},
			{Kind: CmdNew, OID: 301},
			{Kind: CmdDelete},
			{Kind: CmdScan, Count: 4096},
		}}},
		{r: Response{ID: 10, Status: oodb.CodeDeadlock, Err: "deadlock victim"}},
		{r: Response{ID: 11, Status: oodb.CodeOK, Stats: `{"x":1}`}, isStats: true},
		{r: Response{ID: 12, Status: oodb.CodeOK}},
	}
	for i, tc := range resps {
		payload, err := AppendResponse(nil, &tc.r)
		if err != nil {
			t.Fatalf("AppendResponse(%d): %v", i, err)
		}
		var got Response
		if err := DecodeResponse(payload, &got, tc.isStats); err != nil {
			t.Fatalf("DecodeResponse(%d): %v", i, err)
		}
		want := tc.r
		if len(got.Results) == 0 {
			got.Results = nil
		}
		if len(want.Results) == 0 {
			want.Results = nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("response %d round trip:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	var hdr [8]byte
	payloads := [][]byte{{1}, []byte("hello frame"), bytes.Repeat([]byte{0xAB}, 70000)}
	for _, p := range payloads {
		if err := WriteFrame(&buf, &hdr, p); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
	}
	br := bufio.NewReader(&buf)
	var scratch []byte
	for i, want := range payloads {
		got, err := ReadFrame(br, DefaultMaxFrame, scratch)
		if err != nil {
			t.Fatalf("ReadFrame(%d): %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("frame %d: got %d bytes, want %d", i, len(got), len(want))
		}
		scratch = got
	}
}

func TestFrameRejectsCorruption(t *testing.T) {
	frame := func(mutate func([]byte)) error {
		var buf bytes.Buffer
		var hdr [8]byte
		if err := WriteFrame(&buf, &hdr, []byte("payload payload")); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
		b := buf.Bytes()
		if mutate != nil {
			mutate(b)
		}
		_, err := ReadFrame(bufio.NewReader(bytes.NewReader(b)), DefaultMaxFrame, nil)
		return err
	}
	if err := frame(nil); err != nil {
		t.Fatalf("clean frame rejected: %v", err)
	}
	if err := frame(func(b []byte) { b[10] ^= 0x01 }); !errors.Is(err, ErrBadFrame) {
		t.Errorf("payload bit flip: got %v, want ErrBadFrame", err)
	}
	if err := frame(func(b []byte) { b[4] ^= 0x01 }); !errors.Is(err, ErrBadFrame) {
		t.Errorf("crc bit flip: got %v, want ErrBadFrame", err)
	}
	// A length prefix beyond the frame bound must be rejected before any
	// allocation of that size.
	if err := frame(func(b []byte) {
		binary.LittleEndian.PutUint32(b, 1<<31)
	}); !errors.Is(err, ErrBadFrame) {
		t.Errorf("oversize length: got %v, want ErrBadFrame", err)
	}
	// A writer refuses what a reader would reject, and writes nothing.
	var out bytes.Buffer
	var hdr0 [8]byte
	if err := WriteFrame(&out, &hdr0, make([]byte, DefaultMaxFrame+1)); !errors.Is(err, ErrBadFrame) || out.Len() != 0 {
		t.Errorf("oversize write: got %v after %d bytes, want ErrBadFrame before any", err, out.Len())
	}
	// Truncation mid-payload is an I/O error, not a hang or panic.
	var buf bytes.Buffer
	var hdr [8]byte
	if err := WriteFrame(&buf, &hdr, []byte("payload payload")); err != nil {
		t.Fatal(err)
	}
	_, err := ReadFrame(bufio.NewReader(bytes.NewReader(buf.Bytes()[:12])), DefaultMaxFrame, nil)
	if err == nil {
		t.Error("truncated frame accepted")
	}
}

func TestHandshake(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHandshake(&buf); err != nil {
		t.Fatal(err)
	}
	good := append([]byte(nil), buf.Bytes()...)
	if err := ReadHandshake(bytes.NewReader(good)); err != nil {
		t.Fatalf("good handshake rejected: %v", err)
	}
	bad := append([]byte(nil), good...)
	bad[0] = 'X'
	if err := ReadHandshake(bytes.NewReader(bad)); !errors.Is(err, ErrBadHandshake) {
		t.Errorf("bad magic: got %v, want ErrBadHandshake", err)
	}
	ver := append([]byte(nil), good...)
	ver[4] = Version + 1
	if err := ReadHandshake(bytes.NewReader(ver)); !errors.Is(err, ErrBadHandshake) {
		t.Errorf("bad version: got %v, want ErrBadHandshake", err)
	}
}

func TestDecodeRequestRejectsGarbage(t *testing.T) {
	good, err := AppendRequest(nil, &Request{ID: 1, Op: OpTxn, Cmds: []Cmd{
		{Kind: CmdSend, Ref: -1, OID: 5, Method: "m"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	var req Request
	// Trailing bytes after a well-formed request are a protocol error.
	if err := DecodeRequest(append(good, 0), &req); !errors.Is(err, ErrBadPayload) {
		t.Errorf("trailing byte: got %v, want ErrBadPayload", err)
	}
	// A send referencing a later (or non-New) command must be rejected at
	// decode time, not dereferenced at execution time.
	forward, err := AppendRequest(nil, &Request{ID: 2, Op: OpTxn, Cmds: []Cmd{
		{Kind: CmdSend, Ref: 1, Method: "m"},
		{Kind: CmdNew, Ref: -1, Class: "c"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := DecodeRequest(forward, &req); !errors.Is(err, ErrBadPayload) {
		t.Errorf("forward ref: got %v, want ErrBadPayload", err)
	}
	// Truncations at every prefix length: never panic, never succeed.
	for n := 0; n < len(good); n++ {
		if err := DecodeRequest(good[:n], &req); err == nil {
			t.Errorf("truncation at %d accepted", n)
		}
	}
	// Deterministic byte fuzz: random mutations may decode (bytes are
	// cheap to forge) but must never panic.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		b := append([]byte(nil), good...)
		for k := 0; k < 3; k++ {
			b[rng.Intn(len(b))] ^= byte(1 << rng.Intn(8))
		}
		_ = DecodeRequest(b, &req) //nolint:errcheck // must-not-panic fuzz
	}
}
