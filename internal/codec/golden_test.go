package codec_test

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/schema"
	"repro/internal/serv"
	"repro/internal/storage"
	"repro/internal/wal"
	"repro/oodb"
)

// The codec golden pins the exact bytes of every frame shape the system
// writes — wire requests and responses, a WAL commit record, a
// checkpoint file — so a refactor of the codec underneath them must be
// byte-identical. Each wire entry is a whole frame, so the golden also
// pins the frame checksum to CRC-32C (Castagnoli).
//
// Regenerate (only after deliberately changing a format):
//
//	go test ./internal/codec/ -run TestCodecGolden -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite the codec golden")

const goldenPath = "testdata/codec.golden"

// goldenSchema has one field of every value kind.
const goldenSchema = `
class item is
    instance variables are
        a : integer
        b : integer
        label : string
        flag : boolean
        ref : item
    method noop is
    end
end
`

// goldenEntry is one named encoding.
type goldenEntry struct {
	name string
	data []byte
}

// frame seals a payload the way every peer puts it on the wire.
func frame(t testing.TB, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	var hdr [8]byte
	if err := serv.WriteFrame(&buf, &hdr, payload); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// wireEntries encodes the fixed set of requests and responses.
func wireEntries(t testing.TB) []goldenEntry {
	t.Helper()
	reqs := []struct {
		name string
		req  serv.Request
	}{
		{"request_txn", serv.Request{ID: 1 << 40, Op: serv.OpTxn, Flags: serv.FlagBlocking, DeadlineMicro: 250000, Cmds: []serv.Cmd{
			{Kind: serv.CmdNew, Ref: -1, Class: "savings", Args: []storage.Value{
				storage.IntV(-7), storage.StrV("alice"), storage.BoolV(true), storage.RefV(300),
			}},
			{Kind: serv.CmdSend, Ref: 0, Method: "deposit", Args: []storage.Value{storage.IntV(1 << 33)}},
			{Kind: serv.CmdSend, Ref: -1, OID: 129, Method: "getbalance"},
			{Kind: serv.CmdDelete, Ref: -1, OID: 12345678901},
			{Kind: serv.CmdScan, Ref: -1, Class: "account", Method: "rename", Hier: true,
				Args: []storage.Value{storage.StrV("")}},
		}}},
		{"request_view", serv.Request{ID: 2, Op: serv.OpTxn, Flags: serv.FlagView, Cmds: []serv.Cmd{
			{Kind: serv.CmdSend, Ref: -1, OID: 5, Method: "getbalance"},
		}}},
		{"request_ping", serv.Request{ID: 3, Op: serv.OpPing}},
	}
	resps := []struct {
		name string
		resp serv.Response
	}{
		{"response_ok", serv.Response{ID: 1 << 40, Status: oodb.CodeOK, Results: []serv.Result{
			{Kind: serv.CmdNew, OID: 301},
			{Kind: serv.CmdSend, Val: storage.IntV(-77)},
			{Kind: serv.CmdSend, Val: storage.StrV("x")},
			{Kind: serv.CmdSend, Val: storage.BoolV(false)},
			{Kind: serv.CmdSend, Val: storage.RefV(3)},
			{Kind: serv.CmdDelete},
			{Kind: serv.CmdScan, Count: 4096},
		}}},
		{"response_error", serv.Response{ID: 9, Status: oodb.CodeDeadlock, Err: "deadlock victim"}},
		{"response_stats", serv.Response{ID: 10, Status: oodb.CodeOK, Stats: `{"Requests":1}`}},
	}
	var out []goldenEntry
	for _, r := range reqs {
		p, err := serv.AppendRequest(nil, &r.req)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		out = append(out, goldenEntry{r.name, frame(t, p)})
	}
	for _, r := range resps {
		p, err := serv.AppendResponse(nil, &r.resp)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		out = append(out, goldenEntry{r.name, frame(t, p)})
	}
	return out
}

// walEntries logs two commits through a real log — three creates, then
// one record with every op kind — and returns the second framed record
// and the checkpoint file taken over the resulting 3-instance store.
// Each record's effects are applied to the store first: a checkpoint
// serializes the store. A third commit creates an instance above one
// that is never logged, as an aborted creation leaves it; the log
// leases that OID ahead of the record, and the lease frame is the third
// entry.
func walEntries(t testing.TB) []goldenEntry {
	t.Helper()
	sch, err := schema.FromSource(goldenSchema)
	if err != nil {
		t.Fatal(err)
	}
	cls := sch.Class("item")
	dir := t.TempDir()
	st := storage.NewStore(sch)
	l, _, err := wal.Open(dir, st, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	mk := func(vals ...storage.Value) *storage.Instance {
		in, err := st.NewInstance(cls, vals...)
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	in1 := mk(storage.IntV(1), storage.IntV(200), storage.StrV("one"), storage.BoolV(false), storage.RefV(0))
	in2 := mk(storage.IntV(-3), storage.IntV(1<<40), storage.StrV("two"), storage.BoolV(true), storage.RefV(in1.OID))
	in3 := mk(storage.IntV(0), storage.IntV(0), storage.StrV(""), storage.BoolV(false), storage.RefV(in2.OID))
	commit := func(c interface {
		Submit(func(uint64)) (*wal.Future, error)
	}) {
		t.Helper()
		fut, err := c.Submit(st.FinishEpoch)
		if err != nil {
			t.Fatal(err)
		}
		if err := fut.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	c := l.BeginCommit(1)
	for _, in := range []*storage.Instance{in1, in2, in3} {
		c.Create(cls.ID, uint64(in.OID), in)
	}
	commit(c)
	in4 := mk(storage.IntV(4), storage.IntV(-4), storage.StrV("four"), storage.BoolV(true), storage.RefV(in3.OID))
	in1.Set(2, storage.StrV("renamed"))
	in2.AddInt(1, -5)
	if err := st.Delete(in3.OID); err != nil {
		t.Fatal(err)
	}
	c = l.BeginCommit(2)
	c.Write(uint64(in1.OID), 2, storage.StrV("renamed"))
	c.WriteDelta(uint64(in2.OID), 1, -5)
	c.Create(cls.ID, uint64(in4.OID), in4)
	c.Delete(uint64(in3.OID))
	commit(c)
	seg, err := os.ReadFile(filepath.Join(dir, "wal-000001.log"))
	if err != nil {
		t.Fatal(err)
	}
	first := 8 + int(binary.LittleEndian.Uint32(seg))
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ckpt, err := os.ReadFile(filepath.Join(dir, "checkpoint"))
	if err != nil {
		t.Fatal(err)
	}
	mk(storage.IntV(5), storage.IntV(0), storage.StrV("aborted"), storage.BoolV(false), storage.RefV(0))
	in6 := mk(storage.IntV(6), storage.IntV(0), storage.StrV("six"), storage.BoolV(false), storage.RefV(0))
	c = l.BeginCommit(3)
	c.Create(cls.ID, uint64(in6.OID), in6)
	commit(c)
	seg2, err := os.ReadFile(filepath.Join(dir, "wal-000002.log"))
	if err != nil {
		t.Fatal(err)
	}
	lease := 8 + int(binary.LittleEndian.Uint32(seg2))
	return []goldenEntry{{"wal_commit", seg[first:]}, {"checkpoint", ckpt}, {"wal_lease", seg2[:lease]}}
}

// goldenEntries is every pinned encoding, in file order.
func goldenEntries(t testing.TB) []goldenEntry {
	return append(wireEntries(t), walEntries(t)...)
}

func renderGolden(entries []goldenEntry) string {
	var b strings.Builder
	for _, e := range entries {
		fmt.Fprintf(&b, "%s %s\n", e.name, hex.EncodeToString(e.data))
	}
	return b.String()
}

// readGolden parses the golden file back into named byte strings.
func readGolden(t testing.TB) []goldenEntry {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("missing golden (run with -update-golden): %v", err)
	}
	defer f.Close()
	var out []goldenEntry
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		name, hx, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		data, err := hex.DecodeString(hx)
		if err != nil {
			t.Fatalf("golden %s: %v", name, err)
		}
		out = append(out, goldenEntry{name, data})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestCodecGolden(t *testing.T) {
	got := renderGolden(goldenEntries(t))
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	entries := readGolden(t)
	if want := renderGolden(entries); got != want {
		t.Errorf("encodings diverge from %s\n--- got ---\n%s--- want ---\n%s", goldenPath, got, want)
	}
	// Every frame — wire message or log record — is sealed with the same
	// polynomial, so corruption fails the same way on both.
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	for _, e := range entries {
		if e.name == "checkpoint" {
			continue
		}
		if got, want := binary.LittleEndian.Uint32(e.data[4:]), crc32.Checksum(e.data[8:], castagnoli); got != want {
			t.Errorf("%s: frame crc %#x, want CRC-32C %#x", e.name, got, want)
		}
	}
}
