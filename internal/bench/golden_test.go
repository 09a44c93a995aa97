package bench

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/paper.golden")

// paperGoldenIDs are the experiments whose reports are deterministic
// byte for byte: the paper's tables, figures, worked vectors, the
// section 5.2 scenario and the per-message lock-request counts.
var paperGoldenIDs = []string{"table1", "figure1", "figure2", "tav43", "table2", "scenario52", "overhead"}

// TestPaperGolden pins the output of `favbench -run <id>` for every
// deterministic experiment. A refactor of the engine, the lock manager
// or the way an experiment reads its counters must leave it unchanged.
//
// Regenerate (only after deliberately changing a reported value):
//
//	go test ./internal/bench/ -run TestPaperGolden -update-golden
func TestPaperGolden(t *testing.T) {
	var got bytes.Buffer
	for _, id := range paperGoldenIDs {
		if err := RunByID(&got, id); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	path := filepath.Join("testdata", "paper.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create it)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w []byte
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if !bytes.Equal(g, w) {
				t.Fatalf("paper.golden differs at line %d:\n got: %q\nwant: %q", i+1, g, w)
			}
		}
	}
}

// indent keeps the report layout of its line-splitting predecessor: an
// empty string stays empty, a final newline is added when missing and
// never doubled, and inner blank lines are kept (prefixed).
func TestIndentEdges(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"", ""},
		{"a", "  a\n"},
		{"a\n", "  a\n"},
		{"a\nb", "  a\n  b\n"},
		{"a\n\nb\n", "  a\n  \n  b\n"},
		{"\n", "  \n"},
	} {
		if got := indent(c.in, "  "); got != c.want {
			t.Errorf("indent(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}
