package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestList(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "all", true); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"table1", "table2", "figure2", "scenario52", "conservative"} {
		if !strings.Contains(buf.String(), id) {
			t.Errorf("list output missing %s", id)
		}
	}
}

func TestRunOne(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "table2", false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "matches Table 2 cell for cell") {
		t.Errorf("output: %s", buf.String())
	}
}

func TestRunUnknown(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "nosuch", false); err == nil {
		t.Fatal("unknown experiment must fail")
	}
}
