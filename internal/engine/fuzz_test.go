package engine

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/paperex"
	"repro/internal/storage"
)

// FuzzFuseDifferential is the adversarial twin of the golden
// differential: arbitrary source that survives the build pipeline is
// executed through both the fused dispatch and the unfused reference,
// and the transcripts must agree. Every nested send pushes a frame in
// both modes, so send-nesting errors must match byte for byte. The one
// documented divergence is normalized away: a fused instruction charges
// the steps of its whole base sequence at once, so when the budget runs
// out inside such a sequence the fused program finishes it and fails
// later (or not at all), where the base program fails mid-sequence.
// Everything else (values, error text, counters, final state) must be
// byte-for-byte identical.
//
// CI runs this as a short smoke (-fuzz=FuzzFuseDifferential
// -fuzztime=30s); run it longer when touching fuse.go or the VM
// dispatch loop.
func FuzzFuseDifferential(f *testing.F) {
	f.Add(paperex.Figure1)
	f.Add(`
class account is
    instance variables are
        balance : integer
    method deposit(n) is
        balance := balance + n
    end
    method deposit2(n) is
        send deposit(n) to self
        send deposit(n) to self
    end
    method getbalance is
        return balance
    end
end`)
	f.Add(`
class k is
    instance variables are
        x : integer
        s : string
    method m(p) is
        var i := 0
        while i < p do
            i := i + 1
            x := x + i
        end
        return x
    end
    method t is
        s := concat(s, "tail")
        return len(s)
    end
    method w(p) is
        var r := send m(p) to self
        send t to self
        return r
    end
end`)
	f.Add(`
class tag is
    instance variables are
        s : string
        n : integer
    method bang is
        s := s + "!"
        return s + "?"
    end
    method cmp(x) is
        if x >= "m" then
            return s + x
        end
        return x + s
    end
    method bad is
        n := n + "oops"
    end
end`)
	f.Add(`class z is method m is send m to self end end`)
	f.Add(`class z is method m is return 1 / 0 end end`)
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 8<<10 {
			t.Skip("oversized input")
		}
		c, err := core.CompileSource(src)
		if err != nil {
			return // rejected by the pipeline: FuzzParse's territory
		}
		fused := Open(c, FineCC{})
		ref, err := OpenWithOptions(c, Options{Strategy: FineCC{}, unfused: true})
		if err != nil {
			t.Fatal(err)
		}
		// A small budget keeps adversarial loops cheap; both modes get
		// the same one, and budget-error divergence is normalized.
		fused.MaxSteps, ref.MaxSteps = 20_000, 20_000

		got := normalizeBudget(fuzzScript(t, fused))
		want := normalizeBudget(fuzzScript(t, ref))
		// The step budget is the one place the modes may legitimately
		// part ways: near exhaustion, a fused sequence can complete where
		// its base sequence dies midway, after which state and counters
		// diverge by design. Everything before the first budget hit must
		// still match exactly; transcripts with no budget hit must match
		// in full.
		gl, gcut := truncateAtBudget(got)
		wl, wcut := truncateAtBudget(want)
		if !gcut && !wcut && len(gl) != len(wl) {
			t.Errorf("transcript lengths diverge: fused %d lines, unfused %d", len(gl), len(wl))
			return
		}
		n := len(gl)
		if len(wl) < n {
			n = len(wl)
		}
		for i := 0; i < n; i++ {
			if gl[i] != wl[i] {
				t.Errorf("fused and unfused transcripts diverge at line %d.\nfused:   %s\nunfused: %s", i, gl[i], wl[i])
				return
			}
		}
	})
}

// truncateAtBudget cuts a normalized transcript at the first step-budget
// error, reporting whether it cut anything.
func truncateAtBudget(s string) ([]string, bool) {
	lines := strings.Split(s, "\n")
	for i, l := range lines {
		if strings.Contains(l, "ERR engine: <budget>") {
			return lines[:i], true
		}
	}
	return lines, false
}

// fuzzScript drives a fixed deterministic probe over every class and
// method of db's schema and returns the transcript.
func fuzzScript(t *testing.T, db *DB) string {
	t.Helper()
	r := &rec{t: t, db: db}
	s := db.Compiled.Schema
	argSets := [][]Value{
		nil,
		{storage.IntV(3)},
		{storage.IntV(2), storage.StrV("x")},
	}
	created := 0
	for ci, cls := range s.Order {
		if ci >= 4 {
			break
		}
		r.new(cls.Name)
		if len(r.oids) == created {
			continue // creation failed; logged
		}
		obj := created
		created++
		for mi, name := range cls.MethodList {
			if mi >= 8 {
				break
			}
			for _, args := range argSets {
				r.send(obj, name, args...)
			}
			r.sendAbort(obj, name, storage.IntV(1))
		}
	}
	r.dump()
	return r.buf.String()
}

// normalizeBudget folds the one documented fused/unfused divergence out
// of a transcript: a step-budget error keeps its kind but loses its
// position (see the FuzzFuseDifferential comment).
func normalizeBudget(s string) string {
	lines := strings.Split(s, "\n")
	for i, l := range lines {
		if idx := strings.Index(l, "-> ERR engine: "); idx >= 0 && strings.Contains(l, "execution exceeded step budget") {
			lines[i] = l[:idx] + "-> ERR engine: <budget>"
		}
	}
	return strings.Join(lines, "\n")
}
