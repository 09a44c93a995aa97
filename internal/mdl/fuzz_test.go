package mdl_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mdl"
	"repro/internal/paperex"
	"repro/internal/schema"
)

// FuzzParse drives arbitrary source through the entire build pipeline:
// lexer, parser, printer round-trip, schema validation, access-vector
// extraction and the body-to-program compiler. Since PR 3 the engine
// executes only what this pipeline emits, so every malformed input must
// be rejected here with a diagnostic — a panic anywhere in the chain is
// a bug this target exists to catch. CI runs it as a short smoke
// (-fuzz=FuzzParse -fuzztime=30s); run it longer locally when touching
// the parser or the compiler.
func FuzzParse(f *testing.F) {
	f.Add(paperex.Figure1)
	f.Add("class k is method m is return 1 + 2 * -3 end end")
	f.Add(`class a is
    instance variables are
        x : integer
        s : string
    method m(p) is
        var i := 0
        while i < p do
            i := i + 1
            x := x + i
        end
        if x > 3 and not (x = 4) or cond(x) then
            return -x
        end
        send m(0) to self
    end
    method t is
        s := concat(s, "tail")
        return len(s)
    end
end
class b inherits a is
    method m(p) is redefined as
        send a.m(p) to self
        var q := new b
        send t to q
    end
end`)
	f.Add(`class z is method m is send nope to self end end`)
	f.Add(`class z is method m is return frobnicate(1, "x", true) end end`)
	f.Add("class z is method m is return frobnicate(1, \"x\xcc\xfe\x04\x9d\xab,\", true) end end")
	f.Add("class w is method m is while true do x := 1 end end end")
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 8<<10 {
			t.Skip("oversized input")
		}
		file, err := mdl.ParseFile(src)
		if err != nil {
			return // a diagnostic is the correct outcome
		}
		// Whatever the parser accepted, the printer must render and the
		// rendering must parse again.
		printed := mdl.Print(file)
		if _, err := mdl.ParseFile(printed); err != nil {
			t.Fatalf("printed form does not re-parse: %v\n%s", err, printed)
		}
		// Schema build, extraction and body compilation may reject the
		// input, but must never panic.
		s, err := schema.FromFile(file)
		if err != nil {
			return
		}
		_, _ = core.Compile(s)
	})
}
