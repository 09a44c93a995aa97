package mdl

import (
	"strings"
	"testing"
)

func TestExprStringCoversAllKinds(t *testing.T) {
	cases := []struct{ src, want string }{
		{"x := 42", "42"},
		{"x := true", "true"},
		{"x := false", "false"},
		{`x := "hi"`, `"hi"`},
		{"x := y", "y"},
		{"x := self", "self"},
		{"x := 1 + 2", "(1 + 2)"},
		{"x := not y", "(not y)"},
		{"x := -y", "(-y)"},
		{"x := f(1, 2)", "f(1, 2)"},
		{"x := f()", "f()"},
		{"x := new k", "new k"},
		{"x := new k(1)", "new k(1)"},
		{"x := send m to self", "send m to self"},
		{"x := send m(1) to self", "send m(1) to self"},
		{"x := send k.m to self", "send k.m to self"},
		{"x := send m to other", "send m to other"},
		{"x := a % b", "(a % b)"},
		{"x := a <> b", "(a <> b)"},
		{"x := a <= b", "(a <= b)"},
		{"x := a >= b", "(a >= b)"},
	}
	for _, tc := range cases {
		stmts, err := ParseBody(tc.src)
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		got := ExprString(stmts[0].(*Assign).Value)
		if got != tc.want {
			t.Errorf("%s: got %s, want %s", tc.src, got, tc.want)
		}
	}
}

// A string literal prints in a form the lexer reads back to the same
// value: only the four escapes it knows, every other byte as it stands.
func TestPrintStringLiteralRoundTrip(t *testing.T) {
	for _, src := range []string{
		"class z is method m is return frobnicate(1, \"x\xcc\xfe\x04\x9d\xab,\", true) end end",
		`class z is method m is return f("tab\there \"q\" back\\slash\nline") end end`,
		"class z is method m is return f(\"cr\r bell\a nul\x00 \u00e9\") end end",
	} {
		parse := func(src string) (*File, string) {
			t.Helper()
			file, err := ParseFile(src)
			if err != nil {
				t.Fatalf("%q: %v", src, err)
			}
			for _, arg := range file.Classes[0].Methods[0].Body[0].(*Return).Value.(*Call).Args {
				if lit, ok := arg.(*StrLit); ok {
					return file, lit.Val
				}
			}
			t.Fatalf("%q: no string literal argument", src)
			return nil, ""
		}
		file, want := parse(src)
		printed := Print(file)
		if _, got := parse(printed); got != want {
			t.Errorf("%q: printed %q re-parses to %q, want %q", src, printed, got, want)
		}
	}
}

func TestExprStringUnknown(t *testing.T) {
	if got := ExprString(nil); !strings.Contains(got, "unknown") {
		t.Errorf("got %s", got)
	}
}

func TestPrintStatements(t *testing.T) {
	src := `
class k is
    method m(p) is
        var x := 1
        x := x + p
        send helper to self
        if x > 0 then
            return x
        else
            return 0
        end
    end
    method helper is
        while false do
            return
        end
    end
end`
	f, err := ParseFile(src)
	if err != nil {
		t.Fatal(err)
	}
	out := Print(f)
	for _, want := range []string{
		"var x := 1",
		"x := (x + p)",
		"send helper to self",
		"if (x > 0) then",
		"else",
		"return 0",
		"while false do",
		"return\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("printed output missing %q:\n%s", want, out)
		}
	}
	// And it re-parses.
	if _, err := ParseFile(out); err != nil {
		t.Fatalf("printed source does not parse: %v", err)
	}
}

func TestPrintMultipleClasses(t *testing.T) {
	f, err := ParseFile("class a is end class b inherits a is end")
	if err != nil {
		t.Fatal(err)
	}
	out := Print(f)
	if !strings.Contains(out, "class a is") || !strings.Contains(out, "class b inherits a is") {
		t.Errorf("output:\n%s", out)
	}
}

func TestBinOpStrings(t *testing.T) {
	ops := map[BinOp]string{
		OpOr: "or", OpAnd: "and", OpEq: "=", OpNeq: "<>",
		OpLt: "<", OpLeq: "<=", OpGt: ">", OpGeq: ">=",
		OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	}
	for op, want := range ops {
		if op.String() != want {
			t.Errorf("%d: got %s, want %s", op, op, want)
		}
	}
}
