package mdl

import (
	"fmt"
	"strings"
)

// Print renders a parsed file back to canonical mdl source. The output
// re-parses to an identical AST (tested), which is how the Figure 1
// round-trip experiment validates the front end.
func Print(f *File) string {
	var sb strings.Builder
	for i, cd := range f.Classes {
		if i > 0 {
			sb.WriteByte('\n')
		}
		printClass(&sb, cd)
	}
	return sb.String()
}

func printClass(sb *strings.Builder, cd *ClassDecl) {
	sb.WriteString("class ")
	sb.WriteString(cd.Name)
	if len(cd.Parents) > 0 {
		sb.WriteString(" inherits ")
		sb.WriteString(strings.Join(cd.Parents, ", "))
	}
	sb.WriteString(" is\n")
	if len(cd.Fields) > 0 {
		sb.WriteString("    instance variables are\n")
		for _, fd := range cd.Fields {
			fmt.Fprintf(sb, "        %s : %s\n", fd.Name, fd.Type)
		}
	}
	for _, md := range cd.Methods {
		printMethod(sb, md)
	}
	sb.WriteString("end\n")
}

func printMethod(sb *strings.Builder, md *MethodDecl) {
	sb.WriteString("    method ")
	sb.WriteString(md.Name)
	if len(md.Params) > 0 {
		sb.WriteString("(" + strings.Join(md.Params, ", ") + ")")
	}
	sb.WriteString(" is")
	if md.Redefined {
		sb.WriteString(" redefined as")
	}
	sb.WriteByte('\n')
	printStmts(sb, md.Body, 2)
	sb.WriteString("    end\n")
}

func printStmts(sb *strings.Builder, stmts []Stmt, depth int) {
	ind := strings.Repeat("    ", depth)
	for _, s := range stmts {
		switch s := s.(type) {
		case *Assign:
			fmt.Fprintf(sb, "%s%s := %s\n", ind, s.Target, ExprString(s.Value))
		case *VarDecl:
			fmt.Fprintf(sb, "%svar %s := %s\n", ind, s.Name, ExprString(s.Value))
		case *ExprStmt:
			fmt.Fprintf(sb, "%s%s\n", ind, ExprString(s.X))
		case *If:
			fmt.Fprintf(sb, "%sif %s then\n", ind, ExprString(s.Cond))
			printStmts(sb, s.Then, depth+1)
			if len(s.Else) > 0 {
				fmt.Fprintf(sb, "%selse\n", ind)
				printStmts(sb, s.Else, depth+1)
			}
			fmt.Fprintf(sb, "%send\n", ind)
		case *While:
			fmt.Fprintf(sb, "%swhile %s do\n", ind, ExprString(s.Cond))
			printStmts(sb, s.Body, depth+1)
			fmt.Fprintf(sb, "%send\n", ind)
		case *Return:
			if s.Value != nil {
				fmt.Fprintf(sb, "%sreturn %s\n", ind, ExprString(s.Value))
			} else {
				fmt.Fprintf(sb, "%sreturn\n", ind)
			}
		}
	}
}

// strLitEscaper writes a string literal's value with exactly the four
// escapes the lexer knows; every other byte stands as it is.
var strLitEscaper = strings.NewReplacer("\n", `\n`, "\t", `\t`, `"`, `\"`, `\`, `\\`)

// ExprString renders an expression in canonical, fully-parenthesised form
// for nested binaries, so precedence survives the round trip.
func ExprString(e Expr) string {
	switch e := e.(type) {
	case *IntLit:
		return fmt.Sprintf("%d", e.Val)
	case *BoolLit:
		if e.Val {
			return "true"
		}
		return "false"
	case *StrLit:
		return `"` + strLitEscaper.Replace(e.Val) + `"`
	case *Ident:
		return e.Name
	case *SelfExpr:
		return "self"
	case *Binary:
		return fmt.Sprintf("(%s %s %s)", ExprString(e.L), e.Op, ExprString(e.R))
	case *Unary:
		if e.Op == "not" {
			return fmt.Sprintf("(not %s)", ExprString(e.X))
		}
		return fmt.Sprintf("(-%s)", ExprString(e.X))
	case *Call:
		return e.Func + "(" + argList(e.Args) + ")"
	case *New:
		if len(e.Args) == 0 {
			return "new " + e.Class
		}
		return "new " + e.Class + "(" + argList(e.Args) + ")"
	case *Send:
		var sb strings.Builder
		sb.WriteString("send ")
		if e.Class != "" {
			sb.WriteString(e.Class)
			sb.WriteByte('.')
		}
		sb.WriteString(e.Method)
		if len(e.Args) > 0 {
			sb.WriteString("(" + argList(e.Args) + ")")
		}
		sb.WriteString(" to ")
		sb.WriteString(ExprString(e.Target))
		return sb.String()
	}
	return fmt.Sprintf("<unknown expr %T>", e)
}

func argList(args []Expr) string {
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = ExprString(a)
	}
	return strings.Join(parts, ", ")
}

// EqualFiles reports whether two parsed files have structurally identical
// ASTs (ignoring positions). Used by round-trip tests.
func EqualFiles(a, b *File) bool {
	return Print(a) == Print(b)
}
