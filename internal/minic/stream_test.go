package minic_test

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"comp/internal/minic"
	"comp/internal/workloads"
)

// TestParseMatchesEagerReference holds Parse, which pulls tokens from the
// lexer as it goes, to the eager reference that lexes the whole input
// first: the same printed AST, or the same error text — a lexical error
// anywhere still winning over a parse error. The inputs are every
// registry source, the FuzzParse corpus, and malformed programs.
func TestParseMatchesEagerReference(t *testing.T) {
	var srcs []string
	for _, b := range workloads.All() {
		srcs = append(srcs, b.Source, b.CPUOverride)
		if cpu, err := b.CPUSource(); err == nil {
			srcs = append(srcs, cpu)
		}
	}
	corpus, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzParse", "*"))
	if err != nil || len(corpus) == 0 {
		t.Fatalf("no FuzzParse corpus (err=%v)", err)
	}
	for _, path := range corpus {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// A corpus file is a header line, then string("...") in Go syntax.
		_, val, _ := strings.Cut(strings.TrimSpace(string(data)), "\n")
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(val, "string("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		srcs = append(srcs, s)
	}
	srcs = append(srcs,
		"",
		"struct",
		"struct S",
		"struct S {",
		"struct S { float x; }; struct S pts[4];",
		"int a; int b",
		"int main() { return 0; } }",
		"int main() { return 0; } @",
		"int x = ; /* unterminated",
		"int x = ; \"newline\n in string\"",
		"int main() { int y = 1.5e+; }",
		"int main() { x = 1 # 2; }",
		"int main() { printf(\"%d\\q\", 1); }",
		"float a[4]; int main() { a[0] = 1.0 return 0; }",
		"#pragma offload target(mic:0) in(a : length(\nint main() { }",
		"int main() { for (i = 0; i < n; i++ { } }",
		"void f() { if (x) { } else { while (y) { break; } } ",
	)
	for i, src := range srcs {
		want := render(minic.EagerParse(src))
		if got := render(minic.Parse(src)); got != want {
			t.Errorf("input %d: Parse and the eager reference differ\ninput: %q\n  got: %q\n want: %q", i, src, got, want)
		}
	}
}

func render(f *minic.File, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return minic.Print(f)
}
