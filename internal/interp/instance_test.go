package interp

import (
	"strings"
	"testing"
)

// TestInstanceSharesLayout builds a state-only instance from a compiled
// program's layout: the same globals, scalar initializers and array
// shapes, with storage of its own.
func TestInstanceSharesLayout(t *testing.T) {
	p, err := Compile(`
float a[8];
float *q;
float k = 2.5;
int main(void) { return 0; }
`)
	if err != nil {
		t.Fatal(err)
	}
	inst := NewInstance(p.Layout(), nil)
	if inst.Layout() != p.Layout() || inst.File() != nil {
		t.Fatal("instance does not share the program's layout, or carries its AST")
	}
	if err := inst.Reset(); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(inst.GlobalNames(), ","), strings.Join(p.GlobalNames(), ","); got != want {
		t.Fatalf("instance globals %s, program %s", got, want)
	}
	if k := scalar(t, inst, "k"); k != 2.5 {
		t.Fatalf("k = %v, want its initializer 2.5", k)
	}
	a, err := inst.ArrayData("a")
	if err != nil || len(a) != 8 {
		t.Fatalf("a = %v, %v; want 8 zeroed elements", a, err)
	}
	a[3] = 7
	if pa, _ := p.ArrayData("a"); pa[3] != 0 {
		t.Fatal("instance storage aliases the program's")
	}
	if _, err := inst.ArrayData("q"); err == nil {
		t.Fatal("an unallocated pointer global reported storage")
	}
	if err := inst.Run(NullBackend{}); err == nil {
		t.Fatal("an instance without an engine ran")
	}
}

// TestSetArrayReplacesPendingStorage injects an input before the first
// read: the zeroed storage Reset scheduled is never allocated.
func TestSetArrayReplacesPendingStorage(t *testing.T) {
	p, err := Compile("float a[4];\nint main(void) { a[1] = a[1] + 1.0; return 0; }\n")
	if err != nil {
		t.Fatal(err)
	}
	in := []float64{1, 2, 3, 4}
	if err := p.SetArray("a", in); err != nil {
		t.Fatal(err)
	}
	if err := p.Run(NullBackend{}); err != nil {
		t.Fatal(err)
	}
	if in[1] != 3 {
		t.Fatalf("a[1] = %v: the run did not use the injected storage", in[1])
	}
}

func TestNegativeGlobalArrayLengthIsError(t *testing.T) {
	_, err := Compile("float a[-4];\nint main(void) { return 0; }\n")
	if err == nil || !strings.Contains(err.Error(), "negative length") {
		t.Fatalf("err = %v, want a negative-length compile error", err)
	}
}
