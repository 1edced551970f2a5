package minic

import (
	"fmt"
	"strings"
)

// PragmaKind enumerates the pragma dialect understood by the compiler.
type PragmaKind int

// Pragma kinds.
const (
	// PragmaOmpParallelFor marks `#pragma omp parallel for`.
	PragmaOmpParallelFor PragmaKind = iota
	// PragmaOffload marks `#pragma offload target(mic[:n]) ...` attached to
	// the following loop or block.
	PragmaOffload
	// PragmaOffloadTransfer marks the asynchronous
	// `#pragma offload_transfer target(...) in(...) signal(tag)`.
	PragmaOffloadTransfer
	// PragmaOffloadWait marks `#pragma offload_wait target(...) wait(tag)`.
	PragmaOffloadWait
)

func (k PragmaKind) String() string {
	switch k {
	case PragmaOmpParallelFor:
		return "omp parallel for"
	case PragmaOffload:
		return "offload"
	case PragmaOffloadTransfer:
		return "offload_transfer"
	case PragmaOffloadWait:
		return "offload_wait"
	}
	return "unknown"
}

// TransferItem names one variable in an in/out/inout/nocopy clause.
// The general form handled is
//
//	name[start : length] : length(n) into(buf) alloc_if(e) free_if(e)
//
// where every modifier is optional. Start defaults to 0. Length nil means
// the item is a scalar. Into names the device-side buffer the section lands
// in (defaults to the same name). AllocIf/FreeIf carry LEO's buffer
// lifetime control; nil means the LEO default (allocate and free around
// each offload), which the data-streaming transform overrides to hoist
// allocation out of the pipelined loop.
type TransferItem struct {
	Name      string
	Start     Expr // section start in elements; nil means 0
	Length    Expr // element count; nil for scalars
	Into      string
	IntoStart Expr // section start within Into; nil means 0
	AllocIf   Expr // nil = default
	FreeIf    Expr // nil = default
}

// Dest returns the device-side buffer name the item maps to.
func (it TransferItem) Dest() string {
	if it.Into != "" {
		return it.Into
	}
	return it.Name
}

// Pragma is a parsed pragma line.
type Pragma struct {
	Pos        Pos
	Kind       PragmaKind
	Target     string // "mic" or "mic:0"
	In         []TransferItem
	Out        []TransferItem
	InOut      []TransferItem
	NoCopy     []TransferItem // allocation control without data movement
	Signal     string         // signal tag variable, "" if absent
	Wait       string         // wait tag variable, "" if absent
	Reductions []string       // omp reduction(+:var) variable names
	// Persist marks a COMP runtime extension (§III-C "reusing MIC
	// threads"): the kernel stays resident across repeated executions of
	// this offload, paying launch overhead only once and taking new blocks
	// on COI-style signals.
	Persist bool
}

// AllItems returns in, inout, out, nocopy items concatenated (in that order).
func (p *Pragma) AllItems() []TransferItem {
	out := make([]TransferItem, 0, len(p.In)+len(p.InOut)+len(p.Out)+len(p.NoCopy))
	out = append(out, p.In...)
	out = append(out, p.InOut...)
	out = append(out, p.Out...)
	out = append(out, p.NoCopy...)
	return out
}

// ParsePragma parses the raw text of a `#pragma ...` line.
func ParsePragma(raw string, pos Pos) (*Pragma, error) {
	body := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(raw), "#pragma"))
	switch {
	case body == "omp parallel for" || strings.HasPrefix(body, "omp parallel for "):
		return parseOmpClauses(strings.TrimPrefix(body, "omp parallel for"), pos)
	case strings.HasPrefix(body, "offload_transfer"):
		return parseOffloadClauses(strings.TrimPrefix(body, "offload_transfer"), pos, PragmaOffloadTransfer)
	case strings.HasPrefix(body, "offload_wait"):
		return parseOffloadClauses(strings.TrimPrefix(body, "offload_wait"), pos, PragmaOffloadWait)
	case strings.HasPrefix(body, "offload"):
		return parseOffloadClauses(strings.TrimPrefix(body, "offload"), pos, PragmaOffload)
	}
	return nil, errf(pos, "unknown pragma %q", raw)
}

// parseOffloadClauses parses `target(mic:0) in(a, b : length(n)) ...`.
func parseOffloadClauses(s string, pos Pos, kind PragmaKind) (*Pragma, error) {
	p := &Pragma{Pos: pos, Kind: kind}
	toks, err := Lex(s)
	if err != nil {
		return nil, errf(pos, "pragma: %v", err)
	}
	i := 0
	peek := func() Token { return toks[i] }
	next := func() Token { t := toks[i]; i++; return t }
	expect := func(text string) error {
		t := next()
		if t.Kind != TokPunct || t.Text != text {
			return errf(pos, "pragma: expected %q, got %s", text, t)
		}
		return nil
	}
	for peek().Kind != TokEOF {
		t := next()
		if t.Kind != TokIdent && t.Kind != TokKeyword {
			return nil, errf(pos, "pragma: expected clause name, got %s", t)
		}
		clause := t.Text
		if err := expect("("); err != nil {
			return nil, err
		}
		// Capture the balanced-paren argument token range.
		depth := 1
		start := i
		for depth > 0 {
			tt := next()
			if tt.Kind == TokEOF {
				return nil, errf(pos, "pragma: unbalanced parentheses in %s clause", clause)
			}
			if tt.Kind == TokPunct && tt.Text == "(" {
				depth++
			}
			if tt.Kind == TokPunct && tt.Text == ")" {
				depth--
			}
		}
		args := toks[start : i-1]
		switch clause {
		case "target":
			p.Target = renderTokens(args)
		case "in", "out", "inout", "nocopy":
			items, err := parseTransferItems(args, pos)
			if err != nil {
				return nil, err
			}
			switch clause {
			case "in":
				p.In = append(p.In, items...)
			case "out":
				p.Out = append(p.Out, items...)
			case "inout":
				p.InOut = append(p.InOut, items...)
			default:
				p.NoCopy = append(p.NoCopy, items...)
			}
		case "signal", "wait":
			name := renderTokens(args)
			name = strings.TrimPrefix(name, "&")
			if clause == "signal" {
				p.Signal = name
			} else {
				p.Wait = name
			}
		case "persist":
			p.Persist = renderTokens(args) != "0"
		default:
			return nil, errf(pos, "pragma: unsupported clause %q", clause)
		}
	}
	return p, nil
}

// parseTransferItems parses the argument of an in/out/inout/nocopy clause.
// Accepted per item:
//
//	name
//	name[start : len]
//	name : length(n) [into(buf)] [alloc_if(e)] [free_if(e)]
//
// plus the LEO list form `a, b : length(expr)` where one trailing modifier
// run applies to every name listed since the previous modifier run.
func parseTransferItems(toks []Token, pos Pos) ([]TransferItem, error) {
	segments, err := splitTopLevel(toks, ",", pos)
	if err != nil {
		return nil, err
	}
	var items []TransferItem
	pendingFrom := 0 // names in the current run lacking a modifier
	for _, seg := range segments {
		parts, err := splitTopLevel(seg, ":", pos)
		if err != nil {
			return nil, err
		}
		if len(parts) > 2 {
			return nil, errf(pos, "pragma: multiple ':' in transfer item")
		}
		item, err := parseItemName(parts[0], pos)
		if err != nil {
			return nil, err
		}
		items = append(items, item)
		if len(parts) == 2 {
			mods, err := parseItemModifiers(parts[1], pos)
			if err != nil {
				return nil, err
			}
			// A trailing modifier run covers every name listed since the
			// previous run (LEO semantics).
			for i := pendingFrom; i < len(items); i++ {
				applyModifiers(&items[i], mods)
			}
			pendingFrom = len(items)
		}
	}
	if len(items) == 0 {
		return nil, errf(pos, "pragma: empty transfer clause")
	}
	return items, nil
}

// parseItemName parses `name` or `name[start : len]`.
func parseItemName(toks []Token, pos Pos) (TransferItem, error) {
	if len(toks) == 0 || toks[0].Kind != TokIdent {
		return TransferItem{}, errf(pos, "pragma: expected variable name, got %s", renderTokens(toks))
	}
	item := TransferItem{Name: toks[0].Text}
	rest := toks[1:]
	if len(rest) == 0 {
		return item, nil
	}
	if rest[0].Text != "[" || rest[len(rest)-1].Text != "]" {
		return TransferItem{}, errf(pos, "pragma: malformed section on %s", item.Name)
	}
	inner := rest[1 : len(rest)-1]
	halves, err := splitTopLevel(inner, ":", pos)
	if err != nil {
		return TransferItem{}, err
	}
	if len(halves) != 2 {
		return TransferItem{}, errf(pos, "pragma: section must be [start : length] on %s", item.Name)
	}
	if item.Start, err = parseExprTokens(halves[0], pos); err != nil {
		return TransferItem{}, err
	}
	if item.Length, err = parseExprTokens(halves[1], pos); err != nil {
		return TransferItem{}, err
	}
	return item, nil
}

type itemModifiers struct {
	length    Expr
	into      string
	intoStart Expr
	allocIf   Expr
	freeIf    Expr
}

func applyModifiers(it *TransferItem, m itemModifiers) {
	if m.length != nil && it.Length == nil {
		it.Length = m.length
	}
	if m.into != "" {
		it.Into = m.into
		it.IntoStart = m.intoStart
	}
	if m.allocIf != nil {
		it.AllocIf = m.allocIf
	}
	if m.freeIf != nil {
		it.FreeIf = m.freeIf
	}
}

// parseItemModifiers parses `length(n) into(buf) alloc_if(e) free_if(e)`.
func parseItemModifiers(toks []Token, pos Pos) (itemModifiers, error) {
	var m itemModifiers
	i := 0
	for i < len(toks) {
		name := toks[i]
		if name.Kind != TokIdent {
			return m, errf(pos, "pragma: expected modifier, got %s", name)
		}
		i++
		if i >= len(toks) || toks[i].Text != "(" {
			return m, errf(pos, "pragma: expected '(' after %s", name.Text)
		}
		depth := 0
		start := i + 1
		for ; i < len(toks); i++ {
			if toks[i].Text == "(" {
				depth++
			} else if toks[i].Text == ")" {
				depth--
				if depth == 0 {
					break
				}
			}
		}
		if depth != 0 {
			return m, errf(pos, "pragma: unbalanced parentheses in %s", name.Text)
		}
		args := toks[start:i]
		i++ // past ')'
		switch name.Text {
		case "length":
			e, err := parseExprTokens(args, pos)
			if err != nil {
				return m, err
			}
			m.length = e
		case "into":
			item, err := parseItemName(args, pos)
			if err != nil || (item.Start == nil && len(args) != 1) {
				return m, errf(pos, "pragma: into() takes a buffer name or section")
			}
			m.into = item.Name
			m.intoStart = item.Start
		case "alloc_if":
			e, err := parseExprTokens(args, pos)
			if err != nil {
				return m, err
			}
			m.allocIf = e
		case "free_if":
			e, err := parseExprTokens(args, pos)
			if err != nil {
				return m, err
			}
			m.freeIf = e
		default:
			return m, errf(pos, "pragma: unknown modifier %q", name.Text)
		}
	}
	return m, nil
}

// parseOmpClauses parses the tail of `omp parallel for`, currently only
// reduction(op:var,...) clauses.
func parseOmpClauses(s string, pos Pos) (*Pragma, error) {
	p := &Pragma{Pos: pos, Kind: PragmaOmpParallelFor}
	s = strings.TrimSpace(s)
	for s != "" {
		if !strings.HasPrefix(s, "reduction") {
			return nil, errf(pos, "pragma: unsupported omp clause %q", s)
		}
		open := strings.Index(s, "(")
		close := strings.Index(s, ")")
		if open < 0 || close < open {
			return nil, errf(pos, "pragma: malformed reduction clause")
		}
		body := s[open+1 : close]
		colon := strings.Index(body, ":")
		if colon < 0 {
			return nil, errf(pos, "pragma: reduction needs op:var")
		}
		for _, v := range strings.Split(body[colon+1:], ",") {
			v = strings.TrimSpace(v)
			if v != "" {
				p.Reductions = append(p.Reductions, v)
			}
		}
		s = strings.TrimSpace(s[close+1:])
	}
	return p, nil
}

// splitTopLevel splits toks on the given punctuation at zero paren and
// bracket depth (so `a[off : n]` keeps its section colon).
func splitTopLevel(toks []Token, sep string, pos Pos) ([][]Token, error) {
	var out [][]Token
	depth := 0
	start := 0
	for i, t := range toks {
		if t.Kind != TokPunct {
			continue
		}
		switch t.Text {
		case "(", "[":
			depth++
		case ")", "]":
			depth--
			if depth < 0 {
				return nil, errf(pos, "pragma: unbalanced %q", t.Text)
			}
		case sep:
			if depth == 0 {
				out = append(out, toks[start:i])
				start = i + 1
			}
		}
	}
	out = append(out, toks[start:])
	return out, nil
}

// parseExprTokens parses a standalone expression from a token slice.
func parseExprTokens(toks []Token, pos Pos) (Expr, error) {
	pp := &Parser{src: &tokenSlice{toks: toks, eof: Token{Kind: TokEOF, Pos: pos}}}
	e, err := pp.parseExpr()
	if err != nil {
		return nil, err
	}
	if pp.peek().Kind != TokEOF {
		return nil, errf(pos, "pragma: trailing tokens after expression")
	}
	return e, nil
}

func renderTokens(toks []Token) string {
	var b strings.Builder
	for _, t := range toks {
		b.WriteString(t.Text)
	}
	return b.String()
}

// String renders the pragma back to source form.
func (p *Pragma) String() string {
	var b strings.Builder
	b.WriteString("#pragma ")
	switch p.Kind {
	case PragmaOmpParallelFor:
		b.WriteString("omp parallel for")
		for i, r := range p.Reductions {
			if i == 0 {
				fmt.Fprintf(&b, " reduction(+:%s", r)
			} else {
				fmt.Fprintf(&b, ",%s", r)
			}
		}
		if len(p.Reductions) > 0 {
			b.WriteString(")")
		}
		return b.String()
	case PragmaOffload:
		b.WriteString("offload")
	case PragmaOffloadTransfer:
		b.WriteString("offload_transfer")
	case PragmaOffloadWait:
		b.WriteString("offload_wait")
	}
	if p.Target != "" {
		fmt.Fprintf(&b, " target(%s)", p.Target)
	}
	writeItems := func(name string, items []TransferItem) {
		if len(items) == 0 {
			return
		}
		fmt.Fprintf(&b, " %s(", name)
		for i, it := range items {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(it.Name)
			if it.Start != nil {
				fmt.Fprintf(&b, "[%s : %s]", ExprString(it.Start), ExprString(it.Length))
			}
			var mods []string
			if it.Length != nil && it.Start == nil {
				mods = append(mods, fmt.Sprintf("length(%s)", ExprString(it.Length)))
			}
			if it.Into != "" {
				if it.IntoStart != nil {
					mods = append(mods, fmt.Sprintf("into(%s[%s : %s])", it.Into, ExprString(it.IntoStart), ExprString(it.Length)))
				} else {
					mods = append(mods, fmt.Sprintf("into(%s)", it.Into))
				}
			}
			if it.AllocIf != nil {
				mods = append(mods, fmt.Sprintf("alloc_if(%s)", ExprString(it.AllocIf)))
			}
			if it.FreeIf != nil {
				mods = append(mods, fmt.Sprintf("free_if(%s)", ExprString(it.FreeIf)))
			}
			if len(mods) > 0 {
				b.WriteString(" : ")
				b.WriteString(strings.Join(mods, " "))
			}
		}
		b.WriteString(")")
	}
	writeItems("in", p.In)
	writeItems("inout", p.InOut)
	writeItems("out", p.Out)
	writeItems("nocopy", p.NoCopy)
	if p.Persist {
		b.WriteString(" persist(1)")
	}
	if p.Signal != "" {
		fmt.Fprintf(&b, " signal(&%s)", p.Signal)
	}
	if p.Wait != "" {
		fmt.Fprintf(&b, " wait(&%s)", p.Wait)
	}
	return b.String()
}
