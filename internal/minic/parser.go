package minic

import (
	"strconv"
)

// Parser is a recursive-descent parser for MiniC. It pulls tokens from
// its source on demand through a three-token window; peekN(2) is its
// deepest lookahead.
type Parser struct {
	src     tokenSource
	win     [4]Token // a ring: win[h&3] is the current token
	h       int      // ring position of the current token
	n       int      // tokens buffered in win, at most 3
	done    bool     // the source has yielded eof or failed
	eof     Token    // the token the window reads once done
	lexErr  error    // the source's first error
	structs map[string]*StructType
}

// tokenSource yields tokens in order, ending with TokEOF: a *Lexer, or a
// tokenSlice of already lexed ones.
type tokenSource interface {
	Next() (Token, error)
}

// tokenSlice yields lexed tokens, then eof for good.
type tokenSlice struct {
	toks []Token
	eof  Token
}

func (s *tokenSlice) Next() (Token, error) {
	if len(s.toks) == 0 {
		return s.eof, nil
	}
	t := s.toks[0]
	s.toks = s.toks[1:]
	return t, nil
}

// Parse lexes and parses a translation unit. A lexical error anywhere in
// src wins over a parse error: on a parse failure the rest of the input
// is lexed, and its first lexical error, if any, is what Parse returns.
func Parse(src string) (*File, error) {
	return parseFrom(NewLexer(src))
}

func parseFrom(src tokenSource) (*File, error) {
	p := &Parser{src: src, structs: map[string]*StructType{}}
	f, err := p.parseFile()
	if err != nil {
		for !p.done {
			t, lerr := src.Next()
			if lerr != nil {
				return nil, lerr
			}
			p.done = t.Kind == TokEOF
		}
	}
	if p.lexErr != nil {
		return nil, p.lexErr
	}
	return f, err
}

// MustParse is Parse that panics on error; for tests and embedded sources.
func MustParse(src string) *File {
	f, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return f
}

// fill buffers tokens until the window holds k+1. After the source's
// last token, or its first error, the window reads eof.
func (p *Parser) fill(k int) {
	for p.n <= k {
		if !p.done {
			t, err := p.src.Next()
			if err != nil {
				p.lexErr, t = err, Token{Kind: TokEOF}
			}
			if t.Kind != TokEOF {
				p.win[(p.h+p.n)&3] = t
				p.n++
				continue
			}
			p.done, p.eof = true, t
		}
		p.win[(p.h+p.n)&3] = p.eof
		p.n++
	}
}

func (p *Parser) peek() Token {
	if p.n == 0 {
		p.fill(0)
	}
	return p.win[p.h&3]
}

func (p *Parser) peekN(n int) Token {
	p.fill(n)
	return p.win[(p.h+n)&3]
}

func (p *Parser) next() Token {
	t := p.peek()
	p.h++
	p.n--
	return t
}

func (p *Parser) at(text string) bool {
	t := p.peek()
	return (t.Kind == TokPunct || t.Kind == TokKeyword) && t.Text == text
}

func (p *Parser) accept(text string) bool {
	if p.at(text) {
		p.next()
		return true
	}
	return false
}

func (p *Parser) expect(text string) (Token, error) {
	if p.at(text) {
		return p.next(), nil
	}
	return Token{}, errf(p.peek().Pos, "expected %q, got %s", text, p.peek())
}

func (p *Parser) expectIdent() (Token, error) {
	t := p.peek()
	if t.Kind != TokIdent {
		return Token{}, errf(t.Pos, "expected identifier, got %s", t)
	}
	return p.next(), nil
}

// ---- Declarations ----

func (p *Parser) parseFile() (*File, error) {
	f := &File{}
	for p.peek().Kind != TokEOF {
		d, err := p.parseTopDecl()
		if err != nil {
			return nil, err
		}
		if d != nil {
			f.Decls = append(f.Decls, d)
		}
	}
	return f, nil
}

func (p *Parser) parseTopDecl() (Decl, error) {
	// struct definition?
	if p.at("struct") && p.peekN(2).Text == "{" {
		return p.parseStructDecl()
	}
	shared := p.accept("_Cilk_shared")
	for p.accept("static") || p.accept("const") {
	}
	if !shared {
		shared = p.accept("_Cilk_shared")
	}
	typ, err := p.parseType()
	if err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if p.at("(") {
		return p.parseFuncRest(typ, name, shared)
	}
	vd, err := p.parseVarRest(typ, name, shared)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(";"); err != nil {
		return nil, err
	}
	return vd, nil
}

func (p *Parser) parseStructDecl() (Decl, error) {
	pos := p.peek().Pos
	p.next() // struct
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect("{"); err != nil {
		return nil, err
	}
	st := &StructType{Name: name.Text}
	p.structs[name.Text] = st
	for !p.at("}") {
		ft, err := p.parseType()
		if err != nil {
			return nil, err
		}
		for {
			fn, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			fieldType := ft
			if p.accept("[") {
				ln, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				if _, err := p.expect("]"); err != nil {
					return nil, err
				}
				fieldType = &Array{Elem: ft, Len: ln}
			}
			st.Fields = append(st.Fields, StructField{Name: fn.Text, Type: fieldType})
			if !p.accept(",") {
				break
			}
		}
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
	}
	p.next() // }
	if _, err := p.expect(";"); err != nil {
		return nil, err
	}
	return &StructDecl{declBase: declBase{pos: pos}, Type: st}, nil
}

// parseType parses a base type plus pointer stars: `double *`, `struct vec *`.
func (p *Parser) parseType() (Type, error) {
	t := p.peek()
	var base Type
	switch {
	case t.Kind == TokKeyword && t.Text == "int":
		p.next()
		base = IntType
	case t.Kind == TokKeyword && t.Text == "long":
		p.next()
		base = LongType
	case t.Kind == TokKeyword && t.Text == "float":
		p.next()
		base = FloatType
	case t.Kind == TokKeyword && t.Text == "double":
		p.next()
		base = DoubleType
	case t.Kind == TokKeyword && t.Text == "char":
		p.next()
		base = CharType
	case t.Kind == TokKeyword && t.Text == "void":
		p.next()
		base = VoidType
	case t.Kind == TokKeyword && t.Text == "struct":
		p.next()
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		st, ok := p.structs[name.Text]
		if !ok {
			return nil, errf(name.Pos, "undefined struct %q", name.Text)
		}
		base = st
	default:
		return nil, errf(t.Pos, "expected type, got %s", t)
	}
	for p.accept("*") {
		base = &Pointer{Elem: base}
	}
	return base, nil
}

func (p *Parser) parseFuncRest(ret Type, name Token, shared bool) (Decl, error) {
	fd := &FuncDecl{declBase: declBase{pos: name.Pos}, Name: name.Text, Ret: ret, Shared: shared}
	p.next() // (
	if !p.at(")") {
		for {
			if p.accept("void") && p.at(")") {
				break
			}
			pt, err := p.parseType()
			if err != nil {
				return nil, err
			}
			pn, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			if p.accept("[") {
				if !p.at("]") {
					if _, err := p.parseExpr(); err != nil {
						return nil, err
					}
				}
				if _, err := p.expect("]"); err != nil {
					return nil, err
				}
				pt = &Pointer{Elem: pt}
			}
			fd.Params = append(fd.Params, Param{Pos: pn.Pos, Name: pn.Text, Type: pt})
			if !p.accept(",") {
				break
			}
		}
	}
	if _, err := p.expect(")"); err != nil {
		return nil, err
	}
	if p.accept(";") {
		return fd, nil // prototype
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	fd.Body = body
	return fd, nil
}

func (p *Parser) parseVarRest(typ Type, name Token, shared bool) (*VarDecl, error) {
	vd := &VarDecl{declBase: declBase{pos: name.Pos}, Name: name.Text, Type: typ, Shared: shared}
	for p.accept("[") {
		var ln Expr
		if !p.at("]") {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			ln = e
		}
		if _, err := p.expect("]"); err != nil {
			return nil, err
		}
		vd.Type = &Array{Elem: vd.Type, Len: ln}
	}
	if p.accept("=") {
		init, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		vd.Init = init
	}
	return vd, nil
}

// ---- Statements ----

func (p *Parser) parseBlock() (*Block, error) {
	lb, err := p.expect("{")
	if err != nil {
		return nil, err
	}
	b := &Block{stmtBase: stmtBase{pos: lb.Pos}}
	for !p.at("}") {
		if p.peek().Kind == TokEOF {
			return nil, errf(lb.Pos, "unterminated block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	p.next() // }
	return b, nil
}

func (p *Parser) parseStmt() (Stmt, error) {
	t := p.peek()
	switch {
	case t.Kind == TokPragma:
		return p.parsePragmaStmt()
	case t.Kind == TokKeyword:
		switch t.Text {
		case "for":
			return p.parseFor(nil)
		case "while":
			return p.parseWhile()
		case "if":
			return p.parseIf()
		case "return":
			p.next()
			rs := &ReturnStmt{stmtBase: stmtBase{pos: t.Pos}}
			if !p.at(";") {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				rs.X = e
			}
			_, err := p.expect(";")
			return rs, err
		case "break":
			p.next()
			_, err := p.expect(";")
			return &BreakStmt{stmtBase{pos: t.Pos}}, err
		case "continue":
			p.next()
			_, err := p.expect(";")
			return &ContinueStmt{stmtBase{pos: t.Pos}}, err
		case "int", "long", "float", "double", "char", "struct", "const", "static", "_Cilk_shared":
			return p.parseDeclStmt()
		}
	case t.Kind == TokPunct && t.Text == "{":
		return p.parseBlock()
	}
	return p.parseSimpleStmt(true)
}

// parsePragmaStmt handles a pragma in statement position: omp/offload
// pragmas stack up and must precede a for loop; transfer/wait pragmas are
// standalone statements.
func (p *Parser) parsePragmaStmt() (Stmt, error) {
	var pragmas []*Pragma
	for p.peek().Kind == TokPragma {
		t := p.next()
		pr, err := ParsePragma(t.Text, t.Pos)
		if err != nil {
			return nil, err
		}
		if pr.Kind == PragmaOffloadTransfer || pr.Kind == PragmaOffloadWait {
			if len(pragmas) > 0 {
				return nil, errf(t.Pos, "offload_transfer/offload_wait cannot follow loop pragmas")
			}
			return &PragmaStmt{stmtBase: stmtBase{pos: t.Pos}, P: pr}, nil
		}
		pragmas = append(pragmas, pr)
	}
	if !p.at("for") {
		return nil, errf(p.peek().Pos, "expected for loop after %s pragma", pragmas[len(pragmas)-1].Kind)
	}
	return p.parseFor(pragmas)
}

func (p *Parser) parseFor(pragmas []*Pragma) (Stmt, error) {
	t, err := p.expect("for")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect("("); err != nil {
		return nil, err
	}
	fs := &ForStmt{stmtBase: stmtBase{pos: t.Pos}, Pragmas: pragmas}
	if !p.at(";") {
		if kw := p.peek(); kw.Kind == TokKeyword && isTypeKeyword(kw.Text) {
			ds, err := p.parseDeclNoSemi()
			if err != nil {
				return nil, err
			}
			fs.Init = ds
		} else {
			s, err := p.parseSimpleStmt(false)
			if err != nil {
				return nil, err
			}
			fs.Init = s
		}
	}
	if _, err := p.expect(";"); err != nil {
		return nil, err
	}
	if !p.at(";") {
		c, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		fs.Cond = c
	}
	if _, err := p.expect(";"); err != nil {
		return nil, err
	}
	if !p.at(")") {
		s, err := p.parseSimpleStmt(false)
		if err != nil {
			return nil, err
		}
		fs.Post = s
	}
	if _, err := p.expect(")"); err != nil {
		return nil, err
	}
	body, err := p.parseLoopBody()
	if err != nil {
		return nil, err
	}
	fs.Body = body
	return fs, nil
}

// parseLoopBody accepts either a block or a single statement (wrapped).
func (p *Parser) parseLoopBody() (*Block, error) {
	if p.at("{") {
		return p.parseBlock()
	}
	s, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	return &Block{stmtBase: stmtBase{pos: s.Pos()}, Stmts: []Stmt{s}}, nil
}

func (p *Parser) parseWhile() (Stmt, error) {
	t := p.next()
	if _, err := p.expect("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(")"); err != nil {
		return nil, err
	}
	body, err := p.parseLoopBody()
	if err != nil {
		return nil, err
	}
	return &WhileStmt{stmtBase: stmtBase{pos: t.Pos}, Cond: cond, Body: body}, nil
}

func (p *Parser) parseIf() (Stmt, error) {
	t := p.next()
	if _, err := p.expect("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(")"); err != nil {
		return nil, err
	}
	then, err := p.parseLoopBody()
	if err != nil {
		return nil, err
	}
	is := &IfStmt{stmtBase: stmtBase{pos: t.Pos}, Cond: cond, Then: then}
	if p.accept("else") {
		if p.at("if") {
			e, err := p.parseIf()
			if err != nil {
				return nil, err
			}
			is.Else = e
		} else {
			e, err := p.parseLoopBody()
			if err != nil {
				return nil, err
			}
			is.Else = e
		}
	}
	return is, nil
}

func isTypeKeyword(s string) bool {
	switch s {
	case "int", "long", "float", "double", "char", "struct", "const", "static", "_Cilk_shared":
		return true
	}
	return false
}

func (p *Parser) parseDeclStmt() (Stmt, error) {
	ds, err := p.parseDeclNoSemi()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(";"); err != nil {
		return nil, err
	}
	return ds, nil
}

func (p *Parser) parseDeclNoSemi() (Stmt, error) {
	shared := p.accept("_Cilk_shared")
	for p.accept("static") || p.accept("const") {
	}
	typ, err := p.parseType()
	if err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	vd, err := p.parseVarRest(typ, name, shared)
	if err != nil {
		return nil, err
	}
	return &DeclStmt{stmtBase: stmtBase{pos: name.Pos}, Decl: vd}, nil
}

// parseSimpleStmt parses an assignment, inc/dec, or expression statement.
// When consumeSemi is true the trailing ';' is required and consumed.
func (p *Parser) parseSimpleStmt(consumeSemi bool) (Stmt, error) {
	pos := p.peek().Pos
	lhs, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	var st Stmt
	t := p.peek()
	switch {
	case t.Kind == TokPunct && (t.Text == "=" || t.Text == "+=" || t.Text == "-=" || t.Text == "*=" || t.Text == "/=" || t.Text == "%="):
		p.next()
		rhs, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st = &AssignStmt{stmtBase: stmtBase{pos: pos}, Op: t.Text, LHS: lhs, RHS: rhs}
	case t.Kind == TokPunct && (t.Text == "++" || t.Text == "--"):
		p.next()
		st = &IncDecStmt{stmtBase: stmtBase{pos: pos}, Op: t.Text, X: lhs}
	default:
		st = &ExprStmt{stmtBase: stmtBase{pos: pos}, X: lhs}
	}
	if consumeSemi {
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// ---- Expressions ----

var binPrec = map[string]int{
	"||": 1,
	"&&": 2,
	"==": 3, "!=": 3,
	"<": 4, "<=": 4, ">": 4, ">=": 4,
	"<<": 5, ">>": 5,
	"+": 6, "-": 6,
	"*": 7, "/": 7, "%": 7,
}

func (p *Parser) parseExpr() (Expr, error) {
	cond, err := p.parseBinary(1)
	if err != nil {
		return nil, err
	}
	if !p.at("?") {
		return cond, nil
	}
	q := p.next() // '?'
	then, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(":"); err != nil {
		return nil, err
	}
	els, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &CondExpr{exprBase: exprBase{pos: q.Pos}, Cond: cond, Then: then, Else: els}, nil
}

func (p *Parser) parseBinary(minPrec int) (Expr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.Kind != TokPunct {
			return lhs, nil
		}
		prec, ok := binPrec[t.Text]
		if !ok || prec < minPrec {
			return lhs, nil
		}
		p.next()
		rhs, err := p.parseBinary(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &BinaryExpr{exprBase: exprBase{pos: t.Pos}, Op: t.Text, X: lhs, Y: rhs}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	t := p.peek()
	if t.Kind == TokPunct && (t.Text == "-" || t.Text == "!" || t.Text == "*" || t.Text == "&" || t.Text == "+") {
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if t.Text == "+" {
			return x, nil
		}
		return &UnaryExpr{exprBase: exprBase{pos: t.Pos}, Op: t.Text, X: x}, nil
	}
	if t.Kind == TokKeyword && t.Text == "sizeof" {
		p.next()
		if _, err := p.expect("("); err != nil {
			return nil, err
		}
		typ, err := p.parseType()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
		se := &SizeofExpr{exprBase: exprBase{pos: t.Pos}, Of: typ}
		se.SetType(LongType)
		return se, nil
	}
	return p.parsePostfix()
}

func (p *Parser) parsePostfix() (Expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.Kind != TokPunct {
			return x, nil
		}
		switch t.Text {
		case "(":
			id, ok := x.(*Ident)
			if !ok {
				return nil, errf(t.Pos, "call target must be a function name")
			}
			p.next()
			call := &CallExpr{exprBase: exprBase{pos: t.Pos}, Fun: id}
			if !p.at(")") {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					call.Args = append(call.Args, a)
					if !p.accept(",") {
						break
					}
				}
			}
			if _, err := p.expect(")"); err != nil {
				return nil, err
			}
			x = call
		case "[":
			p.next()
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect("]"); err != nil {
				return nil, err
			}
			x = &IndexExpr{exprBase: exprBase{pos: t.Pos}, X: x, Index: idx}
		case ".", "->":
			p.next()
			fn, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			x = &MemberExpr{exprBase: exprBase{pos: t.Pos}, X: x, Field: fn.Text, Arrow: t.Text == "->"}
		default:
			return x, nil
		}
	}
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.Kind {
	case TokIdent:
		p.next()
		return NewIdent(t.Pos, t.Text), nil
	case TokIntLit:
		p.next()
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, errf(t.Pos, "bad integer %q", t.Text)
		}
		e := &IntLit{exprBase: exprBase{pos: t.Pos}, Value: v}
		e.SetType(IntType)
		return e, nil
	case TokFloatLit:
		p.next()
		v, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, errf(t.Pos, "bad float %q", t.Text)
		}
		e := &FloatLit{exprBase: exprBase{pos: t.Pos}, Value: v, Text: t.Text}
		e.SetType(DoubleType)
		return e, nil
	case TokStringLit:
		p.next()
		e := &StringLit{exprBase: exprBase{pos: t.Pos}, Value: t.Text}
		e.SetType(&Pointer{Elem: CharType})
		return e, nil
	case TokPunct:
		if t.Text == "(" {
			p.next()
			// Cast: ( type ... ) — accepted and recorded as a no-op paren.
			if kw := p.peek(); kw.Kind == TokKeyword && isTypeKeyword(kw.Text) && kw.Text != "const" && kw.Text != "static" {
				if _, err := p.parseType(); err != nil {
					return nil, err
				}
				if _, err := p.expect(")"); err != nil {
					return nil, err
				}
				return p.parseUnary() // value of the cast operand
			}
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(")"); err != nil {
				return nil, err
			}
			return &ParenExpr{exprBase: exprBase{pos: t.Pos}, X: x}, nil
		}
	}
	return nil, errf(t.Pos, "expected expression, got %s", t)
}
