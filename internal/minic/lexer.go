package minic

import (
	"strings"
)

// Lexer converts MiniC source text into tokens. `#pragma` lines are
// returned as single TokPragma tokens carrying the raw line; the parser
// hands them to the pragma sub-parser.
type Lexer struct {
	src  string
	off  int
	line int
	col  int
}

// NewLexer creates a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Lex tokenizes the whole input.
func Lex(src string) ([]Token, error) {
	lx := NewLexer(src)
	// Pragma clauses, its one caller in the front end, run about a token
	// per 2.4 bytes in the workloads' offload pragmas.
	toks := make([]Token, 0, len(src)/2+1)
	for {
		t, err := lx.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == TokEOF {
			return toks, nil
		}
	}
}

func (l *Lexer) pos() Pos { return Pos{Line: l.line, Col: l.col} }

func (l *Lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) peek2() byte {
	if l.off+1 >= len(l.src) {
		return 0
	}
	return l.src[l.off+1]
}

func (l *Lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }
func isDigit(c byte) bool { return c >= '0' && c <= '9' }
func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}
func isIdentPart(c byte) bool { return isIdentStart(c) || isDigit(c) }

func (l *Lexer) skipSpaceAndComments() error {
	for l.off < len(l.src) {
		c := l.peek()
		switch {
		case isSpace(c):
			l.advance()
		case c == '/' && l.peek2() == '/':
			for l.off < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case c == '/' && l.peek2() == '*':
			start := l.pos()
			l.advance()
			l.advance()
			closed := false
			for l.off < len(l.src) {
				if l.peek() == '*' && l.peek2() == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				return errf(start, "unterminated block comment")
			}
		default:
			return nil
		}
	}
	return nil
}

// multi-character punctuation, longest first.
var punct3 = []string{"<<=", ">>="}
var punct2 = []string{
	"==", "!=", "<=", ">=", "&&", "||", "+=", "-=", "*=", "/=", "%=",
	"++", "--", "->", "<<", ">>",
}

// Next returns the next token.
func (l *Lexer) Next() (Token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	start := l.pos()
	if l.off >= len(l.src) {
		return Token{Kind: TokEOF, Pos: start}, nil
	}
	c := l.peek()

	// Pragma or other preprocessor line.
	if c == '#' && l.col == colAtLineStart(l) {
		lineStart := l.off
		for l.off < len(l.src) && l.peek() != '\n' {
			l.advance()
		}
		text := strings.TrimSpace(l.src[lineStart:l.off])
		if strings.HasPrefix(text, "#pragma") {
			return Token{Kind: TokPragma, Text: text, Pos: start}, nil
		}
		// Other directives (#include, #define) are accepted and skipped.
		return l.Next()
	}
	if c == '#' {
		return Token{}, errf(start, "'#' not at start of line")
	}

	if isIdentStart(c) {
		s := l.off
		for l.off < len(l.src) && isIdentPart(l.peek()) {
			l.advance()
		}
		text := l.src[s:l.off]
		kind := TokIdent
		if IsKeyword(text) {
			kind = TokKeyword
		}
		return Token{Kind: kind, Text: text, Pos: start}, nil
	}

	if isDigit(c) || (c == '.' && isDigit(l.peek2())) {
		return l.lexNumber(start)
	}

	if c == '"' {
		return l.lexString(start)
	}

	// Punctuation.
	rest := l.src[l.off:]
	for _, p := range punct3 {
		if strings.HasPrefix(rest, p) {
			for range p {
				l.advance()
			}
			return Token{Kind: TokPunct, Text: p, Pos: start}, nil
		}
	}
	for _, p := range punct2 {
		if strings.HasPrefix(rest, p) {
			l.advance()
			l.advance()
			return Token{Kind: TokPunct, Text: p, Pos: start}, nil
		}
	}
	if strings.ContainsRune("+-*/%<>=!&|^~?:;,.(){}[]", rune(c)) {
		l.advance()
		return Token{Kind: TokPunct, Text: string(c), Pos: start}, nil
	}
	return Token{}, errf(start, "unexpected character %q", string(c))
}

// colAtLineStart returns the column of the first non-space character on the
// current line, so that '#' is only treated as a directive when it leads
// the line (possibly indented).
func colAtLineStart(l *Lexer) int {
	// Walk back from l.off to the line start and find the first non-space.
	i := l.off - 1
	for i >= 0 && l.src[i] != '\n' {
		i--
	}
	j := i + 1
	col := 1
	for j < len(l.src) && (l.src[j] == ' ' || l.src[j] == '\t') {
		j++
		col++
	}
	return col
}

func (l *Lexer) lexNumber(start Pos) (Token, error) {
	s := l.off
	isFloat := false
	for l.off < len(l.src) && isDigit(l.peek()) {
		l.advance()
	}
	if l.off < len(l.src) && l.peek() == '.' {
		isFloat = true
		l.advance()
		for l.off < len(l.src) && isDigit(l.peek()) {
			l.advance()
		}
	}
	if l.off < len(l.src) && (l.peek() == 'e' || l.peek() == 'E') {
		isFloat = true
		l.advance()
		if l.off < len(l.src) && (l.peek() == '+' || l.peek() == '-') {
			l.advance()
		}
		if l.off >= len(l.src) || !isDigit(l.peek()) {
			return Token{}, errf(start, "malformed exponent")
		}
		for l.off < len(l.src) && isDigit(l.peek()) {
			l.advance()
		}
	}
	// Suffixes f/F/l/L/u/U are accepted and dropped.
	for l.off < len(l.src) && strings.ContainsRune("fFlLuU", rune(l.peek())) {
		if l.peek() == 'f' || l.peek() == 'F' {
			isFloat = true
		}
		l.advance()
	}
	text := strings.TrimRight(l.src[s:l.off], "fFlLuU")
	kind := TokIntLit
	if isFloat {
		kind = TokFloatLit
	}
	return Token{Kind: kind, Text: text, Pos: start}, nil
}

func (l *Lexer) lexString(start Pos) (Token, error) {
	l.advance() // opening quote
	var b strings.Builder
	for l.off < len(l.src) {
		c := l.advance()
		switch c {
		case '"':
			return Token{Kind: TokStringLit, Text: b.String(), Pos: start}, nil
		case '\\':
			if l.off >= len(l.src) {
				return Token{}, errf(start, "unterminated string")
			}
			e := l.advance()
			switch e {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case '\\', '"':
				b.WriteByte(e)
			default:
				return Token{}, errf(start, "unsupported escape \\%c", e)
			}
		case '\n':
			return Token{}, errf(start, "newline in string literal")
		default:
			b.WriteByte(c)
		}
	}
	return Token{}, errf(start, "unterminated string")
}
