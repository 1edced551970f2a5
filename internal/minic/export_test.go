package minic

// EagerParse is the parser as it ran over a token slice: lex the whole
// input first, so any lexical error wins, then parse the tokens.
func EagerParse(src string) (*File, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	return parseFrom(&tokenSlice{toks: toks})
}
