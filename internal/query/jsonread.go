package query

// JSONRead is one JSON single read as DecodeJSONRead finds it: the body of a
// POST /query or POST /groupby, before any URL override.
type JSONRead struct {
	Estimator string
	Version   int
	Item      BatchItem
}

// The keys of the shape DecodeJSONRead reads, in the order json.Marshal
// writes them; a POST /query body knows the first three.
var (
	readKeys       = []string{"estimator", "predicate", "version", "group_by"}
	predicateKeys  = []string{"num_attrs", "where"}
	constraintKeys = []string{"attr", "kind", "value", "lo", "hi", "values"}
	constraintKind = []string{"eq", "range", "set", "any"}
)

// DecodeJSONRead decodes the body of a POST /query (groupBy false) or POST
// /groupby (groupBy true) in one pass, when the body has the shape
// json.Marshal of the server's request types writes:
//
//   - objects of known keys only, each in exact case and at most once;
//   - a "where" list sorted by attribute;
//   - integers that are non-negative, and strings of printable ASCII
//     without escapes;
//   - no null, and nothing but whitespace after the object.
//
// Its predicate then goes through the validation UnmarshalJSON applies, so
// err is the error the encoding/json path returns for the same body. ok is
// false for every other body: the caller decodes those with encoding/json,
// which stays the reference for what is accepted and for every error text.
func DecodeJSONRead(data []byte, groupBy bool) (rd JSONRead, ok bool, err error) {
	l := jsonLexer{b: data, ok: true}
	keys := readKeys[:3]
	if groupBy {
		keys = readKeys
	}
	var w wirePredicate
	hasPred := false
	l.object(keys, func(k int) {
		switch k {
		case 0:
			rd.Estimator = string(l.str())
		case 1:
			hasPred = true
			w = l.predicate()
		case 2:
			rd.Version = l.uint()
		case 3:
			rd.Item.GroupBy = l.uints()
		}
	})
	l.space()
	if !l.ok || l.i != len(data) {
		return JSONRead{}, false, nil
	}
	if hasPred {
		p, err := w.predicate()
		if err != nil {
			return JSONRead{}, true, err
		}
		rd.Item.Pred = &p
	}
	return rd, true, nil
}

// jsonLexer reads the shape DecodeJSONRead takes. ok turns false, for good,
// at the first byte outside it; what the reads return after that is never
// used.
type jsonLexer struct {
	b  []byte
	i  int
	ok bool
	// ints is the slab the constraints' scalar fields point into.
	ints []int
}

func (l *jsonLexer) space() {
	for l.i < len(l.b) {
		switch l.b[l.i] {
		case ' ', '\t', '\n', '\r':
			l.i++
		default:
			return
		}
	}
}

// eat consumes c, after any whitespace, and reports whether it was there.
func (l *jsonLexer) eat(c byte) bool {
	l.space()
	if l.ok && l.i < len(l.b) && l.b[l.i] == c {
		l.i++
		return true
	}
	return false
}

func (l *jsonLexer) want(c byte) {
	if !l.eat(c) {
		l.ok = false
	}
}

// str reads a string of printable ASCII without escapes and returns its
// bytes, which alias the input.
func (l *jsonLexer) str() []byte {
	l.want('"')
	for start := l.i; l.ok && l.i < len(l.b); {
		c := l.b[l.i]
		l.i++
		if c == '"' {
			return l.b[start : l.i-1]
		}
		if c < 0x20 || c > 0x7e || c == '\\' {
			break
		}
	}
	l.ok = false
	return nil
}

// uint reads a non-negative integer of at most 18 digits, which no int
// overflows. A fraction or an exponent is left unread, and what follows an
// integer must close a value, so it ends the shape.
func (l *jsonLexer) uint() int {
	l.space()
	start, v := l.i, 0
	for l.i < len(l.b) && l.i-start <= 18 && '0' <= l.b[l.i] && l.b[l.i] <= '9' {
		v = v*10 + int(l.b[l.i]-'0')
		l.i++
	}
	if n := l.i - start; n == 0 || n > 18 || (n > 1 && l.b[start] == '0') {
		l.ok = false
	}
	return v
}

// intp reads an integer into the slab and points at it.
func (l *jsonLexer) intp() *int {
	if len(l.ints) == cap(l.ints) {
		l.ints = make([]int, 0, 8)
	}
	l.ints = append(l.ints, l.uint())
	return &l.ints[len(l.ints)-1]
}

// list reads an array whose elements elem reads.
func (l *jsonLexer) list(elem func()) {
	l.want('[')
	if l.eat(']') {
		return
	}
	for l.ok {
		elem()
		if !l.eat(',') {
			l.want(']')
			return
		}
	}
}

func (l *jsonLexer) uints() []int {
	var out []int
	l.list(func() { out = append(out, l.uint()) })
	return out
}

// object reads an object whose values member reads, given the index of
// their key in keys.
func (l *jsonLexer) object(keys []string, member func(k int)) {
	l.want('{')
	if l.eat('}') {
		return
	}
	var seen uint
	for l.ok {
		key := l.str()
		k := -1
		for j, name := range keys {
			if string(key) == name {
				k = j
				break
			}
		}
		l.want(':')
		if k < 0 || seen&(1<<k) != 0 {
			l.ok = false
			return
		}
		seen |= 1 << k
		member(k)
		if !l.eat(',') {
			l.want('}')
			return
		}
	}
}

func (l *jsonLexer) predicate() (w wirePredicate) {
	l.object(predicateKeys, func(k int) {
		if k == 0 {
			w.NumAttrs = l.uint()
			return
		}
		l.list(func() {
			wc := l.constraint()
			if n := len(w.Where); n > 0 && w.Where[n-1].Attr > wc.Attr {
				l.ok = false
			}
			w.Where = append(w.Where, wc)
		})
	})
	return w
}

func (l *jsonLexer) constraint() (wc wireConstraint) {
	l.object(constraintKeys, func(k int) {
		switch k {
		case 0:
			wc.Attr = l.uint()
		case 1:
			wc.Kind = kindName(l.str())
		case 2:
			wc.Value = l.intp()
		case 3:
			wc.Lo = l.intp()
		case 4:
			wc.Hi = l.intp()
		case 5:
			wc.Values = l.uints()
		}
	})
	return wc
}

// kindName returns the constraint kind b names, with no copy for the kinds
// the wire knows.
func kindName(b []byte) string {
	for _, name := range constraintKind {
		if string(b) == name {
			return name
		}
	}
	return string(b)
}
