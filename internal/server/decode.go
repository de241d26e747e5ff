package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// Request bodies are decoded in one pass over one buffer by a decoder that
// knows the two request shapes. It accepts and refuses exactly what
// encoding/json does when decoding into SessionRequest or LintRequest with
// DisallowUnknownFields and nothing allowed after the object, and it yields
// the same value (FuzzSessionRequest holds the two to that): keys match
// fields exactly or case-folded, a later duplicate key overwrites an earlier
// one, null leaves a field as it was (a slice becomes nil), invalid UTF-8 and
// lone surrogates in strings become U+FFFD, integers must parse as int64. A
// field the request does not declare is refused by name, and any data after
// the object is refused.

// decoders recycles decoders with their buffers: a submit body is mostly
// VHDL source, and nothing decoded aliases the body or the scratch.
var decoders = sync.Pool{New: func() any { return new(decoder) }}

// decodeBody reads r's body, at most max bytes, and decodes it with decode.
func decodeBody(w http.ResponseWriter, r *http.Request, max int64, decode func(d *decoder) error) error {
	d := decoders.Get().(*decoder)
	defer decoders.Put(d)
	if err := d.read(http.MaxBytesReader(w, r.Body, max), r.ContentLength, max); err != nil {
		return err
	}
	return decode(d)
}

// read reads a body whole into d's buffer, sized from the declared length
// when there is one.
func (d *decoder) read(body io.Reader, n, max int64) error {
	buf := d.data[:0]
	switch {
	case n > max:
		return &http.MaxBytesError{Limit: max}
	case n >= 0:
		buf = slices.Grow(buf, int(n))[:n]
		if _, err := io.ReadFull(body, buf); err != nil {
			return err
		}
	default:
		for {
			buf = slices.Grow(buf, 4096)
			m, err := body.Read(buf[len(buf):cap(buf)])
			buf = buf[:len(buf)+m]
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
		}
	}
	d.reset(buf)
	return nil
}

// reset points d at body, keeping its scratch.
func (d *decoder) reset(body []byte) {
	*d = decoder{data: body, scratch: d.scratch[:0]}
}

var (
	submitFields = []string{"top", "sources", "circuit", "protocol", "workers", "until",
		"lookahead", "user_consistent", "throttle", "save_every", "mem_budget",
		"stall_timeout", "deadline", "no_trace", "vet", "vet_strict"}
	lintFields   = []string{"sources"}
	sourceFields = []string{"name", "text"}
)

// decodeSubmit decodes a /v1/sessions body into req.
func decodeSubmit(d *decoder, req *SessionRequest) error {
	return d.request("SessionRequest", submitFields, func(d *decoder, f string) error {
		switch f {
		case "top":
			return d.str(f, &req.Top)
		case "sources":
			return d.sources(&req.Sources)
		case "circuit":
			return d.str(f, &req.Circuit)
		case "protocol":
			return d.str(f, &req.Protocol)
		case "workers":
			return decodeInt(d, f, &req.Workers)
		case "until":
			return d.str(f, &req.Until)
		case "lookahead":
			return d.boolean(f, &req.Lookahead)
		case "user_consistent":
			return d.boolean(f, &req.UserConsistent)
		case "throttle":
			return d.str(f, &req.Throttle)
		case "save_every":
			return decodeInt(d, f, &req.SaveEvery)
		case "mem_budget":
			return decodeInt(d, f, &req.MemBudget)
		case "stall_timeout":
			return d.str(f, &req.StallTimeout)
		case "deadline":
			return d.str(f, &req.Deadline)
		case "no_trace":
			return d.boolean(f, &req.NoTrace)
		case "vet":
			return d.boolean(f, &req.Vet)
		default: // "vet_strict"
			return d.boolean(f, &req.VetStrict)
		}
	})
}

// decodeLint decodes a /v1/lint body into req.
func decodeLint(d *decoder, req *LintRequest) error {
	return d.request("LintRequest", lintFields, func(d *decoder, _ string) error {
		return d.sources(&req.Sources)
	})
}

// maxDepth is encoding/json's nesting limit.
const maxDepth = 10000

// decoder walks one request body. A syntax error stops it at once; a
// well-formed value the request cannot take (an unknown field, a wrong type)
// is kept in refused, the first one only, and the walk goes on, so a syntax
// error later in the body still wins, as it does in encoding/json.
type decoder struct {
	data    []byte
	off     int
	depth   int
	refused error
	scratch []byte // unquote's output when a string has escapes
}

// request decodes the body as one request object of type typ whose
// declared fields are names; field decodes the value of the named field.
func (d *decoder) request(typ string, names []string, field func(d *decoder, name string) error) error {
	d.space()
	var err error
	switch d.peek() {
	case '{':
		err = d.members(func(key []byte) error {
			if f := fieldName(key, names); f != "" {
				return field(d, f)
			}
			d.refuse(fmt.Errorf("json: unknown field %q", key))
			return d.skip()
		})
	case 'n':
		err = d.literal("null") // null into a struct changes nothing
	default:
		err = d.mistyped("Go value of type server." + typ)
	}
	if err == nil {
		err = d.refused
	}
	if err != nil {
		return err
	}
	if d.space(); d.off < len(d.data) {
		return errors.New("data after the request object")
	}
	return nil
}

// fieldName returns the declared name key selects: an exact match, else one
// equal under Unicode case folding, as encoding/json matches keys to struct
// fields; "" when none does.
func fieldName(key []byte, names []string) string {
	for _, n := range names {
		if string(key) == n {
			return n
		}
	}
	for _, n := range names {
		if bytes.EqualFold(key, []byte(n)) {
			return n
		}
	}
	return ""
}

func (d *decoder) refuse(err error) {
	if d.refused == nil {
		d.refused = err
	}
}

// mistyped skips the value at d.off and refuses it for target.
func (d *decoder) mistyped(target string) error {
	kind := "number"
	switch d.peek() {
	case '{':
		kind = "object"
	case '[':
		kind = "array"
	case '"':
		kind = "string"
	case 't', 'f':
		kind = "bool"
	}
	if err := d.skip(); err != nil {
		return err
	}
	d.refuse(fmt.Errorf("json: cannot unmarshal %s into %s", kind, target))
	return nil
}

func (d *decoder) peek() byte {
	if d.off < len(d.data) {
		return d.data[d.off]
	}
	return 0
}

func (d *decoder) space() {
	for d.off < len(d.data) {
		switch d.data[d.off] {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return
		}
	}
}

func (d *decoder) syntax(context string) error {
	if d.off >= len(d.data) {
		return errors.New("unexpected end of JSON input")
	}
	return fmt.Errorf("invalid character %q %s (offset %d)", d.data[d.off], context, d.off)
}

// members reads the object at d.off, handing each value to member with its
// unquoted key (valid until the next string is read).
func (d *decoder) members(member func(key []byte) error) error {
	return d.list('}', "object key:value pair", func() error {
		if d.peek() != '"' {
			return d.syntax("looking for beginning of object key string")
		}
		key, err := d.unquote()
		if err != nil {
			return err
		}
		if d.space(); d.peek() != ':' {
			return d.syntax("after object key")
		}
		d.off++
		d.space()
		return member(key)
	})
}

// elements reads the array at d.off, calling elem at each element.
func (d *decoder) elements(elem func() error) error {
	return d.list(']', "array element", elem)
}

// list reads the comma-separated items of the object or array at d.off up
// to its closing end byte, calling item at the start of each.
func (d *decoder) list(end byte, what string, item func() error) error {
	if d.depth++; d.depth > maxDepth {
		return errors.New("exceeded max depth")
	}
	defer func() { d.depth-- }()
	d.off++ // '{' or '['
	if d.space(); d.peek() == end {
		d.off++
		return nil
	}
	for {
		d.space()
		if err := item(); err != nil {
			return err
		}
		switch d.space(); d.peek() {
		case ',':
			d.off++
		case end:
			d.off++
			return nil
		default:
			return d.syntax("after " + what)
		}
	}
}

// skip reads and discards the value at d.off.
func (d *decoder) skip() error {
	switch c := d.peek(); {
	case c == '{':
		return d.members(func([]byte) error { return d.skip() })
	case c == '[':
		return d.elements(d.skip)
	case c == '"':
		_, err := d.unquote()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		_, err := d.number()
		return err
	}
	return d.syntax("looking for beginning of value")
}

func (d *decoder) literal(word string) error {
	for i := 0; i < len(word); i++ {
		if d.peek() != word[i] {
			return d.syntax("in literal " + word)
		}
		d.off++
	}
	return nil
}

// number reads a JSON number and returns its text.
func (d *decoder) number() ([]byte, error) {
	start := d.off
	digits := func() error {
		if c := d.peek(); c < '0' || c > '9' {
			return d.syntax("in numeric literal")
		}
		for c := d.peek(); '0' <= c && c <= '9'; c = d.peek() {
			d.off++
		}
		return nil
	}
	if d.peek() == '-' {
		d.off++
	}
	if d.peek() == '0' {
		d.off++
	} else if err := digits(); err != nil {
		return nil, err
	}
	if d.peek() == '.' {
		d.off++
		if err := digits(); err != nil {
			return nil, err
		}
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.off++
		if c := d.peek(); c == '+' || c == '-' {
			d.off++
		}
		if err := digits(); err != nil {
			return nil, err
		}
	}
	return d.data[start:d.off], nil
}

// plain marks the bytes a JSON string carries verbatim: printable ASCII
// other than the quote and the backslash.
var plain = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// unquote reads the string at d.off and returns its text: a slice of the
// body when the string has nothing to unescape, else of d.scratch.
func (d *decoder) unquote() ([]byte, error) {
	data := d.data
	start := d.off + 1
	i := start
	for i < len(data) && plain[data[i]] {
		i++
	}
	if i < len(data) && data[i] == '"' {
		d.off = i + 1
		return data[start:i], nil
	}
	out := append(d.scratch[:0], data[start:i]...)
	for {
		if i >= len(data) {
			d.off = i
			return nil, d.syntax("in string literal")
		}
		switch c := data[i]; {
		case plain[c]:
			j := i + 1
			for j < len(data) && plain[data[j]] {
				j++
			}
			out = append(out, data[i:j]...)
			i = j
		case c == '"':
			d.off, d.scratch = i+1, out
			return out, nil
		case c == '\\':
			var err error
			if out, i, err = d.escape(out, i); err != nil {
				return nil, err
			}
		case c < 0x20:
			d.off = i
			return nil, d.syntax("in string literal")
		default:
			r, n := utf8.DecodeRune(data[i:])
			if r == utf8.RuneError && n == 1 {
				out = utf8.AppendRune(out, unicode.ReplacementChar)
			} else {
				out = append(out, data[i:i+n]...)
			}
			i += n
		}
	}
}

// unescaped maps the byte after a backslash to what the escape stands for;
// 0 for \u and for bytes that start no escape.
var unescaped = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// escape appends the escape sequence at data[i] to out and returns the
// index after it. A \u escape of a UTF-16 surrogate takes the following \u
// escape with it when the two make a pair; otherwise it stands for U+FFFD.
func (d *decoder) escape(out []byte, i int) ([]byte, int, error) {
	data := d.data
	d.off = i + 1
	if d.off >= len(data) {
		return nil, 0, d.syntax("in string escape code")
	}
	if b := unescaped[data[i+1]]; b != 0 {
		return append(out, b), i + 2, nil
	}
	r, ok := hex4(data, i+2)
	if data[i+1] != 'u' || !ok {
		return nil, 0, d.syntax("in string escape code")
	}
	i += 6
	if utf16.IsSurrogate(r) {
		if i+1 < len(data) && data[i] == '\\' && data[i+1] == 'u' {
			if r2, ok := hex4(data, i+2); ok {
				if pair := utf16.DecodeRune(r, r2); pair != unicode.ReplacementChar {
					return utf8.AppendRune(out, pair), i + 6, nil
				}
			}
		}
		r = unicode.ReplacementChar
	}
	return utf8.AppendRune(out, r), i, nil
}

// hex4 parses the four hex digits at data[i:].
func hex4(data []byte, i int) (rune, bool) {
	if i+4 > len(data) {
		return 0, false
	}
	var r rune
	for _, c := range data[i : i+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}

// str decodes a string field; null leaves it as it was.
func (d *decoder) str(field string, dst *string) error {
	switch d.peek() {
	case '"':
		s, err := d.unquote()
		if err != nil {
			return err
		}
		*dst = string(s)
		return nil
	case 'n':
		return d.literal("null")
	}
	return d.mistyped(fmt.Sprintf("field %q of type string", field))
}

// boolean decodes a bool field; null leaves it as it was.
func (d *decoder) boolean(field string, dst *bool) error {
	switch d.peek() {
	case 't':
		*dst = true
		return d.literal("true")
	case 'f':
		*dst = false
		return d.literal("false")
	case 'n':
		return d.literal("null")
	}
	return d.mistyped(fmt.Sprintf("field %q of type bool", field))
}

// decodeInt decodes an integer field: a number that parses as a base-10
// int64 in T's range (no fraction, no exponent); null leaves it as it was.
func decodeInt[T int | int64](d *decoder, field string, dst *T) error {
	switch c := d.peek(); {
	case c == 'n':
		return d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		lit, err := d.number()
		if err != nil {
			return err
		}
		n, err := strconv.ParseInt(string(lit), 10, 64)
		if err != nil || int64(T(n)) != n {
			d.refuse(fmt.Errorf("json: cannot unmarshal number %s into field %q of type %T", lit, field, *dst))
			return nil
		}
		*dst = T(n)
		return nil
	}
	return d.mistyped(fmt.Sprintf("field %q of type %T", field, *dst))
}

// sources decodes the sources array the way encoding/json decodes into a
// slice: element i is decoded into the slice's element i — reusing what an
// earlier duplicate key left there — the slice is cut to the elements read,
// [] makes it empty and null makes it nil.
func (d *decoder) sources(dst *[]SourceRequest) error {
	switch d.peek() {
	case 'n':
		*dst = nil
		return d.literal("null")
	case '[':
	default:
		return d.mistyped(`field "sources" of type []server.SourceRequest`)
	}
	s, i := *dst, 0
	err := d.elements(func() error {
		if i >= cap(s) {
			s = slices.Grow(s, 1)
		}
		if i >= len(s) {
			s = s[:i+1]
		}
		src := &s[i]
		i++
		switch d.peek() {
		case '{':
			return d.members(func(key []byte) error {
				switch fieldName(key, sourceFields) {
				case "name":
					return d.str("name", &src.Name)
				case "text":
					return d.str("text", &src.Text)
				}
				d.refuse(fmt.Errorf("json: unknown field %q", key))
				return d.skip()
			})
		case 'n':
			return d.literal("null")
		}
		return d.mistyped(`field "sources" of type server.SourceRequest`)
	})
	if i == 0 {
		s = []SourceRequest{}
	}
	*dst = s[:i]
	return err
}
