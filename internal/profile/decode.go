package profile

import (
	"bytes"
	"encoding/json"
	"math/bits"
	"strconv"
	"unicode/utf8"

	"extradeep/internal/calltree"
	"extradeep/internal/trace"
)

// Decoder decodes JSON profiles. A profile in the canonical shape
// json.Marshal writes is decoded in one pass over its bytes, without
// reflection; anything outside that shape is decoded by json.Unmarshal
// instead, so results and errors are those of json.Unmarshal on every
// input (DESIGN §17).
//
// A Decoder interns the strings it decodes — event names and callpaths
// repeat hundreds of times per file — keyed on their raw escaped bytes,
// so a Decoder shared across the files of one load decodes each distinct
// string once. No decoded field aliases the input, so the caller may
// reuse the input buffer as soon as Decode returns. The zero value is
// ready to use; a Decoder is not safe for concurrent use.
type Decoder struct {
	// strs maps raw (still escaped) string bytes to their decoded value.
	strs map[string]string
	// esc is unescape's scratch.
	esc []byte
	// events is the event loop's scratch; every profile gets an
	// exact-size copy.
	events []trace.Event
}

// Decode decodes one JSON profile. It does not validate: callers run
// Validate, keeping decode and validation failures apart. The profile
// and the error are those json.Unmarshal yields into a zero Profile.
func (d *Decoder) Decode(data []byte) (*Profile, error) {
	if p, ok := d.DecodeCanonical(data); ok {
		return p, nil
	}
	var p Profile
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, err
	}
	return &p, nil
}

// DecodeCanonical is Decode's single-pass path. It reports false as soon
// as the input leaves the canonical shape: unknown, duplicate or
// differently cased keys, null, non-ASCII or control bytes, surrogate
// escapes, a non-integer literal in an int field, an out-of-range number
// or trailing bytes. Every input it accepts is one json.Unmarshal decodes
// to the same bits without error.
func (d *Decoder) DecodeCanonical(data []byte) (*Profile, bool) {
	if d.strs == nil {
		d.strs = make(map[string]string)
	}
	p := new(Profile)
	s := scan{d: d, data: data}
	if !s.profile(p) {
		return nil, false
	}
	s.ws()
	return p, s.i == len(data)
}

// scan is the cursor of one single-pass decode. Its methods return false
// when the input leaves the canonical shape.
type scan struct {
	d    *Decoder
	data []byte
	i    int
}

// ws skips JSON whitespace.
func (s *scan) ws() {
	for s.i < len(s.data) {
		switch s.data[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// open consumes the opening delimiter of an object or array; more is
// false when the container closes immediately.
func (s *scan) open(open, close byte) (more, ok bool) {
	s.ws()
	if s.i >= len(s.data) || s.data[s.i] != open {
		return false, false
	}
	s.i++
	s.ws()
	if s.i < len(s.data) && s.data[s.i] == close {
		s.i++
		return false, true
	}
	return true, true
}

// next consumes the separator after a member or element; more is false
// when it was the container's closing delimiter.
func (s *scan) next(close byte) (more, ok bool) {
	s.ws()
	if s.i >= len(s.data) {
		return false, false
	}
	switch s.data[s.i] {
	case ',':
		s.i++
		return true, true
	case close:
		s.i++
		return false, true
	}
	return false, false
}

// key consumes an object key and its colon. Keys with escapes or bytes
// outside printable ASCII are refused: json.Unmarshal would unescape
// them and might match a field the raw bytes do not name.
func (s *scan) key() ([]byte, bool) {
	s.ws()
	if s.i >= len(s.data) || s.data[s.i] != '"' {
		return nil, false
	}
	start := s.i + 1
	for j := start; j < len(s.data); j++ {
		c := s.data[j]
		if c == '"' {
			key := s.data[start:j]
			s.i = j + 1
			s.ws()
			if s.i >= len(s.data) || s.data[s.i] != ':' {
				return nil, false
			}
			s.i++
			return key, true
		}
		if c == '\\' || c < 0x20 || c >= 0x80 {
			return nil, false
		}
	}
	return nil, false
}

// str decodes a string of printable ASCII and non-surrogate escapes.
func (s *scan) str() (string, bool) {
	s.ws()
	if s.i >= len(s.data) || s.data[s.i] != '"' {
		return "", false
	}
	start := s.i + 1
	escaped := false
	for j := start; j < len(s.data); j++ {
		switch c := s.data[j]; {
		case c == '"':
			s.i = j + 1
			return s.d.intern(s.data[start:j], escaped), true
		case c < 0x20 || c >= 0x80:
			return "", false
		case c == '\\':
			escaped = true
			j++
			if j >= len(s.data) {
				return "", false
			}
			switch s.data[j] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				r, ok := hex4(s.data[j+1:])
				if !ok || (0xd800 <= r && r < 0xe000) {
					return "", false
				}
				j += 4
			default:
				return "", false
			}
		}
	}
	return "", false
}

// intern returns the decoded value of the string whose raw bytes are
// raw, decoding it only the first time the Decoder meets those bytes.
func (d *Decoder) intern(raw []byte, escaped bool) string {
	if v, ok := d.strs[string(raw)]; ok {
		return v
	}
	if !escaped {
		v := string(raw)
		d.strs[v] = v
		return v
	}
	v := d.unescape(raw)
	d.strs[string(raw)] = v
	return v
}

// unescape decodes the escapes of a string body str has already checked.
func (d *Decoder) unescape(raw []byte) string {
	b := d.esc[:0]
	for i := 0; i < len(raw); i++ {
		c := raw[i]
		if c != '\\' {
			b = append(b, c)
			continue
		}
		i++
		switch raw[i] {
		case 'b':
			b = append(b, '\b')
		case 'f':
			b = append(b, '\f')
		case 'n':
			b = append(b, '\n')
		case 'r':
			b = append(b, '\r')
		case 't':
			b = append(b, '\t')
		case 'u':
			r, _ := hex4(raw[i+1:])
			b = utf8.AppendRune(b, r)
			i += 4
		default: // '"', '\\', '/'
			b = append(b, raw[i])
		}
	}
	d.esc = b
	return string(b)
}

// hex4 decodes the four hex digits of a \u escape.
func hex4(b []byte) (rune, bool) {
	if len(b) < 4 {
		return 0, false
	}
	var r rune
	for _, c := range b[:4] {
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

// number scans a literal of the JSON number grammar.
func (s *scan) number() ([]byte, bool) {
	s.ws()
	start, i, n := s.i, s.i, len(s.data)
	if i < n && s.data[i] == '-' {
		i++
	}
	switch {
	case i < n && s.data[i] == '0':
		i++
	case i < n && '1' <= s.data[i] && s.data[i] <= '9':
		i = s.digits(i)
	default:
		return nil, false
	}
	if i < n && s.data[i] == '.' {
		j := s.digits(i + 1)
		if j == i+1 {
			return nil, false
		}
		i = j
	}
	if i < n && (s.data[i] == 'e' || s.data[i] == 'E') {
		i++
		if i < n && (s.data[i] == '+' || s.data[i] == '-') {
			i++
		}
		j := s.digits(i)
		if j == i {
			return nil, false
		}
		i = j
	}
	s.i = i
	return s.data[start:i], true
}

// digits returns the index of the first non-digit at or after i.
func (s *scan) digits(i int) int {
	for i < len(s.data) && '0' <= s.data[i] && s.data[i] <= '9' {
		i++
	}
	return i
}

// float decodes a number the way json.Unmarshal fills a float64.
func (s *scan) float() (float64, bool) {
	lit, ok := s.number()
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	return v, err == nil
}

// int decodes a number the way json.Unmarshal fills an int: an integer
// literal in range, nothing else.
func (s *scan) int() (int, bool) {
	lit, ok := s.number()
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	return int(v), err == nil
}

// boolean decodes true or false.
func (s *scan) boolean() (bool, bool) {
	s.ws()
	rest := s.data[s.i:]
	switch {
	case bytes.HasPrefix(rest, []byte("true")):
		s.i += len("true")
		return true, true
	case bytes.HasPrefix(rest, []byte("false")):
		s.i += len("false")
		return false, true
	}
	return false, false
}

// array decodes an array whose elements elem decodes. Like
// json.Unmarshal, an empty array yields an empty, non-nil slice.
func array[T any](s *scan, elem func(*scan) (T, bool)) ([]T, bool) {
	out := []T{}
	more, ok := s.open('[', ']')
	for ok && more {
		var v T
		if v, ok = elem(s); !ok {
			return nil, false
		}
		out = append(out, v)
		more, ok = s.next(']')
	}
	return out, ok
}

// The keys of each object of the schema, in struct order. A key's index
// is its bit in the seen-set member keeps.
var (
	profileKeys = []string{"app", "params", "config", "rank", "rep", "wall_time", "sampled", "trace"}
	traceKeys   = []string{"rank", "events", "steps", "epochs"}
	eventKeys   = []string{"name", "kind", "callpath", "start", "duration", "bytes", "count"}
	stepKeys    = []string{"epoch", "index", "phase", "start", "end"}
	epochKeys   = []string{"index", "start", "end"}
)

// member consumes an object key and its colon and returns it as the
// matching entry of keys, recording it in seen. An unknown key, or one
// already in seen, leaves the fast path: json.Unmarshal ignores the first
// and lets the last of duplicates win.
func (s *scan) member(keys []string, seen *uint) (string, bool) {
	raw, ok := s.key()
	if !ok {
		return "", false
	}
	// Every key below the lowest unseen index is a duplicate, so the
	// search starts there; canonical input lists keys in struct order, so
	// it usually ends at the first probe.
	for i := bits.TrailingZeros(^*seen); i < len(keys); i++ {
		if string(raw) == keys[i] {
			bit := uint(1) << i
			if *seen&bit != 0 {
				return "", false
			}
			*seen |= bit
			return keys[i], true
		}
	}
	return "", false
}

// profile decodes the top-level object.
func (s *scan) profile(p *Profile) bool {
	var seen uint
	more, ok := s.open('{', '}')
	for ok && more {
		var k string
		if k, ok = s.member(profileKeys, &seen); !ok {
			break
		}
		switch k {
		case "app":
			p.App, ok = s.str()
		case "params":
			p.Params, ok = array(s, (*scan).str)
		case "config":
			p.Config, ok = array(s, (*scan).float)
		case "rank":
			p.Rank, ok = s.int()
		case "rep":
			p.Rep, ok = s.int()
		case "wall_time":
			p.WallTime, ok = s.float()
		case "sampled":
			p.Sampled, ok = s.boolean()
		case "trace":
			ok = s.trace(&p.Trace)
		}
		if ok {
			more, ok = s.next('}')
		}
	}
	return ok
}

// trace decodes the trace object.
func (s *scan) trace(t *trace.Trace) bool {
	var seen uint
	more, ok := s.open('{', '}')
	for ok && more {
		var k string
		if k, ok = s.member(traceKeys, &seen); !ok {
			break
		}
		switch k {
		case "rank":
			t.Rank, ok = s.int()
		case "events":
			t.Events, ok = s.events()
		case "steps":
			t.Steps, ok = array(s, (*scan).step)
		case "epochs":
			t.Epochs, ok = array(s, (*scan).epoch)
		}
		if ok {
			more, ok = s.next('}')
		}
	}
	return ok
}

// events decodes the event array into the Decoder's scratch and returns
// an exact-size copy, so per-event work allocates only on an intern miss.
//
//edlint:hotpath the per-event loop runs once per kernel event of every ingested profile
func (s *scan) events() ([]trace.Event, bool) {
	buf := s.d.events[:0]
	more, ok := s.open('[', ']')
	for ok && more {
		var e trace.Event
		if e, ok = s.event(); !ok {
			break
		}
		buf = append(buf, e)
		more, ok = s.next(']')
	}
	s.d.events = buf
	if !ok {
		return nil, false
	}
	return append(make([]trace.Event, 0, len(buf)), buf...), true
}

// event decodes one event.
//
//edlint:hotpath the body of the per-event loop
func (s *scan) event() (trace.Event, bool) {
	var e trace.Event
	var seen uint
	more, ok := s.open('{', '}')
	for ok && more {
		var k string
		if k, ok = s.member(eventKeys, &seen); !ok {
			break
		}
		switch k {
		case "name":
			e.Name, ok = s.str()
		case "kind":
			var kind int
			kind, ok = s.int()
			e.Kind = calltree.Kind(kind)
		case "callpath":
			e.Callpath, ok = s.str()
		case "start":
			e.Start, ok = s.float()
		case "duration":
			e.Duration, ok = s.float()
		case "bytes":
			e.Bytes, ok = s.float()
		case "count":
			e.Count, ok = s.int()
		}
		if ok {
			more, ok = s.next('}')
		}
	}
	return e, ok
}

// step decodes one step span.
func (s *scan) step() (trace.StepSpan, bool) {
	var st trace.StepSpan
	var seen uint
	more, ok := s.open('{', '}')
	for ok && more {
		var k string
		if k, ok = s.member(stepKeys, &seen); !ok {
			break
		}
		switch k {
		case "epoch":
			st.Epoch, ok = s.int()
		case "index":
			st.Index, ok = s.int()
		case "phase":
			var ph int
			ph, ok = s.int()
			st.Phase = trace.Phase(ph)
		case "start":
			st.Start, ok = s.float()
		case "end":
			st.End, ok = s.float()
		}
		if ok {
			more, ok = s.next('}')
		}
	}
	return st, ok
}

// epoch decodes one epoch span.
func (s *scan) epoch() (trace.EpochSpan, bool) {
	var ep trace.EpochSpan
	var seen uint
	more, ok := s.open('{', '}')
	for ok && more {
		var k string
		if k, ok = s.member(epochKeys, &seen); !ok {
			break
		}
		switch k {
		case "index":
			ep.Index, ok = s.int()
		case "start":
			ep.Start, ok = s.float()
		case "end":
			ep.End, ok = s.float()
		}
		if ok {
			more, ok = s.next('}')
		}
	}
	return ep, ok
}
