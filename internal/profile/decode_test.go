package profile_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"
	"unsafe"

	"extradeep/internal/calltree"
	"extradeep/internal/profile"
	"extradeep/internal/trace"
)

// sameBits compares two values field by field and returns "" when they
// are identical, else the path of the first difference. Floats compare
// by math.Float64bits, so -0 and 0 differ, and a nil slice differs from
// an empty one, as json.Unmarshal tells them apart.
func sameBits(a, b any) string {
	return sameValueBits(reflect.ValueOf(a), reflect.ValueOf(b), "")
}

func sameValueBits(a, b reflect.Value, path string) string {
	switch a.Kind() {
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return path + ": nil vs non-nil"
			}
			return ""
		}
		return sameValueBits(a.Elem(), b.Elem(), path)
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := sameValueBits(a.Field(i), b.Field(i), path+"."+a.Type().Field(i).Name); d != "" {
				return d
			}
		}
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return fmt.Sprintf("%s: len %d (nil %t) vs len %d (nil %t)", path, a.Len(), a.IsNil(), b.Len(), b.IsNil())
		}
		for i := 0; i < a.Len(); i++ {
			if d := sameValueBits(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i)); d != "" {
				return d
			}
		}
	case reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return fmt.Sprintf("%s: %v (%#x) vs %v (%#x)", path, a.Float(), math.Float64bits(a.Float()), b.Float(), math.Float64bits(b.Float()))
		}
	case reflect.Int:
		if a.Int() != b.Int() {
			return fmt.Sprintf("%s: %d vs %d", path, a.Int(), b.Int())
		}
	case reflect.String:
		if a.String() != b.String() {
			return fmt.Sprintf("%s: %q vs %q", path, a.String(), b.String())
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return fmt.Sprintf("%s: %t vs %t", path, a.Bool(), b.Bool())
		}
	default:
		return fmt.Sprintf("%s: unsupported kind %s", path, a.Kind())
	}
	return ""
}

// canonicalProfile is a profile exercising every field, escaped callpath
// bytes ("->" marshals as \u003e) and omitted omitempty fields.
func canonicalProfile() *profile.Profile {
	return &profile.Profile{
		App:      "cifar10",
		Params:   []string{"p"},
		Config:   []float64{4},
		Rank:     1,
		Rep:      2,
		WallTime: 8.095246535786348,
		Sampled:  true,
		Trace: trace.Trace{
			Rank: 1,
			Events: []trace.Event{
				{Name: "os.step_dispatch", Kind: calltree.KindOS, Callpath: "App->train->os.step_dispatch", Duration: 0.07354247065554567, Count: 1},
				{Name: "Memcpy HtoD", Kind: calltree.KindMemcpy, Callpath: "App->train->Memcpy HtoD", Start: 0.0783557627507305, Duration: 2.0192121966151332e-4, Bytes: 3100876.99927443, Count: 1},
				{Name: "EigenMetaKernel", Kind: calltree.KindCUDA, Callpath: "App->train->EigenMetaKernel", Start: 0.47380298114988095, Duration: 0.02046839916686189, Count: 51},
				{Name: "EigenMetaKernel", Kind: calltree.KindCUDA, Start: 0.49427138031674284, Duration: 0.012498929083327656},
			},
			Steps: []trace.StepSpan{
				{Epoch: 0, Index: 0, Phase: trace.PhaseTrain, Start: 0, End: 1.3605634678217966},
				{Epoch: 0, Index: 1, Phase: trace.PhaseValidation, Start: 1.3605834678217965, End: 2.099542455995361},
			},
			Epochs: []trace.EpochSpan{{Index: 0, Start: 0, End: 4.081011536509235}},
		},
	}
}

// canonicalJSON is canonicalProfile as Store.Write writes it.
func canonicalJSON(t testing.TB) []byte {
	t.Helper()
	data, err := json.Marshal(canonicalProfile())
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// fallbackCases are inputs outside the canonical shape, one per fallback
// trigger; the seed corpus of FuzzProfileDecode carries each of them.
var fallbackCases = []struct {
	name string
	data string
}{
	{"unknown-key", `{"app":"a","extra":1,"rep":1}`},
	{"duplicate-key", `{"app":"a","rep":1,"rep":2}`},
	{"cased-key", `{"App":"a","rep":1}`},
	{"escaped-key", `{"\u0061pp":"a","rep":1}`},
	{"null", `{"app":"a","params":null,"rep":1}`},
	{"non-ascii", `{"app":"cifär10","rep":1}`},
	{"control-byte", "{\"app\":\"a\x01\",\"rep\":1}"},
	{"surrogate-escape", `{"app":"\ud83d\ude00","rep":1}`},
	{"lone-surrogate", `{"app":"\udc00","rep":1}`},
	{"float-in-int", `{"app":"a","rep":1.0}`},
	{"exponent-in-int", `{"app":"a","rep":1e0}`},
	{"int-overflow", `{"app":"a","rep":1,"rank":9223372036854775808}`},
	{"float-overflow", `{"app":"a","rep":1,"wall_time":1e400}`},
	{"trailing-bytes", `{"app":"a","rep":1} x`},
	{"string-for-number", `{"app":"a","rep":"1"}`},
	{"unknown-event-key", `{"app":"a","rep":1,"trace":{"events":[{"name":"k","tid":3}]}}`},
	{"duplicate-event-key", `{"app":"a","rep":1,"trace":{"events":[{"name":"k","name":"j"}]}}`},
	{"leading-zero", `{"app":"a","rep":01}`},
	{"trailing-comma", `{"app":"a","rep":1,}`},
	{"truncated", `{"app":"a","rep":1`},
	{"bad-escape", `{"app":"a\x","rep":1}`},
	{"bad-hex-escape", `{"app":"\u00zz","rep":1}`},
	{"short-hex-escape", `{"app":"\u00`},
	{"unterminated-escape", `{"app":"a\`},
	{"unterminated-string", `{"app":"a`},
	{"unterminated-key", `{"app`},
	{"missing-colon", `{"app" "a"}`},
	{"bare-key", `{app:"a"}`},
	{"fraction-without-digits", `{"app":"a","wall_time":1.}`},
	{"exponent-without-digits", `{"app":"a","wall_time":1e+}`},
	{"bare-minus", `{"app":"a","wall_time":-}`},
	{"bad-literal", `{"app":"a","sampled":tru}`},
	{"object-for-array", `{"app":"a","params":{}}`},
	{"unknown-trace-key", `{"app":"a","trace":{"threads":[]}}`},
	{"unknown-step-key", `{"app":"a","trace":{"steps":[{"tid":1}]}}`},
	{"unknown-epoch-key", `{"app":"a","trace":{"epochs":[{"tid":1}]}}`},
}

// outcome classifies a decode result the way ingest does: a decode
// failure, a validation failure, or an accepted profile ("").
func outcome(p *profile.Profile, err error) (stage, text string) {
	if err != nil {
		return "decode", err.Error()
	}
	if verr := p.Validate(); verr != nil {
		return "validate", verr.Error()
	}
	return "", ""
}

// checkDecode is the differential oracle: Decode must yield exactly what
// json.Unmarshal yields into a zero Profile — the same bits, or the same
// error — and the fast path may accept only inputs json.Unmarshal decodes
// without error. Both decodes run on a private copy of data that is
// overwritten before the comparison, so a result aliasing its input
// shows up as a mismatch.
func checkDecode(t *testing.T, d *profile.Decoder, data []byte) (fast bool) {
	t.Helper()
	in := append([]byte(nil), data...)
	fastP, fast := d.DecodeCanonical(in)
	got, gotErr := d.Decode(in)
	for i := range in {
		in[i] = '#'
	}
	want := new(profile.Profile)
	wantErr := json.Unmarshal(data, want)
	if wantErr != nil {
		want = nil
	}
	gs, gt := outcome(got, gotErr)
	ws, wt := outcome(want, wantErr)
	if gs != ws || gt != wt {
		t.Fatalf("Decode: stage %q error %q; json.Unmarshal+Validate: stage %q error %q\ninput %q", gs, gt, ws, wt, data)
	}
	if wantErr == nil {
		if diff := sameBits(got, want); diff != "" {
			t.Fatalf("Decode differs from json.Unmarshal at %s\ninput %q", diff, data)
		}
	}
	if fast {
		if wantErr != nil {
			t.Fatalf("fast path accepted input json.Unmarshal rejects (%v): %q", wantErr, data)
		}
		if diff := sameBits(fastP, want); diff != "" {
			t.Fatalf("fast path differs from json.Unmarshal at %s\ninput %q", diff, data)
		}
	}
	return fast
}

func TestDecodeCanonical(t *testing.T) {
	data := canonicalJSON(t)
	indented, err := json.MarshalIndent(canonicalProfile(), "", "\t")
	if err != nil {
		t.Fatal(err)
	}
	var d profile.Decoder
	for _, in := range [][]byte{
		data, indented, []byte(`{}`),
		[]byte(` {"trace":{"events":[],"steps":[],"epochs":[]},"params":[],"config":[]} `),
		// Every escape, both hex cases, and every number form.
		[]byte(`{"app":"q\"b\\s\/\b\f\n\r\t\u00e9\u00C9\u0000","params":["x","y"],"config":[0,-0,1e-3,2.5E+10,-7.25e2],"rep":1,"sampled":false,"wall_time":1E1}`),
	} {
		if !checkDecode(t, &d, in) {
			t.Errorf("canonical input fell back: %q", in)
		}
	}
	if !bytes.Contains(data, []byte(`\u003e`)) {
		t.Fatalf("canonical input carries no escapes: %s", data)
	}
}

func TestDecodeFallbackTriggers(t *testing.T) {
	var d profile.Decoder
	for _, c := range fallbackCases {
		t.Run(c.name, func(t *testing.T) {
			if checkDecode(t, &d, []byte(c.data)) {
				t.Errorf("fast path accepted %q", c.data)
			}
		})
	}
}

// TestDecodeNoAlias pins the invariant LoadDir's buffer reuse rests on:
// overwriting the input after Decode leaves the decoded profile intact,
// even for strings met for the first time in that input.
func TestDecodeNoAlias(t *testing.T) {
	data := canonicalJSON(t)
	var d profile.Decoder
	for round := 0; round < 2; round++ { // a cold and a warm intern table
		buf := append([]byte(nil), data...)
		p, err := d.Decode(buf)
		if err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			buf[i] = 'x'
		}
		if diff := sameBits(p, canonicalProfile()); diff != "" {
			t.Fatalf("round %d: profile changed with its input at %s", round, diff)
		}
	}
}

// TestDecodeInterning checks that a Decoder shared across inputs hands
// out one string per distinct raw string: repeated names, in one input
// or in the next, share their bytes.
func TestDecodeInterning(t *testing.T) {
	var d profile.Decoder
	first, err := d.Decode(canonicalJSON(t))
	if err != nil {
		t.Fatal(err)
	}
	second, err := d.Decode(canonicalJSON(t))
	if err != nil {
		t.Fatal(err)
	}
	same := func(a, b string) bool { return unsafe.StringData(a) == unsafe.StringData(b) }
	ev := first.Trace.Events
	if ev[2].Name != ev[3].Name || !same(ev[2].Name, ev[3].Name) {
		t.Errorf("repeated name %q decoded twice", ev[2].Name)
	}
	if !same(ev[2].Callpath, second.Trace.Events[2].Callpath) || !same(first.App, second.App) {
		t.Error("strings of a second input are not interned with the first")
	}
}

// TestDecodeAllocs bounds the allocations of a warm decode: the profile,
// its slices and nothing per event.
func TestDecodeAllocs(t *testing.T) {
	data := canonicalJSON(t)
	var d profile.Decoder
	if _, err := d.Decode(data); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := d.Decode(data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Errorf("warm Decode allocates %.0f times, want <= 8", allocs)
	}
}

// FuzzProfileDecode is the differential fuzz of the single-pass decoder
// against encoding/json (see checkDecode). One Decoder serves every
// input of a worker, so intern-table and scratch state carried between
// unrelated inputs is exercised too.
func FuzzProfileDecode(f *testing.F) {
	var d profile.Decoder
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, &d, data)
	})
}
