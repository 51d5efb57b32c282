package profile_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"extradeep/internal/profile"
	"extradeep/internal/propcheck"
	"extradeep/internal/propcheck/edgen"
	"extradeep/internal/simulator/engine"
	"extradeep/internal/simulator/hardware"
	"extradeep/internal/simulator/parallel"
	"extradeep/internal/trace"
)

// schemaField is one JSON-tagged field of the profile schema, located by
// its reflect field-index path from Profile.
type schemaField struct {
	name string // dotted JSON path, e.g. "trace.events.count"
	tag  string
	path []int
}

// schemaFields walks the profile schema by reflection and returns every
// tagged field plus the struct types met on the way.
func schemaFields(t *testing.T) ([]schemaField, map[reflect.Type]bool) {
	var fields []schemaField
	types := map[reflect.Type]bool{}
	var walk func(typ reflect.Type, prefix string, path []int)
	walk = func(typ reflect.Type, prefix string, path []int) {
		types[typ] = true
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			tag, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			if tag == "" || tag == "-" {
				t.Fatalf("%s.%s has no JSON name tag: the decoder matches keys by their exact tag", typ, f.Name)
			}
			p := append(path[:len(path):len(path)], i)
			fields = append(fields, schemaField{name: prefix + tag, tag: tag, path: p})
			ft := f.Type
			if ft.Kind() == reflect.Slice {
				ft = ft.Elem()
			}
			if ft.Kind() == reflect.Struct {
				walk(ft, prefix+tag+".", p)
			}
		}
	}
	walk(reflect.TypeOf(profile.Profile{}), "", nil)
	return fields, types
}

// emptySlices sets every slice field of the struct v, at any depth, to an
// empty slice: json.Marshal writes a nil slice as null, which is outside
// the canonical shape.
func emptySlices(v reflect.Value) {
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Slice:
			f.Set(reflect.MakeSlice(f.Type(), 0, 0))
		case reflect.Struct:
			emptySlices(f)
		}
	}
}

// setNonZero makes the field at path non-zero, growing slices of structs
// to one element on the way, so json.Marshal emits its key even when the
// tag says omitempty.
func setNonZero(t *testing.T, v reflect.Value, path []int) {
	f := v.Field(path[0])
	if len(path) > 1 {
		switch f.Kind() {
		case reflect.Struct:
			setNonZero(t, f, path[1:])
		case reflect.Slice:
			f.Set(reflect.MakeSlice(f.Type(), 1, 1))
			emptySlices(f.Index(0))
			setNonZero(t, f.Index(0), path[1:])
		}
		return
	}
	switch f.Kind() {
	case reflect.String:
		f.SetString("k->x")
	case reflect.Int:
		f.SetInt(3)
	case reflect.Float64:
		f.SetFloat(-0.25)
	case reflect.Bool:
		f.SetBool(true)
	case reflect.Struct:
		// A struct field is always emitted.
	case reflect.Slice:
		f.Set(reflect.MakeSlice(f.Type(), 1, 1))
		switch e := f.Index(0); e.Kind() {
		case reflect.String:
			e.SetString("x")
		case reflect.Struct:
			emptySlices(e)
		}
	default:
		t.Fatalf("schema field of kind %s: teach the decoder and this test about it", f.Kind())
	}
}

// fastMismatch decodes data on the fast path and returns "" when it was
// accepted with json.Unmarshal's bits, else what went wrong.
func fastMismatch(d *profile.Decoder, data []byte) string {
	got, ok := d.DecodeCanonical(data)
	if !ok {
		return "falls back to encoding/json"
	}
	var want profile.Profile
	if err := json.Unmarshal(data, &want); err != nil {
		return "json.Unmarshal: " + err.Error()
	}
	if diff := sameBits(got, &want); diff != "" {
		return "fast path differs from json.Unmarshal at " + diff
	}
	return ""
}

// TestDecoderHandlesEveryTag is the schema-drift guard: every JSON tag of
// Profile, Trace, Event, StepSpan and EpochSpan must decode on the fast
// path. A new or renamed field the decoder does not know would otherwise
// send every file down the json.Unmarshal fallback without failing.
func TestDecoderHandlesEveryTag(t *testing.T) {
	fields, types := schemaFields(t)
	want := []reflect.Type{
		reflect.TypeOf(profile.Profile{}), reflect.TypeOf(trace.Trace{}), reflect.TypeOf(trace.Event{}),
		reflect.TypeOf(trace.StepSpan{}), reflect.TypeOf(trace.EpochSpan{}),
	}
	if len(types) != len(want) {
		t.Errorf("schema reaches %d struct types, want %d: %v", len(types), len(want), types)
	}
	for _, typ := range want {
		if !types[typ] {
			t.Errorf("schema walk missed %s", typ)
		}
	}
	var d profile.Decoder
	for _, f := range fields {
		var p profile.Profile
		emptySlices(reflect.ValueOf(&p).Elem())
		setNonZero(t, reflect.ValueOf(&p).Elem(), f.path)
		data, err := json.Marshal(&p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(data, []byte(`"`+f.tag+`":`)) {
			t.Fatalf("%s: marshaled input lacks its key: %s", f.name, data)
		}
		if msg := fastMismatch(&d, data); msg != "" {
			t.Errorf("decoder does not handle %s: %s: %s", f.name, msg, data)
		}
	}
}

// TestDecodeSimulatorProfilesNoFallback requires every profile the
// simulator writes — each paper benchmark, at type and at layer
// granularity — to decode on the fast path to json.Unmarshal's bits.
func TestDecodeSimulatorProfilesNoFallback(t *testing.T) {
	benchmarks, err := engine.Benchmarks()
	if err != nil {
		t.Fatal(err)
	}
	strat, err := parallel.ByName("data")
	if err != nil {
		t.Fatal(err)
	}
	var d profile.Decoder
	for _, b := range benchmarks {
		for _, g := range []engine.Granularity{engine.GranularityType, engine.GranularityLayer} {
			t.Run(fmt.Sprintf("%s/granularity=%d", b.Name, g), func(t *testing.T) {
				cfg := engine.RunConfig{
					System: hardware.DEEP(), Strategy: strat, Ranks: 2, WeakScaling: true,
					Granularity: g, Seed: 7, SampleRanks: 1,
				}
				profiles, err := engine.Profile(b, cfg, 1, true)
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range profiles {
					data, err := json.Marshal(p)
					if err != nil {
						t.Fatal(err)
					}
					if msg := fastMismatch(&d, data); msg != "" {
						t.Fatalf("%s: %s", p.FileName(), msg)
					}
				}
			})
		}
	}
}

// TestPropDecodeRoundTrip: any generated valid profile, marshaled the way
// Store.Write does, decodes on the fast path to json.Unmarshal's bits.
func TestPropDecodeRoundTrip(t *testing.T) {
	var d profile.Decoder
	propcheck.Check(t, edgen.Profile(), func(p *profile.Profile) error {
		data, err := json.Marshal(p)
		if err != nil {
			return err
		}
		if msg := fastMismatch(&d, data); msg != "" {
			return fmt.Errorf("%s: %s", msg, data)
		}
		return nil
	})
}
