package resilience

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"extradeep/internal/propcheck"
)

func TestEnvelopeRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{nil, {}, []byte("x"), []byte("hello\nworld\n"), bytes.Repeat([]byte{0}, 4096)} {
		enc := EncodeEnvelope(payload)
		got, err := DecodeEnvelope(enc)
		if err != nil {
			t.Fatalf("DecodeEnvelope: %v", err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("payload mutated: %q != %q", got, payload)
		}
	}
}

func TestEnvelopeDetectsDamage(t *testing.T) {
	enc := EncodeEnvelope([]byte("the quick brown fox"))
	// Truncation at every prefix length must fail, never mis-decode.
	for n := 0; n < len(enc); n++ {
		if _, err := DecodeEnvelope(enc[:n]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation to %d bytes: err = %v, want ErrCorrupt", n, err)
		}
	}
	// A single bit flip anywhere must fail.
	for i := 0; i < len(enc); i++ {
		bad := append([]byte(nil), enc...)
		bad[i] ^= 0x40
		if _, err := DecodeEnvelope(bad); err == nil {
			t.Fatalf("bit flip at byte %d decoded successfully", i)
		}
	}
}

func TestKeyIsLengthPrefixed(t *testing.T) {
	if Key([]byte("ab"), []byte("c")) == Key([]byte("a"), []byte("bc")) {
		t.Fatal("part boundaries do not affect the key")
	}
	if Key([]byte("x")) != Key([]byte("x")) {
		t.Fatal("key not deterministic")
	}
}

func TestStorePutGet(t *testing.T) {
	s := &Store{Dir: t.TempDir()}
	key := Key([]byte("task"))
	if _, ok := s.Get(key); ok {
		t.Fatal("hit on empty store")
	}
	if err := s.Put(key, []byte("payload")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, ok := s.Get(key)
	if !ok || string(got) != "payload" {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	// Overwrite is atomic and last-write-wins.
	if err := s.Put(key, []byte("payload v2")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if got, _ := s.Get(key); string(got) != "payload v2" {
		t.Fatalf("Get after overwrite = %q", got)
	}
	// No temp litter left behind.
	entries, err := os.ReadDir(s.Dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != key+".ckpt" {
			t.Fatalf("unexpected file %s in store dir", e.Name())
		}
	}
}

func TestStoreCorruptRecordIsMiss(t *testing.T) {
	s := &Store{Dir: t.TempDir()}
	key := Key([]byte("task"))
	if err := s.Put(key, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(s.Dir, key+".ckpt")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); ok {
		t.Fatal("corrupt record returned a hit")
	}
}

func TestNilStoreIsNoOp(t *testing.T) {
	var s *Store
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatalf("nil Put: %v", err)
	}
	if _, ok := s.Get("k"); ok {
		t.Fatal("nil Get hit")
	}
}

// legacyStatePayload is a campaign-state payload as older versions wrote
// it: the whole campaign in one file, rewritten after every task. Nothing
// reads these any more; they must never decode as a task record.
const legacyStatePayload = `{
 "version": 1,
 "campaign": "ca9c222019ef30e69814ecab344dbb8140f4bf963ab0f28e497109ddf58803f7",
 "aggregates": "WzFd",
 "tasks": [
  {
   "key": "5cf810eb7838502cc8a6691fffce3a8a0e49496ef255c78d00cc8598278efd49",
   "name": "time kern/a",
   "status": "fitted",
   "payload": "eyJmIjoicF4xIn0="
  }
 ]
}`

func TestDecodeRecordValidates(t *testing.T) {
	valid := TaskRecord{Key: "a", Name: "t0", Status: StatusSkipped, Class: "panic", Reason: "boom"}
	if got, err := DecodeRecord(EncodeRecord(valid)); err != nil || !reflect.DeepEqual(got, valid) {
		t.Fatalf("valid record: got %+v, %v", got, err)
	}
	for name, payload := range map[string]string{
		"empty key":      `{"key":"","name":"t0","status":"fitted"}`,
		"bad status":     `{"key":"a","name":"t0","status":"maybe"}`,
		"unknown field":  `{"key":"a","name":"t0","status":"fitted","campaign":"c"}`,
		"non-canonical":  `{"key":"a", "name":"t0","status":"fitted"}`,
		"trailing bytes": `{"key":"a","name":"t0","status":"fitted"}{}`,
		"not json":       `not json`,
		"campaign state": legacyStatePayload,
		"null payload":   `{"key":"a","name":"t0","status":"fitted","payload":null}`,
		"wrong key case": `{"KEY":"a","name":"t0","status":"fitted"}`,
		"empty payload":  `{"key":"a","name":"t0","status":"fitted","payload":""}`,
		"missing status": `{"key":"a","name":"t0"}`,
		"unescaped html": `{"key":"<","name":"t0","status":"fitted"}`,
	} {
		if rec, err := DecodeRecord([]byte(payload)); err == nil {
			t.Errorf("%s: decoded to %+v", name, rec)
		}
	}
}

// genRecord generates arbitrary well-formed task records.
func genRecord() propcheck.Gen[TaskRecord] {
	return propcheck.Gen[TaskRecord]{
		Generate: func(r *propcheck.Rand) TaskRecord {
			rec := TaskRecord{
				Key:  fmt.Sprintf("%064x", r.Int64Range(0, 1<<50)),
				Name: fmt.Sprintf("metric kern/%d", r.Intn(100)),
			}
			if r.Bool() {
				rec.Status = StatusFitted
				rec.Payload = randBytes(r, 128)
			} else {
				rec.Status = StatusSkipped
				rec.Class = []string{"panic", "degraded", "unmodelable"}[r.Intn(3)]
				rec.Reason = "injected failure"
			}
			return rec
		},
		Describe: func(rec TaskRecord) string {
			return fmt.Sprintf("key=%s status=%s", rec.Key, rec.Status)
		},
	}
}

func randBytes(r *propcheck.Rand, maxLen int) []byte {
	b := make([]byte, r.IntRange(1, maxLen))
	for i := range b {
		b[i] = byte(r.Intn(256))
	}
	return b
}

// TestPropCheckpointRoundTrip is the record codec's core property:
// encode → decode → encode is byte-identical for arbitrary task records,
// an intact record loads through the store unchanged, and a truncated or
// bit-flipped record file is always detected and recovered to a miss,
// never a partial resume.
func TestPropCheckpointRoundTrip(t *testing.T) {
	propcheck.Check(t, genRecord(), func(rec TaskRecord) error {
		enc1 := EncodeRecord(rec)
		dec, err := DecodeRecord(enc1)
		if err != nil {
			return fmt.Errorf("decode: %w", err)
		}
		if enc2 := EncodeRecord(dec); !bytes.Equal(enc1, enc2) {
			return errors.New("encode→decode→encode not byte-identical")
		}
		// Damage detection: truncate the stored file to nothing, a third
		// and two-thirds, and flip one payload bit; each must recover to a
		// miss through the store.
		s := &Store{Dir: t.TempDir()}
		if err := s.Put(rec.Key, enc1); err != nil {
			return err
		}
		if payload, ok := s.Get(rec.Key); !ok || !bytes.Equal(payload, enc1) {
			return errors.New("intact record did not load through the store")
		}
		file := filepath.Join(s.Dir, rec.Key+".ckpt")
		stored, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		for i, damage := range [][]byte{
			nil,
			stored[:len(stored)/3],
			stored[:2*len(stored)/3],
			flipBit(stored, len(stored)-1),
		} {
			if err := os.WriteFile(file, damage, 0o644); err != nil {
				return err
			}
			if _, ok := s.Get(rec.Key); ok {
				return fmt.Errorf("damaged record %d loaded", i)
			}
		}
		return nil
	})
}

func flipBit(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0x10
	return out
}
