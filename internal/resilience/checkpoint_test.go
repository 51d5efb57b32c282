package resilience

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
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

// TestStorePutErrors: a store whose directory cannot be created, or
// whose record path is taken by a directory, fails the write and leaves
// no temp file behind.
func TestStorePutErrors(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := (&Store{Dir: filepath.Join(file, "ckpt")}).Put("k", []byte("v")); err == nil {
		t.Error("Put under a regular file succeeded")
	}
	s := &Store{Dir: t.TempDir()}
	key := Key([]byte("task"))
	if err := os.Mkdir(filepath.Join(s.Dir, key+".ckpt"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key, []byte("v")); err == nil {
		t.Error("Put over a directory succeeded")
	}
	entries, err := os.ReadDir(s.Dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("failed Put left %d entries, want only the blocking directory", len(entries))
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
