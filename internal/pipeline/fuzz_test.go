package pipeline

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"extradeep/internal/resilience"
)

// FuzzCheckpointDecode asserts the checkpoint loader invariant on
// arbitrary record-file bytes: the envelope and decodeRecord either
// accept a fully validated task record that re-encodes to exactly the
// input bytes, or error — they never panic and never accept a record
// they could not have written. This is the property that makes corrupt
// checkpoints safe: anything damaged is rejected here and the resume
// path turns the rejection into a miss, and a miss into a refit.
func FuzzCheckpointDecode(f *testing.F) {
	model, err := encodeRecord(taskRecord{Key: resilience.Key([]byte("t1")), Model: sampleModel()})
	if err != nil {
		f.Fatal(err)
	}
	fitted := resilience.EncodeEnvelope(model)
	skipped, err := encodeRecord(taskRecord{Key: resilience.Key([]byte("t2")), Class: FailurePanic, Reason: "injected"})
	if err != nil {
		f.Fatal(err)
	}
	legacy, err := os.ReadFile(filepath.Join("testdata", "legacy-record.ckpt"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fitted)
	f.Add(resilience.EncodeEnvelope(skipped))
	f.Add(fitted[:len(fitted)/2])                                                          // truncated envelope
	f.Add(fitted[:len("edckpt v1")])                                                       // magic only
	f.Add(resilience.EncodeEnvelope([]byte(`{"key":"k","class":"maybe"}`)))                // unknown class
	f.Add(resilience.EncodeEnvelope([]byte(`{"key":"","class":"panic"}`)))                 // empty key
	f.Add(resilience.EncodeEnvelope([]byte(`{"key":"k","class":"panic","campaign":"c"}`))) // unknown field
	f.Add(bytes.Replace(fitted, []byte(`"smape"`), []byte(`"smapf"`), 1))                  // broken digest
	f.Add(resilience.EncodeEnvelope([]byte(legacyStatePayload)))                           // older campaign-state file
	f.Add(resilience.EncodeEnvelope([]byte(`{"key":"k", "class":"panic"}`)))               // non-canonical whitespace
	f.Add(resilience.EncodeEnvelope([]byte("not json")))                                   // valid envelope, bad payload
	f.Add(legacy)                                                                          // record in the pre-change layout

	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := resilience.DecodeEnvelope(data)
		if err != nil {
			return // rejected input: the other half of the invariant
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			return
		}
		enc, err := encodeRecord(rec)
		if err != nil {
			t.Fatalf("accepted record does not re-encode: %v", err)
		}
		if re := resilience.EncodeEnvelope(enc); !bytes.Equal(re, data) {
			t.Fatalf("accepted record does not re-encode byte-identically:\n in: %q\nout: %q", data, re)
		}
	})
}
