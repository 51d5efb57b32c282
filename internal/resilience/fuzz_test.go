package resilience

import (
	"bytes"
	"testing"
)

// FuzzCheckpointDecode asserts the checkpoint loader invariant on
// arbitrary record-file bytes: the envelope and DecodeRecord either
// accept a fully validated task record that re-encodes to exactly the
// input bytes, or error — they never panic and never accept a record
// they could not have written. This is the property that makes corrupt
// checkpoints safe: anything damaged is rejected here and the resume
// path turns the rejection into a miss, and a miss into a refit.
func FuzzCheckpointDecode(f *testing.F) {
	fitted := EncodeEnvelope(EncodeRecord(TaskRecord{
		Key: Key([]byte("t1")), Name: "time kern/a", Status: StatusFitted, Payload: []byte(`{"f":"p^1"}`),
	}))
	f.Add(fitted)
	f.Add(EncodeEnvelope(EncodeRecord(TaskRecord{
		Key: Key([]byte("t2")), Name: "time kern/b", Status: StatusSkipped, Class: "panic", Reason: "injected",
	})))
	f.Add(fitted[:len(fitted)/2])                                                            // truncated envelope
	f.Add(fitted[:len("edckpt v1")])                                                         // magic only
	f.Add(EncodeEnvelope([]byte(`{"key":"k","name":"n","status":"maybe"}`)))                 // bad status
	f.Add(EncodeEnvelope([]byte(`{"key":"","name":"n","status":"fitted"}`)))                 // empty key
	f.Add(EncodeEnvelope([]byte(`{"key":"k","name":"n","status":"fitted","campaign":"c"}`))) // unknown field
	f.Add(bytes.Replace(fitted, []byte("fitted"), []byte("maybes"), 1))                      // broken digest
	f.Add(EncodeEnvelope([]byte(legacyStatePayload)))                                        // older campaign-state file
	f.Add(EncodeEnvelope([]byte(`{"key":"k", "name":"n","status":"fitted"}`)))               // non-canonical whitespace
	f.Add(EncodeEnvelope([]byte("not json")))                                                // valid envelope, bad payload

	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := DecodeEnvelope(data)
		if err != nil {
			return // rejected input: the other half of the invariant
		}
		rec, err := DecodeRecord(payload)
		if err != nil {
			return
		}
		if re := EncodeEnvelope(EncodeRecord(rec)); !bytes.Equal(re, data) {
			t.Fatalf("accepted record does not re-encode byte-identically:\n in: %q\nout: %q", data, re)
		}
	})
}
