package resilience

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// Checkpoint file layout: a three-part envelope
//
//	edckpt v1\n
//	<sha256 hex of payload>\n
//	<payload bytes>
//
// The digest makes truncation and bit flips detectable: a record either
// decodes to exactly the bytes that were written or it is a miss — never
// a partial resume from corrupt state. Writes are temp+rename in the
// same directory, so a killed process leaves either the previous record
// or the new one, never a torn file (the same discipline as edlint v3's
// findings cache). There is deliberately no fsync: after an OS crash the
// rename may land before the data, but the digest turns that zero-length
// or torn record into a miss, so a crash costs a recomputation, never a
// wrong answer.
const envelopeMagic = "edckpt v1"

// ErrCorrupt reports an envelope that failed validation; Store.Get turns
// it into a miss.
var ErrCorrupt = errors.New("resilience: corrupt checkpoint")

// EncodeEnvelope wraps a payload in the checksummed envelope.
func EncodeEnvelope(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	var b bytes.Buffer
	b.Grow(len(envelopeMagic) + 1 + hex.EncodedLen(len(sum)) + 1 + len(payload))
	b.WriteString(envelopeMagic)
	b.WriteByte('\n')
	b.WriteString(hex.EncodeToString(sum[:]))
	b.WriteByte('\n')
	b.Write(payload)
	return b.Bytes()
}

// DecodeEnvelope validates the envelope and returns the payload, or
// ErrCorrupt (wrapped with the reason) for anything damaged.
func DecodeEnvelope(data []byte) ([]byte, error) {
	head, rest, ok := bytes.Cut(data, []byte{'\n'})
	if !ok || string(head) != envelopeMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	digest, payload, ok := bytes.Cut(rest, []byte{'\n'})
	if !ok || len(digest) != hex.EncodedLen(sha256.Size) {
		return nil, fmt.Errorf("%w: bad digest line", ErrCorrupt)
	}
	// Compare against the lowercase hex EncodeEnvelope writes, so an
	// envelope is accepted only in the one form it is written in.
	if sum := sha256.Sum256(payload); string(digest) != hex.EncodeToString(sum[:]) {
		return nil, fmt.Errorf("%w: payload digest mismatch", ErrCorrupt)
	}
	return payload, nil
}

// Key hashes the given parts into a content key (hex). Parts are
// length-prefixed, so ("ab","c") and ("a","bc") key differently.
func Key(parts ...[]byte) string {
	h := sha256.New()
	var n [8]byte
	for _, p := range parts {
		binary.BigEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Store is a content-hash-keyed checkpoint directory. A nil *Store is a
// valid no-op: Get always misses and Put discards.
type Store struct {
	// Dir is the checkpoint directory; it is created on first Put.
	Dir string
}

// path maps a key to its record file. Keys are hex hashes, so the name
// needs no escaping.
func (s *Store) path(key string) string { return filepath.Join(s.Dir, key+".ckpt") }

// Get returns the payload stored under key. Missing, unreadable or
// corrupt records are all a miss — the caller recomputes, it never
// resumes from damaged state.
func (s *Store) Get(key string) ([]byte, bool) {
	if s == nil {
		return nil, false
	}
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		return nil, false
	}
	payload, err := DecodeEnvelope(data)
	if err != nil {
		return nil, false
	}
	return payload, true
}

// Put atomically writes the payload under key: the envelope goes to a
// temp file in the same directory and is renamed into place, so readers
// and crashes see either the old record or the new one in full.
func (s *Store) Put(key string, payload []byte) error {
	if s == nil {
		return nil
	}
	if err := os.MkdirAll(s.Dir, 0o755); err != nil {
		return fmt.Errorf("resilience: checkpoint dir: %w", err)
	}
	tmp, err := os.CreateTemp(s.Dir, ".tmp-"+key[:min(8, len(key))]+"-*")
	if err != nil {
		return fmt.Errorf("resilience: checkpoint temp file: %w", err)
	}
	_, werr := tmp.Write(EncodeEnvelope(payload))
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("resilience: writing checkpoint %s: %w", key, errors.Join(werr, cerr))
	}
	if err := os.Rename(tmp.Name(), s.path(key)); err != nil {
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("resilience: committing checkpoint %s: %w", key, err)
	}
	return nil
}
