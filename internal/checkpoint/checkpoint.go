// Package checkpoint is the durable-state envelope used by resumable
// sweeps: a versioned, checksummed JSON container written with the
// write-to-temp-then-rename discipline, so a reader never observes a
// half-written file and a torn write is detected rather than trusted.
//
// The payload format is plain JSON. Go's encoding/json is deterministic —
// struct fields marshal in declaration order and floats use the shortest
// round-trippable representation — so identical state produces identical
// bytes, which the kill-and-resume fence relies on.
package checkpoint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
)

// Magic identifies a checkpoint envelope.
const Magic = "chrono-checkpoint"

// Version is the current envelope format version. Bump it on any
// incompatible payload change; Load rejects mismatches with ErrVersion so
// a resumed run falls back to re-execution instead of misinterpreting old
// state.
const Version = 1

// Sentinel errors, matched with errors.Is.
var (
	// ErrCorrupt marks a failed magic or checksum validation: the file is
	// truncated, torn, or not a checkpoint at all.
	ErrCorrupt = errors.New("checkpoint: corrupt or not a checkpoint file")
	// ErrVersion marks an envelope written by an incompatible format
	// version.
	ErrVersion = errors.New("checkpoint: incompatible format version")
)

// envelope is the on-disk container.
type envelope struct {
	Magic   string `json:"magic"`
	Version int    `json:"version"`
	// CRC is the IEEE CRC-32 of the raw payload bytes.
	CRC     uint32          `json:"crc"`
	Payload json.RawMessage `json:"payload"`
}

// Save marshals payload into a versioned, checksummed envelope and writes
// it atomically: the bytes land in a temporary file in the target
// directory, are synced, and are renamed over path. A crash at any point
// leaves either the previous file or the complete new one.
//
// The envelope is written as header + payload + "}" rather than through
// json.Marshal(envelope), which would compact the whole payload a second
// time. The bytes are the same: json.Marshal output is already compact
// and HTML-escaped, which is all the RawMessage re-encoding would do.
func Save(path string, payload any) error {
	raw, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("checkpoint: marshal payload: %w", err)
	}
	return WriteFileAtomic(path, appendHeader(nil, crc32.ChecksumIEEE(raw)), raw, []byte{'}'})
}

// The envelope header around the CRC digits, as json.Marshal(envelope)
// renders it for the current Version.
var (
	headerPrefix = `{"magic":"` + Magic + `","version":` + strconv.Itoa(Version) + `,"crc":`
	payloadKey   = `,"payload":`
)

// appendHeader appends the envelope bytes that precede the payload.
func appendHeader(b []byte, crc uint32) []byte {
	b = append(b, headerPrefix...)
	b = strconv.AppendUint(b, uint64(crc), 10)
	return append(b, payloadKey...)
}

// Load reads an envelope, validates magic, version, and checksum, and
// unmarshals the payload into out. On error the contents of out are
// unspecified.
func Load(path string, out any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return decode(path, data, out)
}

// decode is Load on the file's bytes. When the envelope is laid out
// exactly as Save writes it, it unmarshals the payload in place;
// anything else, including every failure of that fast path, goes through
// the reference decoder loadEnvelope, which therefore produces every
// error Load returns.
func decode(path string, data []byte, out any) error {
	if payload, ok := fastPayload(data); ok && json.Unmarshal(payload, out) == nil {
		return nil
	}
	return loadEnvelope(path, data, out)
}

// fastPayload returns the payload of an envelope laid out exactly as Save
// writes it for the current Version, with a matching CRC, as a subslice
// of data; ok is false for anything else. When the payload it returns
// also unmarshals, it is one JSON value with no surrounding whitespace,
// so the reference decoder (loadEnvelope) would find the same magic,
// version, CRC and payload bytes in data and succeed with the same
// result.
func fastPayload(data []byte) (payload []byte, ok bool) {
	rest, ok := bytes.CutPrefix(data, []byte(headerPrefix))
	if !ok {
		return nil, false
	}
	// The CRC must be a canonical JSON integer: digits only, no leading
	// zero, within uint32.
	n := 0
	for n < len(rest) && rest[n] >= '0' && rest[n] <= '9' {
		n++
	}
	if n == 0 || n > 10 || (rest[0] == '0' && n > 1) {
		return nil, false
	}
	crc, err := strconv.ParseUint(string(rest[:n]), 10, 32)
	if err != nil {
		return nil, false
	}
	if rest, ok = bytes.CutPrefix(rest[n:], []byte(payloadKey)); !ok {
		return nil, false
	}
	if len(rest) < 2 || rest[len(rest)-1] != '}' {
		return nil, false
	}
	payload = rest[:len(rest)-1]
	if isSpace(payload[0]) || isSpace(payload[len(payload)-1]) {
		return nil, false
	}
	if crc32.ChecksumIEEE(payload) != uint32(crc) {
		return nil, false
	}
	return payload, true
}

// isSpace reports whether c is JSON insignificant whitespace.
func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// loadEnvelope is the reference decoder: the whole file through
// json.Unmarshal. Load's fast path only ever short-cuts inputs this
// decoder accepts, so every error, and its class, comes from here.
func loadEnvelope(path string, data []byte, out any) error {
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return fmt.Errorf("%w: %s: %v", ErrCorrupt, path, err)
	}
	if env.Magic != Magic {
		return fmt.Errorf("%w: %s: bad magic %q", ErrCorrupt, path, env.Magic)
	}
	if env.Version != Version {
		return fmt.Errorf("%w: %s: file version %d, supported %d", ErrVersion, path, env.Version, Version)
	}
	if crc := crc32.ChecksumIEEE(env.Payload); crc != env.CRC {
		return fmt.Errorf("%w: %s: payload CRC %08x, recorded %08x", ErrCorrupt, path, crc, env.CRC)
	}
	if err := json.Unmarshal(env.Payload, out); err != nil {
		return fmt.Errorf("checkpoint: unmarshal payload of %s: %w", path, err)
	}
	return nil
}

// WriteFileAtomic writes the concatenation of parts to path through a
// same-directory temporary file, fsync, and rename — the manifest-update
// discipline every durable artifact of a sweep uses. Save passes its
// envelope header, payload and trailer as separate parts, so a large
// payload is never copied into one buffer first.
func WriteFileAtomic(path string, parts ...[]byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	cleanup := func() {
		if rmErr := os.Remove(tmpName); rmErr != nil && !os.IsNotExist(rmErr) {
			// Best effort: the stray temp file is harmless and the original
			// error is the one worth surfacing.
			_ = rmErr
		}
	}
	for _, data := range parts {
		if _, err := tmp.Write(data); err != nil {
			if cerr := tmp.Close(); cerr != nil {
				err = errors.Join(err, cerr)
			}
			cleanup()
			return err
		}
	}
	if err := tmp.Sync(); err != nil {
		if cerr := tmp.Close(); cerr != nil {
			err = errors.Join(err, cerr)
		}
		cleanup()
		return err
	}
	if err := tmp.Close(); err != nil {
		cleanup()
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		cleanup()
		return err
	}
	return nil
}
