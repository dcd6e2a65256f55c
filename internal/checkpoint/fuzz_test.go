package checkpoint

import (
	"bytes"
	"errors"
	"hash/crc32"
	"reflect"
	"testing"

	"chrono/internal/engine"
)

// FuzzLoad checks Load's fast path against the reference decoder
// (json.Unmarshal of the whole envelope, then version, CRC and payload)
// on an engine checkpoint: the same error, or none, and the same
// EngineState. Each input is also tried with its CRC recomputed, so
// mutations of the payload get past the checksum and reach the decoders.
func FuzzLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, reseal(data)} {
			var got, want engine.EngineState
			err := decode("fuzz.ckpt", in, &got)
			wantErr := loadEnvelope("fuzz.ckpt", in, &want)
			if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
				t.Fatalf("error %v, reference %v", err, wantErr)
			}
			for _, class := range []error{ErrCorrupt, ErrVersion} {
				if errors.Is(err, class) != errors.Is(wantErr, class) {
					t.Fatalf("error %v, reference %v: classes differ on %v", err, wantErr, class)
				}
			}
			if err == nil && !reflect.DeepEqual(got, want) {
				t.Fatal("decoded EngineState differs from the reference decoder's")
			}
		}
	})
}

// reseal rewrites the CRC of an envelope laid out as Save writes it to
// match its payload, and returns any other input unchanged.
func reseal(data []byte) []byte {
	rest, ok := bytes.CutPrefix(data, []byte(headerPrefix))
	if !ok {
		return data
	}
	i := bytes.Index(rest, []byte(payloadKey))
	if i < 0 || len(rest) < i+len(payloadKey)+1 {
		return data
	}
	payload := rest[i+len(payloadKey) : len(rest)-1]
	out := appendHeader(nil, crc32.ChecksumIEEE(payload))
	out = append(out, payload...)
	return append(out, rest[len(rest)-1])
}

// TestResealedEnvelopeTakesFastPath checks that reseal produces inputs
// the fast path accepts, so FuzzLoad exercises it.
func TestResealedEnvelopeTakesFastPath(t *testing.T) {
	env := []byte(headerPrefix + "0" + payloadKey + `{"horizon":5}}`)
	if _, ok := fastPayload(env); ok {
		t.Fatal("fast path accepted a wrong CRC")
	}
	if _, ok := fastPayload(reseal(env)); !ok {
		t.Fatalf("fast path rejected resealed envelope %s", reseal(env))
	}
}
