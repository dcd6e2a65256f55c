package checkpoint

import (
	"encoding/json"
	"hash/crc32"
)

// MarshalEnvelope renders payload the way Save rendered it before the
// envelope was written by hand: json.Marshal of the envelope struct.
func MarshalEnvelope(payload any) ([]byte, error) {
	raw, err := json.Marshal(payload)
	if err != nil {
		return nil, err
	}
	return json.Marshal(envelope{Magic: Magic, Version: Version, CRC: crc32.ChecksumIEEE(raw), Payload: raw})
}
