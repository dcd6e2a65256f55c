package engine

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"chrono/internal/simclock"
)

// TestPageTableColumnsCoverTags fails when PageTableState gains a JSON
// key the fast decoder does not know: every page table holding it would
// fall back to encoding/json, and restore would silently slow down.
func TestPageTableColumnsCoverTags(t *testing.T) {
	typ := reflect.TypeOf(PageTableState{})
	keys := map[string]bool{}
	for i := 0; i < typ.NumField(); i++ {
		key, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
		keys[key] = true
		if pageTableColumns[key] == nil {
			t.Errorf("PageTableState.%s (json %q) has no case in pageTableColumns", typ.Field(i).Name, key)
		}
	}
	for key := range pageTableColumns {
		if !keys[key] {
			t.Errorf("pageTableColumns decodes %q, which is no PageTableState JSON key", key)
		}
	}
}

// TestPageTableDecodeTakesFastPath checks that a marshalled page table is
// decoded by the fast path, not by the encoding/json fallback.
func TestPageTableDecodeTakesFastPath(t *testing.T) {
	st := prefilledPageTable()
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var got PageTableState
	if d := (pageDecoder{data: data}); !d.object(&got) {
		t.Fatalf("fast path rejected json.Marshal output %s", data)
	}
	if !reflect.DeepEqual(got, st) {
		t.Fatalf("fast path decoded %+v, want %+v", got, st)
	}
}

// prefilledPageTable is a small page table with every column set,
// including the negative zero and extreme values json.Marshal can write.
func prefilledPageTable() PageTableState {
	return PageTableState{
		Len: 4,
		ID:  []int64{0, 2, 3}, VPN: []uint64{1, 1 << 63, 18446744073709551615},
		PID: []int{1, 1, -2}, Tier: []int{0, 1, 2}, Flags: []uint16{0, 65535, 9},
		Size: []int32{1, 512, -2147483648}, ProtTS: []simclock.Time{0, -1, 9223372036854775807},
		LastFault: []simclock.Time{5, 6, 7}, DemoteTS: []simclock.Time{0, 0, 1},
		PromoteTS: []simclock.Time{1, 0, 0}, ABitTS: []simclock.Time{3, 2, 1},
		Meta: []uint64{0, 1, 2}, Meta2: []uint64{3, 4, 5}, FaultSeq: []uint64{9, 8, 7},
		W: []float64{0.5, 1e-300, 1.7976931348623157e308}, RF: []float64{math.Copysign(0, -1), 1, 0.3},
		EverSlow: []int64{2}, EverPromoted: []int64{3}, Shadowed: []int64{0}, ShadowTS: []simclock.Time{-9223372036854775808},
	}
}

// FuzzPageTableStateDecode checks the fast decoder against encoding/json
// on a method-less copy of the type: the same error, or none, and the
// same value, both decoding into a zero table and merging into a full
// one, through json.Unmarshal and through a direct UnmarshalJSON call.
func FuzzPageTableStateDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, base := range []func() PageTableState{func() PageTableState { return PageTableState{} }, prefilledPageTable} {
			want := base()
			wantErr := json.Unmarshal(data, (*pageTableJSON)(&want))
			viaJSON, direct := base(), base()
			check := func(how string, got PageTableState, err error) {
				t.Helper()
				if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
					t.Fatalf("%s: error %v, encoding/json %v", how, err, wantErr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: decoded %+v, encoding/json %+v", how, got, want)
				}
				// DeepEqual treats 0 and -0 alike; the encodings do not.
				g, _ := json.Marshal((*pageTableJSON)(&got))
				w, _ := json.Marshal((*pageTableJSON)(&want))
				if !bytes.Equal(g, w) {
					t.Fatalf("%s: re-encodes to %s, encoding/json's to %s", how, g, w)
				}
			}
			err := json.Unmarshal(data, &viaJSON)
			check("json.Unmarshal", viaJSON, err)
			err = direct.UnmarshalJSON(data)
			check("UnmarshalJSON", direct, err)
		}
	})
}
