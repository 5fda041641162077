package drift

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzLoadAuditJSONL feeds arbitrary bytes to the decision-audit parser —
// the file the daemon writes at drain and offline tooling reads back. It
// must never panic, and whatever it accepts must survive the log: written
// out and loaded again, the records and their bytes are unchanged.
func FuzzLoadAuditJSONL(f *testing.F) {
	for _, seed := range []string{
		`{"round":0,"request":"interfd-round-0","assignment":{"a":["0:0","1:1"]},"objective":1.5,"evaluations":9,"qos_satisfied":true,"predicted":{"a":1.5},"combine_hits":4,"combine_misses":1}`,
		`{"round":7,"request":"req-00000000000001ff","assignment":{},"predicted":{},"observed":{"a":1e-9},"residuals":{"a":-0},"down_hosts":[3,1],"degraded_hosts":{"2":1.6,"-4":0},"fault_events":18446744073709551615}` + "\n" +
			`{"round":-1,"drift_events":[{"round":1,"app":"a","reason":"staleness","cells":[{"app":"a","pressure":2,"interfering":1,"observations":4294967295}]}]}`,
		`{"round":1e3}`,
		`{"degraded_hosts":{"x":1}}`,
		`{"request":"\ud800"} {"round":2}`,
		`{"round":0}{`,
		`null`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		write := func(recs []Decision) []byte {
			log := NewAuditLog(len(recs) + 1)
			for _, d := range recs {
				log.Append(d)
			}
			var buf bytes.Buffer
			if err := log.WriteJSONL(&buf); err != nil {
				t.Fatalf("parsed records do not encode: %v", err)
			}
			return buf.Bytes()
		}
		// A parse error still returns the records before it.
		recs, _ := LoadAuditJSONL(bytes.NewReader(data))
		// x is the log's content as the file holds it (an empty map the
		// input spelled out is an omitted one on disk).
		w1 := write(recs)
		x, err := LoadAuditJSONL(bytes.NewReader(w1))
		if err != nil || len(x) != len(recs) {
			t.Fatalf("wrote %d records, loaded %d: %v", len(recs), len(x), err)
		}
		w2 := write(x)
		if !bytes.Equal(w1, w2) {
			t.Fatalf("Write(Load(Write(x))) != Write(x):\n%s\nvs\n%s", w2, w1)
		}
		if again, err := LoadAuditJSONL(bytes.NewReader(w2)); err != nil || !reflect.DeepEqual(again, x) {
			t.Fatalf("Load(Write(x)) != x (%v):\n%+v\nvs\n%+v", err, again, x)
		}
	})
}
