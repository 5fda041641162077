package measure

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzCacheLoadFile feeds arbitrary bytes to the measurement-cache file
// parser — the file every CLI's -measure-cache flag loads at start and
// saves at exit. It must never panic, and whatever it loads must survive
// the file: saved and loaded again, every entry is bit-identical, and a
// second save writes the same bytes as the first. The committed corpus
// holds a file the profiler wrote.
func FuzzCacheLoadFile(f *testing.F) {
	key := func(digit string) string { return strings.Repeat(digit, 64) }
	for _, seed := range []string{
		`{"version":2,"entries":{"` + key("a") + `":[1.5,-0,5e-324,1.7976931348623157e308],"` + key("b") + `":[],"` + key("c") + `":null}}`,
		`{"version":1,"entries":{"v1|a":[1]}}`,
		`{"version":2,"entries":{"` + key("D") + `":[1],"` + key("d") + `":[2]}}`,
		`{"version":2,"entries":{"` + key("0") + `":[1e400]}}`,
		`{"version":2}`,
		`{"version":2,"entries":{"a":[1]}}`,
		`null`,
		`[]`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		in := filepath.Join(dir, "in.json")
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		c := NewCache()
		if err := c.LoadFile(in); err != nil {
			if c.Len() != 0 {
				t.Fatalf("a file that failed to load left %d entries", c.Len())
			}
			return
		}
		out1, out2 := filepath.Join(dir, "out1.json"), filepath.Join(dir, "out2.json")
		if err := c.SaveFile(out1); err != nil {
			t.Fatalf("loaded entries do not save: %v", err)
		}
		again := NewCache()
		if err := again.LoadFile(out1); err != nil {
			t.Fatalf("a saved cache does not load: %v", err)
		}
		if again.Len() != c.Len() {
			t.Fatalf("saved %d entries, loaded %d", c.Len(), again.Len())
		}
		for k, v := range c.entries {
			w, ok := again.entries[k]
			if !ok || len(w) != len(v) {
				t.Fatalf("entry %x: saved %v, loaded %v (present %t)", k, v, w, ok)
			}
			for i := range v {
				if math.Float64bits(w[i]) != math.Float64bits(v[i]) {
					t.Fatalf("entry %x[%d]: saved %v, loaded %v", k, i, v[i], w[i])
				}
			}
		}
		if err := again.SaveFile(out2); err != nil {
			t.Fatal(err)
		}
		b1, err1 := os.ReadFile(out1)
		b2, err2 := os.ReadFile(out2)
		if err1 != nil || err2 != nil || !bytes.Equal(b1, b2) {
			t.Fatalf("Save(Load(Save(x))) != Save(x) (%v, %v):\n%s\nvs\n%s", err1, err2, b2, b1)
		}
	})
}
