package netlist_test

import (
	"bytes"
	"testing"

	"repro/circuits"
	"repro/internal/netlist"
)

// FuzzReadJSON feeds arbitrary bytes to the JSON decoder, the untrusted edge
// hidap-serve reads client designs through. ReadJSON must never panic, and
// any design it accepts must reach a fixed point after one write:
// WriteJSON → ReadJSON → WriteJSON reproduces the first write byte for byte.
func FuzzReadJSON(f *testing.F) {
	for _, g := range []*circuits.Generated{
		// The generator's smallest designs (about 400 cells, 70 KB).
		circuits.Generate(circuits.Spec{Name: "fz", Macros: 1, Subsystems: 1, BusWidth: 1, PipelineDepth: 1, Seed: 1}),
		circuits.GenFlat(circuits.Spec{Name: "fzflat", Macros: 2, Subsystems: 1, BusWidth: 1, PipelineDepth: 1, Seed: 2}),
	} {
		var buf bytes.Buffer
		if err := netlist.WriteJSON(&buf, g.Design); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	for _, s := range []string{
		`{"name":"x","die":[0,0,100,100],"cells":[{"name":"m","kind":"macro","w":-100,"h":10},{"name":"p","kind":"port"}],"nets":[],"pins":[],"port_pos":[[4294967297,5,7],[0,1,1],[9,2,2]]}`,
		`{"name":"x","die":[0,0,100,100],"cells":[{"name":"m","kind":"macro","w":9223372036854775807,"h":10}],"nets":[],"pins":[]}`,
		`{"name":"x","die":[0,0,100,100],"cells":[{"name":"p","kind":"port"}],"nets":["n"],"pins":[{"cell":0,"net":0,"dir":"out"}],"port_pos":[[0,0,50],[-1,0,0]]}`,
		// No die, and cell areas summing past the default die sizing.
		`{"name":"x","cells":[{"name":"a","kind":"macro","w":2147483648,"h":2147483648},{"name":"b","kind":"macro","w":2147483648,"h":1073741824}],"nets":[],"pins":[]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := netlist.ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := netlist.WriteJSON(&first, d); err != nil {
			t.Fatalf("write accepted design: %v", err)
		}
		d2, err := netlist.ReadJSON(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-read of written design: %v\n%s", err, first.Bytes())
		}
		if err := netlist.WriteJSON(&second, d2); err != nil {
			t.Fatalf("second write: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip not stable:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}
