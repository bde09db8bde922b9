package db

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzRead checks the estimate-database parser never panics and that
// accepted databases round-trip.
func FuzzRead(f *testing.F) {
	var sample bytes.Buffer
	if err := Write(&sample, sampleDB()); err != nil {
		f.Fatal(err)
	}
	f.Add(sample.String())
	f.Add("chip c\nend\n")
	f.Add("module m 1 1 1\n")
	f.Add("chip c\nmodule m 1 1 1\nshape s 1 NaN 10\nend\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, input string) {
		d, err := Read(strings.NewReader(input))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, d); err != nil {
			t.Fatalf("write of parsed db failed: %v", err)
		}
		if _, err := Read(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("reparse failed: %v\n%s", err, buf.String())
		}
	})
}

func sampleDB() *Database {
	return &Database{
		Chip: "c",
		Modules: []Module{{Name: "m", Devices: 2, Nets: 1, Ports: 1,
			Shapes: []Shape{{Label: "s", Rows: 1, W: 10, H: 10}}}},
	}
}
