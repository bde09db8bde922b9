package congest

import (
	"bytes"
	"context"
	"testing"

	"maest/internal/db"
)

// DBSummary must produce a record that survives the db text format
// round trip inside a validated database.
func TestDBSummary(t *testing.T) {
	s := stats("sum", map[int]int{2: 6, 4: 3})
	m, err := Analyze(context.Background(), s, 4, false, Options{Model: ModelCrossing})
	if err != nil {
		t.Fatal(err)
	}
	c := m.DBSummary()
	if c.Model != "crossing" || c.Rows != 4 {
		t.Fatalf("summary header = %+v", c)
	}
	if c.PeakUtil != m.MaxUtilization() || c.PeakOverflow != m.MaxOverflow() {
		t.Fatalf("summary peaks = %+v", c)
	}
	if c.HotChannel != m.HottestChannel() || c.ExpectedFeeds != m.TotalExpectedFeeds {
		t.Fatalf("summary detail = %+v", c)
	}

	d := &db.Database{Chip: "c", Modules: []db.Module{{
		Name: "sum", Devices: 8, Nets: 9, Ports: 2,
		Shapes:     []db.Shape{{Label: "sc-rows4", Rows: 4, W: 10, H: 10}},
		Congestion: c,
	}}}
	var buf bytes.Buffer
	if err := db.Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	back, err := db.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := back.Modules[0].Congestion
	if got == nil || got.Model != c.Model || got.Rows != c.Rows || got.HotChannel != c.HotChannel {
		t.Fatalf("round-tripped summary = %+v, want %+v", got, c)
	}
}
