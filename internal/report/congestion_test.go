package report

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"maest/internal/congest"
	"maest/internal/hdl"
	"maest/internal/netlist"
	"maest/internal/place"
	"maest/internal/route"
	"maest/internal/tech"
)

// The congestion validation is deterministic (seeded suites, seeded
// placement); the golden file pins the per-channel MAE of the crossing
// model against the spine router on both experiment suites.
func TestCongestValidationGolden(t *testing.T) {
	rows, err := RunCongestValidation(tech.NMOS25(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("validation produced no rows")
	}
	for _, r := range rows {
		if r.MAE < 0 || r.PeakOverflow < 0 || r.PeakOverflow > 1 {
			t.Fatalf("row out of range: %+v", r)
		}
		if r.ActualTracks < 0 || r.PredictedTracks < 0 {
			t.Fatalf("negative track totals: %+v", r)
		}
	}
	var buf bytes.Buffer
	if err := CongestTable(rows).Render(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "congest_validation.txt", buf.Bytes())
}

// ValidateRoute on a real placed-and-routed module: channel vectors
// line up, totals agree with their sums, and the error metrics are
// consistent.
func TestValidateRoute(t *testing.T) {
	f, err := os.Open(filepath.Join("..", "..", "testdata", "demo.mnet"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	circ, err := hdl.ParseMnet(f)
	if err != nil {
		t.Fatal(err)
	}
	p := tech.NMOS25()
	s, err := netlist.Gather(circ, p)
	if err != nil {
		t.Fatal(err)
	}
	const rows = 3
	m, err := congest.Analyze(s, rows, congest.Options{Model: congest.ModelCrossing})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := place.Place(circ, p, place.Options{Rows: rows, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	routed, err := route.RouteModule(pl, route.Options{})
	if err != nil {
		t.Fatal(err)
	}
	v, err := ValidateRoute(m, routed)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Predicted) != rows+1 || len(v.Actual) != rows+1 {
		t.Fatalf("channel vectors %d/%d, want %d", len(v.Predicted), len(v.Actual), rows+1)
	}
	if v.MAE < math.Abs(v.Bias)-1e-12 {
		t.Fatalf("MAE %g below |bias| %g", v.MAE, v.Bias)
	}
	if v.ActualTotal != routed.TotalTracks {
		t.Fatalf("actual total %d != routed %d", v.ActualTotal, routed.TotalTracks)
	}
	if math.Abs(v.PredictedTotal-m.TotalExpectedTracks) > 1e-9 {
		t.Fatalf("predicted total %g != map total %g", v.PredictedTotal, m.TotalExpectedTracks)
	}

	// Mismatched row counts are rejected with the congest error.
	m2, err := congest.Analyze(s, rows+1, congest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = ValidateRoute(m2, routed)
	const want = `congest: analysis failed: module "demo": map has 5 channels, routing has 4`
	if !errors.Is(err, congest.ErrCongest) || err.Error() != want {
		t.Fatalf("mismatched channel counts: %v, want %q wrapping ErrCongest", err, want)
	}
}
