package floorplan

import (
	"bytes"
	"strings"
	"testing"
)

func TestPlanWriteSVG(t *testing.T) {
	plan := samplePlan(t)
	var buf bytes.Buffer
	if err := WriteSVG(&buf, plan, 2); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"<svg", "</svg>", "<title>demo</title>"} {
		if !strings.Contains(out, want) {
			t.Fatalf("SVG missing %q", want)
		}
	}
	for _, b := range plan.Blocks {
		if !strings.Contains(out, ">"+b.Name+"</text>") {
			t.Fatalf("SVG missing label for %q", b.Name)
		}
	}
	// Default scale.
	if err := WriteSVG(&bytes.Buffer{}, plan, 0); err != nil {
		t.Fatal(err)
	}
}

func TestPlanWriteSVGDegenerate(t *testing.T) {
	if err := WriteSVG(&bytes.Buffer{}, &Plan{}, 1); err == nil {
		t.Fatal("degenerate plan accepted")
	}
}
