package report

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"maest/internal/tech"
)

var update = flag.Bool("update", false, "rewrite golden files")

func goldenPath(name string) string {
	return filepath.Join("..", "..", "testdata", "golden", name)
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := goldenPath(name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update): %v", name, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from golden (run with -update after intentional changes)\ngot:\n%s\nwant:\n%s",
			name, got, want)
	}
}

// The rendered evaluation tables are fully deterministic (seeded
// generators, seeded annealing); golden files pin them so model or
// engine regressions surface as diffs.
func TestTable1Golden(t *testing.T) {
	rows, err := RunTable1(tech.NMOS25(), 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Table1(rows).Render(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table1.txt", buf.Bytes())
}

func TestTable2Golden(t *testing.T) {
	rows, err := RunTable2(tech.NMOS25(), 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Table2(rows).Render(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table2.txt", buf.Bytes())
}
