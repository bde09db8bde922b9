package main

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"maest"
	"maest/internal/tech"
)

const repoTestdata = "../../testdata"

func TestRunMnet(t *testing.T) {
	if err := run(options{proc: "nmos25", rows: 2, name: "module"},
		[]string{filepath.Join(repoTestdata, "demo.mnet")}); err != nil {
		t.Fatal(err)
	}
}

func TestRunBenchWithStatsAndSharing(t *testing.T) {
	if err := run(options{proc: "cmos30", sharing: true, bench: true, name: "c17", stats: true},
		[]string{filepath.Join(repoTestdata, "c17.bench")}); err != nil {
		t.Fatal(err)
	}
}

func TestRunDBOutput(t *testing.T) {
	if err := run(options{proc: "nmos25", name: "module", asDB: true},
		[]string{filepath.Join(repoTestdata, "demo.mnet")}); err != nil {
		t.Fatal(err)
	}
}

func TestRunCongest(t *testing.T) {
	demo := filepath.Join(repoTestdata, "demo.mnet")
	for _, o := range []options{
		{proc: "nmos25", name: "module", congest: true},
		{proc: "nmos25", name: "module", congest: true, rows: 3, model: "crossing"},
		{proc: "nmos25", name: "module", congest: true, grid: true},
	} {
		if err := run(o, []string{demo}); err != nil {
			t.Errorf("%+v: %v", o, err)
		}
	}
	if err := run(options{proc: "nmos25", name: "module", congest: true, model: "psychic"},
		[]string{demo}); err == nil {
		t.Error("unknown congestion model accepted")
	}
}

// -congest -db attaches the map summary to the database record, and
// the emitted record must parse back with it intact.
func TestRunCongestDB(t *testing.T) {
	out := captureStdout(t, func() {
		if err := run(options{proc: "nmos25", name: "module", congest: true, asDB: true, rows: 3, model: "crossing"},
			[]string{filepath.Join(repoTestdata, "demo.mnet")}); err != nil {
			t.Fatal(err)
		}
	})
	d, err := maest.ReadEstimateDB(strings.NewReader(out))
	if err != nil {
		t.Fatalf("%v\noutput:\n%s", err, out)
	}
	c := d.Modules[0].Congestion
	if c == nil {
		t.Fatalf("record carries no congestion summary:\n%s", out)
	}
	if c.Model != "crossing" || c.Rows != 3 {
		t.Fatalf("summary = %+v", c)
	}
}

func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	f()
	w.Close()
	b, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestRunProcessFile(t *testing.T) {
	dir := t.TempDir()
	procFile := filepath.Join(dir, "p.proc")
	f, err := os.Create(procFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := tech.Write(f, tech.NMOS25()); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := run(options{proc: "@" + procFile, rows: 2, name: "module"},
		[]string{filepath.Join(repoTestdata, "demo.mnet")}); err != nil {
		t.Fatal(err)
	}
}

func TestRunVerilogInput(t *testing.T) {
	if err := run(options{proc: "nmos25", rows: 2, verilog: true, name: "module"},
		[]string{filepath.Join(repoTestdata, "fa.v")}); err != nil {
		t.Fatal(err)
	}
	// Mutually exclusive flags.
	if err := run(options{proc: "nmos25", rows: 2, bench: true, verilog: true, name: "module"},
		[]string{filepath.Join(repoTestdata, "fa.v")}); err == nil {
		t.Fatal("-bench -verilog combination accepted")
	}
}

// TestRunObservability is the acceptance flow: a traced, metered,
// profiled run must leave a JSONL span trace covering parse →
// estimate plus the pprof artifacts.
func TestRunObservability(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.jsonl")
	prof := filepath.Join(dir, "cpu.pprof")
	if err := run(options{proc: "nmos25", name: "module", trace: trace, metrics: true, pprof: prof},
		[]string{filepath.Join(repoTestdata, "demo.mnet")}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(trace)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spans := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("invalid trace line %q: %v", sc.Text(), err)
		}
		spans[m["span"].(string)] = true
	}
	for _, want := range []string{"parse.mnet", "estimate", "estimate.sc", "estimate.fc"} {
		if !spans[want] {
			t.Errorf("trace missing span %q (got %v)", want, spans)
		}
	}
	for _, p := range []string{prof, prof + ".heap"} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Errorf("profile %s missing or empty (err %v)", p, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	base := options{proc: "nmos25", name: "m"}
	if err := run(options{proc: "unobtainium", name: "m"}, nil); err == nil {
		t.Error("unknown process accepted")
	}
	if err := run(options{proc: "@/does/not/exist", name: "m"}, nil); err == nil {
		t.Error("missing process file accepted")
	}
	if err := run(base, []string{"/does/not/exist.mnet"}); err == nil {
		t.Error("missing input accepted")
	}
	if err := run(base, []string{"a", "b"}); err == nil {
		t.Error("two inputs accepted")
	}
	// Malformed input.
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.mnet")
	if err := os.WriteFile(bad, []byte("not a module"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(base, []string{bad}); err == nil {
		t.Error("malformed input accepted")
	}
	badBench := base
	badBench.bench = true
	if err := run(badBench, []string{bad}); err == nil {
		t.Error("malformed bench accepted")
	}
	// An unwritable trace path fails up front.
	badTrace := base
	badTrace.trace = filepath.Join(dir, "no", "such", "dir", "t.jsonl")
	if err := run(badTrace, []string{filepath.Join(repoTestdata, "demo.mnet")}); err == nil {
		t.Error("unwritable trace path accepted")
	}
}
