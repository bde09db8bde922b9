package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"maest/internal/db"
	"maest/internal/tech"
)

func TestRunGenerate(t *testing.T) {
	if err := run(options{proc: "nmos25", generate: true, modules: 3, seed: 1}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunFromDatabaseFile(t *testing.T) {
	p, err := tech.Lookup("nmos25")
	if err != nil {
		t.Fatal(err)
	}
	d, err := generateDB(context.Background(), p, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "est.db")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Write(f, d); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := run(options{proc: "nmos25", seed: 1}, []string{path}); err != nil {
		t.Fatal(err)
	}
}

func TestRunExperiment(t *testing.T) {
	if err := run(options{proc: "nmos25", experiment: true, modules: 3, seed: 1}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRunGenerateTraced checks the chip-scale trace: per-module
// estimate spans under the estimate_chip span, then the
// floorplan.anneal span.
func TestRunGenerateTraced(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.jsonl")
	if err := run(options{proc: "nmos25", generate: true, modules: 3, seed: 1, trace: trace, metrics: true}, nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"span":"estimate_chip"`, `"span":"estimate"`, `"span":"floorplan.anneal"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("trace missing %s:\n%s", want, data)
		}
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(options{proc: "nope", generate: true, modules: 3, seed: 1}, nil); err == nil {
		t.Error("unknown process accepted")
	}
	if err := run(options{proc: "nmos25", modules: 3, seed: 1}, nil); err == nil {
		t.Error("missing database file accepted")
	}
	if err := run(options{proc: "nmos25", modules: 3, seed: 1}, []string{"/nope.db"}); err == nil {
		t.Error("missing file accepted")
	}
	if err := run(options{proc: "nmos25", generate: true, modules: 1, seed: 1}, nil); err == nil {
		t.Error("1-module chip accepted")
	}
}
