package main

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"maest/internal/client"
	"maest/internal/serve"
	"maest/internal/store"
)

// fpModule renders one chained-inverter module as mnet source.
func fpModule(name string, stages int) serve.ModuleInput {
	var b strings.Builder
	fmt.Fprintf(&b, "module %s\nport in a\n", name)
	prev := "a"
	for i := 0; i < stages; i++ {
		next := fmt.Sprintf("n%d", i)
		fmt.Fprintf(&b, "device g%d INV %s %s\n", i, prev, next)
		prev = next
	}
	fmt.Fprintf(&b, "port out %s\nend\n", prev)
	return serve.ModuleInput{Netlist: b.String()}
}

func fpChipRequest(budget int) serve.FloorplanRequest {
	return serve.FloorplanRequest{
		Chip: "e2e-chip",
		Modules: []serve.ModuleInput{
			fpModule("ea", 3), fpModule("eb", 5), fpModule("ec", 7), fpModule("ed", 4),
		},
		Nets: []serve.GlobalNetBody{
			{Name: "n0", Pins: []serve.GlobalPinBody{
				{Module: "ea", Port: "out"}, {Module: "eb", Port: "in"},
			}},
			{Name: "n1", Pins: []serve.GlobalPinBody{
				{Module: "eb", Port: "out"}, {Module: "ec", Port: "in"},
			}},
			{Name: "n2", Pins: []serve.GlobalPinBody{
				{Module: "ec", Port: "out"}, {Module: "ed", Port: "in"},
			}},
		},
		CongestWeight: 1.5,
		WireWeight:    0.5,
		Budget:        budget,
		Seed:          1988,
	}
}

// blockingChipRequest is a job that holds its worker until cancelled:
// eight modules anneal for tens of seconds at the 1,000,000-move
// maximum budget.
func blockingChipRequest(seed int64) serve.FloorplanRequest {
	req := serve.FloorplanRequest{Chip: "e2e-chip", CongestWeight: 1, Budget: 1_000_000, Seed: seed}
	for i := 0; i < 8; i++ {
		req.Modules = append(req.Modules, fpModule(fmt.Sprintf("m%d", i), 3+2*i))
		if i > 0 {
			req.Nets = append(req.Nets, serve.GlobalNetBody{Name: fmt.Sprintf("n%d", i), Pins: []serve.GlobalPinBody{
				{Module: fmt.Sprintf("m%d", i-1), Port: "out"}, {Module: fmt.Sprintf("m%d", i), Port: "in"},
			}})
		}
	}
	return req
}

// TestFloorplanServiceEndToEnd is the acceptance flow: submit a chip
// netlist with a congestion weight over the real socket, poll the job
// to completion, check the plan chose one shape candidate per module
// and reports per-channel overflow probabilities, then restart the
// server against the same -store-dir and require GET /v1/jobs/{id} to
// answer byte-identically.
func TestFloorplanServiceEndToEnd(t *testing.T) {
	dir := t.TempDir()
	rt1 := startStoreServer(t, dir)
	c1 := client.New("http://" + rt1.apiAddr)
	ctx := context.Background()

	req := fpChipRequest(150)
	sub, err := c1.FloorplanSubmit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	fin, err := c1.WaitJob(ctx, sub.ID, 2*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := fin.Result
	if res == nil || res.Chip != "e2e-chip" {
		t.Fatalf("job finished without a result: %+v", fin)
	}
	// (a) one chosen candidate per module.
	if len(res.Blocks) != len(req.Modules) {
		t.Fatalf("%d blocks for %d modules", len(res.Blocks), len(req.Modules))
	}
	seen := map[string]bool{}
	for _, b := range res.Blocks {
		if b.ShapeIndex < 0 || b.Rows < 1 {
			t.Fatalf("block %s chose no candidate: %+v", b.Name, b)
		}
		seen[b.Name] = true
	}
	if len(seen) != len(req.Modules) {
		t.Fatalf("blocks cover %d distinct modules, want %d", len(seen), len(req.Modules))
	}
	// (b) per-channel overflow probabilities for every module.
	if len(res.Congestion) != len(req.Modules) {
		t.Fatalf("congestion detail for %d modules, want %d", len(res.Congestion), len(req.Modules))
	}
	for _, mc := range res.Congestion {
		if len(mc.Channels) == 0 {
			t.Fatalf("module %s reports no channels", mc.Module)
		}
		for _, ch := range mc.Channels {
			if ch.POverflow < 0 || ch.POverflow > 1 {
				t.Fatalf("module %s channel %d P(overflow) = %g", mc.Module, ch.Index, ch.POverflow)
			}
		}
	}

	// Capture the poll answer's exact bytes, then restart.
	code, before := getBody(t, "http://"+rt1.apiAddr+"/v1/jobs/"+sub.ID)
	if code != http.StatusOK {
		t.Fatalf("pre-restart poll: %d %s", code, before)
	}
	if err := rt1.shutdown(10 * time.Second); err != nil {
		t.Fatalf("first shutdown: %v", err)
	}

	rt2 := startStoreServer(t, dir)
	defer func() {
		if err := rt2.shutdown(10 * time.Second); err != nil {
			t.Errorf("second shutdown: %v", err)
		}
	}()
	// (c) the rehydrated record is byte-identical.
	code, after := getBody(t, "http://"+rt2.apiAddr+"/v1/jobs/"+sub.ID)
	if code != http.StatusOK {
		t.Fatalf("post-restart poll: %d %s", code, after)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("restart changed the job record:\nbefore: %s\nafter:  %s", before, after)
	}
}

// TestServeDrainCancelsJobs pins the graceful-drain contract: shutdown
// with an anneal in flight cancels it, persists the cancelled record,
// and leaves no floorplan goroutine behind.
func TestServeDrainCancelsJobs(t *testing.T) {
	dir := t.TempDir()
	rt := startStoreServer(t, dir)
	c := client.New("http://" + rt.apiAddr)
	ctx := context.Background()

	req := blockingChipRequest(1988)
	sub, err := c.FloorplanSubmit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	// Make sure the anneal is actually running when the drain starts.
	deadline := time.Now().Add(10 * time.Second)
	for {
		j, err := c.Job(ctx, sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		if j.State == serve.JobAnnealing {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", j.State)
		}
		time.Sleep(2 * time.Millisecond)
	}

	if err := rt.shutdown(10 * time.Second); err != nil {
		t.Fatalf("shutdown with job in flight: %v", err)
	}

	// No job goroutine survives FlushStore: nothing on any stack still
	// sits in the annealer.
	var stacks bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&stacks, 2); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(stacks.String(), "internal/floorplan") {
		t.Fatalf("floorplan goroutine survived the drain:\n%s", stacks.String())
	}

	// The interrupted job was persisted as cancelled before the store
	// closed.
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	raw, err := hex.DecodeString(sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	var key store.Key
	copy(key[:], raw)
	b, ok, err := st.Get(store.NSFloorplan, key)
	if err != nil || !ok {
		t.Fatalf("cancelled job not in store: ok=%v err=%v", ok, err)
	}
	var rec serve.JobResponse
	if err := json.Unmarshal(b, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.State != serve.JobCancelled {
		t.Fatalf("persisted state %q, want cancelled", rec.State)
	}
}
