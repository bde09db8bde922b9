package client

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"maest/internal/serve"
)

// jobModule builds one chained-inverter module body.
func jobModule(name string, stages int) serve.ModuleInput {
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

func jobRequest(budget int, seed int64) serve.FloorplanRequest {
	return serve.FloorplanRequest{
		Chip: "client-chip",
		Modules: []serve.ModuleInput{
			jobModule("ca", 3), jobModule("cb", 5), jobModule("cc", 7),
		},
		Nets: []serve.GlobalNetBody{
			{Name: "n0", Pins: []serve.GlobalPinBody{
				{Module: "ca", Port: "out"}, {Module: "cb", Port: "in"},
			}},
			{Name: "n1", Pins: []serve.GlobalPinBody{
				{Module: "cb", Port: "out"}, {Module: "cc", Port: "in"},
			}},
		},
		CongestWeight: 1,
		Budget:        budget,
		Seed:          seed,
	}
}

// blockingJobRequest is a job that holds its worker until cancelled:
// eight modules anneal for tens of seconds at the 1,000,000-move
// maximum budget.
func blockingJobRequest(seed int64) serve.FloorplanRequest {
	req := serve.FloorplanRequest{Chip: "client-chip", CongestWeight: 1, Budget: 1_000_000, Seed: seed}
	for i := 0; i < 8; i++ {
		req.Modules = append(req.Modules, jobModule(fmt.Sprintf("m%d", i), 3+2*i))
		if i > 0 {
			req.Nets = append(req.Nets, serve.GlobalNetBody{Name: fmt.Sprintf("n%d", i), Pins: []serve.GlobalPinBody{
				{Module: fmt.Sprintf("m%d", i-1), Port: "out"}, {Module: fmt.Sprintf("m%d", i), Port: "in"},
			}})
		}
	}
	return req
}

func TestFloorplanSubmitAndWait(t *testing.T) {
	s, c := startServe(t, serve.Options{})
	t.Cleanup(s.FlushStore)
	ctx := context.Background()
	sub, err := c.FloorplanSubmit(ctx, jobRequest(80, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.ID) != 64 || JobTerminal(sub.State) {
		t.Fatalf("submit answered %+v", sub)
	}
	var sawProgress bool
	fin, err := c.WaitJob(ctx, sub.ID, time.Millisecond, func(j *serve.JobResponse) {
		sawProgress = true
	})
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != serve.JobDone || fin.Result == nil {
		t.Fatalf("wait answered %+v", fin)
	}
	if len(fin.Result.Blocks) != 3 || len(fin.Result.Congestion) != 3 {
		t.Fatalf("thin result: %+v", fin.Result)
	}
	_ = sawProgress // progress fires only if the poll catches the anneal mid-flight

	// Resubmitting the identical request answers the finished job.
	again, err := c.FloorplanSubmit(ctx, jobRequest(80, 1))
	if err != nil {
		t.Fatal(err)
	}
	if again.ID != sub.ID || again.State != serve.JobDone {
		t.Fatalf("duplicate submit answered %+v", again)
	}
}

func TestCancelJobViaClient(t *testing.T) {
	s, c := startServe(t, serve.Options{})
	t.Cleanup(s.FlushStore)
	ctx := context.Background()
	sub, err := c.FloorplanSubmit(ctx, blockingJobRequest(2))
	if err != nil {
		t.Fatal(err)
	}
	// Cancel as soon as the job is running (or still queued — both
	// transition to cancelled).
	cancelled, err := c.CancelJob(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if cancelled.State != serve.JobCancelled {
		t.Fatalf("cancel answered state %q", cancelled.State)
	}
	// WaitJob on a cancelled job surfaces ErrJobFailed with the
	// snapshot attached.
	fin, err := c.WaitJob(ctx, sub.ID, time.Millisecond, nil)
	if !errors.Is(err, ErrJobFailed) {
		t.Fatalf("wait on cancelled job: %v", err)
	}
	if fin == nil || fin.State != serve.JobCancelled {
		t.Fatalf("wait snapshot %+v", fin)
	}
}

func TestJobErrorsViaClient(t *testing.T) {
	s, c := startServe(t, serve.Options{})
	t.Cleanup(s.FlushStore)
	ctx := context.Background()
	if _, err := c.Job(ctx, strings.Repeat("ab", 32)); err == nil {
		t.Fatal("unknown job id did not error")
	} else {
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.Status != 404 {
			t.Fatalf("unknown job: %v", err)
		}
	}
	if _, err := c.CancelJob(ctx, "not-a-key"); err == nil {
		t.Fatal("malformed job id did not error")
	} else {
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.Status != 400 {
			t.Fatalf("malformed id: %v", err)
		}
	}
	if _, err := c.FloorplanSubmit(ctx, serve.FloorplanRequest{}); err == nil {
		t.Fatal("empty floorplan submit did not error")
	}
}

func TestQueueFullSurfacesRetryAfter(t *testing.T) {
	s, c := startServe(t, serve.Options{JobWorkers: 1, JobQueue: 1})
	t.Cleanup(s.FlushStore)
	ctx := context.Background()
	subA, err := c.FloorplanSubmit(ctx, blockingJobRequest(10))
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the worker to pick A up so B occupies the queue slot.
	deadline := time.Now().Add(10 * time.Second)
	for {
		j, err := c.Job(ctx, subA.ID)
		if err != nil {
			t.Fatal(err)
		}
		if j.State == serve.JobAnnealing {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job A stuck in %q", j.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	subB, err := c.FloorplanSubmit(ctx, blockingJobRequest(11))
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.FloorplanSubmit(ctx, blockingJobRequest(12))
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 429 {
		t.Fatalf("third submit: %v", err)
	}
	if apiErr.RetryAfter <= 0 {
		t.Fatalf("429 without Retry-After hint: %+v", apiErr)
	}
	for _, id := range []string{subB.ID, subA.ID} {
		if _, err := c.CancelJob(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
}
