package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"maest/internal/store"
)

// fpRequest builds a floorplan submission over n chained-inverter
// modules with a global net stitching each neighbour pair.
func fpRequest(n int) FloorplanRequest {
	req := FloorplanRequest{Chip: "jobs-chip"}
	for i := 0; i < n; i++ {
		req.Modules = append(req.Modules, batchModule(fmt.Sprintf("fp%d", i), 3+2*i))
	}
	for i := 0; i+1 < n; i++ {
		req.Nets = append(req.Nets, GlobalNetBody{
			Name: fmt.Sprintf("net%d", i),
			Pins: []GlobalPinBody{
				{Module: fmt.Sprintf("fp%d", i), Port: "out"},
				{Module: fmt.Sprintf("fp%d", i+1), Port: "in"},
			},
		})
	}
	return req
}

// blockingRequest is a job that holds its worker until cancelled:
// eight modules anneal for tens of seconds at the maximum budget.
func blockingRequest(seed int64) FloorplanRequest {
	req := fpRequest(8)
	req.Budget = maxJobBudget
	req.Seed = seed
	return req
}

func decodeJob(t *testing.T, w *httptest.ResponseRecorder) JobResponse {
	t.Helper()
	var resp JobResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad job JSON: %v\n%s", err, w.Body.String())
	}
	return resp
}

func isTerminal(state string) bool {
	return state == JobDone || state == JobFailed || state == JobCancelled
}

// pollJob polls GET /v1/jobs/{id} until the job reaches want.
func pollJob(t *testing.T, s *Server, id, want string) JobResponse {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		w := do(s, "GET", "/v1/jobs/"+id, "")
		if w.Code != http.StatusOK {
			t.Fatalf("poll status %d: %s", w.Code, w.Body.String())
		}
		resp := decodeJob(t, w)
		if resp.State == want {
			return resp
		}
		if isTerminal(resp.State) {
			t.Fatalf("job reached terminal state %q waiting for %q (error %q)",
				resp.State, want, resp.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for state %q, still %q", want, resp.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestJobLifecycleToDone(t *testing.T) {
	s := New(Options{})
	t.Cleanup(s.FlushStore)
	req := fpRequest(3)
	req.Budget = 80
	req.CongestWeight = 1
	w := do(s, "POST", "/v1/floorplan", marshal(t, req))
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", w.Code, w.Body.String())
	}
	sub := decodeJob(t, w)
	if len(sub.ID) != 64 || sub.State != JobAccepted {
		t.Fatalf("submit answered %+v", sub)
	}
	fin := pollJob(t, s, sub.ID, JobDone)
	res := fin.Result
	if res == nil {
		t.Fatalf("done job has no result: %+v", fin)
	}
	if len(res.Blocks) != 3 {
		t.Fatalf("%d blocks, want one per module", len(res.Blocks))
	}
	for _, b := range res.Blocks {
		if b.ShapeIndex < 0 || b.Rows < 1 || b.W <= 0 || b.H <= 0 {
			t.Fatalf("bad block %+v", b)
		}
	}
	if len(res.Congestion) != 3 {
		t.Fatalf("congestion detail for %d modules, want 3", len(res.Congestion))
	}
	for _, mc := range res.Congestion {
		if len(mc.Channels) == 0 {
			t.Fatalf("module %s has no per-channel overflow detail", mc.Module)
		}
	}
	if res.Iterations != 80 || res.Cost <= 0 || res.Seed == 0 {
		t.Fatalf("result knobs not echoed: %+v", res)
	}

	// A duplicate submit of the same content answers the existing
	// job with 200, not a second job.
	w = do(s, "POST", "/v1/floorplan", marshal(t, req))
	if w.Code != http.StatusOK {
		t.Fatalf("duplicate submit status %d: %s", w.Code, w.Body.String())
	}
	if dup := decodeJob(t, w); dup.ID != sub.ID || dup.State != JobDone {
		t.Fatalf("duplicate submit answered %+v", dup)
	}
}

// portHeavyModule is a one-inverter module with more ports than any of
// its candidate shapes has perimeter for: it parses, but a job that
// plans it fails.
func portHeavyModule(name string, ports int) ModuleInput {
	var b strings.Builder
	fmt.Fprintf(&b, "module %s\nport in a\ndevice g0 INV a z\nport out z\n", name)
	for i := 0; i < ports; i++ {
		fmt.Fprintf(&b, "port in p%d\n", i)
	}
	b.WriteString("end\n")
	return ModuleInput{Netlist: b.String()}
}

// TestJobReleasesInputs pins that a finished job — done, failed, or
// cancelled mid-anneal — no longer holds its parsed circuits, plan
// keys and nets, and that polling it answers the same bytes as before.
func TestJobReleasesInputs(t *testing.T) {
	s := New(Options{})
	t.Cleanup(s.FlushStore)
	submit := func(req FloorplanRequest) string {
		t.Helper()
		w := do(s, "POST", "/v1/floorplan", marshal(t, req))
		if w.Code != http.StatusAccepted {
			t.Fatalf("submit status %d: %s", w.Code, w.Body.String())
		}
		return decodeJob(t, w).ID
	}
	done := fpRequest(3)
	done.Budget = 40
	idDone := submit(done)
	pollJob(t, s, idDone, JobDone)

	idFailed := submit(FloorplanRequest{Chip: "fails", Modules: []ModuleInput{
		portHeavyModule("wide", 50), batchModule("narrow", 3),
	}})
	if resp := pollJob(t, s, idFailed, JobFailed); !strings.Contains(resp.Error, "ports fit no candidate") {
		t.Fatalf("job failed for another reason: %q", resp.Error)
	}

	idCancelled := submit(blockingRequest(0))
	pollJob(t, s, idCancelled, JobAnnealing)
	if resp := decodeJob(t, do(s, "DELETE", "/v1/jobs/"+idCancelled, "")); resp.State != JobCancelled {
		t.Fatalf("cancel answered state %q", resp.State)
	}

	for _, id := range []string{idDone, idFailed, idCancelled} {
		before := do(s, "GET", "/v1/jobs/"+id, "").Body.String()
		s.jobs.mu.Lock()
		j := s.jobs.jobs[id]
		s.jobs.mu.Unlock()
		j.mu.Lock()
		state, held := j.state, j.modules != nil || j.nets != nil
		j.mu.Unlock()
		if held {
			t.Errorf("%s job still holds its inputs", state)
		}
		if after := do(s, "GET", "/v1/jobs/"+id, "").Body.String(); after != before {
			t.Errorf("%s job poll changed:\nbefore: %s\nafter:  %s", state, before, after)
		}
	}
}

func TestJobUnknownAndMalformedID(t *testing.T) {
	s := New(Options{})
	t.Cleanup(s.FlushStore)
	ghost := strings.Repeat("ab", 32) // well-formed 64-hex id, never submitted
	for _, method := range []string{"GET", "DELETE"} {
		if w := do(s, method, "/v1/jobs/"+ghost, ""); w.Code != http.StatusNotFound {
			t.Errorf("%s unknown id: status %d, want 404", method, w.Code)
		}
		if w := do(s, method, "/v1/jobs/not-a-key", ""); w.Code != http.StatusBadRequest {
			t.Errorf("%s malformed id: status %d, want 400", method, w.Code)
		}
	}
}

func TestJobDoubleCancelIdempotent(t *testing.T) {
	s := New(Options{})
	t.Cleanup(s.FlushStore)
	w := do(s, "POST", "/v1/floorplan", marshal(t, blockingRequest(0)))
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", w.Code, w.Body.String())
	}
	id := decodeJob(t, w).ID
	pollJob(t, s, id, JobAnnealing)

	first := do(s, "DELETE", "/v1/jobs/"+id, "")
	if first.Code != http.StatusOK {
		t.Fatalf("cancel status %d: %s", first.Code, first.Body.String())
	}
	if resp := decodeJob(t, first); resp.State != JobCancelled {
		t.Fatalf("cancel answered state %q, want cancelled", resp.State)
	}
	second := do(s, "DELETE", "/v1/jobs/"+id, "")
	if second.Code != http.StatusOK {
		t.Fatalf("second cancel status %d: %s", second.Code, second.Body.String())
	}
	if resp := decodeJob(t, second); resp.State != JobCancelled {
		t.Fatalf("second cancel answered state %q, want cancelled", resp.State)
	}
	if resp := decodeJob(t, do(s, "GET", "/v1/jobs/"+id, "")); resp.State != JobCancelled {
		t.Fatalf("poll after cancel: state %q", resp.State)
	}
}

// TestJobRestartRehydrates pins the persistence contract: a finished
// job answered by a fresh process against the same store directory is
// byte-identical to the answer the original process gave.
func TestJobRestartRehydrates(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	s1 := New(Options{Store: st})
	req := fpRequest(3)
	req.Budget = 60
	req.CongestWeight = 0.5
	body := marshal(t, req)
	w := do(s1, "POST", "/v1/floorplan", body)
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", w.Code, w.Body.String())
	}
	id := decodeJob(t, w).ID
	pollJob(t, s1, id, JobDone)
	before := do(s1, "GET", "/v1/jobs/"+id, "").Body.Bytes()
	s1.FlushStore()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openTestStore(t, dir)
	defer st2.Close()
	s2 := New(Options{Store: st2})
	t.Cleanup(s2.FlushStore)
	w = do(s2, "GET", "/v1/jobs/"+id, "")
	if w.Code != http.StatusOK {
		t.Fatalf("poll after restart: status %d: %s", w.Code, w.Body.String())
	}
	if !bytes.Equal(w.Body.Bytes(), before) {
		t.Fatalf("restart changed the poll answer:\nbefore: %s\nafter:  %s", before, w.Body.Bytes())
	}
	// A resubmit of the same request also answers from the store,
	// without re-annealing.
	w = do(s2, "POST", "/v1/floorplan", body)
	if w.Code != http.StatusOK {
		t.Fatalf("resubmit after restart: status %d: %s", w.Code, w.Body.String())
	}
	if !bytes.Equal(w.Body.Bytes(), before) {
		t.Fatalf("resubmit after restart diverged:\nbefore: %s\nafter:  %s", before, w.Body.Bytes())
	}
	// Cancelling a rehydrated (terminal) record is a no-op.
	if w := do(s2, "DELETE", "/v1/jobs/"+id, ""); w.Code != http.StatusOK {
		t.Fatalf("cancel rehydrated: status %d", w.Code)
	}
}

func TestJobQueueFull429(t *testing.T) {
	s := New(Options{JobWorkers: 1, JobQueue: 1})
	t.Cleanup(s.FlushStore)
	submit := func(seed int64) *httptest.ResponseRecorder {
		return do(s, "POST", "/v1/floorplan", marshal(t, blockingRequest(seed)))
	}
	wA := submit(101)
	if wA.Code != http.StatusAccepted {
		t.Fatalf("job A status %d: %s", wA.Code, wA.Body.String())
	}
	idA := decodeJob(t, wA).ID
	pollJob(t, s, idA, JobAnnealing) // the lone worker is now occupied

	wB := submit(102) // fills the one queue slot
	if wB.Code != http.StatusAccepted {
		t.Fatalf("job B status %d: %s", wB.Code, wB.Body.String())
	}
	idB := decodeJob(t, wB).ID

	wC := submit(103)
	if wC.Code != http.StatusTooManyRequests {
		t.Fatalf("job C status %d, want 429: %s", wC.Code, wC.Body.String())
	}
	if wC.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	// Cancelling the queued job takes the accepted→cancelled fast
	// path; the worker later skips it.
	if resp := decodeJob(t, do(s, "DELETE", "/v1/jobs/"+idB, "")); resp.State != JobCancelled {
		t.Fatalf("queued cancel answered %q", resp.State)
	}
	if resp := decodeJob(t, do(s, "DELETE", "/v1/jobs/"+idA, "")); resp.State != JobCancelled {
		t.Fatalf("running cancel answered %q", resp.State)
	}
}

// TestJobManagerHammer drives concurrent submits, polls and cancels
// through the handler stack; run under -race it is the job manager's
// interleaving check.
func TestJobManagerHammer(t *testing.T) {
	s := New(Options{JobWorkers: 4, JobQueue: 64})
	t.Cleanup(s.FlushStore)
	bodies := make([]string, 4)
	for i := range bodies {
		req := fpRequest(3)
		req.Budget = 400
		req.Seed = int64(i + 1)
		bodies[i] = marshal(t, req)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 12; i++ {
				w := do(s, "POST", "/v1/floorplan", bodies[rng.Intn(len(bodies))])
				if w.Code != http.StatusAccepted && w.Code != http.StatusOK &&
					w.Code != http.StatusTooManyRequests {
					t.Errorf("submit status %d: %s", w.Code, w.Body.String())
					return
				}
				if w.Code == http.StatusTooManyRequests {
					continue
				}
				var resp JobResponse
				if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
					t.Errorf("bad submit JSON: %v", err)
					return
				}
				switch rng.Intn(3) {
				case 0:
					do(s, "GET", "/v1/jobs/"+resp.ID, "")
				case 1:
					do(s, "DELETE", "/v1/jobs/"+resp.ID, "")
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestFloorplanRequestValidation also pins that no two different
// requests share a job id.  jobID writes net names, pin modules and
// pin ports without framing, so net "n" with pins fp0.out and fp1.in
// and net "n fp0.out" with pin fp1.in hash alike; the second submit
// used to be answered with the first job.  Every field byte the hash
// could confuse is a 400 at submit.
func TestFloorplanRequestValidation(t *testing.T) {
	s := New(Options{})
	t.Cleanup(s.FlushStore)
	withNet := func(name string, pins ...GlobalPinBody) string {
		r := fpRequest(2)
		r.Nets = []GlobalNetBody{{Name: name, Pins: pins}}
		return marshal(t, r)
	}
	fp0Out, fp1In := GlobalPinBody{Module: "fp0", Port: "out"}, GlobalPinBody{Module: "fp1", Port: "in"}
	nulChip := fpRequest(2)
	nulChip.Chip = "chip\x00"
	cases := []struct {
		name string
		body string
		want int
	}{
		{"not json", "{broken", http.StatusBadRequest},
		{"no modules", marshal(t, FloorplanRequest{Chip: "x"}), http.StatusBadRequest},
		{"bad process", marshal(t, func() FloorplanRequest {
			r := fpRequest(2)
			r.Process = "unobtainium"
			return r
		}()), http.StatusBadRequest},
		{"bad module netlist", marshal(t, FloorplanRequest{
			Modules: []ModuleInput{{Netlist: "module broken\nthis is not mnet\n"}},
		}), http.StatusBadRequest},
		{"duplicate module", marshal(t, FloorplanRequest{
			Modules: []ModuleInput{batchModule("dup", 3), batchModule("dup", 5)},
		}), http.StatusBadRequest},
		{"net names ghost module", marshal(t, FloorplanRequest{
			Modules: []ModuleInput{batchModule("only", 3)},
			Nets: []GlobalNetBody{{Name: "n", Pins: []GlobalPinBody{
				{Module: "ghost", Port: "p"},
			}}},
		}), http.StatusBadRequest},
		{"net name with a space", withNet("n fp0.out", fp1In), http.StatusBadRequest},
		{"NUL in net name", withNet("n\x00", fp1In), http.StatusBadRequest},
		{"space in pin module", withNet("n", GlobalPinBody{Module: "fp0 x", Port: "out"}), http.StatusBadRequest},
		{"NUL in pin module", withNet("n", GlobalPinBody{Module: "fp0\x00", Port: "out"}), http.StatusBadRequest},
		{"dot in pin module", marshal(t, FloorplanRequest{
			Modules: []ModuleInput{batchModule("a.b", 3), batchModule("c", 3)},
			Nets: []GlobalNetBody{{Name: "n", Pins: []GlobalPinBody{
				{Module: "a.b", Port: "out"}, {Module: "c", Port: "in"},
			}}},
		}), http.StatusBadRequest},
		{"space in pin port", withNet("n", GlobalPinBody{Module: "fp0", Port: "o ut"}), http.StatusBadRequest},
		{"NUL in pin port", withNet("n", GlobalPinBody{Module: "fp0", Port: "out\x00"}), http.StatusBadRequest},
		{"NUL in chip name", marshal(t, nulChip), http.StatusBadRequest},
	}
	for _, tc := range cases {
		if w := do(s, "POST", "/v1/floorplan", tc.body); w.Code != tc.want {
			t.Errorf("%s: status %d, want %d: %s", tc.name, w.Code, tc.want, w.Body.String())
		}
	}
	// The failures above must not have registered any job.
	s.jobs.mu.Lock()
	n := len(s.jobs.jobs)
	s.jobs.mu.Unlock()
	if n != 0 {
		t.Fatalf("%d jobs registered by rejected submits", n)
	}
	// The colliding pair: the first is a job, the second still a 400.
	if w := do(s, "POST", "/v1/floorplan", withNet("n", fp0Out, fp1In)); w.Code != http.StatusAccepted {
		t.Fatalf("first of the pair: status %d: %s", w.Code, w.Body.String())
	}
	if w := do(s, "POST", "/v1/floorplan", withNet("n fp0.out", fp1In)); w.Code != http.StatusBadRequest {
		t.Fatalf("second of the pair: status %d, want 400: %s", w.Code, w.Body.String())
	}
}

// TestFloorplanBudgetBound pins the job budget's upper bound: the
// maximum is accepted under the job id it always had, one move more is
// a 400 that registers no job.
func TestFloorplanBudgetBound(t *testing.T) {
	s := New(Options{})
	t.Cleanup(s.FlushStore)
	for _, tc := range []struct {
		budget int
		status int
		id     string // for 202
		err    string // for 400
	}{
		{maxJobBudget, http.StatusAccepted, "e42f42a1fb6fce866912d6d8ce2d3202ecc56f241115b2decb4fb5716ba4774c", ""},
		{maxJobBudget + 1, http.StatusBadRequest, "", "serve: bad request: budget 1000001 exceeds the maximum of 1000000 moves"},
	} {
		req := fpRequest(2)
		req.Budget = tc.budget
		w := do(s, "POST", "/v1/floorplan", marshal(t, req))
		if w.Code != tc.status {
			t.Fatalf("budget %d: status %d, want %d: %s", tc.budget, w.Code, tc.status, w.Body.String())
		}
		if tc.status == http.StatusAccepted {
			if id := decodeJob(t, w).ID; id != tc.id {
				t.Fatalf("budget %d: job id %s, want %s", tc.budget, id, tc.id)
			}
			do(s, "DELETE", "/v1/jobs/"+tc.id, "")
			continue
		}
		var er ErrorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil {
			t.Fatal(err)
		}
		if er.Error != tc.err {
			t.Fatalf("budget %d: error %q, want %q", tc.budget, er.Error, tc.err)
		}
	}
	s.jobs.mu.Lock()
	n := len(s.jobs.jobs)
	s.jobs.mu.Unlock()
	if n != 1 {
		t.Fatalf("%d jobs registered, want 1 (the rejected submit must register none)", n)
	}
}

// TestJobSubmitAfterDrain pins the shutdown contract at the handler
// level: once FlushStore has drained the pool, submits shed with 429
// and a queued job left behind was cancelled and persisted.
func TestJobSubmitAfterDrain(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	defer st.Close()
	s := New(Options{Store: st, JobWorkers: 1, JobQueue: 4})
	// Occupy the worker, then park one job in the queue.
	w := do(s, "POST", "/v1/floorplan", marshal(t, blockingRequest(0)))
	if w.Code != http.StatusAccepted {
		t.Fatalf("blocker status %d", w.Code)
	}
	pollJob(t, s, decodeJob(t, w).ID, JobAnnealing)
	w = do(s, "POST", "/v1/floorplan", marshal(t, blockingRequest(7)))
	if w.Code != http.StatusAccepted {
		t.Fatalf("queued status %d", w.Code)
	}
	queuedID := decodeJob(t, w).ID

	s.FlushStore()

	// The queued job transitioned to cancelled and was persisted
	// before the store tier flushed.
	if resp := decodeJob(t, do(s, "GET", "/v1/jobs/"+queuedID, "")); resp.State != JobCancelled {
		t.Fatalf("queued job state %q after drain", resp.State)
	}
	if rec, ok := load[JobResponse](s.stier, store.NSFloorplan, mustKey(t, queuedID)); !ok || rec.State != JobCancelled {
		t.Fatalf("queued job not persisted as cancelled: ok=%v rec=%+v", ok, rec)
	}
	// Submits after drain shed with 429.
	fresh := fpRequest(2)
	if w := do(s, "POST", "/v1/floorplan", marshal(t, fresh)); w.Code != http.StatusTooManyRequests {
		t.Fatalf("submit after drain: status %d, want 429", w.Code)
	}
}

func mustKey(t *testing.T, id string) Key {
	t.Helper()
	k, err := parseKey(id)
	if err != nil {
		t.Fatal(err)
	}
	return k
}
