package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
)

// Route equivalence for the source alias: a request resolved through
// the alias must answer exactly what the parse route answers.  Each
// check replays one request history on two servers, drops the second
// server's aliases, and sends the final request to both, so one takes
// the alias and the other parses against the same plans and memos.

// aliasReq is one request of a history: an endpoint and its payload
// (EstimateRequest, CongestionRequest or BatchRequest).
type aliasReq struct {
	path string
	req  any
}

// wireText is a netlist's JSON string bytes as encoding/json writes
// them into a body, between the quotes: what the alias hashes.
func wireText(netlist string) []byte {
	b, err := json.Marshal(netlist)
	if err != nil {
		panic(err)
	}
	return b[1 : len(b)-1]
}

// sources lists the alias keys a request's circuit sources resolve to.
func (r aliasReq) sources() []Key {
	proc := func(p string) string {
		if p == "" {
			return "nmos25"
		}
		return p
	}
	switch q := r.req.(type) {
	case EstimateRequest:
		return []Key{sourceAlias(proc(q.Process), q.Format, q.Name, wireText(q.Netlist))}
	case CongestionRequest:
		return []Key{sourceAlias(proc(q.Process), q.Format, q.Name, wireText(q.Netlist))}
	case BatchRequest:
		var ks []Key
		for _, m := range q.Modules {
			ks = append(ks, sourceAlias(proc(q.Process), m.Format, m.Name, wireText(m.Netlist)))
		}
		return ks
	}
	panic(fmt.Sprintf("aliasReq of type %T", r.req))
}

// send posts one request and returns its response body, failing on
// anything but 200.
func send(t *testing.T, s *Server, r aliasReq) string {
	t.Helper()
	w := do(s, "POST", r.path, marshal(t, r.req))
	if w.Code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", r.path, w.Code, w.Body.String())
	}
	return w.Body.String()
}

// lastRoute names the route the server's newest request resolved its
// circuit by: "alias", "parse", or "" when it recorded neither.
func lastRoute(t *testing.T, s *Server) string {
	t.Helper()
	recs := s.Flight().Snapshot()
	if len(recs) == 0 {
		t.Fatal("flight recorder is empty")
	}
	for _, st := range recs[len(recs)-1].Stages {
		if st.Name == "alias" || st.Name == "parse" {
			return st.Name
		}
	}
	return ""
}

// checkAliases asserts the alias invariants — every alias names a
// resident entry that names it back, and no more aliases than plans —
// and returns the alias count.
func checkAliases(t *testing.T, c *PlanCache) int {
	t.Helper()
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for a, el := range c.aliases {
		e := el.Value.(*planEntry)
		if !e.aliased || e.alias != a {
			t.Fatalf("alias %s names an entry that does not name it back", a)
		}
		if c.entries[e.key] != el {
			t.Fatalf("alias %s names evicted plan %s", a, e.key)
		}
	}
	aliased := 0
	for _, el := range c.entries {
		if e := el.Value.(*planEntry); e.aliased {
			aliased++
			if c.aliases[e.alias] != el {
				t.Fatalf("plan %s names alias %s, which does not name it", e.key, e.alias)
			}
		}
	}
	if aliased != len(c.aliases) || len(c.aliases) > c.capacity {
		t.Fatalf("%d aliases, %d aliased entries, capacity %d", len(c.aliases), aliased, c.capacity)
	}
	return len(c.aliases)
}

// hasAlias reports whether source alias a is registered.
func hasAlias(c *PlanCache, a Key) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.aliases[a]
	return ok
}

// forgetAliases drops every alias, so the next request of any source
// takes the parse route against the same plans and memos.
func forgetAliases(c *PlanCache) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for a, el := range c.aliases {
		el.Value.(*planEntry).aliased = false
		delete(c.aliases, a)
	}
}

// withoutCacheHit re-encodes a JSON answer with every cache_hit and
// cache_hits field removed.
func withoutCacheHit(t *testing.T, body string) string {
	t.Helper()
	var v any
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatalf("bad response JSON: %v\n%s", err, body)
	}
	var strip func(any)
	strip = func(v any) {
		switch x := v.(type) {
		case map[string]any:
			delete(x, "cache_hit")
			delete(x, "cache_hits")
			for _, y := range x {
				strip(y)
			}
		case []any:
			for _, y := range x {
				strip(y)
			}
		}
	}
	strip(v)
	return marshal(t, v)
}

// assertRoutesAgree replays history on two servers, then sends r to
// both: the first must resolve every source of r through its alias and
// the second, its aliases dropped, through the parse route.  The two
// answers must be byte-identical, and a cold server's answer the same
// apart from cache_hit.
func assertRoutesAgree(t *testing.T, history []aliasReq, r aliasReq) {
	t.Helper()
	aliased, parsed := New(Options{FlightSize: 64}), New(Options{FlightSize: 64})
	for _, h := range history {
		send(t, aliased, h)
		send(t, parsed, h)
	}
	for _, a := range r.sources() {
		if !hasAlias(aliased.plans, a) {
			t.Fatalf("%s: source alias %s not registered by the history", r.path, a)
		}
	}
	forgetAliases(parsed.plans)
	viaAlias, viaParse := send(t, aliased, r), send(t, parsed, r)
	if _, batch := r.req.(BatchRequest); !batch {
		if got := lastRoute(t, aliased); got != "alias" {
			t.Fatalf("%s: aliased server took the %q route", r.path, got)
		}
		if got := lastRoute(t, parsed); got != "parse" {
			t.Fatalf("%s: alias-free server took the %q route", r.path, got)
		}
	}
	if viaAlias != viaParse {
		t.Fatalf("%s: alias route answered\n%s\nparse route answered\n%s", r.path, viaAlias, viaParse)
	}
	if cold := send(t, New(Options{}), r); withoutCacheHit(t, cold) != withoutCacheHit(t, viaAlias) {
		t.Fatalf("%s: alias route answered\n%s\ncold server answered\n%s", r.path, viaAlias, cold)
	}
	checkAliases(t, aliased.plans)
	checkAliases(t, parsed.plans)
}

func TestAliasRouteEquivalence(t *testing.T) {
	demo := testdata(t, "demo.mnet")
	mnet := EstimateRequest{Netlist: demo}
	bench := EstimateRequest{Format: "bench", Name: "c17", Netlist: testdata(t, "c17.bench")}
	verilog := EstimateRequest{Format: "verilog", Netlist: testdata(t, "fa.v"), Process: "cmos30"}
	est := func(q EstimateRequest) aliasReq { return aliasReq{"/v1/estimate", q} }

	t.Run("estimate", func(t *testing.T) {
		for _, q := range []EstimateRequest{mnet, bench, verilog} {
			assertRoutesAgree(t, []aliasReq{est(q)}, est(q))
			// Other knobs on an aliased plan: a memo miss the alias route
			// computes.
			knobs := q
			knobs.Rows, knobs.TrackSharing = 3, true
			assertRoutesAgree(t, []aliasReq{est(q)}, est(knobs))
		}
	})

	t.Run("congestion", func(t *testing.T) {
		for _, rows := range []int{0, 2} {
			for _, gridded := range []bool{false, true} {
				for _, model := range []string{"", "crossing"} {
					for _, capacity := range []int{0, 3} {
						for _, feeds := range []int{0, 2} {
							q := aliasReq{"/v1/congestion", CongestionRequest{Netlist: demo, Rows: rows,
								Gridded: gridded, Model: model, Capacity: capacity, FeedBudget: feeds}}
							// An estimate registers the alias the congestion
							// question then takes; a repeat takes it to the memo.
							assertRoutesAgree(t, []aliasReq{est(mnet)}, q)
							assertRoutesAgree(t, []aliasReq{q}, q)
						}
					}
				}
			}
		}
	})

	t.Run("batch", func(t *testing.T) {
		b := aliasReq{"/v1/estimate/batch", BatchRequest{Rows: 2, Modules: []ModuleInput{
			{Netlist: demo},
			{Format: bench.Format, Name: bench.Name, Netlist: bench.Netlist},
			batchModule("b0", 3),
		}}}
		assertRoutesAgree(t, []aliasReq{b}, b)
		singles := []aliasReq{est(mnet), est(bench), est(EstimateRequest{Netlist: batchModule("b0", 3).Netlist})}
		assertRoutesAgree(t, singles, b)
	})
}

// TestAliasPerProcess pins that one text under two processes gets two
// aliases: the second process parses instead of borrowing the first
// one's plan.
func TestAliasPerProcess(t *testing.T) {
	s := New(Options{FlightSize: 16})
	demo := testdata(t, "demo.mnet")
	nmos := aliasReq{"/v1/estimate", EstimateRequest{Netlist: demo}}
	cmos := aliasReq{"/v1/estimate", EstimateRequest{Netlist: demo, Process: "cmos30"}}
	first := map[string]string{}
	for _, r := range []aliasReq{nmos, cmos} {
		first[r.req.(EstimateRequest).Process] = send(t, s, r)
		if got := lastRoute(t, s); got != "parse" {
			t.Fatalf("first %q request took the %q route", r.req.(EstimateRequest).Process, got)
		}
	}
	if n := checkAliases(t, s.plans); n != 2 {
		t.Fatalf("%d aliases after two processes, want 2", n)
	}
	a, b := decodeEstimateBody(t, first[""]), decodeEstimateBody(t, first["cmos30"])
	if a.Plan == b.Plan || a.Process == b.Process {
		t.Fatalf("processes share a plan: %s / %s", a.Plan, b.Plan)
	}
	for _, r := range []aliasReq{nmos, cmos} {
		got := send(t, s, r)
		if route := lastRoute(t, s); route != "alias" {
			t.Fatalf("repeat %q took the %q route", r.req.(EstimateRequest).Process, route)
		}
		if withoutCacheHit(t, got) != withoutCacheHit(t, first[r.req.(EstimateRequest).Process]) {
			t.Fatalf("repeat %q answered\n%s\nfirst answer\n%s", r.req.(EstimateRequest).Process, got, first[r.req.(EstimateRequest).Process])
		}
	}
}

func decodeEstimateBody(t *testing.T, body string) EstimateResponse {
	t.Helper()
	var resp EstimateResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("bad response JSON: %v\n%s", err, body)
	}
	return resp
}

// TestAliasTextVariant pins that a comment or whitespace variant parses
// to the same plan key and moves that plan's one alias to itself.
func TestAliasTextVariant(t *testing.T) {
	s := New(Options{FlightSize: 16})
	original := EstimateRequest{Netlist: testdata(t, "demo.mnet")}
	variant := EstimateRequest{Netlist: "# the same circuit\n\n" + original.Netlist + "\n"}
	orig, vari := aliasReq{"/v1/estimate", original}, aliasReq{"/v1/estimate", variant}

	first := decodeEstimateBody(t, send(t, s, orig))
	second := decodeEstimateBody(t, send(t, s, vari))
	if lastRoute(t, s) != "parse" {
		t.Fatal("variant text took the alias of the original")
	}
	if second.Plan != first.Plan || second.Key != first.Key || !second.CacheHit {
		t.Fatalf("variant resolved elsewhere: plan %s key %s hit %v, want plan %s key %s hit",
			second.Plan, second.Key, second.CacheHit, first.Plan, first.Key)
	}
	if n := checkAliases(t, s.plans); n != 1 || !hasAlias(s.plans, vari.sources()[0]) {
		t.Fatalf("%d aliases after the variant, want only the variant's", n)
	}
	send(t, s, vari)
	if lastRoute(t, s) != "alias" {
		t.Fatal("variant repeat did not take its alias")
	}
	again := send(t, s, orig)
	if lastRoute(t, s) != "parse" {
		t.Fatal("original text kept an alias its plan no longer holds")
	}
	if withoutCacheHit(t, again) != withoutCacheHit(t, marshal(t, first)) {
		t.Fatalf("original re-answered\n%s\nfirst answer\n%+v", again, first)
	}
}

// TestAliasEvictedWithPlan pins that an evicted plan takes its alias
// along, and that the re-parsed answer is unchanged.
func TestAliasEvictedWithPlan(t *testing.T) {
	s := New(Options{CacheSize: 2, FlightSize: 16})
	reqs := make([]aliasReq, 5)
	first := make([]string, len(reqs))
	for i := range reqs {
		reqs[i] = aliasReq{"/v1/estimate", EstimateRequest{Netlist: benchNetlist(fmt.Sprintf("ev%d", i), 3+i)}}
		first[i] = send(t, s, reqs[i])
		if n := checkAliases(t, s.plans); n > 2 {
			t.Fatalf("%d aliases with a 2-plan cache", n)
		}
	}
	for i, r := range reqs[:3] {
		if hasAlias(s.plans, r.sources()[0]) {
			t.Fatalf("alias of evicted plan %d survived", i)
		}
	}
	got := send(t, s, reqs[0])
	if lastRoute(t, s) != "parse" {
		t.Fatal("evicted source took an alias")
	}
	if got != first[0] {
		t.Fatalf("re-parsed answer\n%s\nfirst answer\n%s", got, first[0])
	}
	if n := checkAliases(t, s.plans); n != 2 {
		t.Fatalf("%d aliases, want 2", n)
	}
}

// TestAliasErrorsRegisterNothing pins that a body failing to parse or
// compile answers the same error on every repeat and never gets an
// alias.
func TestAliasErrorsRegisterNothing(t *testing.T) {
	s := New(Options{})
	for _, tc := range []struct {
		name string
		req  EstimateRequest
		code int
	}{
		{"parse", EstimateRequest{Netlist: "module m\n"}, http.StatusBadRequest},
		{"empty", EstimateRequest{Netlist: "  \n"}, http.StatusBadRequest},
		{"format", EstimateRequest{Format: "edif", Netlist: "x"}, http.StatusBadRequest},
		{"compile", EstimateRequest{Netlist: "module m\ndevice g WARP a b\nend\n"}, http.StatusUnprocessableEntity},
	} {
		body := marshal(t, tc.req)
		var first string
		for i := 0; i < 3; i++ {
			w := do(s, "POST", "/v1/estimate", body)
			if w.Code != tc.code {
				t.Fatalf("%s #%d: status %d, want %d: %s", tc.name, i, w.Code, tc.code, w.Body.String())
			}
			if i == 0 {
				first = w.Body.String()
			} else if w.Body.String() != first {
				t.Fatalf("%s #%d answered\n%s\nfirst answer\n%s", tc.name, i, w.Body.String(), first)
			}
		}
		if n := checkAliases(t, s.plans); n != 0 {
			t.Fatalf("%s: %d aliases registered by failing bodies", tc.name, n)
		}
	}
}

// TestAliasDisabledCache pins that a disabled cache always parses and
// still answers identically.
func TestAliasDisabledCache(t *testing.T) {
	s := New(Options{CacheSize: -1, FlightSize: 16})
	r := aliasReq{"/v1/estimate", EstimateRequest{Netlist: testdata(t, "demo.mnet")}}
	first := send(t, s, r)
	for i := 0; i < 2; i++ {
		if got := send(t, s, r); got != first {
			t.Fatalf("repeat %d answered\n%s\nfirst answer\n%s", i, got, first)
		}
		if route := lastRoute(t, s); route != "parse" {
			t.Fatalf("disabled cache took the %q route", route)
		}
	}
}

// TestAliasDeclinedBodyParses pins the one alias derivation: a body the
// fast path declines (here a case-variant key encoding/json accepts)
// takes the canonical route on every repeat, looking up and registering
// no alias, and answers what the fast-path body answers.
func TestAliasDeclinedBodyParses(t *testing.T) {
	s := New(Options{FlightSize: 16})
	demo := testdata(t, "demo.mnet")
	declined := `{"Netlist":` + marshal(t, demo) + `}`
	var first string
	for i := 0; i < 3; i++ {
		w := do(s, "POST", "/v1/estimate", declined)
		if w.Code != http.StatusOK {
			t.Fatalf("declined body #%d: %d %s", i, w.Code, w.Body.String())
		}
		if route := lastRoute(t, s); route != "parse" {
			t.Fatalf("declined body #%d took the %q route", i, route)
		}
		if n := checkAliases(t, s.plans); n != 0 {
			t.Fatalf("declined body #%d registered %d aliases", i, n)
		}
		if i == 0 {
			first = w.Body.String()
		}
	}
	fast := aliasReq{"/v1/estimate", EstimateRequest{Netlist: demo}}
	for i, want := range []string{"parse", "alias"} {
		got := send(t, s, fast)
		if route := lastRoute(t, s); route != want {
			t.Fatalf("fast-path body #%d took the %q route, want %q", i, route, want)
		}
		if withoutCacheHit(t, got) != withoutCacheHit(t, first) {
			t.Fatalf("fast-path body answered\n%s\ndeclined body answered\n%s", got, first)
		}
	}
}
