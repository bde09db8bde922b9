package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"sync"
	"testing"
)

// TestReleasedBodiesAreNotRead overwrites every body buffer released to
// bodyPool while estimate, congestion and batch requests run
// concurrently, their netlists read in place from the body: repeats take
// the alias, misses unescape and parse.  No raw netlist may outlive its
// handler, so every answer must equal a quiet server's, and under -race
// a read after release is reported against the scribbling goroutine.
func TestReleasedBodiesAreNotRead(t *testing.T) {
	type call struct{ path, body string }
	var calls []call
	for i := 0; i < 6; i++ {
		// Escaped text (quotes and tabs in comments) takes the unescape
		// path on a miss; the rest are read as they lie.
		text := benchNetlist(fmt.Sprintf("m%d", i), 3+i)
		if i%2 == 1 {
			text = "# \"tab\"\there\n" + text
		}
		calls = append(calls,
			call{"/v1/estimate", marshal(t, EstimateRequest{Netlist: text, Rows: 1 + i%3})},
			call{"/v1/congestion", marshal(t, CongestionRequest{Netlist: text, Rows: 2})},
			call{"/v1/estimate/batch", marshal(t, BatchRequest{Modules: []ModuleInput{{Netlist: text}, batchModule("b", 2+i)}})},
		)
	}
	quiet := New(Options{})
	want := make([]string, len(calls))
	for i, c := range calls {
		w := do(quiet, "POST", c.path, c.body)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", c.path, w.Code, w.Body.String())
		}
		want[i] = withoutCacheHit(t, w.Body.String())
	}

	stop := make(chan struct{})
	var scribbler sync.WaitGroup
	scribbler.Add(1)
	go func() {
		defer scribbler.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			buf := bodyPool.Get().(*bytes.Buffer)
			buf.Reset()
			b := buf.Bytes()[:buf.Cap()]
			for i := range b {
				b[i] = '"'
			}
			bodyPool.Put(buf)
		}
	}()
	s := New(Options{CacheSize: 8})
	type answer struct {
		i, code int
		body    string
	}
	const workers, each = 4, 30
	answers := make(chan answer, workers*each) // one per request
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < each; n++ {
				i := (g*7 + n*5) % len(calls)
				w := do(s, "POST", calls[i].path, calls[i].body)
				answers <- answer{i, w.Code, w.Body.String()}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	scribbler.Wait()
	close(answers)
	for a := range answers {
		if a.code != http.StatusOK {
			t.Fatalf("%s: %d %s", calls[a.i].path, a.code, a.body)
		}
		if got := withoutCacheHit(t, a.body); got != want[a.i] {
			t.Fatalf("%s answered\n%s\nthe quiet server answered\n%s", calls[a.i].path, got, want[a.i])
		}
	}
}
