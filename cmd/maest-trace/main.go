// Command maest-trace inspects persisted request traces: the tail
// sampler's keep decisions, written by maest-serve -trace-store, read
// back here as span trees, slowest-trace tables, and per-plan cost
// profiles.  It reads either a trace store directory offline (-dir) or
// a live debug socket (-addr, a maest-serve -debug-addr).
//
// Usage:
//
//	maest-trace list    [-dir DIR | -addr URL] [-endpoint EP] [-min-ms N] [-limit N] [-json]
//	maest-trace show    [-dir DIR | -addr URL] -trace TRACE_ID [-json]
//	maest-trace slowest [-dir DIR | -addr URL] [-k N] [-json]
//	maest-trace plans   [-dir DIR | -addr URL] [-json]
//
// list scans the trace index newest first; show renders one trace's
// stitched span tree (every hop, stages, and span breakdown); slowest
// ranks the persisted traces by duration; plans aggregates the traces
// into per-plan cost profiles (request counts, latency, cache and
// store hit ratios).
//
// Offline mode opens the store directory the same single-owner way
// maest-store does: run it only against a directory no server
// currently has open.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"maest/internal/client"
	"maest/internal/obs"
	"maest/internal/serve"
	"maest/internal/store"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if err == errUsage {
			usage(os.Stderr)
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "maest-trace:", err)
		os.Exit(1)
	}
}

var errUsage = fmt.Errorf("usage")

// run dispatches one subcommand; split from main so the tests drive
// the CLI without exec.
func run(args []string, w io.Writer) error {
	if len(args) < 1 {
		return errUsage
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "list":
		return runList(rest, w)
	case "show":
		return runShow(rest, w)
	case "slowest":
		return runSlowest(rest, w)
	case "plans":
		return runPlans(rest, w)
	case "help", "-h", "-help", "--help":
		usage(os.Stdout)
		return nil
	default:
		fmt.Fprintf(os.Stderr, "maest-trace: unknown command %q\n\n", cmd)
		return errUsage
	}
}

func usage(w *os.File) {
	fmt.Fprint(w, `maest-trace inspects persisted request traces.

Usage:

  maest-trace list    [-dir DIR | -addr URL] [-endpoint EP] [-min-ms N] [-limit N] [-json]
  maest-trace show    [-dir DIR | -addr URL] -trace TRACE_ID [-json]
  maest-trace slowest [-dir DIR | -addr URL] [-k N] [-json]
  maest-trace plans   [-dir DIR | -addr URL] [-json]

-dir reads a maest-serve -trace-store directory offline (single owner:
no server may have it open); -addr reads a live -debug-addr socket.
`)
}

// source is where the traces come from: exactly one of dir or addr.
type source struct {
	dir  string
	addr string
}

// commonFlags builds each subcommand's shared flag set.
func commonFlags(name string) (*flag.FlagSet, *source, *bool) {
	fs := flag.NewFlagSet("maest-trace "+name, flag.ExitOnError)
	src := &source{}
	fs.StringVar(&src.dir, "dir", "", "trace store directory (offline mode)")
	fs.StringVar(&src.addr, "addr", "", "live debug socket base URL, e.g. http://127.0.0.1:9090")
	asJSON := fs.Bool("json", false, "machine-readable output")
	return fs, src, asJSON
}

func (s *source) validate() error {
	switch {
	case s.dir == "" && s.addr == "":
		return fmt.Errorf("one of -dir or -addr is required")
	case s.dir != "" && s.addr != "":
		return fmt.Errorf("-dir and -addr are mutually exclusive")
	}
	return nil
}

// loadAll reads every persisted hop from a store directory, decoded.
func loadAll(dir string) ([]*obs.FlightRecord, error) {
	if _, err := os.Stat(dir); err != nil {
		// store.Open would create the directory; a typo'd -dir should
		// report, not mint an empty store.
		return nil, err
	}
	st, err := store.Open(store.Options{Dir: dir, MaxBytes: -1})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	var hops []*obs.FlightRecord
	err = st.Scan(store.NSTrace, func(_ store.Key, payload []byte) error {
		rec, err := obs.DecodeTrace(payload)
		if err != nil {
			return nil // one rotten payload loses one hop, not the scan
		}
		hops = append(hops, rec)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(hops, func(i, j int) bool {
		if !hops[i].Time.Equal(hops[j].Time) {
			return hops[i].Time.Before(hops[j].Time)
		}
		return hops[i].Span < hops[j].Span
	})
	return hops, nil
}

func runList(args []string, w io.Writer) error {
	fs, src, asJSON := commonFlags("list")
	endpoint := fs.String("endpoint", "", "only hops of this endpoint")
	minMS := fs.Int("min-ms", 0, "only hops at least this many milliseconds long")
	limit := fs.Int("limit", 50, "show at most this many hops, newest first")
	fs.Parse(args)
	if err := src.validate(); err != nil {
		return err
	}

	var rows []serve.TraceSummary
	if src.addr != "" {
		resp, err := client.New(src.addr).DebugTraces(context.Background(), client.TraceQuery{
			Endpoint: *endpoint, MinMillis: *minMS, Limit: *limit,
		})
		if err != nil {
			return err
		}
		if !resp.Enabled {
			return fmt.Errorf("the server at %s has no trace store mounted", src.addr)
		}
		rows = resp.Traces
	} else {
		hops, err := loadAll(src.dir)
		if err != nil {
			return err
		}
		for i := len(hops) - 1; i >= 0 && len(rows) < *limit; i-- {
			h := hops[i]
			if *endpoint != "" && h.Endpoint != *endpoint {
				continue
			}
			if h.Micros < int64(*minMS)*1000 {
				continue
			}
			rows = append(rows, summarize(h))
		}
	}
	if *asJSON {
		return printJSON(w, rows)
	}
	printSummaries(w, rows)
	return nil
}

func runShow(args []string, w io.Writer) error {
	fs, src, asJSON := commonFlags("show")
	traceID := fs.String("trace", "", "trace id to render (required)")
	fs.Parse(args)
	if err := src.validate(); err != nil {
		return err
	}
	if *traceID == "" {
		return fmt.Errorf("-trace is required")
	}

	var hops []*obs.FlightRecord
	if src.addr != "" {
		resp, err := client.New(src.addr).DebugTrace(context.Background(), *traceID)
		if err != nil {
			return err
		}
		hops = resp.Hops
	} else {
		all, err := loadAll(src.dir)
		if err != nil {
			return err
		}
		for _, h := range all {
			if h.Trace == *traceID {
				hops = append(hops, h)
			}
		}
	}
	if len(hops) == 0 {
		return fmt.Errorf("trace %s not found", *traceID)
	}
	if *asJSON {
		return printJSON(w, hops)
	}
	fmt.Fprintf(w, "trace %s (%d hops)\n", *traceID, len(hops))
	for _, h := range hops {
		printHop(w, h)
	}
	return nil
}

func runSlowest(args []string, w io.Writer) error {
	fs, src, asJSON := commonFlags("slowest")
	k := fs.Int("k", 10, "show the top K hops by duration")
	fs.Parse(args)
	if err := src.validate(); err != nil {
		return err
	}

	var rows []serve.TraceSummary
	if src.addr != "" {
		// The index scan is newest-first, not duration-ordered; pull a
		// generous window and rank locally.
		resp, err := client.New(src.addr).DebugTraces(context.Background(), client.TraceQuery{Limit: 1000})
		if err != nil {
			return err
		}
		rows = resp.Traces
	} else {
		hops, err := loadAll(src.dir)
		if err != nil {
			return err
		}
		for _, h := range hops {
			rows = append(rows, summarize(h))
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Micros > rows[j].Micros })
	if *k >= 0 && *k < len(rows) {
		rows = rows[:*k]
	}
	if *asJSON {
		return printJSON(w, rows)
	}
	printSummaries(w, rows)
	return nil
}

// planAgg is one plan's offline profile, aggregated from the persisted
// traces (the live /debug/plans view aggregates online and adds
// histogram quantiles; offline, every persisted latency is available,
// so the table reports mean and max exactly).
type planAgg struct {
	Plan      string  `json:"plan"`
	Requests  int64   `json:"requests"`
	Errors    int64   `json:"errors"`
	CacheHits int64   `json:"cache_hits"`
	StoreHits int64   `json:"store_hits"`
	MeanUs    float64 `json:"mean_us"`
	MaxUs     int64   `json:"max_us"`
}

func runPlans(args []string, w io.Writer) error {
	fs, src, asJSON := commonFlags("plans")
	fs.Parse(args)
	if err := src.validate(); err != nil {
		return err
	}

	if src.addr != "" {
		resp, err := client.New(src.addr).DebugPlans(context.Background())
		if err != nil {
			return err
		}
		if !resp.Enabled {
			return fmt.Errorf("the server at %s has request telemetry disabled", src.addr)
		}
		if *asJSON {
			return printJSON(w, resp.Plans)
		}
		fmt.Fprintf(w, "%-16s %9s %7s %10s %10s %10s %10s\n",
			"PLAN", "REQUESTS", "ERRORS", "CACHE%", "STORE%", "P50_MS", "P99_MS")
		for _, p := range resp.Plans {
			fmt.Fprintf(w, "%-16s %9d %7d %9.1f%% %9.1f%% %10.2f %10.2f\n",
				shortHash(p.Plan), p.Requests, p.Errors,
				p.CacheHitRatio*100, p.StoreHitRatio*100,
				p.P50Seconds*1000, p.P99Seconds*1000)
		}
		return nil
	}

	hops, err := loadAll(src.dir)
	if err != nil {
		return err
	}
	agg := make(map[string]*planAgg)
	for _, h := range hops {
		if h.Plan == "" {
			continue
		}
		a := agg[h.Plan]
		if a == nil {
			a = &planAgg{Plan: h.Plan}
			agg[h.Plan] = a
		}
		a.Requests++
		if h.Status >= 400 || h.Err != "" {
			a.Errors++
		}
		if h.CacheHit {
			a.CacheHits++
		}
		if h.StoreHit {
			a.StoreHits++
		}
		a.MeanUs += float64(h.Micros) // sum for now; divided below
		if h.Micros > a.MaxUs {
			a.MaxUs = h.Micros
		}
	}
	out := make([]planAgg, 0, len(agg))
	for _, a := range agg {
		a.MeanUs /= float64(a.Requests)
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Requests != out[j].Requests {
			return out[i].Requests > out[j].Requests
		}
		return out[i].Plan < out[j].Plan
	})
	if *asJSON {
		return printJSON(w, out)
	}
	fmt.Fprintf(w, "%-16s %9s %7s %11s %11s %10s %10s\n",
		"PLAN", "REQUESTS", "ERRORS", "CACHE_HITS", "STORE_HITS", "MEAN_MS", "MAX_MS")
	for _, a := range out {
		fmt.Fprintf(w, "%-16s %9d %7d %11d %11d %10.2f %10.2f\n",
			shortHash(a.Plan), a.Requests, a.Errors, a.CacheHits, a.StoreHits,
			a.MeanUs/1000, float64(a.MaxUs)/1000)
	}
	return nil
}

// summarize renders one hop as its index-scan row.
func summarize(h *obs.FlightRecord) serve.TraceSummary {
	return serve.TraceSummary{
		TraceID:  h.Trace,
		Endpoint: h.Endpoint,
		Status:   h.Status,
		Micros:   h.Micros,
		Time:     h.Time.UTC().Format(time.RFC3339Nano),
	}
}

func printSummaries(w io.Writer, rows []serve.TraceSummary) {
	fmt.Fprintf(w, "%-30s %-32s %-20s %6s %10s\n", "TIME", "TRACE", "ENDPOINT", "STATUS", "MS")
	for _, r := range rows {
		fmt.Fprintf(w, "%-30s %-32s %-20s %6d %10.2f\n",
			r.Time, r.TraceID, r.Endpoint, r.Status, float64(r.Micros)/1000)
	}
}

// printHop renders one hop: the outcome line, its coarse stages, and
// the span tree indented by depth.
func printHop(w io.Writer, h *obs.FlightRecord) {
	fmt.Fprintf(w, "\nhop %s", h.Span)
	if h.ParentSpan != "" {
		fmt.Fprintf(w, " (parent %s)", h.ParentSpan)
	}
	fmt.Fprintf(w, "  %s %s -> %d in %.2f ms", h.Method, h.Endpoint, h.Status, float64(h.Micros)/1000)
	switch {
	case h.StoreHit:
		fmt.Fprint(w, "  [store hit]")
	case h.CacheHit:
		fmt.Fprint(w, "  [cache hit]")
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  time %s  request %s", h.Time.UTC().Format(time.RFC3339Nano), h.ID)
	if h.Plan != "" {
		fmt.Fprintf(w, "  plan %s", shortHash(h.Plan))
	}
	fmt.Fprintln(w)
	if h.Err != "" {
		fmt.Fprintf(w, "  err: %s\n", h.Err)
	}
	for _, st := range h.Stages {
		fmt.Fprintf(w, "  stage %-12s %8.2f ms\n", st.Name, float64(st.Micros)/1000)
	}
	for _, sp := range h.Spans {
		fmt.Fprintf(w, "  %s%s %.2f ms", strings.Repeat("  ", sp.Depth), sp.Name, float64(sp.Micros)/1000)
		if sp.Err != "" {
			fmt.Fprintf(w, " (err: %s)", sp.Err)
		}
		fmt.Fprintln(w)
	}
}

// shortHash abbreviates a content address for table output.
func shortHash(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}

func printJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
