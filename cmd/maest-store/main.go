// Command maest-store inspects a persistent estimate store directory
// (a maest-serve -store-dir) offline.
//
// Usage:
//
//	maest-store stats  -dir DIR [-json]
//	maest-store verify -dir DIR [-json]
//
// stats prints the store's statistics snapshot; verify re-reads and
// re-checksums every record in every segment and exits non-zero when
// any fails its CRC — including records open already skipped (a WAL
// tail truncated away, a sealed segment whose header is unreadable),
// which a post-open scan alone would never see.  The store is
// write-once, so there is nothing to maintain: superseded records
// leave with their segment when the byte budget evicts it.
//
// The store is an embedded, single-owner database: run this tool only
// against a directory no maest-serve instance currently has open.
// Opening repairs a torn tail the same way the server would (the
// partial final record is truncated away), so even the read-only
// commands may write to the directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"maest/internal/store"
)

func main() {
	if len(os.Args) < 2 {
		usage(os.Stderr)
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "stats":
		err = runStats(args)
	case "verify":
		err = runVerify(args)
	case "help", "-h", "-help", "--help":
		usage(os.Stdout)
		return
	default:
		fmt.Fprintf(os.Stderr, "maest-store: unknown command %q\n\n", cmd)
		usage(os.Stderr)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "maest-store:", err)
		os.Exit(1)
	}
}

func usage(w *os.File) {
	fmt.Fprint(w, `maest-store inspects a persistent estimate store directory.

Usage:

  maest-store stats  -dir DIR [-json]   statistics snapshot
  maest-store verify -dir DIR [-json]   re-checksum every record

Run only against a directory no server has open.
`)
}

// dirFlags builds the flag set every subcommand shares.
func dirFlags(name string) (*flag.FlagSet, *string, *bool) {
	fs := flag.NewFlagSet("maest-store "+name, flag.ExitOnError)
	dir := fs.String("dir", "", "store directory (required)")
	asJSON := fs.Bool("json", false, "machine-readable output")
	return fs, dir, asJSON
}

// open opens the store for offline maintenance: eviction disabled (an
// inspection must not delete data because the server's byte budget
// would have), everything else at server defaults.
func open(dir string) (*store.Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("-dir is required")
	}
	if _, err := os.Stat(dir); err != nil {
		// store.Open would create the directory; a typo'd -dir should
		// report, not mint an empty store.
		return nil, err
	}
	return store.Open(store.Options{Dir: dir, MaxBytes: -1})
}

func runStats(args []string) error {
	fs, dir, asJSON := dirFlags("stats")
	fs.Parse(args)
	st, err := open(*dir)
	if err != nil {
		return err
	}
	defer st.Close()
	stats := st.Stats()
	if *asJSON {
		return printJSON(stats)
	}
	status := "ok"
	if stats.Degraded {
		status = "degraded (corruption observed; recompute-on-miss in force)"
	}
	fmt.Printf("dir:          %s\n", stats.Dir)
	fmt.Printf("status:       %s\n", status)
	fmt.Printf("segments:     %d sealed + WAL\n", stats.Segments)
	fmt.Printf("bytes:        %d (WAL %d)\n", stats.Bytes, stats.WALBytes)
	fmt.Printf("records:      %d on disk, %d keys indexed\n", stats.Records, stats.IndexedKeys)
	if stats.TruncatedTails > 0 {
		fmt.Printf("repairs:      %d torn tails truncated on open\n", stats.TruncatedTails)
	}
	if stats.CorruptRecords > 0 {
		fmt.Printf("corruption:   %d records skipped\n", stats.CorruptRecords)
	}
	return nil
}

func runVerify(args []string) error {
	fs, dir, asJSON := dirFlags("verify")
	fs.Parse(args)
	st, err := open(*dir)
	if err != nil {
		return err
	}
	defer st.Close()
	// Opening already scanned every file and repaired what it found: a
	// WAL record failing its CRC mid-file is counted and truncated
	// away, and a sealed segment with an unreadable header is counted
	// and skipped, so Verify's re-read never sees either.  Fold the
	// open-time evidence into the verdict — corruption must not hide
	// behind its own repair.  A pure torn tail (short final record, the
	// ordinary crash signature) is reported but benign.
	stats := st.Stats()
	rep, err := st.Verify()
	if err != nil {
		return err
	}
	if *asJSON {
		out := struct {
			*store.VerifyReport
			OpenCorrupt int64 `json:"open_corrupt_records_skipped,omitempty"`
			OpenTorn    int64 `json:"open_torn_tails_truncated,omitempty"`
			Degraded    bool  `json:"degraded,omitempty"`
		}{rep, stats.CorruptRecords, stats.TruncatedTails, stats.Degraded}
		if err := printJSON(out); err != nil {
			return err
		}
	} else {
		fmt.Print(rep.String())
		if stats.TruncatedTails > 0 {
			fmt.Printf("open: %d torn tails truncated (benign crash signature)\n", stats.TruncatedTails)
		}
		if stats.CorruptRecords > 0 {
			fmt.Printf("open: %d corrupt records skipped during WAL repair or segment load; the records after each were not loaded\n", stats.CorruptRecords)
		}
	}
	switch {
	case !rep.Clean:
		return fmt.Errorf("verification failed: %d corrupt records", rep.Corrupt)
	case stats.CorruptRecords > 0:
		return fmt.Errorf("verification failed: %d corrupt records skipped on open", stats.CorruptRecords)
	case stats.Degraded:
		return fmt.Errorf("verification failed: store is degraded")
	}
	return nil
}

func printJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
