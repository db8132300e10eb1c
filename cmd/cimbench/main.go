// Command cimbench regenerates the paper's tables and figures. Measurement
// (compile, execute, serve) lives in bench/; correctness in go test.
//
// Usage:
//
//	cimbench                 # run every experiment
//	cimbench fig20a fig21d   # run selected experiments
//	cimbench -list           # list experiment IDs
//	cimbench -json fig20a    # machine-readable results
//	cimbench -flows fig16    # print the full Figure-16 flows
//
// `go test ./cmd/cimbench` holds every experiment to
// testdata/experiments_golden.json; `-update` rewrites it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"cimmlc"
	"cimmlc/internal/experiments"
)

func main() {
	list := flag.Bool("list", false, "list experiment IDs and exit")
	flows := flag.String("flows", "", "print the generated flows of the named experiment (fig16)")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON instead of formatted tables")
	flag.Parse()

	if *list {
		for _, id := range cimmlc.ExperimentIDs() {
			fmt.Println(id)
		}
		return
	}
	if *flows != "" {
		if *flows != "fig16" {
			fmt.Fprintf(os.Stderr, "cimbench: only fig16 has printable flows\n")
			os.Exit(1)
		}
		fl, err := experiments.Fig16Flows()
		if err != nil {
			fmt.Fprintf(os.Stderr, "cimbench: %v\n", err)
			os.Exit(1)
		}
		for _, mode := range []string{"CM", "XBM", "WLM"} {
			fmt.Printf("===== %s =====\n", mode)
			fmt.Println(truncateFlow(fl[mode].Flow.Print(), 40))
		}
		return
	}

	ids := flag.Args()
	if len(ids) == 0 {
		ids = cimmlc.ExperimentIDs()
	}
	failed := false
	var tables []*cimmlc.ExperimentTable
	for _, id := range ids {
		t, err := cimmlc.Experiment(id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cimbench: %s: %v\n", id, err)
			failed = true
			continue
		}
		if *jsonOut {
			tables = append(tables, t)
		} else {
			fmt.Println(t.Format())
		}
	}
	if *jsonOut {
		if err := writeJSON(os.Stdout, tables); err != nil {
			fmt.Fprintf(os.Stderr, "cimbench: %v\n", err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// writeJSON writes tables as `cimbench -json` prints them, the format of
// testdata/experiments_golden.json.
func writeJSON(w io.Writer, tables []*cimmlc.ExperimentTable) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(tables)
}

// truncateFlow keeps the first n lines of a printed flow (the §3.4 example
// prints "… 256 similar code segments" rather than all of them).
func truncateFlow(text string, n int) string {
	lines := 0
	for i := 0; i < len(text); i++ {
		if text[i] == '\n' {
			lines++
			if lines == n {
				return text[:i] + "\n  ... (truncated; flows are complete in memory)"
			}
		}
	}
	return text
}
