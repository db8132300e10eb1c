package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"cimmlc"
	"cimmlc/internal/irverify"
)

// runVet implements `cimmlc vet`: compile with the static IR verifier forced
// on and report rule-named diagnostics instead of wrong numbers.
//
//	cimmlc vet lenet5 puma            verify one model × arch cell
//	cimmlc vet -zoo                   verify the short conformance matrix
//	cimmlc vet -selftest              prove seeded corruptions still get caught
func runVet(args []string) {
	fs := flag.NewFlagSet("vet", flag.ExitOnError)
	var (
		modelFile = fs.String("model-file", "", "graph JSON file instead of a zoo model name")
		archFile  = fs.String("arch-file", "", "architecture JSON file instead of a preset name")
		maxLevel  = fs.String("max-level", "", "cap optimization level (CM, XBM or WLM)")
		zoo       = fs.Bool("zoo", false, "verify every cell of the short conformance matrix")
		selftest  = fs.Bool("selftest", false, "run the seeded-corruption fixtures; each must be rejected with its rule")
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: cimmlc vet <model> <arch> | cimmlc vet -zoo | cimmlc vet -selftest")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	switch {
	case *selftest:
		os.Exit(vetSelftest())
	case *zoo:
		os.Exit(vetZoo())
	default:
		rest := fs.Args()
		var modelName, archName string
		if len(rest) == 2 {
			modelName, archName = rest[0], rest[1]
		} else if len(rest) != 0 || (*modelFile == "" && *archFile == "") {
			fs.Usage()
			os.Exit(2)
		}
		g, err := loadModel(modelName, *modelFile)
		if err != nil {
			fatal(err)
		}
		a, err := loadArch(archName, *archFile)
		if err != nil {
			fatal(err)
		}
		level, err := parseMaxLevel(*maxLevel)
		if err != nil {
			fatal(err)
		}
		if _, err := analyzeCell(context.Background(), g, a, level, 0); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("ok   %s × %s: graph, schedule, mapping and flow verified\n", g.Name, a)
	}
}

// vetZoo sweeps the short conformance matrix. The cheap exec models lower
// their full flows; the rest cap window emission so the sweep stays fast. A
// failing cell — including one whose model or arch does not load — never
// aborts the sweep: every cell is visited and the summary table reports all
// of them.
func vetZoo() int {
	outcomes := sweepZoo(os.Stdout, shortZooCells(), vetZooCell)
	if bad := summarizeSweep(os.Stderr, "cimmlc vet -zoo", outcomes); bad > 0 {
		return 1
	}
	return 0
}

// vetZooCell loads and verifies one cell; load failures are per-cell
// outcomes, not sweep aborts.
func vetZooCell(cell zooCell) error {
	g, err := cimmlc.Model(cell.Model)
	if err != nil {
		return err
	}
	a, err := cimmlc.Preset(cell.Arch)
	if err != nil {
		return err
	}
	_, err = analyzeCell(context.Background(), g, a, cell.Level, cell.WinCap)
	return err
}

// vetSelftest runs every seeded corruption through the verifier; each must
// be rejected with its named rule, proving the rules still bite in this
// build, not just in the repo's test suite.
func vetSelftest() int {
	bad := 0
	for _, fx := range irverify.Fixtures() {
		vs, err := fx.Check()
		switch {
		case err != nil:
			fmt.Fprintf(os.Stderr, "FAIL %-24s fixture broke: %v\n", fx.Name, err)
			bad++
		case !irverify.HasRule(vs, fx.Rule):
			fmt.Fprintf(os.Stderr, "FAIL %-24s not rejected with rule %s (got %v)\n", fx.Name, fx.Rule, vs)
			bad++
		default:
			fmt.Printf("ok   %-24s rejected with %s\n", fx.Name, fx.Rule)
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "cimmlc vet -selftest: %d fixture(s) escaped\n", bad)
		return 1
	}
	return 0
}
