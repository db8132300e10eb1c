package main

import (
	"flag"
	"fmt"
	"os"

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
	cf := declareCellFlags(fs, false, true)
	var (
		zoo      = fs.Bool("zoo", false, "verify every cell of the short conformance matrix")
		selftest = fs.Bool("selftest", false, "run the seeded-corruption fixtures; each must be rejected with its rule")
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: cimmlc vet <model> <arch> | cimmlc vet -zoo | cimmlc vet -selftest")
		fs.PrintDefaults()
	}
	fs.Parse(args)

	ctx, stop := signalContext()
	defer stop()

	switch rest := fs.Args(); {
	case *selftest:
		os.Exit(vetSelftest())
	case *zoo:
		// The reports are analyze's business; vet wants the verdicts.
		_, bad := sweepShortZoo(ctx, os.Stdout, "cimmlc vet -zoo")
		os.Exit(min(bad, 1))
	case len(rest) == 2:
		cf.model, cf.arch = rest[0], rest[1]
	case len(rest) != 0 || (cf.modelFile == "" && cf.archFile == ""):
		fs.Usage()
		os.Exit(2)
	}
	g, a, level := cf.load()
	if _, err := analyzeCell(ctx, g, a, level, 0); err != nil {
		fatal(err)
	}
	fmt.Printf("ok   %s × %s: graph, schedule, mapping and flow verified\n", g.Name, a)
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
