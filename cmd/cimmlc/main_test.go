package main

import (
	"context"
	"testing"

	"cimmlc"
)

// TestParseMaxLevel pins the one -max-level parser the compiler, tune, vet
// and analyze share: any case of a mode name, empty for none, and anything
// else refused — then drives `cimmlc vet -max-level wlm lenet5 puma` as vet
// runs it.
func TestParseMaxLevel(t *testing.T) {
	for in, want := range map[string]cimmlc.Mode{"": "", "cm": cimmlc.CM, "Xbm": cimmlc.XBM, "wlm": cimmlc.WLM, "WLM": cimmlc.WLM} {
		if got, err := parseMaxLevel(in); err != nil || got != want {
			t.Errorf("parseMaxLevel(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	for _, in := range []string{"wl", "vvm", " cm"} {
		if got, err := parseMaxLevel(in); err == nil {
			t.Errorf("parseMaxLevel(%q) = %q, want an error", in, got)
		}
	}

	cf := &cellFlags{model: "lenet5", arch: "puma", maxLevel: "wlm"}
	g, a, level := cf.load()
	if _, err := analyzeCell(context.Background(), g, a, level, 0); err != nil {
		t.Fatalf("vet -max-level wlm lenet5 puma: %v", err)
	}
}
