package flowdata

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// ReportKey is the canonical golden-map key for one analyzed cell, matching
// the conformance harness's "model|arch|level" convention.
func ReportKey(model, arch, level string) string {
	return model + "|" + arch + "|" + level
}

// LoadReportGolden reads a committed analyze-golden file.
func LoadReportGolden(path string) (map[string]Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := map[string]Report{}
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("flowdata: golden %s: %w", path, err)
	}
	return out, nil
}

// SaveReportGolden writes the golden map as stable JSON: keys sorted (the
// encoder's map-key ordering), fixed indentation, trailing newline — so
// -update runs produce minimal diffs.
func SaveReportGolden(path string, m map[string]Report) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// DiffReports compares two reports field by field through their stable JSON
// encoding and describes every differing field ("" values are raw JSON). An
// empty result means the reports are identical.
func DiffReports(got, want Report) []string {
	gb, err := json.Marshal(got)
	if err != nil {
		return []string{fmt.Sprintf("marshal got: %v", err)}
	}
	wb, err := json.Marshal(want)
	if err != nil {
		return []string{fmt.Sprintf("marshal golden: %v", err)}
	}
	if bytes.Equal(gb, wb) {
		return nil
	}
	var gm, wm map[string]json.RawMessage
	if json.Unmarshal(gb, &gm) != nil || json.Unmarshal(wb, &wm) != nil {
		return []string{"reports differ (field decode failed)"}
	}
	var keys []string
	for k := range gm {
		keys = append(keys, k)
	}
	for k := range wm {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []string
	for i, k := range keys {
		if i > 0 && keys[i-1] == k {
			continue
		}
		g, w := string(gm[k]), string(wm[k])
		if g != w {
			if g == "" {
				g = "(absent)"
			}
			if w == "" {
				w = "(absent)"
			}
			out = append(out, fmt.Sprintf("%s: golden %s, got %s", k, w, g))
		}
	}
	if len(out) == 0 {
		out = append(out, "reports differ only in field order (unexpected)")
	}
	return out
}
