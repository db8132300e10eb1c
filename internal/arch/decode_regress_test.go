package arch

import (
	"strings"
	"testing"
)

// badNoCJSON returns a structurally complete arch description whose core
// NoC names a topology the stack does not know. Before validation covered
// NoC and device names, such a file decoded cleanly and later crashed the
// process inside HopDistance.
func badArchJSON(mutate func(s string) string) []byte {
	base := `{
  "name": "user-arch",
  "mode": "WLM",
  "chip": {"core_rows": 2, "core_cols": 2, "core_noc": "Mesh", "core_noc_cost": 1},
  "core": {"xb_rows": 2, "xb_cols": 2, "xb_noc": "Ideal"},
  "xb": {"rows": 64, "cols": 64, "parallel_row": 8, "dac_bits": 1, "adc_bits": 8, "device": "ReRAM", "cell_bits": 2},
  "weight_bits": 8,
  "act_bits": 8
}`
	return []byte(mutate(base))
}

func TestDecodeRejectsUnknownNoC(t *testing.T) {
	data := badArchJSON(func(s string) string { return strings.Replace(s, `"Mesh"`, `"Torus"`, 1) })
	_, err := Decode(data)
	if err == nil {
		t.Fatal("decoded arch with unknown core NoC")
	}
	if !strings.Contains(err.Error(), `"Torus"`) || !strings.Contains(err.Error(), "available:") {
		t.Fatalf("error %q should name the bad NoC and list the available ones", err)
	}

	data = badArchJSON(func(s string) string { return strings.Replace(s, `"Ideal"`, `"Ring"`, 1) })
	if _, err := Decode(data); err == nil || !strings.Contains(err.Error(), "available:") {
		t.Fatalf("unknown crossbar NoC: got %v, want available-listing error", err)
	}
}

func TestDecodeRejectsUnknownDevice(t *testing.T) {
	data := badArchJSON(func(s string) string { return strings.Replace(s, `"ReRAM"`, `"FeFET"`, 1) })
	_, err := Decode(data)
	if err == nil {
		t.Fatal("decoded arch with unknown device")
	}
	if !strings.Contains(err.Error(), `"FeFET"`) || !strings.Contains(err.Error(), "available:") {
		t.Fatalf("error %q should name the bad device and list the available ones", err)
	}
}

// FuzzDecodeArch demonstrates the acceptance criterion that no panic is
// reachable from user-supplied arch JSON: whatever bytes arrive, Decode
// either errors or yields an Arch whose NoC and device code paths are safe
// to exercise.
func FuzzDecodeArch(f *testing.F) {
	f.Add([]byte(`{`))
	f.Add([]byte(`{"name":"x"}`))
	f.Add(badArchJSON(func(s string) string { return s }))
	f.Add(badArchJSON(func(s string) string { return strings.Replace(s, `"Mesh"`, `"Torus"`, 1) }))
	f.Add(badArchJSON(func(s string) string { return strings.Replace(s, `"ReRAM"`, `"FeFET"`, 1) }))
	f.Add(badArchJSON(func(s string) string {
		return strings.Replace(s, `"core_rows": 2, "core_cols": 2`, `"core_rows": 4294967296, "core_cols": 4294967296`, 1)
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := Decode(data)
		if err != nil {
			return
		}
		// A decoded arch must be fully usable without panics.
		_ = a.XB.Device.Profile()
		_ = a.CoreTransferCycles(0, a.Chip.CoreCount()-1, 1024)
		_ = a.XBTransferCycles(0, a.Core.XBCount()-1, 1024)
		// Every derived size is positive: none overflowed past Validate.
		if a.Chip.CoreCount() < 1 || a.Core.XBCount() < 1 || a.TotalCrossbars() < 1 || a.WeightCapacity() < 1 {
			t.Fatalf("accepted %s: %d cores, %d crossbars per core, %d crossbars, weight capacity %d",
				a, a.Chip.CoreCount(), a.Core.XBCount(), a.TotalCrossbars(), a.WeightCapacity())
		}
	})
}
