package codegen_test

import (
	"reflect"
	"testing"

	"cimmlc/internal/arch"
	"cimmlc/internal/codegen"
	"cimmlc/internal/models"
)

// TestGenerateDeterministic lowers the same model twice from scratch and
// requires byte-identical printed flows and identical buffer layouts: the
// scratch allocator walks the schedule's segments over the footprint table,
// so nothing in a lowering may depend on an iteration order that varies run
// to run, which would break golden-snapshot testing and flow-text diffing.
func TestGenerateDeterministic(t *testing.T) {
	for _, mode := range []arch.Mode{arch.CM, arch.XBM, arch.WLM} {
		first := compileAndGenerate(t, models.LeNet5(), toyInMode(mode), codegen.Options{})
		second := compileAndGenerate(t, models.LeNet5(), toyInMode(mode), codegen.Options{})
		if first.Flow.Print() != second.Flow.Print() {
			t.Errorf("mode %s: two identical lowerings printed different flows", mode)
		}
		if !reflect.DeepEqual(first.Layout, second.Layout) {
			t.Errorf("mode %s: two identical lowerings laid out different buffers", mode)
		}
	}
}
