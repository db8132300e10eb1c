package cimmlc

import (
	"context"
	"testing"
)

// compileGridModels are the rows of the committed benchmark's compile-zoo
// grid; its columns are every preset.
var compileGridModels = []string{"lenet5", "vgg7", "vgg16", "resnet18", "resnet50", "vit-tiny", "vit-base"}

// pinnedFingerprints holds Schedule.Fingerprint of every compile-zoo cell and
// of one autotuned schedule. The autotuner deduplicates search states by
// these digests, the conformance tune family compares them across runs and
// `cimmlc tune` prints them, so a change to how schedules are stored must
// leave every one of them as it is.
var pinnedFingerprints = map[string]string{
	"lenet5.isaac-baseline":   "321d95a086db32bdc7d75fded03e82d5",
	"vgg7.isaac-baseline":     "59c2e52217224bd1a1a88c412381bf4c",
	"vgg16.isaac-baseline":    "b2d94474b89addbef54f22ec0f15dcc9",
	"resnet18.isaac-baseline": "085edd65565a0c3e7cb1e322ce5aa687",
	"resnet50.isaac-baseline": "7f5bd19306c065a9bfd6daffb14bfb39",
	"vit-tiny.isaac-baseline": "acf80fd5e360023e875c26f58cae6586",
	"vit-base.isaac-baseline": "1170a4155641df1e61e304203373cfe8",
	"lenet5.jain-jssc21":      "f76961f11c8764e901be359c3584452c",
	"vgg7.jain-jssc21":        "4ee1d3c4d30f861cae3896edc5242c02",
	"vgg16.jain-jssc21":       "5c97407b331f58e7cecc00f2c2432916",
	"resnet18.jain-jssc21":    "9bba76f05d4fea30fc172a3f850b093e",
	"resnet50.jain-jssc21":    "dee8d6fe4a84939b41de428935db7f16",
	"vit-tiny.jain-jssc21":    "3baafb6978b2ca5967171c08a992a65f",
	"vit-base.jain-jssc21":    "3baafb6978b2ca5967171c08a992a65f",
	"lenet5.jia-isscc21":      "b53549faf501eff76544df9bbd678fd1",
	"vgg7.jia-isscc21":        "5829eddc6ad41bef738e3eee5a3b5634",
	"vgg16.jia-isscc21":       "b9de911797bcd6775e3133546c5f5e79",
	"resnet18.jia-isscc21":    "2fc748ccdaa97ca94c4e404c90b3fd15",
	"resnet50.jia-isscc21":    "dddc40cc8b4b39a216adead4ab0337b0",
	"vit-tiny.jia-isscc21":    "8ba6c093d0501654cc909d04e90fb678",
	"vit-base.jia-isscc21":    "213de50b266e5188d0beffb44a66185f",
	"lenet5.puma":             "39fae437d183466d122f37a3565e95b6",
	"vgg7.puma":               "2313fbf43920233d0caddf10bf59917d",
	"vgg16.puma":              "95c03cd002758f25c6ba734786bf8c1f",
	"resnet18.puma":           "74690124308646642a79a00454373400",
	"resnet50.puma":           "f88bdc32c97d0150f5b16826def539cb",
	"vit-tiny.puma":           "12fc029bb05c7c729eef11246cf5bc29",
	"vit-base.puma":           "8c1a9f2b6d97f32021be1e37c07ca43e",
	"lenet5.toy-table2":       "f4624f73c9d3a8595f596e7a47977ea0",
	"vgg7.toy-table2":         "4ee1d3c4d30f861cae3896edc5242c02",
	"vgg16.toy-table2":        "725cdf6db5ffac9097a29e404e437c39",
	"resnet18.toy-table2":     "9bba76f05d4fea30fc172a3f850b093e",
	"resnet50.toy-table2":     "dee8d6fe4a84939b41de428935db7f16",
	"vit-tiny.toy-table2":     "3baafb6978b2ca5967171c08a992a65f",
	"vit-base.toy-table2":     "3baafb6978b2ca5967171c08a992a65f",
	"lenet5.puma/autotune":    "f485fcb6ab75155cab7296aad7de4823",
}

func TestScheduleFingerprintsPinned(t *testing.T) {
	ctx := context.Background()
	check := func(cell string, c *Compiler, model string) {
		t.Helper()
		g, err := Model(model)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Compile(ctx, g)
		if err != nil {
			t.Fatalf("%s: %v", cell, err)
		}
		got := res.Schedule.Fingerprint()
		if want := pinnedFingerprints[cell]; got != want {
			t.Errorf("%s: fingerprint %s, want %s", cell, got, want)
		}
	}
	for _, preset := range Presets() {
		a, err := Preset(preset)
		if err != nil {
			t.Fatal(err)
		}
		c, err := New(a, WithCache(0))
		if err != nil {
			t.Fatal(err)
		}
		for _, model := range compileGridModels {
			check(model+"."+preset, c, model)
		}
	}
	a, err := Preset("puma")
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := New(a, WithCache(0), WithAutoTune(Budget{}))
	if err != nil {
		t.Fatal(err)
	}
	check("lenet5.puma/autotune", tuned, "lenet5")
}
