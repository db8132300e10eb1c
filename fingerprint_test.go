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
	"vgg7.isaac-baseline":     "d9c963048cc696ac2f4f707941cd0a89",
	"vgg16.isaac-baseline":    "55966c7ea76f759d82a9444c2ec0234d",
	"resnet18.isaac-baseline": "085edd65565a0c3e7cb1e322ce5aa687",
	"resnet50.isaac-baseline": "7f5bd19306c065a9bfd6daffb14bfb39",
	"vit-tiny.isaac-baseline": "487bc08497da6faec108d685d32a70b2",
	"vit-base.isaac-baseline": "1170a4155641df1e61e304203373cfe8",
	"lenet5.jain-jssc21":      "e946d980ce7e6f05717cad4f537c6122",
	"vgg7.jain-jssc21":        "c8d30494fbfb8631ce25271341f0fef4",
	"vgg16.jain-jssc21":       "5d9330f192e4724f5583263de38a7af5",
	"resnet18.jain-jssc21":    "7e7abaddff0d56b9aa64869e34410c0d",
	"resnet50.jain-jssc21":    "c8a299821ec066d9358c3cccf03ff0e3",
	"vit-tiny.jain-jssc21":    "f5bdc6056ad692a437780d410538707a",
	"vit-base.jain-jssc21":    "f5bdc6056ad692a437780d410538707a",
	"lenet5.jia-isscc21":      "b53549faf501eff76544df9bbd678fd1",
	"vgg7.jia-isscc21":        "3abc163789e76a62f0e7e444e9dea613",
	"vgg16.jia-isscc21":       "1d5e18f343dc680e9c75434159d8fb3e",
	"resnet18.jia-isscc21":    "55eb0dfe50358b99703f84ff1c546071",
	"resnet50.jia-isscc21":    "f967756b85584f128454bf8c863990ce",
	"vit-tiny.jia-isscc21":    "ced57ab92ee66b394d6e296983c452d2",
	"vit-base.jia-isscc21":    "5d6d2598fdb53a789bd2afe82cccce1c",
	"lenet5.puma":             "39fae437d183466d122f37a3565e95b6",
	"vgg7.puma":               "28448b71e4846f2c681f13315c34129d",
	"vgg16.puma":              "b85316463ee9247c363f454dbad7dd7e",
	"resnet18.puma":           "6b38d33c2da0058c92e086c23553c799",
	"resnet50.puma":           "33bac07f82409e6cd8fb2321b7d57184",
	"vit-tiny.puma":           "12fc029bb05c7c729eef11246cf5bc29",
	"vit-base.puma":           "4b5236e27c00f10563ee1df04e9d5683",
	"lenet5.toy-table2":       "c211e0d6824d138c023998e9cfaf0168",
	"vgg7.toy-table2":         "fab844c36e59138ce24f1658bbeccc53",
	"vgg16.toy-table2":        "cf05fa7f36d4e053d626d4499a98beaa",
	"resnet18.toy-table2":     "05963eecaa4291945b675c2da1ba8759",
	"resnet50.toy-table2":     "38200ad4bdccc207a9f8967f69ba52b0",
	"vit-tiny.toy-table2":     "f5bdc6056ad692a437780d410538707a",
	"vit-base.toy-table2":     "f5bdc6056ad692a437780d410538707a",
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
