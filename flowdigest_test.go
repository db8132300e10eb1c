package cimmlc

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// pinnedFlowDigests holds, for every CIM stage of the short-zoo cells that
// lower full flows (the executed models, pure and mixed, × three presets ×
// three levels), a SHA-256 of the printed flow and of every node's output
// region and scratch span. The conformance and analyze goldens pin counts
// and output hashes, not where a region lies; these pin the addresses, so a
// change to how layouts are stored must leave every one of them as it is.
var pinnedFlowDigests = map[string]string{
	"conv-relu.isaac-baseline.CM/0":  "4f1c1622c450655ceee3f3550eb597a425bf16be1649a90cc2fae16278a3a4ec",
	"conv-relu.isaac-baseline.XBM/0": "06655d67136440ea66f5245baf649af4f35e8c04a5d246cace83fc5c0d0ddce5",
	"conv-relu.isaac-baseline.WLM/0": "f7c6bd736c0f6111b7f7d97719bd33cc8fa3bee011fe92f2ffa60803c760ef94",
	"conv-relu.puma.CM/0":            "b2a1974002deb27fddeef57bb87fde40cf6865c88267778bbcf1c0688d250b46",
	"conv-relu.puma.XBM/0":           "04c8fc1429dcd805d366f919f30197c0229d3767ceb860ea2a72e5db90872139",
	"conv-relu.puma.WLM/0":           "04c8fc1429dcd805d366f919f30197c0229d3767ceb860ea2a72e5db90872139",
	"conv-relu.toy-table2.CM/0":      "536889fb3a2701ff64b1975a6e0d1f7f56a5316a8703c89cfc1affb204036b51",
	"conv-relu.toy-table2.XBM/0":     "9d9409dfdd40c0e1c6960cca218889c4dc07ad6517891a40a5339d04993762b4",
	"conv-relu.toy-table2.WLM/0":     "9d9409dfdd40c0e1c6960cca218889c4dc07ad6517891a40a5339d04993762b4",
	"mlp.isaac-baseline.CM/0":        "3aa17a8aa88696fd40e4d9a6b012e9a789c693b8f9489389f9153cd13daa0eff",
	"mlp.isaac-baseline.XBM/0":       "3aa17a8aa88696fd40e4d9a6b012e9a789c693b8f9489389f9153cd13daa0eff",
	"mlp.isaac-baseline.WLM/0":       "6db19e525ca3fed6e7ae55203c76fff8fc954cf181697b252a01f57ef5ac32dd",
	"mlp.puma.CM/0":                  "d130170eae910425104f26dd7ca5b88e00ac7473d87a3b2680264c7b4d82daa3",
	"mlp.puma.XBM/0":                 "d130170eae910425104f26dd7ca5b88e00ac7473d87a3b2680264c7b4d82daa3",
	"mlp.puma.WLM/0":                 "d130170eae910425104f26dd7ca5b88e00ac7473d87a3b2680264c7b4d82daa3",
	"mlp.toy-table2.CM/0":            "7a8d49a4fa60fda4d8d28a69c65c8a0cfaffc12d39dd81e58e8c9fa6f7e161d5",
	"mlp.toy-table2.XBM/0":           "7a8d49a4fa60fda4d8d28a69c65c8a0cfaffc12d39dd81e58e8c9fa6f7e161d5",
	"mlp.toy-table2.WLM/0":           "7a8d49a4fa60fda4d8d28a69c65c8a0cfaffc12d39dd81e58e8c9fa6f7e161d5",
	"lenet5.isaac-baseline.CM/0":     "4973c102ee77128add1a530a2ae66b3f60c5f0c4e868490d435110dca972c380",
	"lenet5.isaac-baseline.XBM/0":    "ccfdc68e4b2c16156e56009e1de9cfc587ae9f34ebb223b35621346e4d77ecba",
	"lenet5.isaac-baseline.WLM/0":    "d126fd98953454113b0fd08a090e3a9ca85ecf295ed895b60f37833f05493313",
	"lenet5.puma.CM/0":               "9911025e52dec531a9a0cf7574cb2e8afd460c93e1a824d9ef26207bb5dc5ff5",
	"lenet5.puma.XBM/0":              "8023f100b03a65c4111885be9044db88b41d1125842e2303d839232abdd50a21",
	"lenet5.puma.WLM/0":              "8023f100b03a65c4111885be9044db88b41d1125842e2303d839232abdd50a21",
	"lenet5.toy-table2.CM/0":         "a57c227866754086b7993a009572cae567ff73674dee0d06d9e83d2f6cdb96cb",
	"lenet5.toy-table2.XBM/0":        "a65acea0bbdfd23dd5728695c09cb644929091781f146e6e1b2034cc397260fc",
	"lenet5.toy-table2.WLM/0":        "a65acea0bbdfd23dd5728695c09cb644929091781f146e6e1b2034cc397260fc",
	"conv-gate.isaac-baseline.CM/0":  "609a6cc2e14206b2bfbbd27c1e02a89b820a588cff8c10ad0a6708699f1d4507",
	"conv-gate.isaac-baseline.CM/2":  "9f63b6da2ebd206d88689fbf6bf1531e8cb584d264c56ce5ba8ba69304e6b4cd",
	"conv-gate.isaac-baseline.XBM/0": "609a6cc2e14206b2bfbbd27c1e02a89b820a588cff8c10ad0a6708699f1d4507",
	"conv-gate.isaac-baseline.XBM/2": "9f63b6da2ebd206d88689fbf6bf1531e8cb584d264c56ce5ba8ba69304e6b4cd",
	"conv-gate.isaac-baseline.WLM/0": "d53236433f230d84c81597b472d97b564d50634a664d50088dcfcaaff3ec7c5b",
	"conv-gate.isaac-baseline.WLM/2": "9c76e47672430a9f146eb4b371a5c193cf1db12d7fa2e7ca50d558705908d456",
	"conv-gate.puma.CM/0":            "4a913bf26965206db23b0e4919bfe23cc6298d5b0b07dce71012a428372df87c",
	"conv-gate.puma.CM/2":            "4c27703f0bfd7b9140f49d2c31b173a4ebac85dabb3401b351402c6766fe20b8",
	"conv-gate.puma.XBM/0":           "a4a80a2c600ad4306d08954e283683621a6cbfbbdc289e7e742c4ca799c0eee1",
	"conv-gate.puma.XBM/2":           "4c27703f0bfd7b9140f49d2c31b173a4ebac85dabb3401b351402c6766fe20b8",
	"conv-gate.puma.WLM/0":           "a4a80a2c600ad4306d08954e283683621a6cbfbbdc289e7e742c4ca799c0eee1",
	"conv-gate.puma.WLM/2":           "4c27703f0bfd7b9140f49d2c31b173a4ebac85dabb3401b351402c6766fe20b8",
	"conv-gate.toy-table2.CM/0":      "647f5167fffd24cb1199dd2c3b55f0d43e90ad248bca973934668963c04d2ecb",
	"conv-gate.toy-table2.CM/2":      "b03c4b6d9b5d9df305c7d96d724c69285e7b81db723ffcc70482a766fd4e88e2",
	"conv-gate.toy-table2.XBM/0":     "9bbf1fec59d7acd644df85a2b085ba1ec09fe9ef64b2306586664d2cb3a06720",
	"conv-gate.toy-table2.XBM/2":     "b03c4b6d9b5d9df305c7d96d724c69285e7b81db723ffcc70482a766fd4e88e2",
	"conv-gate.toy-table2.WLM/0":     "9bbf1fec59d7acd644df85a2b085ba1ec09fe9ef64b2306586664d2cb3a06720",
	"conv-gate.toy-table2.WLM/2":     "b03c4b6d9b5d9df305c7d96d724c69285e7b81db723ffcc70482a766fd4e88e2",
	"mlp-sig.isaac-baseline.CM/0":    "a3cf46dae22875180c4e269156266ebe78464bca43a804d070953bfa003b1b82",
	"mlp-sig.isaac-baseline.CM/2":    "38d10b26707b04333e3ec3dc68794c23603e5f10ce44abc747c3f7e4e91fdf42",
	"mlp-sig.isaac-baseline.CM/4":    "938b9750e225bf2003e006a705d727b3564de90932bb1a9e5c43044ebf56a29a",
	"mlp-sig.isaac-baseline.XBM/0":   "a3cf46dae22875180c4e269156266ebe78464bca43a804d070953bfa003b1b82",
	"mlp-sig.isaac-baseline.XBM/2":   "38d10b26707b04333e3ec3dc68794c23603e5f10ce44abc747c3f7e4e91fdf42",
	"mlp-sig.isaac-baseline.XBM/4":   "938b9750e225bf2003e006a705d727b3564de90932bb1a9e5c43044ebf56a29a",
	"mlp-sig.isaac-baseline.WLM/0":   "172a6b413e2f204f16de5c095ab7258acd566f9e80b0b12e242129a2ba3eafd8",
	"mlp-sig.isaac-baseline.WLM/2":   "fab52b7ef7a250afc5d1738dc96140c64851c689cad6888d1e6dda6cc2d87086",
	"mlp-sig.isaac-baseline.WLM/4":   "adc5dcfba7c518927e6fba161b013689e45251a4cd12dd3916514ce61f774da5",
	"mlp-sig.puma.CM/0":              "b9acb9ed0dadc9ccd2e3ec22dbf9f1ee390c593d534835d71e8fbb53d89c801b",
	"mlp-sig.puma.CM/2":              "8d445cc661fcaf220933abc7dca0cbb287da0f973af4a44eb7749d17d1204861",
	"mlp-sig.puma.CM/4":              "7333bd68b7c1176eb6176b47b30eb9cc04e50ef44aa7f02ab815028144db21b6",
	"mlp-sig.puma.XBM/0":             "b9acb9ed0dadc9ccd2e3ec22dbf9f1ee390c593d534835d71e8fbb53d89c801b",
	"mlp-sig.puma.XBM/2":             "8d445cc661fcaf220933abc7dca0cbb287da0f973af4a44eb7749d17d1204861",
	"mlp-sig.puma.XBM/4":             "7333bd68b7c1176eb6176b47b30eb9cc04e50ef44aa7f02ab815028144db21b6",
	"mlp-sig.puma.WLM/0":             "b9acb9ed0dadc9ccd2e3ec22dbf9f1ee390c593d534835d71e8fbb53d89c801b",
	"mlp-sig.puma.WLM/2":             "8d445cc661fcaf220933abc7dca0cbb287da0f973af4a44eb7749d17d1204861",
	"mlp-sig.puma.WLM/4":             "7333bd68b7c1176eb6176b47b30eb9cc04e50ef44aa7f02ab815028144db21b6",
	"mlp-sig.toy-table2.CM/0":        "61159f45152be606ce50116e20317631118523e675dddb3c12330434ebb57a4d",
	"mlp-sig.toy-table2.CM/2":        "b4230c06d0ccb405ffbfa3a7b33797abc72972de1be5b1556bd6329075c02be9",
	"mlp-sig.toy-table2.CM/4":        "02cfe679a85756b680935d66629956f98dd12922d2f662a4e83c4e20f073d574",
	"mlp-sig.toy-table2.XBM/0":       "61159f45152be606ce50116e20317631118523e675dddb3c12330434ebb57a4d",
	"mlp-sig.toy-table2.XBM/2":       "b4230c06d0ccb405ffbfa3a7b33797abc72972de1be5b1556bd6329075c02be9",
	"mlp-sig.toy-table2.XBM/4":       "02cfe679a85756b680935d66629956f98dd12922d2f662a4e83c4e20f073d574",
	"mlp-sig.toy-table2.WLM/0":       "61159f45152be606ce50116e20317631118523e675dddb3c12330434ebb57a4d",
	"mlp-sig.toy-table2.WLM/2":       "b4230c06d0ccb405ffbfa3a7b33797abc72972de1be5b1556bd6329075c02be9",
	"mlp-sig.toy-table2.WLM/4":       "02cfe679a85756b680935d66629956f98dd12922d2f662a4e83c4e20f073d574",
}

// flowDigest hashes a stage's printed flow and its layout, node by node.
func flowDigest(st *stage) string {
	h := sha256.New()
	h.Write([]byte(st.fr.Flow.Print()))
	lay := st.fr.Layout
	for id := range st.sub.G.Nodes {
		fmt.Fprintf(h, "%d %d %d %d %d\n", id, lay.Region[id].Base, lay.Region[id].Size, lay.Scratch[id].Base, lay.Scratch[id].Size)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestFlowDigestsPinned(t *testing.T) {
	ctx := context.Background()
	for _, model := range append([]string{"conv-relu", "mlp", "lenet5"}, MixedModelNames()...) {
		for _, archName := range []string{"isaac-baseline", "puma", "toy-table2"} {
			for _, level := range []Mode{CM, XBM, WLM} {
				g, err := Model(model)
				if err != nil {
					t.Fatal(err)
				}
				a, err := Preset(archName)
				if err != nil {
					t.Fatal(err)
				}
				c, err := New(a, WithCache(0), WithHostFallback(), WithMaxLevel(level))
				if err != nil {
					t.Fatal(err)
				}
				p, err := c.Build(ctx, g, RandomWeights(g, 1), CodegenOptions{})
				if err != nil {
					t.Fatalf("%s.%s.%s: %v", model, archName, level, err)
				}
				for i, st := range p.stages {
					if st.fr == nil {
						continue
					}
					key := fmt.Sprintf("%s.%s.%s/%d", model, archName, level, i)
					if got := flowDigest(st); got != pinnedFlowDigests[key] {
						t.Errorf("%s: flow digest %s, want %s", key, got, pinnedFlowDigests[key])
					}
				}
			}
		}
	}
}
