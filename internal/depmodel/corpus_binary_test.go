package depmodel_test

import (
	"reflect"
	"testing"

	"fsdep/internal/core"
	"fsdep/internal/corpus"
	"fsdep/internal/depmodel"
	"fsdep/internal/sched"
	"fsdep/internal/taint"
)

// TestCorpusSetsBinaryRoundTrip encodes and decodes every corpus
// scenario's real extraction, in both taint modes: the sets a warm
// start serves must come back exactly as the cold run built them.
func TestCorpusSetsBinaryRoundTrip(t *testing.T) {
	for _, mode := range []taint.Mode{taint.Intra, taint.Inter} {
		outs, err := core.AnalyzeAll(corpus.Components(), corpus.Scenarios(),
			core.Options{Mode: mode}, sched.Sequential())
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range outs {
			blob, err := res.Deps.MarshalBinary()
			if err != nil {
				t.Fatalf("%s/%s: encode: %v", mode, res.Scenario.Name, err)
			}
			var back depmodel.Set
			if err := back.UnmarshalBinary(blob); err != nil {
				t.Fatalf("%s/%s: decode: %v", mode, res.Scenario.Name, err)
			}
			if !reflect.DeepEqual(res.Deps.Deps(), back.Deps()) {
				t.Errorf("%s/%s: deps differ after round trip", mode, res.Scenario.Name)
			}
		}
	}
}
