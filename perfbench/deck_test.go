package main

import (
	"reflect"
	"testing"

	"clustersoc/internal/simd"
)

func fingerprints(t *testing.T, reqs []simd.Request) map[string]bool {
	t.Helper()
	fps := map[string]bool{}
	for _, q := range reqs {
		sc, err := q.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		fps[sc.Fingerprint()] = true
	}
	return fps
}

// One seed always yields the same deck; another seed reorders it but
// stores the same set of distinct fingerprints.
func TestDeckDeterministic(t *testing.T) {
	a, b := newDeck(7), newDeck(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("newDeck(7) differs between calls")
	}
	c := newDeck(8)
	if reflect.DeepEqual(a, c) {
		t.Error("seeds 7 and 8 give the same deck order")
	}
	fa, fc := fingerprints(t, a), fingerprints(t, c)
	if len(fa) != len(a) {
		t.Errorf("%d requests resolve to only %d fingerprints", len(a), len(fa))
	}
	if !reflect.DeepEqual(fa, fc) {
		t.Error("the stored fingerprint set depends on the seed")
	}
}
