package runner

import (
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"clustersoc/internal/network"
	"clustersoc/internal/store"
)

// TestTieredRunFallsThroughOnUnwritableStore: a store whose directory
// can no longer hold entries (a regular file stands where it was) still
// answers with the simulated result and counts no write.
func TestTieredRunFallsThroughOnUnwritableStore(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	st := openStore(t, dir)
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	r := New(1)
	r.SetStore(st)
	sc := tinyScenario("cg", 2, network.TenGigE)
	res, out, err := r.RunTracked(sc)
	if err != nil {
		t.Fatal(err)
	}
	if out.Source != SourceSimulated {
		t.Fatalf("source = %q, want %q", out.Source, SourceSimulated)
	}
	if want, _ := Execute(sc); !reflect.DeepEqual(res, want) {
		t.Fatal("unwritable store changed the simulated result")
	}
	if stats := r.Stats(); stats.Simulated != 1 || stats.StoreWrites != 0 {
		t.Fatalf("want 1 simulation and no write on an unwritable store: %+v", stats)
	}
	if got := st.Counters().Writes; got != 0 {
		t.Fatalf("store recorded %d writes on an unwritable directory", got)
	}
}

// TestPersistTwoWriterInterleavingKeepsBothRecords: two executions of
// one scenario persist at the same time through two stores on one
// directory, one carrying a Profile and one a CritPath. Each record has
// its own key and no key is read, modified and rewritten, so neither
// persist can drop the other's record: a fresh Mode{Profile, CritPath}
// run is served from the store with both.
func TestPersistTwoWriterInterleavingKeepsBothRecords(t *testing.T) {
	dir := t.TempDir()
	sc := tinyScenario("cg", 2, network.TenGigE)
	fp := sc.Fingerprint()

	withProfile, err := Mode{Profile: true}.Execute(sc)
	if err != nil {
		t.Fatal(err)
	}
	withCrit, err := Mode{CritPath: true}.Execute(sc)
	if err != nil {
		t.Fatal(err)
	}
	stores := []*store.Store{openStore(t, dir), openStore(t, dir)}
	var wg sync.WaitGroup
	for i, res := range []Result{withProfile, withCrit} {
		wg.Add(1)
		go func(st *store.Store, res Result) {
			defer wg.Done()
			New(1).persist(st, fp, res)
		}(stores[i], res)
	}
	wg.Wait()

	r := New(1)
	r.SetStore(openStore(t, dir))
	r.SetMode(Mode{Profile: true, CritPath: true})
	got, err := r.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.StoreHits != 1 || st.Simulated != 0 {
		t.Fatalf("both records must be stored and served: %+v", st)
	}
	if got.Profile == nil || got.CritPath == nil {
		t.Fatalf("a record was lost: profile=%v critpath=%v", got.Profile != nil, got.CritPath != nil)
	}
}

// TestPersistUnderKeyLockMergesPrior pins the sequential path: a
// persist carrying only a CritPath keeps the Profile an earlier persist
// of the same key stored, and rewrites the result entry to equal bytes.
func TestPersistUnderKeyLockMergesPrior(t *testing.T) {
	st := openStore(t, t.TempDir())
	sc := tinyScenario("cg", 2, network.TenGigE)
	fp := sc.Fingerprint()

	withProfile, err := Mode{Profile: true}.Execute(sc)
	if err != nil {
		t.Fatal(err)
	}
	withCrit, err := Mode{CritPath: true}.Execute(sc)
	if err != nil {
		t.Fatal(err)
	}
	r := New(1)
	r.persist(st, fp, withProfile)
	first, err := st.Peek(fp)
	if err != nil {
		t.Fatal(err)
	}
	r.persist(st, fp, withCrit)
	second, err := st.Peek(fp)
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != string(second) {
		t.Fatal("persisting a second record changed the stored result entry")
	}
	if got := r.Stats().StoreWrites; got != 2 {
		t.Fatalf("StoreWrites = %d after two persists, want 2", got)
	}
	got, err := loadStored(st, fp, Mode{Profile: true, CritPath: true})
	if err != nil {
		t.Fatalf("sequential persists must accumulate records: %v", err)
	}
	if got.Profile == nil || got.CritPath == nil {
		t.Fatalf("sequential persists must accumulate records (profile %v, critpath %v)",
			got.Profile != nil, got.CritPath != nil)
	}
}

// TestRunTrackedOutcomes pins the per-submission accounting the service
// front end reports: the first submission simulates, a duplicate on the
// same Runner is a coalesced memory hit, and a fresh Runner sharing the
// store decodes the persistent entry.
func TestRunTrackedOutcomes(t *testing.T) {
	dir := t.TempDir()
	sc := tinyScenario("cg", 2, network.TenGigE)

	r1 := New(1)
	r1.SetStore(openStore(t, dir))
	_, out, err := r1.RunTracked(sc)
	if err != nil {
		t.Fatal(err)
	}
	if out.Source != SourceSimulated || out.Coalesced {
		t.Fatalf("cold submission outcome = %+v, want simulated/uncoalesced", out)
	}
	_, out, err = r1.RunTracked(sc)
	if err != nil {
		t.Fatal(err)
	}
	if out.Source != SourceMemory || !out.Coalesced {
		t.Fatalf("duplicate submission outcome = %+v, want memory/coalesced", out)
	}

	r2 := New(1)
	r2.SetStore(openStore(t, dir))
	_, out, err = r2.RunTracked(sc)
	if err != nil {
		t.Fatal(err)
	}
	if out.Source != SourceStore || out.Coalesced {
		t.Fatalf("warm-store submission outcome = %+v, want store/uncoalesced", out)
	}
	if st := r2.Stats(); st.Simulated != 0 || st.StoreHits != 1 {
		t.Fatalf("warm-store stats = %+v, want 0 simulated / 1 store hit", st)
	}
}

// TestStatsSnapshotRendersRunnerScope pins the obs rendering /statusz
// merges with the store's snapshot.
func TestStatsSnapshotRendersRunnerScope(t *testing.T) {
	s := Stats{Submitted: 5, Hits: 2, Simulated: 3, StoreHits: 1, MaxInFlight: 2}
	snap := s.Snapshot()
	want := map[string]float64{
		"runner.submitted":     5,
		"runner.hit":           2,
		"runner.simulated":     3,
		"runner.store_hit":     1,
		"runner.max_in_flight": 2,
	}
	for name, v := range want {
		m, ok := snap.Get(name)
		if !ok {
			t.Fatalf("snapshot missing %s", name)
		}
		if m.Value != v {
			t.Fatalf("%s = %v, want %v", name, m.Value, v)
		}
		if !m.NonDeterministic {
			t.Fatalf("%s must be non-deterministic: cache state varies run to run", name)
		}
	}
	if len(snap.Deterministic().Metrics) != 0 {
		t.Fatal("runner stats must never enter deterministic snapshots")
	}
}
