// The persistent second cache tier: under the in-memory fingerprint map
// sits an optional content-addressed on-disk store (internal/store).
// Results are bit-deterministic, so a stored entry is valid forever and a
// warm store turns full artifact regeneration into pure decode. Keys are
// only ever put whole, so processes sharing a store need no coordination:
// two that miss one key at once both simulate it and install equal bytes.
package runner

import (
	"encoding/json"
	"errors"
	"fmt"

	"clustersoc/internal/critpath"
	"clustersoc/internal/obs"
	"clustersoc/internal/store"
)

// StoreSchemaVersion is the persisted-result schema. Bump it whenever
// the JSON encoding of a stored entry changes meaning — Result gaining,
// losing, or reinterpreting a field; obs.Profile or critpath.Report
// schema changes; anything that would make an old entry decode into a
// different value than a fresh simulation produces. Bumping re-addresses
// every key, so old entries become unreachable instead of wrong.
const StoreSchemaVersion = 2

// OpenStore opens (creating if needed) a persistent result store rooted
// at dir, addressed with the run-plane's current result schema.
func OpenStore(dir string) (*store.Store, error) {
	return store.Open(dir, StoreSchemaVersion)
}

// SetStore attaches a persistent store as the Runner's second cache
// tier: lookups fall through the in-memory map to the store, and every
// executed scenario is persisted. Attach it before submitting work.
// Entries are shared across processes and runs — the store never
// invalidates, because identical fingerprints produce identical results.
func (r *Runner) SetStore(st *store.Store) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.store = st
}

// Store returns the attached persistent store (nil when none).
func (r *Runner) Store() *store.Store {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.store
}

// storedEntry is the persisted form of one scenario's Result. Events,
// which Result excludes from JSON (it is a property of the simulator),
// is first-class here, so a store hit reconstructs the full Result; the
// observer records live under their own keys as storedRecords.
type storedEntry struct {
	Fingerprint string `json:"fingerprint"`
	Events      uint64 `json:"events"`
	Result      Result `json:"result"`
}

// storedRecord is the persisted form of one observer record (a Profile
// or a CritPath report). Like storedEntry it echoes the fingerprint.
type storedRecord[T any] struct {
	Fingerprint string `json:"fingerprint"`
	Record      *T     `json:"record"`
}

// Observer record kinds.
const (
	profileRecord  = "profile"
	critPathRecord = "critpath"
)

// recordKey addresses fp's record of the given kind. The NUL prefix
// keeps record keys disjoint from fingerprints, which begin with the
// cluster's JSON encoding.
func recordKey(kind, fp string) string { return "\x00" + kind + "\x00" + fp }

// encodeStored serializes a Result for the store.
func encodeStored(fp string, res Result) ([]byte, error) {
	return json.Marshal(storedEntry{Fingerprint: fp, Events: res.Events, Result: res})
}

// decodeStored parses a stored payload and verifies it echoes the
// requested fingerprint — the guard against an (astronomically
// unlikely) content-address collision or a misfiled entry.
func decodeStored(data []byte, fp string) (*storedEntry, error) {
	var e storedEntry
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("runner: stored entry undecodable: %w", err)
	}
	if e.Fingerprint != fp {
		return nil, fmt.Errorf("runner: stored entry fingerprint mismatch (got %q)", e.Fingerprint)
	}
	return &e, nil
}

// loadRecord reads fp's record of the given kind through Peek, so the
// store counts one Get per submission. A record that is present but
// unusable is invalidated (counting it corrupt) and reported as
// store.ErrCorrupt.
func loadRecord[T any](st *store.Store, kind, fp string) (*T, error) {
	key := recordKey(kind, fp)
	data, err := st.Peek(key)
	if errors.Is(err, store.ErrMiss) {
		return nil, err
	}
	var rec storedRecord[T]
	if err == nil {
		err = json.Unmarshal(data, &rec)
	}
	if err == nil && (rec.Fingerprint != fp || rec.Record == nil) {
		err = fmt.Errorf("misfiled or empty (fingerprint %q)", rec.Fingerprint)
	}
	if err != nil {
		st.Invalidate(key)
		return nil, fmt.Errorf("%w: %s record: %v", store.ErrCorrupt, kind, err)
	}
	return rec.Record, nil
}

// runTiered resolves one claimed fingerprint through the store tier:
// decode a servable entry, or simulate and persist. Checking bypasses
// reads (the simcheck audit needs a live simulation, not a decoded
// result) but still persists.
func (r *Runner) runTiered(s Scenario, fp string, st *store.Store, m Mode) (Result, string, error) {
	if st != nil && !m.Check {
		if res, ok := r.tryLoad(st, fp, m); ok {
			return res, SourceStore, nil
		}
	}
	res, err := r.executeCounted(s, m)
	if err == nil && st != nil {
		r.persist(st, fp, res)
	}
	return res, SourceSimulated, err
}

// tryLoad attempts to serve fp from the store, counting one store hit or
// miss for the submission. A corrupt entry or record counts corrupt and
// falls back to simulation, whose persist repairs it.
func (r *Runner) tryLoad(st *store.Store, fp string, m Mode) (Result, bool) {
	res, err := loadStored(st, fp, m)
	r.mu.Lock()
	defer r.mu.Unlock()
	if err == nil {
		r.stats.StoreHits++
		return res, true
	}
	if errors.Is(err, store.ErrCorrupt) {
		r.stats.StoreCorrupt++
	}
	r.stats.StoreMisses++
	return Result{}, false
}

// loadStored reads fp's entry and the observer records m asks for; the
// execution a missing record forces persists it. An entry that verifies
// but does not decode is invalidated.
func loadStored(st *store.Store, fp string, m Mode) (Result, error) {
	data, err := st.Get(fp)
	if err != nil {
		return Result{}, err
	}
	e, err := decodeStored(data, fp)
	if err != nil {
		st.Invalidate(fp)
		return Result{}, fmt.Errorf("%w: %v", store.ErrCorrupt, err)
	}
	res := e.Result
	res.Events = e.Events
	if m.Profile {
		if res.Profile, err = loadRecord[obs.Profile](st, profileRecord, fp); err != nil {
			return Result{}, err
		}
	}
	if m.CritPath {
		if res.CritPath, err = loadRecord[critpath.Report](st, critPathRecord, fp); err != nil {
			return Result{}, err
		}
	}
	return res, nil
}

// persist writes res under fp, then each observer record it carries
// under the record's own key. No key is read, modified and rewritten, so
// concurrent persists cannot lose one another's records. Persistence is
// best-effort: a failure leaves the store cold for that key, never
// wrong. An execution counts one store write once its result is in.
func (r *Runner) persist(st *store.Store, fp string, res Result) {
	data, err := encodeStored(fp, res)
	if err != nil || st.Put(fp, data) != nil {
		return
	}
	r.mu.Lock()
	r.stats.StoreWrites++
	r.mu.Unlock()
	if res.Profile != nil {
		putRecord(st, profileRecord, fp, res.Profile)
	}
	if res.CritPath != nil {
		putRecord(st, critPathRecord, fp, res.CritPath)
	}
}

// putRecord installs one observer record of fp, best-effort like persist.
func putRecord[T any](st *store.Store, kind, fp string, rec *T) {
	if data, err := json.Marshal(storedRecord[T]{Fingerprint: fp, Record: rec}); err == nil {
		st.Put(recordKey(kind, fp), data)
	}
}
