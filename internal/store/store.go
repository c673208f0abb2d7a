// Package store is a persistent, content-addressed result store: a
// directory of immutable entries keyed by an arbitrary string key (the
// run-plane uses runner.Scenario fingerprints) plus a caller-declared
// schema version. Simulations are bit-deterministic, so an entry written
// once is valid forever — the store never invalidates; schema changes are
// handled by bumping the version, which re-addresses every key.
//
// Two properties are load-bearing:
//
//   - Atomic writes. Put stages the entry in a temp file in the target
//     directory and renames it into place, so readers only ever observe
//     absent or complete entries, never a half-written one. Concurrent
//     writers of one key, in any process, race to install equal bytes.
//
//   - Corruption-tolerant reads. Every entry carries a header with the
//     container version, schema version, payload length, and a SHA-256
//     payload digest. A truncated, tampered, zero-byte, or wrong-version
//     entry fails verification and reads as ErrCorrupt — callers treat it
//     as a miss, re-simulate, and rewrite. A damaged store degrades to a
//     cold one; it never serves wrong bytes.
//
// The store's counters (hits, misses, writes, corrupt) are process-level
// host-side accounting: non-deterministic by nature (they depend on what
// is on disk), they are exposed via Counters and as a NonDeterministic
// "store" obs scope through Snapshot, and never enter result artifacts.
package store

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"clustersoc/internal/obs"
)

// FormatVersion is the on-disk container version (the header layout).
// Bumped on incompatible container changes; entries with another version
// read as corrupt and are rewritten.
const FormatVersion = 1

// ErrMiss reports an absent entry.
var ErrMiss = errors.New("store: entry not present")

// ErrCorrupt reports an entry that exists but fails verification —
// truncated, tampered, zero-byte, or written under another version.
// Callers treat it as a miss and rewrite it.
var ErrCorrupt = errors.New("store: entry corrupt")

// Counters is a snapshot of the store's accounting.
type Counters struct {
	// Hits counts Gets that returned a verified payload.
	Hits uint64
	// Misses counts Gets that found no entry.
	Misses uint64
	// Writes counts entries installed by Put.
	Writes uint64
	// Corrupt counts entries that failed verification on Get plus
	// payload-level invalidations reported via Invalidate.
	Corrupt uint64
}

// Store is a content-addressed entry store rooted at one directory. All
// methods are safe for concurrent use from multiple goroutines and, by
// construction, multiple processes sharing the directory.
type Store struct {
	dir    string
	schema int

	hits    atomic.Uint64
	misses  atomic.Uint64
	writes  atomic.Uint64
	corrupt atomic.Uint64
}

// Open roots a store at dir (created if absent) for entries of the given
// payload schema version. The schema participates in every entry's
// address, so bumping it re-addresses the whole keyspace: old entries
// are simply never looked up again, and mixed-version processes sharing
// one directory never serve each other's payloads.
func Open(dir string, schema int) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: dir, schema: schema}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Schema returns the payload schema version the store addresses with.
func (s *Store) Schema() int { return s.schema }

// address returns the content address of key under the store's schema:
// the hex SHA-256 of (container version, schema version, key), sharded
// into a two-character subdirectory to keep directories shallow.
func (s *Store) address(key string) (shard, base string) {
	h := sha256.Sum256([]byte(fmt.Sprintf("clustersoc-store\x00v%d\x00schema%d\x00%s", FormatVersion, s.schema, key)))
	hex := fmt.Sprintf("%x", h)
	return filepath.Join(s.dir, hex[:2]), hex
}

func (s *Store) entryPath(key string) string {
	shard, base := s.address(key)
	return filepath.Join(shard, base+".entry")
}

// header renders the entry header line for a payload.
func (s *Store) header(payload []byte) string {
	return fmt.Sprintf("clustersoc-store v%d schema=%d len=%d sha256=%x\n",
		FormatVersion, s.schema, len(payload), sha256.Sum256(payload))
}

// verify splits an entry file into header and payload and checks every
// header field against the payload bytes.
func (s *Store) verify(data []byte) ([]byte, error) {
	header, payload, ok := bytes.Cut(data, []byte{'\n'})
	if !ok {
		return nil, fmt.Errorf("%w: no header", ErrCorrupt)
	}
	var version, schema, length int
	var sum string
	if n, err := fmt.Sscanf(string(header), "clustersoc-store v%d schema=%d len=%d sha256=%s",
		&version, &schema, &length, &sum); n != 4 || err != nil {
		return nil, fmt.Errorf("%w: bad header %q", ErrCorrupt, header)
	}
	if version != FormatVersion {
		return nil, fmt.Errorf("%w: container version %d (want %d)", ErrCorrupt, version, FormatVersion)
	}
	if schema != s.schema {
		return nil, fmt.Errorf("%w: schema version %d (want %d)", ErrCorrupt, schema, s.schema)
	}
	if length != len(payload) {
		return nil, fmt.Errorf("%w: payload truncated (%d of %d bytes)", ErrCorrupt, len(payload), length)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(payload)); !strings.EqualFold(got, sum) {
		return nil, fmt.Errorf("%w: payload digest mismatch", ErrCorrupt)
	}
	return payload, nil
}

// read loads and verifies an entry without touching the counters.
func (s *Store) read(key string) ([]byte, error) {
	data, err := os.ReadFile(s.entryPath(key))
	if errors.Is(err, os.ErrNotExist) {
		return nil, ErrMiss
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("%w: zero-byte entry", ErrCorrupt)
	}
	return s.verify(data)
}

// Get returns the verified payload stored under key. ErrMiss means no
// entry; ErrCorrupt means an entry exists but fails verification —
// treat it as a miss and rewrite it. Counted.
func (s *Store) Get(key string) ([]byte, error) {
	payload, err := s.read(key)
	switch {
	case err == nil:
		s.hits.Add(1)
	case errors.Is(err, ErrCorrupt):
		s.corrupt.Add(1)
	default:
		s.misses.Add(1)
	}
	return payload, err
}

// Peek is Get without counter accounting — for secondary reads that
// belong to a Get already counted, and for inspection tools, neither of
// which should skew the hit/miss statistics.
func (s *Store) Peek(key string) ([]byte, error) { return s.read(key) }

// Put atomically installs payload under key: the entry is staged in a
// temp file in the target shard and renamed into place, so concurrent
// readers observe either the old entry, the new one, or none — never a
// torn write. Re-putting a key replaces its entry.
func (s *Store) Put(key string, payload []byte) error {
	shard, _ := s.address(key)
	if err := os.MkdirAll(shard, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(shard, ".staging-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	_, err = tmp.WriteString(s.header(payload))
	if err == nil {
		_, err = tmp.Write(payload)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), s.entryPath(key))
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.writes.Add(1)
	return nil
}

// Invalidate removes key's entry and counts it corrupt. Callers use it
// when an entry read without counting (Peek) failed verification, or
// when the container verified but the payload inside failed to decode
// (a payload-level corruption the container checksum cannot see).
func (s *Store) Invalidate(key string) {
	s.corrupt.Add(1)
	os.Remove(s.entryPath(key))
}

// Counters returns a snapshot of the store's accounting.
func (s *Store) Counters() Counters {
	return Counters{
		Hits:    s.hits.Load(),
		Misses:  s.misses.Load(),
		Writes:  s.writes.Load(),
		Corrupt: s.corrupt.Load(),
	}
}

// Snapshot renders the counters as a "store"-scoped obs snapshot. The
// scope is NonDeterministic: what is on disk varies run to run, so these
// metrics are diagnostics and never enter byte-compared artifacts.
func (s *Store) Snapshot() obs.Snapshot {
	reg := obs.NewRegistry()
	sc := reg.Scope("store").NonDeterministic()
	c := s.Counters()
	sc.Counter("hit").Add(float64(c.Hits))
	sc.Counter("miss").Add(float64(c.Misses))
	sc.Counter("write").Add(float64(c.Writes))
	sc.Counter("corrupt").Add(float64(c.Corrupt))
	return reg.Snapshot()
}
