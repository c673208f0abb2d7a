package simd

import (
	"bytes"
	"encoding/json"
	"testing"

	"clustersoc/internal/cluster"
)

// FuzzResolve drives untrusted request JSON through the server's decoder
// and Resolve. Resolve may reject an input but must not panic, and a
// scenario it accepts must assemble without panicking and fingerprint
// stably. The seeds are the probes that once crashed, hung or exhausted
// a server.
func FuzzResolve(f *testing.F) {
	for _, seed := range []string{
		`{"workload":"cg"}`,
		`{"workload":"cg","cluster":{}}`,
		`{"workload":"cg","scale":-1}`,
		`{"workload":"cg","nodes":1073741824}`,
		`{"workload":"ep","system":"cavium","nodes":1073741824}`,
		`{"workload":"cg","nodes":8,"scale":0.01,"faults":{"FlapMTBF":1e-12,"FlapSeconds":1e-15}}`,
		`{"workload":"jacobi","nodes":2,"scale":0.01,"faults":{"CrashMTBF":1e-20}}`,
		`{"workload":"cg","nodes":2,"scale":0.01,"faults":{"FlapMTBF":1,"FlapSeconds":1e308}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var q Request
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&q); err != nil {
			return
		}
		sc, err := q.Resolve()
		if err != nil {
			return
		}
		cluster.New(sc.Cluster)
		if a, b := sc.Fingerprint(), sc.Fingerprint(); a != b {
			t.Fatalf("fingerprint not stable:\n%s\n%s", a, b)
		}
	})
}
