// Command perfbench is the repository's benchmark. It runs one named
// workload against the public faces of experiments, runner, store and
// simd, checks that every output is correct, and prints its metrics; the
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through the wrapper, which builds it
// from the checkout's sources:
//
//	bash perfbench/run.sh --workload regen --seed 1 --seconds 10 --trace 0
//
// Workloads (BENCHMARK.json records why each was chosen):
//
//   - regen: cold, full paper regenerations in process, closed loop of one.
//   - serve_warm: closed loop of NDJSON batches, one client per CPU,
//     against an in-process simd server over a pre-warmed store.
//
// With --trace 0 the metrics are the end-to-end ones. With --trace 1 the
// same workload runs again with spans recorded around every call into a
// module, plus microphases per layer; the metrics are then the per-layer
// ones, and the spans are written to .bench_build/perfbench/traces/.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many times each workload builds its environment; the
// reported setup_s is the median.
const setupReps = 3

// workDir holds everything a run writes, inside the checkout.
const workDir = ".bench_build/perfbench"

var workloadsByName = map[string]func(*bench) error{
	"regen":      runRegen,
	"serve_warm": runServeWarm,
}

// bench is one benchmark run: its settings, and the results the workload
// fills in.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	nproc    int
	tr       *tracer // nil unless --trace 1
	scratch  string  // per-run directory, removed at exit
	out      io.Writer

	attempted, failed int
	problems          []string
	e2e               map[string]float64
	layers            layerValues
}

// problem records a correctness failure: the run then reports
// "correct": false.
func (b *bench) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(b.problems) < 20 {
		fmt.Fprintln(os.Stderr, "perfbench: incorrect:", msg)
	}
	b.problems = append(b.problems, msg)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: regen or serve_warm")
		seed     = flag.Int64("seed", 1, "seed for the workload's inputs")
		seconds  = flag.Int("seconds", 10, "how long to measure")
		traced   = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	)
	flag.Parse()
	run := workloadsByName[*workload]
	if run == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload regen|serve_warm --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fail(err)
	}
	scratch, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		fail(err)
	}
	b := &bench{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		nproc:    runtime.NumCPU(),
		scratch:  scratch,
		out:      os.Stdout,
		e2e:      map[string]float64{},
		layers:   layerValues{},
	}
	if *traced == 1 {
		b.tr = newTracer()
	}
	fmt.Fprintln(b.out, hostIdentity())
	err = run(b)
	os.RemoveAll(scratch)
	if err != nil {
		fail(err)
	}
	b.e2e["peak_rss_mb"] = peakRSSMB()
	if b.tr != nil {
		b.tr.report(b.out)
		if err := os.MkdirAll(filepath.Join(workDir, "traces"), 0o755); err != nil {
			fail(err)
		}
		path := filepath.Join(workDir, "traces", fmt.Sprintf("%s-seed%d.json", b.workload, b.seed))
		if err := b.tr.dump(path); err != nil {
			fail(err)
		}
		fmt.Fprintf(b.out, "wrote spans to %s\n", path)
	}
	res := b.result()
	enc, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Fprintln(b.out, string(enc))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// result prints the human-readable metric lines and assembles the final
// JSON object: the end-to-end metrics, or under --trace 1 the per-layer
// ones.
func (b *bench) result() result {
	res := result{Correct: len(b.problems) == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metricValue{}}
	frac := 0.0
	if b.attempted > 0 {
		frac = float64(b.failed) / float64(b.attempted)
	}
	fmt.Fprintf(b.out, "%s: fail_frac %g (%d of %d operations failed); correct=%t\n",
		b.workload, frac, b.failed, b.attempted, res.Correct)
	defs, vals := endToEnd, b.e2e
	if b.tr != nil {
		defs, vals = perLayer, b.layers
	}
	for _, m := range defs {
		v, ok := vals[m.Name]
		shown := fmt.Sprintf("%14.6g %-5s", v, m.Unit)
		if !ok {
			shown = fmt.Sprintf("%14s %-5s", "not exercised", "")
		}
		if m.Moves != "" {
			shown += "  moves " + m.Moves
		}
		fmt.Fprintf(b.out, "metric %-28s %s\n", m.Name, shown)
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return res
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// hostIdentity names the host and the code a result was measured on:
// CPU count, GOMAXPROCS, Go version, the git commit when the checkout is
// a repository, and a digest of the Go sources either way.
func hostIdentity() string {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return fmt.Sprintf("host: cpus=%d gomaxprocs=%d go=%s os=%s/%s commit=%s source_sha256=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, commit, sourceDigest())
}

// sourceDigest hashes every go.mod and .go file under the working
// directory (skipping dot-directories), paths and contents, in path order.
func sourceDigest() string {
	var paths []string
	filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s\x00%d\x00", p, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
